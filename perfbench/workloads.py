"""Seeded op lists for the benchmark workloads, with the frozen values their
oracles check.

This module imports nothing from homgenus: an op list is plain data (dicts
of strings, numbers and lists) made only from the workload name and the
seed, so the same seed always gives the same list and the program receives
only the generated inputs.  Expected values ride inside the op so a test can
feed a wrong one and watch the failure being counted.
"""

import random

# name: (Euler number, complex dimension, summands, invariant structures,
# SU structures), in catalog order.
SPACES = {
    "S6": (2, 3, 1, 2, 2),
    "CP1": (2, 1, 1, 2, 0),
    "CP2": (3, 2, 1, 2, 0),
    "CP3": (4, 3, 1, 2, 0),
    "U3-flag": (6, 3, 3, 8, 2),
    "U4-flag": (24, 6, 6, 64, 0),
    "U5-flag": (120, 10, 10, 1024, 24),
    "G42": (6, 4, 1, 2, 0),
    "G52": (10, 6, 1, 2, 0),
    "G622": (90, 12, 3, 8, 2),
    "U4-T2xU2": (12, 5, 3, 8, 0),
    "G2-flag": (12, 6, 6, 64, 4),
    "Sp2-flag": (8, 4, 4, 16, 0),
    "HP1": (2, 2, 1, 0, 0),
    "HP2": (3, 4, 1, 0, 0),
    "CP3-sp": (4, 3, 2, 4, 0),
}

# Signature of the standard structure, or of every structure on a flag.
SIGNATURES = {
    "G42": {"standard": 2},
    "G622": {"standard": 6},
    "CP1": {"all": 0},
    "U3-flag": {"all": 0},
    "U4-flag": {"all": 0},
    "U5-flag": {"all": 0},
}

CLASSES = {
    "S6": "2*a1^3 - 6*a1*a2 + 6*a3",
    "G42": "6*a1^4 + 24*a1^2*a2 + 4*a1*a3 + 14*a2^2 - 20*a4",
}

DICT3 = {
    "a_in_b": {"1": "b1", "2": "-b1^2 + b2", "3": "2*b1^3 - 3*b1*b2 + b3"},
    "b_in_a": {"1": "a1", "2": "a1^2 + a2", "3": "a1^3 + 3*a1*a2 + a3"},
}

ODD_KERNEL = "u/(1+u^2)"
CERTIFIED = ("U3-flag", "U4-flag", "S6")
RIGIDITY = (("G42", (3, 2, 1, 0), 80), ("G42", (4, 2, 1, 0), 140))
CLASS_SPACES = ("S6", "CP2", "CP3", "U3-flag", "G42", "Sp2-flag", "CP3-sp", "G2-flag", "U4-T2xU2")
# (base, base sign, fiber sign, cutoff, compare with the product of the factors)
TWISTED = (("S6", 1, 1, 6, True),) + tuple(
    ("CP2", b, f, 3, False) for b in (1, -1) for f in (1, -1)
)

INTEGRABLE_PER_SPACE = 2
U5_TOP_S = 4
MIXED_OMEGAS = 3
ROUND_TRIPS = 3
ROUND_TRIP_WEIGHT = 6
ROUND_TRIP_TERMS = 6
DICT_DEGREES = range(3, 8)
FGL_ASSOC_DEGREE = 4


def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples, largest part first."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1) for rest in partitions(n - k, k)]


def multi_index(parts, length):
    """The exponent vector counting how often each part 1..length occurs."""
    out = [0] * length
    for k in parts:
        out[k - 1] += 1
    return out


def _signs(code, k):
    return "".join("+" if code >> i & 1 else "-" for i in range(k))


def _random_signs(rng, name):
    k = SPACES[name][2]
    return _signs(rng.randrange(2 ** k), k)


def _catalog_cold(rng):
    ops = []
    for name, (euler, dim, summands, n_structures, n_su) in SPACES.items():
        ops.append({"kind": "build", "space": name, "euler": euler, "dim": dim, "summands": summands})
        ops.append({"kind": "inventory", "space": name, "structures": n_structures, "su": n_su})
        if not n_structures:
            continue
        ops.append({"kind": "genera", "space": name, "euler": euler, "signature": SIGNATURES.get(name)})
        for code in rng.sample(range(n_structures), INTEGRABLE_PER_SPACE):
            ops.append({"kind": "integrable", "space": name, "signs": _signs(code, summands)})
        if name in CERTIFIED:
            ops.append({"kind": "certify", "space": name, "kernel": ODD_KERNEL, "verdict": "certified zero"})
        for space, point, value in RIGIDITY:
            if space == name:
                ops.append(
                    {"kind": "rigidity", "space": name, "kernel": ODD_KERNEL, "point": list(point), "value": value}
                )
    return ops


def _genus_sweep(rng):
    ops = []
    for name in CLASS_SPACES:
        if name in CLASSES:
            ops.append({"kind": "class", "space": name, "signs": "+" * SPACES[name][2], "value": CLASSES[name]})
        ops.append({"kind": "class", "space": name, "signs": _random_signs(rng, name), "value": None})
    _, _, k4, n4, _ = SPACES["U4-flag"]
    for code in range(n4):
        ops.append({"kind": "top_s", "space": "U4-flag", "signs": _signs(code, k4), "value": 0})
    _, _, k5, n5, _ = SPACES["U5-flag"]
    for code in rng.sample(range(n5), U5_TOP_S):
        ops.append({"kind": "top_s", "space": "U5-flag", "signs": _signs(code, k5), "value": 0})
    ops.append({"kind": "s_number", "space": "G42", "signs": "+", "omega": [0, 0, 0, 1], "value": -20})
    ops.append({"kind": "s_number", "space": "G52", "signs": "+", "omega": [0, 0, 0, 0, 0, 1], "value": 70})
    mixed = [p for p in partitions(6) if len(p) > 1]
    for parts in rng.sample(mixed, MIXED_OMEGAS):
        ops.append(
            {
                "kind": "s_number",
                "space": "U4-flag",
                "signs": _random_signs(rng, "U4-flag"),
                "omega": multi_index(parts, 6),
                "value": None,
            }
        )
    for base, bsign, fsign, cutoff, product in TWISTED:
        ops.append(
            {"kind": "twisted", "base": base, "bsign": bsign, "fsign": fsign, "cutoff": cutoff, "product": product}
        )
    ops.append({"kind": "hp_obstruction", "verdict": "no valid assignment"})
    return ops


def _alphabet_dict(rng):
    ops = []
    for d in DICT_DEGREES:
        ops.append({"kind": "dict_pair", "degree": d, "value": DICT3 if d == 3 else None})
    ops.append({"kind": "fgl_assoc", "degree": FGL_ASSOC_DEGREE})
    top, *rest = partitions(ROUND_TRIP_WEIGHT)
    for _ in range(ROUND_TRIPS):
        # the one-part term is always present, so every round trip asks for
        # the dictionaries at full depth and costs about the same
        chosen = [top] + rng.sample(rest, ROUND_TRIP_TERMS - 1)
        terms = []
        for parts in chosen:
            num = rng.choice([k for k in range(-9, 10) if k])
            terms.append([multi_index(parts, ROUND_TRIP_WEIGHT), "%d/%d" % (num, rng.randint(1, 5))])
        ops.append({"kind": "round_trip", "terms": terms})
    return ops


WORKLOADS = {"catalog_cold": _catalog_cold, "genus_sweep": _genus_sweep, "alphabet_dict": _alphabet_dict}


def ops_for(workload, seed):
    """The op list of `workload` for `seed`; each op gets its index as id."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops = WORKLOADS[workload](rng)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
