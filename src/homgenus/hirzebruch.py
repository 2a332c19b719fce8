"""Hirzebruch-type genera and rigidity checks from fixed-point data.

Everything here stays exact: the chi_y polynomial comes from counting
negative isotropy weights at each fixed point, rigidity evaluations plug
rational sample points into rational genus kernels, and the odd-genus
certificate pairs the fixed points inside the sets of lines their weights
lie on: combinatorics on the signed-root table, not numerics.
"""

import math
import random
from fractions import Fraction
from operator import mul

from .cobordism import evaluate_class, specialize_genus, tanh_series, todd_series
from .exactalg import MultiPoly, RationalFn, TruncatedSeries, var_weight
from .rootdata import InputError, dot
from .structures import index_counts, signed_root_table
from .toricgenus import chern_dold_genus


def _chi_y_of_counts(counts):
    terms = {(ind,): Fraction(-c if ind % 2 else c) for ind, c in enumerate(counts) if c}
    return MultiPoly._from_clean(("y",), terms)


def chi_y_genus(structure, ordering=None):
    """The chi_y polynomial: sum over fixed points of sign(p) (-y)^{ind(p)}.

    For the space's own ordering the space keeps one polynomial per index
    count vector, shared by every structure with those counts; like every
    MultiPoly it must not be changed, since it memoizes its text and its
    integer form, so each is built once per count vector.  The value does
    not depend on the choice of generic ordering; another ordering is
    counted afresh (`structures.index_counts`).
    """
    if ordering is not None:
        return _chi_y_of_counts(index_counts(structure, ordering))
    counts = structure.index_counts
    shared = structure.space._chi_y_polys
    chi = shared.get(counts)
    if chi is None:
        chi = shared[counts] = _chi_y_of_counts(counts)
    return chi


def _chi_y_at(structure, y):
    """chi_y evaluated at the integer y, an integer, worked out once per
    (index counts, y) on the structure's space."""
    counts = structure.index_counts
    memo = structure.space._chi_y_values
    value = memo.get((counts, y))
    if value is None:
        value = memo[counts, y] = sum(c * (-y) ** ind for ind, c in enumerate(counts))
    return value


def signature(structure):
    """chi_y at y = 1."""
    return _chi_y_at(structure, 1)


def todd_genus(structure):
    """chi_y at y = 0 (equals the Todd evaluation of the bordism class)."""
    return _chi_y_at(structure, 0)


def euler_number(structure):
    """chi_y at y = -1: just the number of fixed points, signed."""
    return _chi_y_at(structure, -1)


def _class_degree(cls):
    """The largest weight sum_i i * k_i of a term a^k of the class."""
    w = [var_weight(v) if v[0] == "a" else 0 for v in cls.vars]
    return max((sum(map(mul, e, w)) for e in cls.terms), default=0)


def _degree(cls, degree):
    """The class's degree, or an explicit degree, refused below it: the table
    would stop short and every a_i past it would read as 0."""
    least = _class_degree(cls)
    if degree is None:
        return least
    if degree < least:
        raise InputError("degree %d is below the degree %d of the class" % (degree, least))
    return degree


def genus_of_class(cls, genus_data, degree=None):
    """Evaluate a bordism class (polynomial in the a's) against a genus.

    genus_data may be a RationalFn or TruncatedSeries (specialized here), or
    an already-built {index: value} table.
    """
    degree = _degree(cls, degree)
    if isinstance(genus_data, dict):
        table = genus_data
    else:
        table = specialize_genus(genus_data, degree) if degree else {}
    return evaluate_class(cls, table)


def todd_of_class(cls, degree=None):
    degree = _degree(cls, degree)
    return genus_of_class(cls, todd_series(2 * degree + 1), degree)


def signature_of_class(cls, degree=None):
    degree = _degree(cls, degree)
    return genus_of_class(cls, tanh_series(2 * degree + 1), degree)


# ---------------------------------------------------------------------------
# rigidity functionals


def _genus_variable(f):
    vs = [v for v in f.num.vars] + [v for v in f.den.vars]
    vs = sorted(set(vs))
    if len(vs) > 1:
        raise InputError("genus kernel must be a function of a single variable")
    return vs[0] if vs else "u"


def rigidity_eval(structure, f, point):
    """Exact value of the localized genus sum at a rational sample point.

    f is a RationalFn in one variable with f(z)/z invertible at 0; the sum
    sum_p sign(p) / prod_j f(<Lambda_j(p), point>) is a single Fraction.
    The points are the structure's `signed_root_table`, so no weight vector
    is built and each kernel value is worked out once per root id; a weight
    that pairs to zero with the point, or meets a zero (ValueError) or a
    pole (ZeroDivisionError) of the kernel, raises an error naming it, and
    a point with other than one coordinate per torus variable an InputError.
    Each point's product is an int numerator and denominator, and the sum
    one Fraction over their lcm.
    """
    if not isinstance(f, RationalFn):
        raise TypeError("rigidity_eval needs an exact rational genus kernel")
    var = _genus_variable(f)
    point = tuple(Fraction(c) for c in point)
    dim = structure.space.group.dim
    if len(point) != dim:
        raise InputError("the sample point needs %d coordinates, got %d" % (dim, len(point)))
    roots = structure.space.group.roots
    # a sum meets each of the at most |roots| weights many times
    kernel = {}
    terms = []
    for sign, ids in signed_root_table(structure):
        num = den = 1
        for r in ids:
            val = kernel.get(r)
            if val is None:
                w = roots[r]
                arg = dot(w, point)
                if arg == 0:
                    raise ValueError("weight %s pairs to zero with the sample point" % (w,))
                try:
                    value = f.evaluate({var: arg})
                except ZeroDivisionError:
                    raise ZeroDivisionError("genus kernel has a pole at weight %s" % (w,)) from None
                if value == 0:
                    raise ValueError("genus kernel vanishes at weight %s" % (w,))
                val = kernel[r] = (value.numerator, value.denominator)
            num *= val[0]
            den *= val[1]
        terms.append((sign * den, num))  # sign / (num / den)
    common = math.lcm(*(num for _, num in terms))
    return Fraction(sum(top * (common // num) for top, num in terms), common)


def _sample_point(dim, rng):
    return tuple(Fraction(rng.randint(-19, 19), rng.randint(1, 7)) for _ in range(dim))


SAMPLE_TRIES = 200
# every sample row is kept and costs up to milliseconds per structure, so
# `structure_independence` refuses more points than this before drawing any
MAX_SAMPLES = 1000


def _sample(structures, f, rng):
    """(point, [rigidity_eval(s, f, point) for s in structures]) at the first
    drawn point where every sum is defined.  A point where a weight pairs to
    zero or meets a zero or pole of the kernel is drawn again, up to
    SAMPLE_TRIES points; a kernel in two variables (InputError) or one that
    is not a rational function (TypeError) raises at once."""
    dim = structures[0].space.group.dim
    for _ in range(SAMPLE_TRIES):
        pt = _sample_point(dim, rng)
        try:
            return pt, [rigidity_eval(s, f, pt) for s in structures]
        except InputError:
            raise
        except (ValueError, ZeroDivisionError):
            continue
    raise RuntimeError("could not find an admissible sample point")


def structure_independence(structures, f, samples=5, seed=0):
    """Evaluate the same rigid functional on several structures at shared
    sample points; returns the table and whether every row came out equal.

    All structures must live on the same space object, and samples must be
    between 1 and MAX_SAMPLES (InputError otherwise); each sample point is
    one where every structure's sum is defined (`_sample`)."""
    rng = random.Random(seed)
    if not structures:
        raise InputError("need at least one structure")
    if any(s.space is not structures[0].space for s in structures):
        raise InputError("structure independence compares structures on one space")
    if not 1 <= samples <= MAX_SAMPLES:
        raise InputError("need at least one sample point and at most %d, got %d" % (MAX_SAMPLES, samples))
    drawn = [_sample(structures, f, rng) for _ in range(samples)]
    values = [row for _, row in drawn]
    independent = all(len(set(row)) == 1 for row in values)
    return {"points": [pt for pt, _ in drawn], "values": values, "independent": independent}


# ---------------------------------------------------------------------------
# odd-genus certificates


def _line_set_pairs(table, negation):
    """Pair the rows of `table` inside their line sets, or None.

    An odd kernel's term sign / prod f(w) changes sign with each weight
    negated, so the rows whose root ids lie on one set of lines contribute
    tau = sign (-1)^c times one shared term, c counting the ids r with
    r > negation[r]: not their line's canonical id.  Each line set's k-th
    row with tau = +1 is paired with its k-th row with tau = -1, and `flips`
    counts the lines on which the two rows' ids differ.  None when a line set
    holds more rows of one tau than of the other.
    """
    groups = {}
    for i, (sign, ids) in enumerate(table):
        tau = sign * (-1) ** sum(r > negation[r] for r in ids)
        lines = frozenset(min(r, negation[r]) for r in ids)
        groups.setdefault(lines, {1: [], -1: []})[tau].append(i)
    if any(len(g[1]) != len(g[-1]) for g in groups.values()):
        return None
    pairs = sorted(tuple(sorted(p)) for g in groups.values() for p in zip(g[1], g[-1]))
    return [{"pair": (i, j), "flips": len(set(table[i][1]) - set(table[j][1]))} for i, j in pairs]


def _is_odd(f):
    """Whether the kernel is odd: f(-u) = -f(u) for a rational function, and
    only odd powers of one variable for a truncated series."""
    if isinstance(f, RationalFn):
        return f.is_odd(_genus_variable(f))
    body = f.body.restrict_vars()
    return len(body.vars) <= 1 and all(sum(e) % 2 for e in body.terms)


def certify_odd_rigidity(structure, f=None, seed=0):
    """Try to certify that every odd genus kills this structure's sum.

    Groups the fixed points by the set of lines their isotropy weights lie
    on: an odd kernel gives every point of one group the same term up to the
    sign tau of `_line_set_pairs`, so equal numbers of tau = +1 and tau = -1
    in every group certify the vanishing for every odd kernel at once.  The
    certificate pairs the points inside their groups.  The test reads the
    signed-root table only, so it costs points x weights and needs no Weyl
    group.  With an exact odd rational kernel we also spot-check at three
    sample points; with a truncated odd series we can only report
    consistency to the cutoff.  A kernel that is not odd is refused
    (InputError).
    """
    space = structure.space
    table = signed_root_table(structure)
    result = {"verdict": None, "certificate": None, "samples": []}
    if f is not None and not _is_odd(f):
        raise InputError("the kernel is not odd; this certificate does not apply")
    if len(table) % 2 == 1:
        result["verdict"] = "not covered: odd number of fixed points"
    else:
        pairs = _line_set_pairs(table, space.group.negation)
        if pairs is not None:
            result["verdict"] = "certified zero"
            result["certificate"] = {"pairs": pairs}
        else:
            result["verdict"] = "not covered: no fixed-point pairing found"
    if isinstance(f, RationalFn):
        rng = random.Random(seed)
        for _ in range(3):
            pt, (value,) = _sample([structure], f, rng)
            result["samples"].append((pt, value))
        if result["verdict"] == "certified zero":
            for pt, v in result["samples"]:
                if v != 0:
                    raise ArithmeticError(
                        "certified zero, but the sum at the sample point %s is %s" % (tuple(map(str, pt)), v)
                    )
    elif isinstance(f, TruncatedSeries):
        cls = chern_dold_genus(structure).bordism_class()
        val = genus_of_class(cls, f, space.n)
        result["samples"].append(("class evaluation", val))
        if result["verdict"] == "certified zero":
            result["verdict"] = "consistent to cutoff" if val == 0 else "inconsistent"
    return result
