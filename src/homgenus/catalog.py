"""A small catalog of ready-made homogeneous spaces.

Each entry records the ambient group, the isotropy root set, a couple of
expected invariants (used by the reproduction harness), and optional stable
sign presets.
"""

from .rootdata import vec
from .structures import StableStructure, make_space


class CatalogEntry:
    def __init__(self, name, group, subgroup_roots, notes, expected=None, stable_presets=None):
        self.name = name
        self.group = group
        self.subgroup_roots = tuple(vec(r) for r in subgroup_roots)
        self.notes = notes
        self.expected = expected or {}
        self.stable_presets = stable_presets or {}
        self._space = None

    def space(self):
        if self._space is None:
            self._space = make_space(self.group, self.subgroup_roots, label=self.name)
        return self._space

    def standard_structure(self):
        sp = self.space()
        return sp.structure((1,) * len(sp.summands))

    def stable_structure(self, preset):
        table, global_sign = self.stable_presets[preset]
        base = self.standard_structure()
        return StableStructure(self.space(), base, table, global_sign, name=preset)


def _u_block_roots(n, blocks):
    """Isotropy roots for a product of unitary blocks inside U(n); block
    entries are 0-indexed coordinates, torus factors simply appear in no
    block."""
    roots = []
    for b in blocks:
        for i in b:
            for j in b:
                if i != j:
                    r = [0] * n
                    r[i], r[j] = 1, -1
                    roots.append(tuple(r))
    return roots


def _install_cp3_presets():
    """Attach the CP3 stable sign presets, with rows built from the weights.

    Every tangent weight at every fixed point of CP3 has the shape
    x_m - x_l, and the admissible sign choices attach to the coordinate
    appearing negatively: weights ending in -x_1 all share one sign (delta),
    and weights ending in -x_{l+1} share a[l].  Deriving the rows this way
    keeps them correct whatever representative the coset enumeration happened
    to pick for a fixed point (the representative permutes the slots).  Any
    other assignment breaks the residue pairing across some reflection wall,
    and the localization sum then genuinely fails to clear its denominators.
    """
    entry = _BY_NAME["CP3"]
    space = entry.space()

    def rows(a, delta):
        out = []
        for ws in space.coset_root_images:
            row = []
            for w in ws:
                neg = next(j for j, c in enumerate(w) if c < 0)
                row.append(delta if neg == 0 else a[neg - 1])
            out.append(tuple(row))
        return tuple(out)

    entry.stable_presets = {
        "cp3-standard": (rows((1, 1, 1), 1), 1),
        "cp3-e11-minus": (rows((1, 1, 1), -1), -1),
        "cp3-null": (rows((1, 1, -1), -1), 1),
    }


_ENTRIES = [
    CatalogEntry(
        "S6",
        "G2",
        [(1, -1), (2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2)],
        "six-sphere as an exceptional quotient; two fixed points; the unique "
        "invariant-structure pair is mutually conjugate and has c1 = 0",
        expected={"euler": 2, "dim": 3},
    ),
    CatalogEntry(
        "CP1",
        "U(2)",
        [],
        "projective line (the smallest full flag)",
        expected={"euler": 2, "dim": 1},
    ),
    CatalogEntry(
        "CP2",
        "U(3)",
        _u_block_roots(3, [[1, 2]]),
        "projective plane; odd fixed-point count, so no odd-genus pairing exists",
        expected={"euler": 3, "dim": 2},
    ),
    CatalogEntry(
        "CP3",
        "U(4)",
        _u_block_roots(4, [[1, 2, 3]]),
        "projective 3-space with three stable sign presets: the standard one, "
        "one with a flipped joint orbit and a global twist, and one whose "
        "signed fixed-point sum cancels outright",
        expected={"euler": 4, "dim": 3},
    ),
    CatalogEntry(
        "U3-flag",
        "U(3)",
        [],
        "full flag manifold of U(3); six fixed points, eight invariant structures",
        expected={"euler": 6, "dim": 3},
    ),
    CatalogEntry(
        "U4-flag",
        "U(4)",
        [],
        "full flag manifold of U(4)",
        expected={"euler": 24, "dim": 6},
    ),
    CatalogEntry(
        "U5-flag",
        "U(5)",
        [],
        "full flag manifold of U(5)",
        expected={"euler": 120, "dim": 10},
    ),
    CatalogEntry(
        "G42",
        "U(4)",
        _u_block_roots(4, [[0, 1], [2, 3]]),
        "Grassmannian of 2-planes in C^4",
        expected={"euler": 6, "dim": 4},
    ),
    CatalogEntry(
        "G52",
        "U(5)",
        _u_block_roots(5, [[0, 1], [2, 3, 4]]),
        "Grassmannian of 2-planes in C^5",
        expected={"euler": 10, "dim": 6},
    ),
    CatalogEntry(
        "G622",
        "U(6)",
        _u_block_roots(6, [[0, 1], [2, 3], [4, 5]]),
        "three-block flag of U(6); three cross-block summands give eight structures",
        expected={"euler": 90, "dim": 12},
    ),
    CatalogEntry(
        "U4-T2xU2",
        "U(4)",
        _u_block_roots(4, [[2, 3]]),
        "partial flag with a torus factor and one block; its first Chern form "
        "never vanishes, so the special-unitary inventory is empty",
        expected={"euler": 12, "dim": 5},
    ),
    CatalogEntry(
        "G2-flag",
        "G2",
        [],
        "full flag of the exceptional group; fibers over S6 with flag fibers",
        expected={"euler": 12, "dim": 6},
    ),
    CatalogEntry(
        "Sp2-flag",
        "Sp(2)",
        [],
        "full symplectic flag; four singleton summands, sixteen structures",
        expected={"euler": 8, "dim": 4},
    ),
    CatalogEntry(
        "HP1",
        "Sp(2)",
        [(2, 0), (-2, 0), (0, 2), (0, -2)],
        "no invariant structure (self-conjugate isotropy orbit)",
        expected={"euler": 2, "dim": 2},
    ),
    CatalogEntry(
        "HP2",
        "Sp(3)",
        [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (0, 1, -1),
         (0, -2, 0), (0, 0, -2), (0, -1, -1), (0, -1, 1)],
        "no invariant structure (obstruction); the exhaustive sign search over "
        "the four weight lines rules every assignment out",
        expected={"euler": 3, "dim": 4},
    ),
    CatalogEntry(
        "CP3-sp",
        "Sp(2)",
        [(0, 2), (0, -2)],
        "odd projective space as a symplectic quotient; base of a sphere "
        "fibration from the full symplectic flag",
        expected={"euler": 4, "dim": 3},
    ),
]

_BY_NAME = {e.name: e for e in _ENTRIES}

_install_cp3_presets()


def catalog_list():
    return [e.name for e in _ENTRIES]


def catalog_entry(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError("no catalog entry named %r; see catalog_list()" % name)


def catalog_space(name):
    return catalog_entry(name).space()
