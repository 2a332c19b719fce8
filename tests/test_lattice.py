"""Lattice data stays exact and integral: ints wherever an entry is integral,
Fractions only for genuinely rational input, and never floats."""

from fractions import Fraction

import pytest

from homgenus.catalog import catalog_list, catalog_space
from homgenus.hirzebruch import chi_y_genus
from homgenus.rootdata import canonical_positive
from homgenus.structures import InvariantStructure, enumerate_structures, fixed_points, make_space, space_from_json
from homgenus.toricgenus import _symbolic_form, chern_dold_genus, s_number
from series_reference import divide_lines_reference, localized_numerator_reference


def _is_exact(x):
    """An int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _u3_scaled(factor):
    """The U(3) root system as a JSON group, every root multiplied by factor."""
    roots = []
    for i in range(3):
        for j in range(3):
            if i != j:
                r = [0] * 3
                r[i], r[j] = 1, -1
                roots.append([str(c * factor) for c in r])
    return {"group": {"label": "U(3)*%s" % factor, "dim": 3, "roots": roots}, "subgroup_roots": []}


SCALED = {"U(3)/2": _u3_scaled(Fraction(1, 2)), "2U(3)": _u3_scaled(2)}


def _space(name):
    return catalog_space(name) if name in catalog_list() else space_from_json(SCALED[name])


def _structures(space):
    """The standard structure and its conjugate, when the space has any."""
    if any(sm.self_conjugate for sm in space.summands):
        return []
    std = InvariantStructure(space, (1,) * len(space.summands))
    return [std, std.conjugate()]


@pytest.mark.parametrize("name", catalog_list() + sorted(SCALED))
def test_lattice_entries_are_exact(name):
    space = _space(name)
    vectors = list(space.group.roots) + list(space.subgroup.roots) + [space.ordering.v]
    vectors += list(space.comp_roots)
    vectors += [img for row in space.coset_root_images for img in row]
    for r in space.group.roots:
        line, scale = canonical_positive(r, space.ordering)
        vectors.append(line)
        assert _is_exact(scale)
        assert all(type(c) is int for c in line)
    for s in _structures(space):
        vectors += list(s.roots)
        vectors += [w for fp in fixed_points(s) for w in fp.weights]
    for v in vectors:
        assert all(_is_exact(c) for c in v), v
    # lines are integral for every root system; the images are roots, so
    # they are integral wherever the roots are
    integral = list(space.comp_roots)
    if all(type(c) is int for r in space.group.roots for c in r):
        integral += [img for row in space.coset_root_images for img in row]
    assert all(type(c) is int for v in integral for c in v)


@pytest.mark.parametrize("name", sorted(SCALED))
def test_scaled_root_system_gives_the_u3_flag_invariants(name):
    space = _space(name)
    ref = catalog_space("U3-flag")
    assert space.comp_roots == ref.comp_roots
    std = InvariantStructure(space, (1,) * len(space.summands))
    assert chern_dold_genus(std).bordism_class().to_text() == "6*a1^3 + 6*a1*a2 - 6*a3"
    assert s_number(std, (0, 0, 1)) == -6
    for signs in ((1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)):
        assert chi_y_genus(InvariantStructure(space, signs)) == chi_y_genus(InvariantStructure(ref, signs))


@pytest.mark.parametrize("name", sorted(SCALED))
def test_scaled_symbolic_forms_match_the_fraction_engine(name):
    # a rational scale p/q is cleared per f-factor as p^i q^(cutoff-i) over q^cutoff
    space = _space(name)
    for s in enumerate_structures(space):
        points = [(fp.sign, fp.weights) for fp in fixed_points(s)]
        for cutoff in (space.n, space.n + 1):
            want = divide_lines_reference(*localized_numerator_reference(points, space.ordering, cutoff))
            assert _symbolic_form(s, cutoff) == want


def _in_coordinates(group, a, subgroup_roots):
    """A rank-2 group and subgroup as a JSON space in new root coordinates:
    each root r becomes A r, and the Gram matrix G (the identity when the
    group has none) becomes A^-T G A^-1, so every pairing is unchanged."""
    (p, q), (r, s) = a
    det = p * s - q * r
    inv = ((s / det, -q / det), (-r / det, p / det))
    gram = group.gram or ((1, 0), (0, 1))
    moved_gram = [
        [sum(inv[k][i] * gram[k][l] * inv[l][j] for k in range(2) for l in range(2)) for j in range(2)]
        for i in range(2)
    ]

    def move(v):
        return [str(a[i][0] * v[0] + a[i][1] * v[1]) for i in range(2)]

    return {
        "group": {
            "label": group.label + "'",
            "dim": 2,
            "roots": [move(r) for r in group.roots],
            "gram": [[str(c) for c in row] for row in moved_gram],
        },
        "subgroup_roots": [move(r) for r in subgroup_roots],
    }


@pytest.mark.parametrize(
    "group, subgroup_roots", [("Sp(2)", ()), ("Sp(2)", ((2, 0),)), ("G2", ())], ids=["Sp2/T", "Sp2/2e1", "G2/T"]
)
def test_classes_do_not_depend_on_the_root_coordinates(group, subgroup_roots):
    """A non-uniform rational change of root coordinates leaves the space,
    so the multiset of its invariant structures' classes, as it was; the
    moved roots are rational, so the certificate and the point route run on
    rational scales."""
    space = make_space(group, subgroup_roots)
    change = ((Fraction(1), Fraction(1, 2)), (Fraction(-1, 3), Fraction(2)))
    moved = space_from_json(_in_coordinates(space.group, change, space.subgroup.roots))
    assert any(type(c) is Fraction for r in moved.group.roots for c in r)
    assert (moved.n, len(moved.cosets)) == (space.n, len(space.cosets))
    assert moved.residues_cancel

    def classes(sp):
        return sorted(chern_dold_genus(s).bordism_class().to_text() for s in enumerate_structures(sp))

    assert classes(moved) == classes(space)
