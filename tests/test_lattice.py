"""Lattice data stays exact and integral: ints wherever an entry is integral,
Fractions only for genuinely rational input, and never floats."""

from fractions import Fraction

import pytest

from homgenus.catalog import catalog_list, catalog_space
from homgenus.hirzebruch import chi_y_genus
from homgenus.rootdata import canonical_positive
from homgenus.structures import InvariantStructure, enumerate_structures, fixed_points, space_from_json
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
