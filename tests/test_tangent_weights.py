"""The tangent weight of a fixed point is the root its representative
makes, not that root's primitive line: long roots of Sp(n) enter at full
size.  Checked by c1^n on compact Hermitian symmetric spaces, where it is
(Fano index)^n times the degree."""

import math
from fractions import Fraction

import pytest

from homgenus.catalog import catalog_space
from homgenus.structures import make_space, signed_root_table
from homgenus.toricgenus import chern_dold_genus


def _c1_power(structure):
    """c1^n by localization at the ordering's functional: the sum over the
    fixed points of sign * (sum of the weights)^n / (product of the weights)."""
    space = structure.space
    total = Fraction(0)
    for sign, ids in signed_root_table(structure):
        values = [space.root_values[r] for r in ids]
        total += sign * Fraction(sum(values) ** space.n, math.prod(values))
    return total


def _space(name):
    if name == "Sp(3)/(U(1)xSp(2))":
        return make_space("Sp(3)", [(0, 2, 0), (0, 0, 2), (0, 1, 1), (0, 1, -1)], label=name)
    if name == "Sp(3)/U(3)":
        return make_space("Sp(3)", [(1, -1, 0), (1, 0, -1), (0, 1, -1)], label=name)
    return catalog_space(name)


# name: (Fano index, degree); CP3-sp and Sp(3)/(U(1)xSp(2)) are CP^3 and CP^5,
# G42 and G52 the Grassmannians, Sp(3)/U(3) the Lagrangian Grassmannian LG(3,6)
HERMITIAN = {
    "CP3": (4, 1),
    "CP3-sp": (4, 1),
    "Sp(3)/(U(1)xSp(2))": (6, 1),
    "G42": (4, 2),
    "G52": (5, 5),
    "Sp(3)/U(3)": (4, 16),
}


@pytest.mark.parametrize("name", sorted(HERMITIAN))
def test_c1_power_is_index_power_times_degree(name):
    space = _space(name)
    index, degree = HERMITIAN[name]
    std = space.structure((1,) * len(space.summands))
    assert _c1_power(std) == index**space.n * degree


def test_cp3_sp_has_the_class_of_cp3():
    cp3, cp3_sp = catalog_space("CP3"), catalog_space("CP3-sp")
    for signs, sp_signs in (((1,), (1, 1)), ((-1,), (-1, -1))):
        want = chern_dold_genus(cp3.structure(signs)).bordism_class()
        assert chern_dold_genus(cp3_sp.structure(sp_signs)).bordism_class() == want
        assert want.to_text() == "4*a1^3 + 12*a1*a2 + 4*a3"
    # the other two structures have c1^3 = c1 c2 = 0: s_(3) = c1^3 - 3 c1 c2 + 3 c3
    nearly_kaehler = chern_dold_genus(cp3_sp.structure((1, -1))).bordism_class()
    assert nearly_kaehler.to_text() == "4*a1^3 - 12*a1*a2 + 12*a3"
    assert _c1_power(cp3_sp.structure((1, -1))) == 0
