"""The large tier: full bordism classes of the U(5) flag (n = 10) and of
the three-block flag U(6)/(U(2)^3) (n = 12), which the point route makes
cheap.  Each frozen class is checked against the signature and the Todd
genus counted from the fixed points, and all 42 U(5)-flag coefficients
against the divided-difference route."""

import pytest

from homgenus.catalog import catalog_entry
from homgenus.cobordism import tanh_series, todd_series
from homgenus.exactalg import parse_poly
from homgenus.hirzebruch import genus_of_class, signature, todd_genus
from homgenus.toricgenus import chern_dold_genus, s_number_schur_route

U5_FLAG_CLASS = (
    "120*a1^10 + 1200*a1^8*a2 - 1200*a1^7*a3 + 3000*a1^6*a2^2 - 2280*a1^6*a4 - "
    "3720*a1^5*a2*a3 + 2280*a1^5*a5 + 2040*a1^4*a2^3 - 4200*a1^4*a2*a4 + 720*a1^4*a3^2 + "
    "2520*a1^4*a6 - 1920*a1^3*a2^2*a3 + 1680*a1^3*a2*a5 + 1680*a1^3*a3*a4 - 2520*a1^3*a7 "
    "+ 440*a1^2*a2^4 - 880*a1^2*a2^2*a4 + 240*a1^2*a2*a3^2 + 840*a1^2*a2*a6 + "
    "840*a1^2*a3*a5 - 400*a1^2*a4^2 - 880*a1*a2^3*a3 + 40*a1*a2^2*a5 + 1720*a1*a2*a3*a4 - "
    "840*a1*a2*a7 - 360*a1*a3^3 - 840*a1*a3*a6 + 800*a1*a4*a5 + 440*a2^2*a3^2 - "
    "40*a2*a3*a5 - 840*a3^2*a4 + 840*a3*a7 - 400*a5^2"
)

G622_CLASS = (
    "90*a1^12 + 1800*a1^10*a2 - 180*a1^9*a3 + 11250*a1^8*a2^2 - 5760*a1^8*a4 - "
    "1260*a1^7*a2*a3 - 1188*a1^7*a5 + 27540*a1^6*a2^3 - 39420*a1^6*a2*a4 + 1008*a1^6*a3^2 "
    "+ 15120*a1^6*a6 + 5400*a1^5*a2^2*a3 - 13428*a1^5*a2*a5 - 1548*a1^5*a3*a4 + "
    "5796*a1^5*a7 + 28908*a1^4*a2^4 - 69804*a1^4*a2^2*a4 + 1836*a1^4*a2*a3^2 + "
    "48636*a1^4*a2*a6 - 1440*a1^4*a3*a5 + 13050*a1^4*a4^2 - 18900*a1^4*a8 + "
    "9396*a1^3*a2^3*a3 - 17964*a1^3*a2^2*a5 - 23256*a1^3*a2*a3*a4 + 20832*a1^3*a2*a7 - "
    "816*a1^3*a3^3 + 9240*a1^3*a3*a6 + 15864*a1^3*a4*a5 - 15624*a1^3*a9 + 12492*a1^2*a2^5 "
    "- 47076*a1^2*a2^3*a4 + 7740*a1^2*a2^2*a3^2 + 36204*a1^2*a2^2*a6 - "
    "14736*a1^2*a2*a3*a5 + 21984*a1^2*a2*a4^2 - 25704*a1^2*a2*a8 - 6804*a1^2*a3^2*a4 + "
    "6048*a1^2*a3*a7 + 2100*a1^2*a4*a6 + 7320*a1^2*a5^2 + 6972*a1*a2^4*a3 - "
    "8040*a1*a2^3*a5 - 8256*a1*a2^2*a3*a4 + 8820*a1*a2^2*a7 + 2724*a1*a2*a3^3 - "
    "4956*a1*a2*a3*a6 + 5172*a1*a2*a4*a5 - 1512*a1*a2*a9 - 2676*a1*a3^2*a5 + "
    "876*a1*a3*a4^2 + 3024*a1*a3*a8 - 7560*a1*a4*a7 + 5460*a1*a5*a6 + 1842*a2^6 - "
    "8676*a2^4*a4 - 1644*a2^3*a3^2 + 3024*a2^3*a6 + 2808*a2^2*a3*a5 + 11952*a2^2*a4^2 - "
    "5292*a2^2*a8 + 2244*a2*a3^2*a4 - 3528*a2*a3*a7 + 1260*a2*a4*a6 + 1500*a2*a5^2 + "
    "6*a3^4 + 1260*a3^2*a6 - 4152*a3*a4*a5 + 1512*a3*a9 - 7260*a4^3 + 7560*a4*a8 - "
    "4410*a6^2"
)

FROZEN = {"U5-flag": U5_FLAG_CLASS, "G622": G622_CLASS}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_class(name):
    s = catalog_entry(name).standard_structure()
    n = s.space.n
    ge = chern_dold_genus(s)
    assert ge.route == "point"
    cls = ge.bordism_class()
    assert cls.to_text() == FROZEN[name]
    assert genus_of_class(cls, tanh_series(2 * n + 1), n) == signature(s)
    assert genus_of_class(cls, todd_series(2 * n + 1), n) == todd_genus(s) == 1


def _partitions(n, most=None):
    """The partitions of n into parts of at most `most`, largest part first."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, most or n), 0, -1) for rest in _partitions(n - k, k)]


@pytest.mark.parametrize("parts", _partitions(10))
def test_u5_flag_coefficients_match_divided_differences(parts):
    s = catalog_entry("U5-flag").standard_structure()
    omega = [0] * 10
    for k in parts:
        omega[k - 1] += 1
    coeff = parse_poly(U5_FLAG_CLASS)
    for i, k in enumerate(omega):
        coeff = coeff.coefficient_of("a%d" % (i + 1), k)
    assert coeff.constant_value() == s_number_schur_route(s, omega)
