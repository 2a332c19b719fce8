"""Bordism classes, s-numbers, restricted expansions over the quaternionic base."""

import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from homgenus.catalog import catalog_entry, catalog_space
from homgenus.cobordism import basis_convert
from homgenus import toricgenus
from homgenus.exactalg import MultiPoly, Packing, PoleCancellationError, divided_difference, parse_poly
from homgenus.rootdata import InputError, canonical_positive, default_ordering
from homgenus.structures import (
    InvariantStructure,
    StableStructure,
    enumerate_structures,
    fixed_points,
    parse_signs,
    space_from_json,
)
from homgenus.toricgenus import (
    _block_partition,
    _chain,
    _down_set,
    _localized_form,
    _symbolic_form,
    _table,
    chern_dold_genus,
    hp_obstruction_search,
    localized_numerator,
    restricted_genus_hp,
    s_number,
    s_number_schur_route,
    top_s,
)
from series_reference import f_omega_reference, schur_route_reference, vandermonde
from test_lattice import SCALED


def _std(name):
    space = catalog_space(name)
    return InvariantStructure(space, (1,) * len(space.summands))


def test_projective_line():
    assert chern_dold_genus(_std("CP1")).bordism_class() == parse_poly("2*a1")
    # the conjugate has the same fixed-point data up to relabeling
    assert chern_dold_genus(_std("CP1").conjugate()).bordism_class() == parse_poly("2*a1")


def test_projective_spaces_against_b_alphabet():
    # [CP^n] = (n+1) b_n is the defining normalization of the b's
    for n in (1, 2, 3):
        cls = chern_dold_genus(_std("CP%d" % n)).bordism_class()
        want = basis_convert(parse_poly("%d*b%d" % (n + 1, n)), "b->a")
        assert cls == want


def test_top_s_of_projective_spaces():
    for n in (1, 2, 3):
        assert top_s(_std("CP%d" % n)) == n + 1


def test_six_sphere_class():
    cls = chern_dold_genus(_std("S6")).bordism_class()
    assert cls == parse_poly("2*a1^3 - 6*a1*a2 + 6*a3")
    assert top_s(_std("S6")) == 6


def test_lower_terms_vanish():
    ge = chern_dold_genus(_std("G42"))
    assert ge.lower_terms_vanish()
    assert ge.form.coefficient_of("t", 2).is_zero()


def test_form_is_free_of_coordinates():
    # after the exact division the x's must be gone
    ge = chern_dold_genus(_std("CP2"))
    assert all(not v.startswith("x") for v in ge.form.vars)


def test_low_cutoff_refuses_to_name_a_class():
    ge = chern_dold_genus(_std("CP2"), cutoff=1)
    with pytest.raises(ValueError, match="below the dimension"):
        ge.bordism_class()


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        chern_dold_genus(_std("S6"), cutoff=-1)


def test_cutoff_above_the_degree_cap_rejected():
    with pytest.raises(ValueError, match="cutoff must be <= 256"):
        chern_dold_genus(_std("S6"), cutoff=257)


def test_stable_preset_null():
    ss = catalog_entry("CP3").stable_structure("cp3-null")
    cls = chern_dold_genus(ss).bordism_class()
    assert cls.is_zero()
    for omega in ((0, 0, 1), (1, 1, 0), (3, 0, 0)):
        assert s_number(ss, omega) == 0


def test_stable_preset_e11_minus():
    ss = catalog_entry("CP3").stable_structure("cp3-e11-minus")
    cls = chern_dold_genus(ss).bordism_class()
    assert cls == parse_poly("2*a1^3 - 6*a1*a2 - 2*a3")
    assert basis_convert(cls, "a->b") == parse_poly("4*b1^3 - 2*b3")
    assert top_s(ss) == -2


def test_stable_preset_standard_matches_invariant():
    entry = catalog_entry("CP3")
    ss = entry.stable_structure("cp3-standard")
    assert chern_dold_genus(ss).bordism_class() == chern_dold_genus(_std("CP3")).bordism_class()


def _partitions(n):
    """Every omega of total weight n: omega[i] parts of size i + 1."""
    return [
        omega
        for omega in itertools.product(*(range(n // (i + 1) + 1) for i in range(n)))
        if sum((i + 1) * k for i, k in enumerate(omega)) == n
    ]


def _structure(name, signs):
    if name == "CP3" and signs.startswith("cp3-"):
        return catalog_entry(name).stable_structure(signs)
    return parse_signs(catalog_space(name), signs)


@lru_cache(maxsize=None)
def _class(name, signs):
    # read off the symbolic form, so that the point route of s_number is
    # checked against the symbolic route
    s = _structure(name, signs)
    return chern_dold_genus(s).coefficient(s.space.n)


def _oracle_cases():
    structures = []
    for name in ("CP1", "CP2", "CP3", "S6", "U3-flag", "G42", "Sp2-flag", "CP3-sp"):
        k = len(catalog_space(name).summands)
        structures += [(name, "".join(p)) for p in itertools.product("+-", repeat=k)]
    structures += [("CP3", preset) for preset in sorted(catalog_entry("CP3").stable_presets)]
    return [
        pytest.param(name, signs, omega, id="%s:%s:%s" % (name, signs, ",".join(map(str, omega))))
        for name, signs in structures
        for omega in _partitions(catalog_space(name).n)
    ]


@pytest.mark.parametrize("name,signs,omega", _oracle_cases())
def test_s_number_is_the_class_coefficient(name, signs, omega):
    # the point-route s_number against the a^omega coefficient of the
    # symbolic bordism class
    coeff = _class(name, signs)
    for i, k in enumerate(omega):
        coeff = coeff.coefficient_of("a%d" % (i + 1), k)
    assert coeff.is_constant()
    assert s_number(_structure(name, signs), omega) == coeff.constant_value()


def test_grassmannian_s_numbers():
    assert s_number(_std("G42"), (0, 0, 0, 1)) == -20
    assert s_number(_std("G52"), (0, 0, 0, 0, 0, 1)) == 70


def test_flag_mixed_s_numbers():
    j = _std("U4-flag")
    assert s_number(j, (1, 0, 0, 0, 1, 0)) == 80
    assert s_number(j, (0, 0, 2, 0, 0, 0)) == -24


def test_schur_route_agrees():
    assert s_number_schur_route(_std("G42"), (0, 0, 0, 1)) == -20
    assert s_number_schur_route(_std("CP2"), (0, 1)) == s_number(_std("CP2"), (0, 1)) == 3


def test_schur_route_refuses_a_stable_structure():
    space = catalog_space("CP2")
    table = [(1,) * space.n] * space.euler_characteristic
    s = StableStructure(space, _std("CP2"), table)
    assert s_number(s, (0, 1)) == 3
    with pytest.raises(InputError, match="needs an invariant structure"):
        s_number_schur_route(s, (0, 1))


def test_schur_route_does_not_read_the_point_route(monkeypatch):
    """The cross-check shares only the step table with the point route: with
    the certificate and the point sums gone it still gives s_4 on G42 and
    s_6 on G52."""

    def refuse(*args):
        raise AssertionError("the Schur route called the point route")

    monkeypatch.setattr(toricgenus, "certified", refuse)
    monkeypatch.setattr(toricgenus, "_point_sums", refuse)
    assert s_number_schur_route(_std("G42"), (0, 0, 0, 1)) == -20
    assert s_number_schur_route(_std("G52"), (0, 0, 0, 0, 0, 1)) == 70


def test_each_step_table_is_built_once():
    """The 64 top s-numbers of U4-flag share one step table, and the
    symbolic sum's chain is the same table with each key's weight."""
    structures = enumerate_structures(catalog_space("U4-flag"))
    assert len(structures) == 64
    _table.cache_clear()
    for s in structures:
        top_s(s)
    assert _table.cache_info().misses == 1
    for cutoff, count in ((4, 2), (6, 6), (7, 6)):
        keys, _, steps, _ = _table((cutoff,) * cutoff, cutoff, count)
        tails, chain_steps = _chain(cutoff, count)
        assert chain_steps == steps
        assert [t[:-1] for t in tails] == list(keys)
        assert [t[-1] for t in tails] == [sum(i * c for i, c in enumerate(k, 1)) for k in keys]


def _omegas(n):
    return [k for k in _down_set((n,) * n, n) if sum(i * c for i, c in enumerate(k, 1)) == n]


@pytest.mark.parametrize(
    "name", ["CP1", "CP2", "CP3", "U3-flag", "G42", "G52", "U4-flag", "U4-T2xU2"] + sorted(SCALED)
)
def test_schur_route_matches_the_reference(name):
    """The packed-int route against the MultiPoly route through the full
    divided difference, on every omega of weight n, with up to 8 structures
    per space; on the scaled spaces, whose roots are not their primitive
    lines, also against the point route."""
    space = space_from_json(SCALED[name]) if name in SCALED else catalog_space(name)
    for s in itertools.islice(enumerate_structures(space), 8):
        for omega in _omegas(space.n):
            assert s_number_schur_route(s, omega) == schur_route_reference(s, omega)
            if name in SCALED:
                assert s_number_schur_route(s, omega) == s_number(s, omega)


@pytest.mark.parametrize(
    "name, signs", [("U3-flag", None), ("G42", None), ("G52", None), ("U4-flag", None), ("U4-flag", "+-+--+")]
)
def test_schur_f_omega_matches_the_reference(name, signs):
    """The Schur route against L(f_omega * the blocks' Vandermondes) with the
    dict-copying f_omega, the MultiPoly `vandermonde` and the full
    `divided_difference`, on every omega of weight n (on U4-flag these hold
    the mixed omegas of the benchmark's genus sweep), and against the point
    route."""
    space = catalog_space(name)
    s = parse_signs(space, signs) if signs else _std(name)
    names = ["x%d" % (i + 1) for i in range(space.group.dim)]
    lam = Fraction(math.prod(s.eps))
    vander = MultiPoly.const(1)
    for b in _block_partition(space):
        vander = vander * vandermonde([names[i] for i in b])
        lam /= math.factorial(len(b))
    pairs = [canonical_positive(r) for r in s.roots]
    for omega in _omegas(space.n):
        want = divided_difference(f_omega_reference(pairs, omega) * vander, names).constant_value() * lam
        assert s_number_schur_route(s, omega) == want == s_number(s, omega)


def test_top_s_on_flags():
    # the top s-number vanishes on full flags only from U(4) up; the U(3)
    # flag still has s_3 = -6, and its SU-structures triple the sphere's 6
    assert top_s(_std("U3-flag")) == -6
    assert top_s(parse_signs(catalog_space("U3-flag"), "+-+")) == 18
    assert top_s(_std("U4-flag")) == 0


def test_omega_validation():
    cp1 = _std("CP1")
    with pytest.raises(ValueError, match="beyond the dimension"):
        s_number(cp1, (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        s_number(cp1, (-1,))


def test_localized_numerator_rejects_shared_lines():
    with pytest.raises(ValueError, match="share a line"):
        localized_numerator([(1, ((1, -1, 0), (2, -2, 0)))], default_ordering(3), 2)


def test_space_without_lines_has_the_constant_form():
    # H = G: one fixed point with no weights, so no line and no x in any term
    space = space_from_json({"group": "U(2)", "subgroup_roots": [[1, -1], [-1, 1]]})
    s = InvariantStructure(space, ())
    points = [(fp.sign, fp.weights) for fp in fixed_points(s)]
    assert points == [(1, ())]
    for cutoff in (0, 1, 2):
        assert localized_numerator(points, space.ordering, cutoff) == (MultiPoly.const(1), [])
        assert _symbolic_form(s, cutoff) == MultiPoly.const(1)


def test_cancelling_numerator_is_zero_without_a_pole():
    weights = ((1, -1, 0), (0, 1, -1))
    points = [(1, weights), (-1, weights)]
    assert localized_numerator(points, default_ordering(3), 3) == (MultiPoly.zero(), list(weights))
    assert _localized_form([(1, [0, 1]), (-1, [0, 1])], weights, default_ordering(3), 3) == MultiPoly.zero()


def test_inexact_pivot_division_is_a_pole():
    # (3*x1 - x2) / (2*x1 - x2): the pivot division 3 / 2 leaves a remainder;
    # rounding it away would leave nothing without x1 and hide the pole
    layout = Packing({"x1": 1, "x2": 1})
    x1, x2 = layout.unit["x1"], layout.unit["x2"]
    with pytest.raises(PoleCancellationError, match="uncancelled pole"):
        layout.divide([(x1, 3), (x2, -1)], "x1", 2, [(x2, -1)], toricgenus._POLE)
    assert layout.divide([(x1, 4), (x2, -2)], "x1", 2, [(x2, -1)], toricgenus._POLE) == {0: 2}


def test_restricted_sp_flag_table():
    out = restricted_genus_hp(n=2, which="sp-flag", max_index=1)
    assert out["which"] == "sp-flag"
    got = {k: v.to_text() for k, v in out["g0_table"].items()}
    assert got == {
        (0, 0): "4*a1^2",
        (0, 1): "16*a1*a3",
        (1, 0): "16*a1*a3",
        (1, 1): "64*a3^2",
    }


def test_restricted_cp_odd_coefficients():
    out = restricted_genus_hp(n=2, which="cp-odd", max_index=3)
    got = {k: v.to_text() for k, v in out["coefficients"].items()}
    assert got == {0: "4*a1", 1: "16*a3", 2: "64*a5", 3: "256*a7"}
    # the published closed form for this table is off by a factor of 4
    # against the raw fixed-point sum; the note records that discrepancy
    assert "factor of 4" in out["note"]
    assert "2^(2k+2) * a_(2k+1)" in out["note"]


def test_restricted_scope_guards():
    with pytest.raises(ValueError, match="only n = 2"):
        restricted_genus_hp(n=3)
    with pytest.raises(ValueError, match="sp-flag"):
        restricted_genus_hp(n=2, which="bogus")
    with pytest.raises(ValueError, match="max_index must be >= 0"):
        restricted_genus_hp(n=2, max_index=-1)
    # a_(2*max_index+1) past the degree cap is refused before any series is formed
    with pytest.raises(ValueError, match="above the degree cap 256"):
        restricted_genus_hp(n=2, max_index=128)
    with pytest.raises(ValueError, match="above the degree cap 256"):
        restricted_genus_hp(n=2, which="cp-odd", max_index=10**9)


def test_hp2_obstruction_search():
    res = hp_obstruction_search(n=2)
    assert res["verdict"] == "no valid assignment"
    assert res["exhaustive"]
    assert res["admissible"] == []
    rows = res["rows"]
    assert len(rows) == 16
    hist = Counter(r["first_nonvanishing_order"] for r in rows)
    assert hist == {1: 14, 3: 2}
    assert res["t1_relations"] == [
        "eps2 = -eps3",
        "eps2 = delta2",
        "eps2 = -delta3",
        "eps3 = -delta2",
        "eps3 = delta3",
        "delta2 = -delta3",
    ]
    # exactly the two sign vectors compatible with every order-1 relation
    assert res["t1_survivors"] == [
        {"eps2": 1, "eps3": -1, "delta2": 1, "delta3": -1},
        {"eps2": -1, "eps3": 1, "delta2": -1, "delta3": 1},
    ]


# (eps2, eps3, delta2, delta3, first nonvanishing order, witness) per row
HP2_ROWS = [
    (1, 1, 1, 1, 1, 8),
    (1, 1, 1, -1, 1, -6),
    (1, 1, -1, 1, 1, 2),
    (1, 1, -1, -1, 1, -4),
    (1, -1, 1, 1, 1, -2),
    (1, -1, 1, -1, 3, -28),
    (1, -1, -1, 1, 1, -8),
    (1, -1, -1, -1, 1, 10),
    (-1, 1, 1, 1, 1, -10),
    (-1, 1, 1, -1, 1, 8),
    (-1, 1, -1, 1, 3, 28),
    (-1, 1, -1, -1, 1, 2),
    (-1, -1, 1, 1, 1, 4),
    (-1, -1, 1, -1, 1, -2),
    (-1, -1, -1, 1, 1, 6),
    (-1, -1, -1, -1, 1, -8),
]


def test_hp2_obstruction_report_is_frozen():
    res = hp_obstruction_search(n=2)
    got = [
        tuple(r["assignment"][k] for k in ("eps2", "eps3", "delta2", "delta3"))
        + (r["first_nonvanishing_order"], r["witness"])
        for r in res["rows"]
    ]
    assert got == HP2_ROWS
    assert all(type(r["witness"]) is Fraction for r in res["rows"])
    # the whole report, relations and survivors included
    text = json.dumps(res, sort_keys=True, default=str)
    assert hashlib.sha1(text.encode()).hexdigest() == "44ae4af76f1eb2b5c39c8e699038b0a903909d0b"
