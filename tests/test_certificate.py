"""The residue-pairing certificate and the point route it licenses.

Soundness: a certified input has a pole-free sum, so the symbolic route
must succeed on it with the same class and s-numbers; an input on which the
symbolic route raises must not be certified; an uncertified input takes the
symbolic route and raises what it raises."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import homgenus.toricgenus
from homgenus.catalog import catalog_entry, catalog_list, catalog_space
from homgenus.rootdata import build_group
from homgenus.structures import InvariantStructure, StableStructure, enumerate_structures, space_from_json
from homgenus.toricgenus import (
    GenusExpansion,
    _point_class,
    _symbolic_form,
    certified,
    chern_dold_genus,
    s_number,
)
from test_lattice import SCALED
from test_structures import closed_json_docs


def _omegas(n):
    return [
        omega
        for omega in itertools.product(*(range(n // (i + 1) + 1) for i in range(n)))
        if sum((i + 1) * k for i, k in enumerate(omega)) == n
    ]


def _outcome(fn, *args):
    """fn(*args), or the type of the ArithmeticError it raises."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def _symbolic_class(s):
    ge = GenusExpansion(s, s.space.n, _symbolic_form(s, s.space.n))
    return ge.lower_terms_vanish(), ge.bordism_class()


def _s_symbolic(cls, omega):
    """The a^omega coefficient of a class, as an integer."""
    for i, k in enumerate(omega, 1):
        cls = cls.coefficient_of("a%d" % i, k)
    value = cls.constant_value()
    if value.denominator != 1:
        raise ArithmeticError("not an integer")
    return int(value)


def _s_outcomes(s, symbolic, omegas):
    """For each omega, s_number's outcome and the one the symbolic class
    (or the error it raised) gives."""
    for omega in omegas:
        want = symbolic if isinstance(symbolic, type) else _outcome(_s_symbolic, symbolic[1], omega)
        yield _outcome(s_number, s, omega), want


def check_sound(s, omegas=None):
    n = s.space.n
    cert = certified(s)
    symbolic = _outcome(_symbolic_class, s)
    ge = _outcome(chern_dold_genus, s)
    if isinstance(symbolic, type):
        # the symbolic route raised: no certificate, and the same error
        assert not cert
        assert (ge if isinstance(ge, type) else _outcome(ge.bordism_class)) is symbolic
    else:
        low, cls = symbolic
        if cert:
            assert low
        assert ge.route == ("point" if cert else "symbolic")
        assert ge.lower_terms_vanish() == low
        assert ge.bordism_class() == cls
    for got, want in _s_outcomes(s, symbolic, _omegas(n) if omegas is None else omegas):
        if cert:
            assert not isinstance(want, type)
        assert got == want


def test_every_catalog_invariant_structure_is_certified():
    for name in catalog_list():
        space = catalog_space(name)
        if enumerate_structures(space):
            assert space.residues_cancel, name


@pytest.mark.parametrize(
    "name", ["S6", "CP1", "CP2", "CP3", "U3-flag", "G42", "U4-T2xU2", "Sp2-flag", "CP3-sp", "G52", "U4-flag", "G2-flag"]
)
def test_catalog_structures_are_sound(name):
    structures = enumerate_structures(catalog_space(name))
    # a full symbolic class on an n=6 space takes a good part of a second
    cap = 1 if catalog_space(name).n > 5 else 4
    for s in random.Random(name).sample(structures, min(cap, len(structures))):
        check_sound(s, _omegas(s.space.n)[:3])


def _cutoff_n_cases():
    """(id, structure) for up to 8 certified structures per catalog space
    with n <= 6, the CP3 presets and the scaled U(3) JSON spaces (rational
    root entries)."""
    cases = []
    for name in catalog_list():
        space = catalog_space(name)
        if space.n <= 6:
            structures = [s for s in enumerate_structures(space) if certified(s)]
            sample = random.Random(name).sample(structures, min(8, len(structures)))
            cases += [("%s:%s" % (name, s.to_signs()), s) for s in sample]
    entry = catalog_entry("CP3")
    cases += [("CP3:%s" % p, entry.stable_structure(p)) for p in sorted(entry.stable_presets)]
    for name, doc in sorted(SCALED.items()):
        cases += [("%s:%s" % (name, s.to_signs()), s) for s in enumerate_structures(space_from_json(doc))]
    return cases


CUTOFF_N_CASES = _cutoff_n_cases()


@pytest.mark.parametrize("s", [s for _, s in CUTOFF_N_CASES], ids=[i for i, _ in CUTOFF_N_CASES])
def test_cutoff_n_form_is_the_symbolic_form(s):
    n = s.space.n
    ge = chern_dold_genus(s)
    assert ge.route == ge.form_route == "point"
    want = _symbolic_form(s, n)
    assert ge.form == want
    # past t^n the form is symbolic again and agrees with the point form
    # below; on an n = 6 space that costs up to a second, so once per space
    first = next(t for _, t in CUTOFF_N_CASES if t.space is s.space)
    if n <= 5 or s is first:
        above = chern_dold_genus(s, n + 1)
        assert above.route == "point" and above.form_route == "symbolic"
        assert above.form.truncate_var("t", n) == want


@pytest.mark.parametrize("preset", sorted(catalog_entry("CP3").stable_presets))
def test_cp3_presets_are_sound(preset):
    s = catalog_entry("CP3").stable_structure(preset)
    assert certified(s)
    check_sound(s)


@pytest.mark.parametrize("name", ["CP2", "S6"])
def test_certificate_is_exact_on_every_small_table(name):
    # each of the 64 sign tables: certified exactly when the symbolic route
    # goes through, since these small sums leave no other way to cancel; and
    # every s-number is the class's coefficient, or raises what the class raises
    space = catalog_space(name)
    base = InvariantStructure(space, (1,) * len(space.summands))
    rows, n = len(space.cosets), space.n
    certified_count = 0
    for bits in itertools.product((1, -1), repeat=rows * n):
        s = StableStructure(space, base, [bits[i * n : (i + 1) * n] for i in range(rows)])
        cert = certified(s)
        certified_count += cert
        symbolic = _outcome(_symbolic_class, s)
        assert cert == (not isinstance(symbolic, type))
        for got, want in _s_outcomes(s, symbolic, _omegas(n)):
            assert got == want
    assert certified_count == {"CP2": 8, "S6": 10}[name]


def test_uncovered_table_builds_its_class_once(monkeypatch):
    # the standard structure's table with one sign flipped: no certificate,
    # and a class that raises, so every s-number raises the same error type
    space = catalog_space("U4-T2xU2")
    base = InvariantStructure(space, (1,) * len(space.summands))
    table = [[1] * space.n for _ in range(len(space.cosets))]
    table[6][0] = -1
    s, fresh = (StableStructure(space, base, table) for _ in range(2))
    assert not certified(s)
    want = _outcome(lambda: chern_dold_genus(fresh).bordism_class())
    calls = []
    packed_sum = homgenus.toricgenus._packed_sum
    monkeypatch.setattr(homgenus.toricgenus, "_packed_sum", lambda *a: calls.append(1) or packed_sum(*a))
    omegas = _omegas(space.n)
    assert len(omegas) == 7
    assert [_outcome(s_number, s, omega) for omega in omegas] == [want] * 7
    assert len(calls) == 1


@st.composite
def stable_tables(draw, names=("CP3", "U3-flag")):
    """A stable sign table: another invariant structure's signs relative to
    the standard one (certified), a few entries of it flipped (usually not),
    or a table drawn at random."""
    space = catalog_space(draw(st.sampled_from(names)))
    base = InvariantStructure(space, (1,) * len(space.summands))
    rows, n = len(space.cosets), space.n
    if draw(st.booleans()):
        other = draw(st.sampled_from(enumerate_structures(space)))
        table = [[a * b for a, b in zip(other.eps, base.eps)] for _ in range(rows)]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, n - 1))
            table[i][j] = -table[i][j]
    else:
        table = [draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)) for _ in range(rows)]
    return StableStructure(space, base, table, draw(st.sampled_from((1, -1))))


@settings(max_examples=40, deadline=None)
@given(stable_tables())
def test_stable_tables_are_sound(s):
    check_sound(s)


@st.composite
def scaled_json_spaces(draw):
    """A random closed JSON space G/H (`closed_json_docs`) with every root
    of G and H multiplied by a rational, and 1 <= n <= 4."""
    doc = draw(closed_json_docs(groups=("U(2)", "U(3)", "U(4)", "Sp(2)", "G2")))
    factor = draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), 3, -1)))
    group = build_group(doc["group"])

    def scale(r):
        return [str(factor * c) for c in r]

    scaled = {"label": "%s*%s" % (group.label, factor), "dim": group.dim, "roots": [scale(r) for r in group.roots]}
    if group.gram is not None:
        scaled["gram"] = [list(row) for row in group.gram]
    space = space_from_json({"group": scaled, "subgroup_roots": [scale(r) for r in doc["subgroup_roots"]]})
    assume(1 <= space.n <= 4)
    return space


@settings(max_examples=40, deadline=None)
@given(scaled_json_spaces(), st.data())
def test_point_route_matches_the_symbolic_form_on_scaled_json_spaces(space, data):
    structures = enumerate_structures(space)
    assume(structures)
    s = data.draw(st.sampled_from(structures))
    assert certified(s)
    n = space.n
    want = _symbolic_form(s, n).coefficient_of("t", n).restrict_vars()
    assert _point_class(s) == want
    for omega in _omegas(n):
        assert s_number(s, omega) == _s_symbolic(want, omega)
