"""chi_y, signature, Todd genus, rigidity functionals."""

import hashlib
import random
from fractions import Fraction
from functools import cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import homgenus.hirzebruch
from homgenus.catalog import catalog_entry, catalog_list, catalog_space
from homgenus.cobordism import tanh_series, todd_series
from homgenus.exactalg import TruncatedSeries, parse_poly, parse_rational
from homgenus.hirzebruch import (
    MAX_SAMPLES,
    _line_set_pairs,
    _sample,
    _sample_point,
    certify_odd_rigidity,
    chi_y_genus,
    euler_number,
    genus_of_class,
    rigidity_eval,
    signature,
    signature_of_class,
    structure_independence,
    todd_genus,
    todd_of_class,
)
from homgenus.rootdata import InputError, Ordering
from homgenus.structures import (
    HomogeneousSpace,
    InvariantStructure,
    enumerate_structures,
    make_space,
    parse_signs,
    signed_root_table,
)
from homgenus.toricgenus import chern_dold_genus
from rootdata_reference import pairing_walk_reference
from series_reference import admissible_point_reference, rigidity_eval_reference


def _fresh_space(name):
    entry = catalog_entry(name)
    return make_space(entry.group, entry.subgroup_roots, label=name)


@pytest.mark.parametrize("memo_first", [True, False], ids=["memo-first", "poly-first"])
@pytest.mark.parametrize("name", catalog_list())
def test_genus_values_match_the_direct_sums(name, memo_first):
    """signature, Todd and Euler (one value per count vector and y) and the
    shared chi_y polynomial (its integer form kept) give the direct sum over
    the index counts, whichever is read first on a fresh space."""
    space = _fresh_space(name)
    for s in enumerate_structures(space):
        want = tuple(sum(c * (-y) ** i for i, c in enumerate(s.index_counts)) for y in (1, 0, -1))
        chi = chi_y_genus(s)

        def memo():
            return signature(s), todd_genus(s), euler_number(s)

        def poly():
            return tuple(chi.evaluate({"y": y}) for y in (1, 0, -1))

        for read in (memo, poly) if memo_first else (poly, memo):
            assert read() == want
    assert len(space._chi_y_values) == 3 * len(space._chi_y_polys)


def _std(name):
    space = catalog_space(name)
    return InvariantStructure(space, (1,) * len(space.summands))


def test_chi_y_projective_space():
    assert chi_y_genus(_std("CP3")) == parse_poly("1 - y + y^2 - y^3")
    assert chi_y_genus(_std("CP2")) == parse_poly("1 - y + y^2")


def test_chi_y_six_sphere():
    assert chi_y_genus(_std("S6")) == parse_poly("y^2 - y")


def test_chi_y_stable_presets():
    entry = catalog_entry("CP3")
    assert chi_y_genus(entry.stable_structure("cp3-standard")) == parse_poly("1 - y + y^2 - y^3")
    assert chi_y_genus(entry.stable_structure("cp3-e11-minus")) == parse_poly("y^2 - y")
    assert chi_y_genus(entry.stable_structure("cp3-null")).is_zero()


def test_chi_y_specializations():
    j = _std("G42")
    chi = chi_y_genus(j)
    # y = -1 counts fixed points, y = 1 is the signature, y = 0 the Todd genus
    assert chi.evaluate({"y": Fraction(-1)}) == euler_number(j) == 6
    assert chi.evaluate({"y": Fraction(1)}) == signature(j) == 2
    assert chi.evaluate({"y": Fraction(0)}) == todd_genus(j) == 1


def test_chi_y_specializations_are_its_values():
    cases = []
    for name in catalog_list():
        structures = enumerate_structures(catalog_space(name))
        if len(structures) <= 64:
            cases += structures
    entry = catalog_entry("CP3")
    cases += [entry.stable_structure(p) for p in ("cp3-standard", "cp3-e11-minus", "cp3-null")]
    for s in cases:
        chi = chi_y_genus(s)
        assert signature(s) == chi.evaluate({"y": Fraction(1)})
        assert todd_genus(s) == chi.evaluate({"y": Fraction(0)})
        assert euler_number(s) == chi.evaluate({"y": Fraction(-1)})


@pytest.mark.parametrize("which", ["invariant", "stable"])
def test_one_index_count_serves_every_specialization(monkeypatch, which):
    # the default-ordering count reads the space's signs once: the line masks
    # of the batched count, or the per-root signs of a stable table
    reads = []
    if which == "invariant":
        masks = HomogeneousSpace.line_sign_masks
        monkeypatch.setattr(HomogeneousSpace, "line_sign_masks", property(lambda sp: reads.append(1) or masks.func(sp)))
    else:
        signs = HomogeneousSpace.negative_roots
        monkeypatch.setattr(HomogeneousSpace, "negative_roots", lambda sp, o: reads.append(1) or signs(sp, o))
    if which == "invariant":
        # a space of its own: the catalog's U4-flag keeps its structures' counts
        s = parse_signs(make_space("U(4)", label="U4-flag"), "+-+--+")
    else:
        s = catalog_entry("CP3").stable_structure("cp3-e11-minus")
    got = (chi_y_genus(s), signature(s), todd_genus(s), euler_number(s))
    assert len(reads) == 1
    # the same values as a count on the space's ordering passed explicitly
    chi = chi_y_genus(s, ordering=s.space.ordering)
    assert got == (chi, chi.evaluate({"y": 1}), chi.evaluate({"y": 0}), chi.evaluate({"y": -1}))
    # an explicit ordering is counted afresh, from the per-root signs
    assert len(reads) == (1 if which == "invariant" else 2)


def test_chi_y_independent_of_ordering():
    j = _std("U3-flag")
    alt = Ordering((Fraction(11), Fraction(5), Fraction(2)))
    assert chi_y_genus(j) == chi_y_genus(j, ordering=alt)


def test_signatures():
    assert signature(_std("CP2")) == 1
    assert signature(_std("CP3")) == 0
    assert signature(_std("U3-flag")) == 0
    assert signature(_std("S6")) == 0


def test_todd_dichotomy_u3_flag():
    # integrable structures have Todd genus 1, the rest 0
    space = catalog_space("U3-flag")
    from homgenus.structures import is_integrable

    seen = set()
    for s in enumerate_structures(space):
        td = todd_genus(s)
        seen.add(td)
        assert td == (1 if is_integrable(s) else 0)
    assert seen == {0, 1}


def test_todd_of_stable_presets():
    entry = catalog_entry("CP3")
    assert todd_genus(entry.stable_structure("cp3-standard")) == 1
    assert todd_genus(entry.stable_structure("cp3-e11-minus")) == 0


def test_genus_of_class_routes():
    cls3 = chern_dold_genus(_std("CP3")).bordism_class()
    assert genus_of_class(cls3, todd_series(7), 3) == 1
    assert todd_of_class(cls3, 3) == 1
    assert signature_of_class(cls3, 3) == 0
    cls2 = chern_dold_genus(_std("CP2")).bordism_class()
    assert signature_of_class(cls2, 2) == signature(_std("CP2")) == 1


def test_class_genera_refuse_a_degree_below_the_class():
    # a table cut at a3 would read a4 as 0
    a4 = parse_poly("a4")
    assert todd_of_class(a4) == Fraction(-1, 720)
    for fn, args in (
        (todd_of_class, ()),
        (signature_of_class, ()),
        (genus_of_class, (todd_series(9),)),
    ):
        with pytest.raises(InputError, match="degree 3 is below the degree 4"):
            fn(a4, *args, 3)
    assert todd_of_class(a4, 5) == todd_of_class(a4)


def test_class_genera_build_their_series_to_the_class_degree():
    # x^34 of x/(1 - e^{-x}) is B_34/34!, and of x/tanh(x) 2^34 times that;
    # a fixed u^33 series does not reach it
    r = sympy.bernoulli(34) / sympy.factorial(34)
    todd34 = Fraction(int(r.p), int(r.q))
    a34 = parse_poly("a34")
    assert todd_of_class(a34) == todd_of_class(a34, 34) == todd34
    assert signature_of_class(a34) == signature_of_class(a34, 34) == 2**34 * todd34
    with pytest.raises(ValueError, match="cutoff 33"):
        genus_of_class(a34, todd_series(33))
    mixed = parse_poly("a1*a35 - 2*a2^18")
    assert todd_of_class(mixed) == todd_of_class(mixed, 36)
    assert signature_of_class(mixed) == signature_of_class(mixed, 36)


def test_class_route_matches_fixed_point_route():
    for name in ("S6", "CP3", "G42", "Sp2-flag"):
        j = _std(name)
        cls = chern_dold_genus(j).bordism_class()
        n = j.space.n
        assert signature_of_class(cls, n) == signature(j)
        assert todd_of_class(cls, n) == todd_genus(j)


def test_rigidity_eval_grassmannian():
    f = parse_rational("u/(1+u^2)")
    j = _std("G42")
    assert rigidity_eval(j, f, (3, 2, 1, 0)) == 80
    assert rigidity_eval(j, f, (4, 2, 1, 0)) == 140


def test_rigid_functional_vanishes_on_the_flag():
    f = parse_rational("u/(1+u^2)")
    assert rigidity_eval(_std("U3-flag"), f, (3, 2, 1)) == 0
    assert rigidity_eval(_std("U3-flag"), f, (7, 2, -1)) == 0


def test_rigidity_eval_error_paths():
    f = parse_rational("u/(1+u^2)")
    with pytest.raises(ValueError, match="pairs to zero"):
        rigidity_eval(_std("CP1"), f, (1, 1))
    with pytest.raises(ValueError, match="genus kernel vanishes"):
        rigidity_eval(_std("CP1"), parse_rational("u - u^2"), (2, 1))
    with pytest.raises(ZeroDivisionError):
        rigidity_eval(_std("CP1"), parse_rational("u^2/(1+u)"), (2, 1))


def test_rigidity_eval_refuses_a_point_of_the_wrong_length():
    # G42 lives on U(4): three or five coordinates are refused, not zipped
    # down to the value at (3, 2, 1, 0)
    f = parse_rational("u/(1+u^2)")
    for point in ((3, 2, 1), (3, 2, 1, 0, 9)):
        with pytest.raises(InputError, match="needs 4 coordinates, got %d" % len(point)):
            rigidity_eval(_std("G42"), f, point)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", [n for n in catalog_list() if enumerate_structures(catalog_space(n))])
@pytest.mark.parametrize("kernel", ["u/(1+u^2)", "u/(1-u)", "u*(2-u)/(3-u)^2"])
def test_rigidity_eval_matches_the_fraction_reference(name, kernel):
    # seeded admissible points, and points where a weight pairs to zero or
    # meets a pole or zero of the kernel: each kernel value is read from the
    # memo after its first weight, and every error names the same weight
    f = parse_rational(kernel)
    structures = enumerate_structures(catalog_space(name))
    for s in random.Random(name + kernel).sample(structures, min(3, len(structures))):
        dim = s.space.group.dim
        points = [(1,) * dim, tuple(range(dim)), (3,) + (0,) * (dim - 1)]
        for seed in range(2):
            pt = _sample([s], f, random.Random(seed))[0]
            assert pt == admissible_point_reference(s, f, random.Random(seed))
            points.append(pt)
        for pt in points:
            got = _outcome(rigidity_eval, s, f, pt)
            assert got == _outcome(rigidity_eval_reference, s, f, pt)


@pytest.mark.parametrize("kernel, error", [(parse_rational("u*v"), InputError), (todd_series(5), TypeError)])
def test_sample_refuses_a_bad_kernel_at_the_first_point(kernel, error):
    # a kernel no point can fix raises on the first draw, not after SAMPLE_TRIES
    s = _std("CP3")
    rng, ref = random.Random(5), random.Random(5)
    with pytest.raises(error):
        _sample([s], kernel, rng)
    _sample_point(s.space.group.dim, ref)
    assert rng.getstate() == ref.getstate()


# sha1 over "name signs chi_y signature todd", one line per invariant
# structure of every catalog space (1208 lines)
PINNED_GENERA = "c620bf5c063fb5f161923673227055693e763f61"


def test_every_catalog_genus_is_pinned():
    rows = []
    for name in catalog_list():
        for s in enumerate_structures(catalog_space(name)):
            chi = chi_y_genus(s)
            assert all(type(c) is Fraction for c in chi.terms.values())
            rows.append("%s %s %s %d %d" % (name, s.to_signs(), chi.to_text(), signature(s), todd_genus(s)))
    assert len(rows) == 1208
    assert hashlib.sha1("\n".join(rows).encode()).hexdigest() == PINNED_GENERA


def test_structure_independence_of_stable_presets():
    entry = catalog_entry("CP3")
    structures = [
        entry.stable_structure(p) for p in ("cp3-standard", "cp3-e11-minus", "cp3-null")
    ]
    out = structure_independence(structures, parse_rational("u/(1+u^2)"), samples=3, seed=1)
    assert out["independent"]
    assert len(out["points"]) == 3
    # every structure gives the same value at every sample point
    for row in out["values"]:
        assert len(set(row)) == 1


def test_structure_independence_needs_one_space():
    # S6 on G2 has rank 3 and U4-flag shares G42's rank; neither may be
    # compared with G42
    f = parse_rational("u/(1+u^2)")
    for other in ("S6", "U4-flag"):
        with pytest.raises(InputError, match="on one space"):
            structure_independence([_std("G42"), _std(other)], f)


def test_structure_independence_needs_a_sample():
    structures = [_std("CP3")]
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            structure_independence(structures, parse_rational("u/(1+u^2)"), samples=samples)


def test_structure_independence_refuses_too_many_samples():
    structures = [_std("CP3")]
    f = parse_rational("u/(1+u^2)")
    for samples in (0, -3, MAX_SAMPLES + 1, 100000000):
        with pytest.raises(InputError, match="at most %d" % MAX_SAMPLES):
            structure_independence(structures, f, samples=samples)
    assert len(structure_independence(structures, f, samples=1)["points"]) == 1


def test_certify_odd_rigidity_u3_flag():
    out = certify_odd_rigidity(_std("U3-flag"), f=parse_rational("u/(1+u^2)"))
    assert out["verdict"] == "certified zero"
    assert out["certificate"]["pairs"] == [
        {"pair": (0, 1), "flips": 1},
        {"pair": (2, 3), "flips": 3},
        {"pair": (4, 5), "flips": 1},
    ]
    assert all(v == 0 for _, v in out["samples"])


def test_certify_odd_rigidity_not_covered():
    out = certify_odd_rigidity(_std("CP2"), f=parse_rational("u/(1+u^2)"))
    assert out["verdict"] == "not covered: odd number of fixed points"
    # and indeed the functional is not zero there
    assert any(v != 0 for _, v in out["samples"])


def test_certify_refuses_a_wrong_certificate(monkeypatch):
    # a certificate handed to G42's standard structure, whose odd sums are
    # not zero: the samples contradict it, and the check holds under -O too
    monkeypatch.setattr(homgenus.hirzebruch, "_line_set_pairs", lambda table, negation: [])
    with pytest.raises(ArithmeticError, match="certified zero, but the sum at the sample point"):
        certify_odd_rigidity(_std("G42"), f=parse_rational("u/(1+u^2)"))


def test_certify_with_truncated_series():
    out = certify_odd_rigidity(_std("U3-flag"), f=tanh_series(7))
    assert out["verdict"] == "consistent to cutoff"
    assert out["samples"] == [("class evaluation", 0)]


def test_certify_rejects_even_series():
    with pytest.raises(ValueError, match="not odd"):
        certify_odd_rigidity(_std("U3-flag"), f=parse_rational("u^2/(1+u)"))


@pytest.mark.parametrize(
    "series",
    [todd_series(9), TruncatedSeries(parse_poly("u1 + u1^2"), 5), TruncatedSeries(parse_poly("u1 + u2^3"), 5)],
    ids=["todd", "u1+u1^2", "two-variables"],
)
def test_certify_rejects_a_series_that_is_not_odd(series):
    # the class evaluation of Todd on U3-flag is 1: accepted, it would read
    # as a certificate contradicted, not as a kernel outside the theorem
    with pytest.raises(InputError, match="the kernel is not odd"):
        certify_odd_rigidity(_std("U3-flag"), f=series)


# certify_odd_rigidity(s) with f=None, as (space, structure, verdict,
# certificate) rows, on the first 16 structures of every catalog space and
# the CP3 stable presets, where the Euler characteristic is even: (number of
# rows, sha1 of their repr).  The pairs are visible in `rigidity certify`
# output, so they are frozen.
PINNED_CERTIFICATES = (105, "78acd428f72b7e24a8310f9e5dfa7aee988fecfa")


def test_certificates_are_pinned():
    cases = [
        (name, s.to_signs(), s)
        for name in catalog_list()
        for s in enumerate_structures(catalog_space(name))[:16]
    ]
    entry = catalog_entry("CP3")
    cases += [("CP3", p, entry.stable_structure(p)) for p in entry.stable_presets]
    rows = []
    for name, label, s in cases:
        if len(s.space.cosets) % 2 == 0:
            out = certify_odd_rigidity(s)
            rows.append((name, label, out["verdict"], out["certificate"]))
    assert sum(r[2] == "certified zero" for r in rows) == 88
    assert (len(rows), hashlib.sha1(repr(rows).encode()).hexdigest()) == PINNED_CERTIFICATES


@cache
def _catalog_structures():
    """(space name, structure) for every structure of every catalog space
    and the three CP3 stable presets."""
    cases = [(name, s) for name in catalog_list() for s in enumerate_structures(catalog_space(name))]
    entry = catalog_entry("CP3")
    return cases + [("CP3", entry.stable_structure(p)) for p in sorted(entry.stable_presets)]


# verdicts of certify_odd_rigidity(s) over `_catalog_structures`, per space
CERTIFY_CENSUS = {
    ("CP1", "certified zero"): 2,
    ("CP2", "not covered: odd number of fixed points"): 2,
    ("CP3", "not covered: no fixed-point pairing found"): 5,
    ("CP3-sp", "certified zero"): 4,
    ("G2-flag", "certified zero"): 64,
    ("G42", "not covered: no fixed-point pairing found"): 2,
    ("G52", "not covered: no fixed-point pairing found"): 2,
    ("G622", "not covered: no fixed-point pairing found"): 8,
    ("S6", "certified zero"): 2,
    ("Sp2-flag", "certified zero"): 16,
    ("U3-flag", "certified zero"): 8,
    ("U4-T2xU2", "certified zero"): 8,
    ("U4-flag", "certified zero"): 64,
    ("U5-flag", "certified zero"): 1024,
}


def test_line_sets_certify_every_walk_pairing():
    """The line-set pairs against the pairs of the first left translation
    in W that pairs the fixed points: equal wherever the walk finds one.
    The line sets also certify U4-T2xU2, where no left translation pairs the
    points."""
    census = {}
    walked = 0
    for name, s in _catalog_structures():
        out = certify_odd_rigidity(s)
        key = (name, out["verdict"])
        census[key] = census.get(key, 0) + 1
        if len(s.space.cosets) % 2:
            continue
        walk = pairing_walk_reference(s)
        if walk is not None:
            walked += 1
            assert out["certificate"]["pairs"] == walk
    assert census == CERTIFY_CENSUS
    assert walked == 1184 and sum(census.values()) == 1211


def test_line_set_certificate_on_u4_t2xu2_vanishes_exactly():
    f = parse_rational("u/(1+u^2)")
    for s in enumerate_structures(catalog_space("U4-T2xU2")):
        out = certify_odd_rigidity(s, f)
        assert out["verdict"] == "certified zero"
        assert [v for _, v in out["samples"]] == [0, 0, 0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_negating_a_weight_with_the_point_sign_keeps_the_verdict(data):
    """An odd kernel's term sign / prod f(w) is unchanged when one weight and
    the point's sign are negated together, so the line-set verdict must not
    move either; negating the weight alone moves one point to the other tau
    of its group, and a certified table is no longer certified."""
    name, s = data.draw(st.sampled_from(_catalog_structures()[::7]))
    negation = s.space.group.negation
    table = signed_root_table(s)
    before = _line_set_pairs(table, negation)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    moved = []
    for sign, ids in table:
        flips = [rng.random() < 0.5 for _ in ids]
        moved.append((sign * (-1) ** sum(flips), [negation[r] if f else r for r, f in zip(ids, flips)]))
    assert (_line_set_pairs(moved, negation) is None) == (before is None)
    if before is not None:
        i = rng.randrange(len(table))
        sign, ids = moved[i]
        moved[i] = (sign, [negation[ids[0]]] + ids[1:])
        assert _line_set_pairs(moved, negation) is None
