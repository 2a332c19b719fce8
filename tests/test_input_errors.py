"""Every library check of a caller's input raises `rootdata.InputError`,
called directly, without the command line; the checks that guard a
mathematical condition keep a plain ValueError."""

from fractions import Fraction

import pytest

from homgenus.catalog import catalog_entry, catalog_space
from homgenus.cobordism import (
    FormalGroupLaw,
    a_in_terms_of_b,
    b_in_terms_of_a,
    basis_convert,
    evaluate_class,
    formal_group_law,
    specialize_genus,
)
from homgenus.exactalg import (
    MultiPoly,
    TruncatedSeries,
    exact_divide,
    parse_poly,
    parse_rational,
    var_key,
    var_weight,
)
from homgenus.hirzebruch import rigidity_eval, structure_independence
from homgenus.rootdata import (
    GroupData,
    InputError,
    Ordering,
    SubgroupData,
    build_group,
    canonical_positive,
    group_from_doc,
    read_vectors,
    space_from_doc,
)
from homgenus.structures import HomogeneousSpace, StableStructure, c1_divisibility
from homgenus.toricgenus import (
    _normalize_omega,
    chern_dold_genus,
    combine_structures,
    hp_obstruction_search,
    restricted_genus_hp,
    s_number_schur_route,
    twisted_product,
)

U3 = build_group("U(3)")
A1_PAIR = [(1, -1, 0), (-1, 1, 0)]


def _std(name):
    space = catalog_space(name)
    return space.structure((1,) * len(space.summands))


def _stable(table, global_sign=1):
    base = _std("CP1")
    return lambda: StableStructure(base.space, base, table, global_sign)


def _fiber_of(name):
    """The standard structure on H/T, H the isotropy group of `name`."""
    h = catalog_space(name).subgroup.as_group()
    space = HomogeneousSpace(h, SubgroupData(h, []))
    return space.structure((1,) * len(space.summands))


# (id, the call, a fragment of the message)
CHECKS = [
    # rootdata: groups, subgroups and JSON documents
    ("canonical_positive-zero", lambda: canonical_positive((0, 0)), "zero vector"),
    ("GroupData-root-length", lambda: GroupData("g", 2, [(1, 0, 0), (-1, 0, 0)]), "wrong length"),
    ("GroupData-negation", lambda: GroupData("g", 1, [(1,)]), "closed under negation"),
    ("GroupData-reduced", lambda: GroupData("g", 1, [(1,), (-1,), (2,), (-2,)]), "not reduced"),
    ("GroupData-gram-rows", lambda: GroupData("g", 1, [(1,), (-1,)], gram=[(1,), (1,)]), "1 x 1 matrix"),
    ("reflection-isotropic", lambda: GroupData("g", 2, [(1, 1), (-1, -1)], gram=[(1, 0), (0, -1)]).reflection_perm((1, 1)), "isotropic"),
    ("reflection-not-permuting", lambda: GroupData("g", 2, [(1, 0), (-1, 0), (1, 1), (-1, -1)]).reflection_perm((1, 0)), "does not permute"),
    ("build_group-name", lambda: build_group("E8"), "unrecognized group"),
    ("build_group-rank", lambda: build_group("U(0)"), "need n >= 1"),
    ("SubgroupData-not-a-root", lambda: SubgroupData(build_group("U(2)"), [(2, 0)]), "is not a root"),
    ("SubgroupData-negation", lambda: SubgroupData(U3, [(1, -1, 0)]), "closed under negation"),
    ("SubgroupData-addition", lambda: SubgroupData(U3, A1_PAIR + [(0, 1, -1), (0, -1, 1)]), "closed under addition"),
    ("read_vectors-shape", lambda: read_vectors([1, 2], "roots"), "roots must be a list of lists"),
    ("read_vectors-entry", lambda: read_vectors([[None]], "roots"), "not an integer"),
    ("read_vectors-float", lambda: read_vectors([[0.5]], "roots"), "roots: \\[0.5\\] holds an entry that is not an integer"),
    ("read_vectors-bool", lambda: read_vectors([[1, True]], "gram"), "gram: \\[1, true\\] holds an entry that is not an integer"),
    ("read_vectors-python", lambda: read_vectors([[1, 2j]], "roots"), "roots: \\[1, 2j\\] holds an entry that is not an integer"),
    ("group_from_doc-kind", lambda: group_from_doc(5), "a name or a {roots, dim} object"),
    ("group_from_doc-dim", lambda: group_from_doc({"dim": "2", "roots": []}), "dim must be"),
    ("space_from_doc-object", lambda: space_from_doc([]), '"group" field'),
    # exactalg: variable names and the parser
    ("var_weight-unknown", lambda: var_weight("q1"), "unknown variable"),
    ("var_weight-index", lambda: var_weight("a"), "needs an index"),
    ("var_key-unknown", lambda: var_key("q"), "unknown variable"),
    ("MultiPoly-duplicate", lambda: MultiPoly(("x1", "x1")), "duplicate variable"),
    ("MultiPoly-power", lambda: MultiPoly.variable("x1") ** -1, "nonnegative integer powers"),
    ("TruncatedSeries-cutoff", lambda: TruncatedSeries(MultiPoly.variable("u"), -1), "cutoff must be >= 0"),
    ("TruncatedSeries-compose", lambda: TruncatedSeries(MultiPoly.variable("u"), 3).compose("u", MultiPoly.const(1)), "zero constant term"),
    ("parse-float", lambda: parse_rational("0.5*u"), "only integer literals"),
    ("parse-unary", lambda: parse_rational("~u"), "unsupported unary operator"),
    ("parse-exponent", lambda: parse_rational("u^u"), "exponent must be an integer literal"),
    ("parse-power-cap", lambda: parse_rational("u^300"), "power of degree above 256"),
    ("parse-operator", lambda: parse_rational("u % 2"), "unsupported operator"),
    ("parse-syntax", lambda: parse_rational("f(u)"), "unsupported syntax"),
    ("parse-text", lambda: parse_rational("u +"), "cannot parse"),
    ("parse-zero-denominator", lambda: parse_rational("u/(u-u)"), "zero denominator"),
    ("parse-depth", lambda: parse_rational("u" + "+u" * 3000), "nested too deeply"),
    ("parse_poly-quotient", lambda: parse_poly("1/u"), "expected a polynomial"),
    # cobordism: degrees and series
    ("FormalGroupLaw-degree", lambda: FormalGroupLaw(0), "degree must be >= 1"),
    ("a_in_terms_of_b-degree", lambda: a_in_terms_of_b(-1), "degree must be >= 0"),
    ("b_in_terms_of_a-degree", lambda: b_in_terms_of_a(-1), "degree must be >= 0"),
    ("basis_convert-direction", lambda: basis_convert(parse_poly("a1"), "a-b"), "direction must be"),
    ("FormalGroupLaw-cap", lambda: FormalGroupLaw(33), "degree must be <= 32, got 33"),
    ("formal_group_law-cap", lambda: formal_group_law(33), "degree must be <= 32, got 33"),
    ("a_in_terms_of_b-cap", lambda: a_in_terms_of_b(33), "degree must be <= 32, got 33"),
    ("b_in_terms_of_a-cap", lambda: b_in_terms_of_a(10**9), "degree must be <= 32"),
    ("basis_convert-cap", lambda: basis_convert(parse_poly("a70"), "a->b"), "degree must be <= 32, got 70"),
    ("basis_convert-cap-b", lambda: basis_convert(parse_poly("b40^2"), "b->a"), "degree must be <= 32, got 40"),
    ("specialize-variables", lambda: specialize_genus(parse_rational("u + x"), 2), "one-variable series"),
    ("specialize-numbers", lambda: specialize_genus(parse_rational("u/(1+y*u)"), 2), "must be numbers"),
    ("specialize-cutoff", lambda: specialize_genus(TruncatedSeries(MultiPoly.variable("u"), 2), 3), "series cutoff 2"),
    ("specialize-leading", lambda: specialize_genus(parse_rational("2*u"), 2), "f'\\(0\\) = 1"),
    ("evaluate_class-b", lambda: evaluate_class(parse_poly("b1"), {}), "b-alphabet"),
    ("evaluate_class-x", lambda: evaluate_class(parse_poly("x1"), {}), "non-coefficient variable"),
    # structures: the divisor and the stable sign table
    ("c1_divisibility-divisor", lambda: c1_divisibility(_std("CP1"), 0), "divisor must be positive"),
    ("StableStructure-rows", _stable([(1,)]), "one row per fixed point"),
    ("StableStructure-row-length", _stable([(1, 1), (1, 1)]), "row needs 1 entries"),
    ("StableStructure-entries", _stable([(1,), (0,)]), "must be \\+1 or -1"),
    ("StableStructure-global-sign", _stable([(1,), (1,)], global_sign=2), "global sign"),
    # toricgenus: the cutoff, omega, fibrations and HP2
    ("bordism_class-cutoff", lambda: chern_dold_genus(_std("CP2"), cutoff=1).bordism_class(), "below the dimension"),
    ("cutoff-negative", lambda: chern_dold_genus(_std("CP2"), cutoff=-1), "cutoff must be >= 0"),
    ("cutoff-cap", lambda: chern_dold_genus(_std("CP2"), cutoff=257), "cutoff must be <= 256"),
    ("omega-negative", lambda: _normalize_omega((-1, 1), 2), "nonnegative"),
    ("omega-length", lambda: _normalize_omega((0, 0, 1), 2), "beyond the dimension"),
    ("omega-weight", lambda: _normalize_omega((1,), 2), "total weight 2"),
    ("schur-route-space", lambda: s_number_schur_route(_std("G2-flag"), (0,) * 5 + (1,)), "U\\(n\\)/\\(block product\\)"),
    ("combine-ambient", lambda: combine_structures(_std("CP2"), _fiber_of("G42")), "fiber ambient group"),
    ("twisted-stable", lambda: twisted_product(catalog_entry("CP3").stable_structure("cp3-null"), _fiber_of("CP3")), "not stable ones"),
    ("twisted-ambient", lambda: twisted_product(_std("CP2"), _fiber_of("G42")), "fiber ambient group"),
    ("restricted-n", lambda: restricted_genus_hp(n=3), "only n = 2"),
    ("restricted-max-index", lambda: restricted_genus_hp(max_index=-1), "max_index must be >= 0"),
    ("restricted-cap", lambda: restricted_genus_hp(max_index=128), "degree cap 256"),
    ("restricted-which", lambda: restricted_genus_hp(which="cp-even"), "which must be"),
    ("obstruction-n", lambda: hp_obstruction_search(n=3), "only n = 2"),
    # hirzebruch
    ("independence-empty", lambda: structure_independence([], parse_rational("u")), "at least one structure"),
]


@pytest.mark.parametrize("call, text", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_library_input_checks_raise_input_error(call, text):
    with pytest.raises(InputError, match=text):
        call()


# mathematical failures, and the point faults `_sample` draws again on: a
# ValueError or an ArithmeticError, never an InputError
KEPT = [
    ("Ordering.sign", lambda: Ordering((1, 1)).sign((1, -1)), ValueError, "not generic"),
    ("constant_value", lambda: MultiPoly.variable("x1").constant_value(), ValueError, "not constant"),
    ("exact_divide-pivot", lambda: exact_divide(parse_poly("x1^2"), parse_poly("x1^2")), ValueError, "linear in a pivot"),
    ("rigidity_eval-zero-pairing", lambda: rigidity_eval(_std("CP1"), parse_rational("u/(1+u^2)"), (1, 1)), ValueError, "pairs to zero"),
    ("rigidity_eval-kernel-zero", lambda: rigidity_eval(_std("CP1"), parse_rational("u - u^2/2"), (3, 1)), ValueError, "vanishes at weight"),
    ("rigidity_eval-kernel-pole", lambda: rigidity_eval(_std("CP1"), parse_rational("u/(1-u)"), (2, 1)), ZeroDivisionError, "has a pole"),
]


@pytest.mark.parametrize("call, error, text", [c[1:] for c in KEPT], ids=[c[0] for c in KEPT])
def test_mathematical_failures_are_not_input_errors(call, error, text):
    with pytest.raises(error, match=text) as info:
        call()
    assert not isinstance(info.value, InputError)


def test_input_error_is_a_value_error():
    # `except ValueError` callers and `pytest.raises(ValueError)` still hold
    assert issubclass(InputError, ValueError)
    with pytest.raises(ValueError):
        read_vectors([[Fraction(1), "1/0"]], "roots")
