"""Invariant and stable structures, fixed-point data."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import homgenus.structures
from homgenus.catalog import catalog_entry, catalog_list, catalog_space
from homgenus.hirzebruch import chi_y_genus
from homgenus.rootdata import InputError, build_group
from homgenus.structures import (
    STRUCTURE_CAP,
    HomogeneousSpace,
    InvariantStructure,
    StableStructure,
    c1_divisibility,
    enumerate_structures,
    find_su_structures,
    first_chern,
    fixed_points,
    is_integrable,
    make_space,
    parse_signs,
    signed_root_table,
    space_from_json,
)
from rootdata_reference import index_counts_reference
from test_lattice import SCALED
from test_rootdata import _closed_subsystem


def test_s6_structure_basics():
    space = catalog_space("S6")
    assert len(space.summands) == 1
    std = InvariantStructure(space, (1,))
    assert std.to_signs() == "+"
    # the three roots of the summand are not a positive system: middle one flips
    assert std.eps == (1, -1, 1)
    assert first_chern(std) == (0, 0)
    assert not is_integrable(std)


@pytest.mark.parametrize("name", catalog_list())
def test_integrability_is_any_over_the_whole_table(name):
    """`is_integrable` walks the rows lazily and stops at the first positive
    one; its verdict is `any` over the full signed-root table."""
    space = catalog_space(name)
    side = space.root_values
    for s in enumerate_structures(space):
        assert is_integrable(s) == any(all(side[r] > 0 for r in ids) for _, ids in signed_root_table(s))


def test_s6_has_two_structures():
    assert [s.to_signs() for s in enumerate_structures(catalog_space("S6"))] == ["+", "-"]


def test_structure_counts():
    assert len(enumerate_structures(catalog_space("U3-flag"))) == 8
    assert len(enumerate_structures(catalog_space("G622"))) == 8
    assert len(enumerate_structures(catalog_space("Sp2-flag"))) == 16


def test_quaternionic_line_has_no_invariant_structure():
    space = catalog_space("HP1")
    assert [s.self_conjugate for s in space.summands] == [True]
    assert enumerate_structures(space) == []
    with pytest.raises(ValueError, match="self-conjugate"):
        InvariantStructure(space, (1,))


def test_su_inventory_u3_flag():
    space = catalog_space("U3-flag")
    assert sorted(s.to_signs() for s in find_su_structures(space)) == ["+-+", "-+-"]


def test_su_inventory_empty_cases():
    for name in ("CP1", "CP2", "CP3", "U4-flag", "U4-T2xU2"):
        assert find_su_structures(catalog_space(name)) == []


def _su_reference(space):
    return [j for j in enumerate_structures(space) if not any(first_chern(j))]


@pytest.mark.parametrize(
    "space",
    [catalog_space(name) for name in catalog_list()] + [space_from_json(doc, label=n) for n, doc in sorted(SCALED.items())],
    ids=lambda sp: sp.label,
)
def test_su_partial_sums_match_first_chern(space):
    # the same structures, in the same itertools.product order
    assert find_su_structures(space) == _su_reference(space)


def test_su_inventory_counts():
    counts = {name: len(find_su_structures(catalog_space(name))) for name in ("U5-flag", "G2-flag", "U3-flag", "S6")}
    assert counts == {"U5-flag": 24, "G2-flag": 4, "U3-flag": 2, "S6": 2}


@st.composite
def closed_json_docs(draw, groups=("U(2)", "U(3)", "U(4)", "U(5)", "Sp(2)", "Sp(3)", "G2")):
    """The JSON document of a space G/H, H spanned by a few roots of G and
    closed under sign and sum."""
    group = build_group(draw(st.sampled_from(groups)))
    roots = _closed_subsystem(group, draw(st.lists(st.sampled_from(group.roots), max_size=4)))
    return {"group": group.label, "subgroup_roots": [list(r) for r in sorted(roots)]}


@st.composite
def closed_json_spaces(draw):
    """A random closed JSON space G/H (`closed_json_docs`) with n <= 6."""
    space = space_from_json(draw(closed_json_docs()))
    assume(space.n <= 6)
    return space


@settings(max_examples=40, deadline=None)
@given(closed_json_spaces())
def test_su_partial_sums_match_first_chern_on_random_subsystems(space):
    assert find_su_structures(space) == _su_reference(space)


def test_first_chern_cp3():
    std = InvariantStructure(catalog_space("CP3"), (1,))
    assert first_chern(std) == (3, -1, -1, -1)
    assert first_chern(std.conjugate()) == (-3, 1, 1, 1)


def test_c1_divisibility_is_coordinatewise():
    # divisibility in weight-lattice coordinates, not in the cohomology
    # of the quotient: (3,-1,-1,-1) is primitive
    std = InvariantStructure(catalog_space("CP3"), (1,))
    assert c1_divisibility(std, 1)
    assert not c1_divisibility(std, 2)
    assert not c1_divisibility(std, 4)
    # an SU-structure has c1 = 0, divisible by everything
    su = parse_signs(catalog_space("U3-flag"), "+-+")
    assert c1_divisibility(su, 12)
    with pytest.raises(ValueError):
        c1_divisibility(std, 0)


def test_integrability():
    u3 = catalog_space("U3-flag")
    assert is_integrable(InvariantStructure(u3, (1, 1, 1)))
    assert not is_integrable(parse_signs(u3, "+-+"))


def test_parse_signs_validation():
    u3 = catalog_space("U3-flag")
    assert parse_signs(u3, "+-+").summand_signs == (1, -1, 1)
    with pytest.raises(ValueError, match="expected 3"):
        parse_signs(u3, "++")
    with pytest.raises(ValueError, match="'\\+' and '-'"):
        parse_signs(u3, "+0+")


def test_bad_signs_are_input_errors():
    u3 = catalog_space("U3-flag")
    for call in (
        lambda: parse_signs(u3, "++"),
        lambda: parse_signs(u3, "+0+"),
        lambda: u3.structure((1, 2, 1)),
        lambda: InvariantStructure(u3, (1, 1)),
    ):
        with pytest.raises(InputError):
            call()
    assert issubclass(InputError, ValueError)


def test_conjugate_flips_all_signs():
    u3 = catalog_space("U3-flag")
    assert parse_signs(u3, "+-+").conjugate().to_signs() == "-+-"
    assert parse_signs(u3, "+-+").conjugate() is parse_signs(u3, "-+-")


def test_space_builds_each_structure_once():
    space = catalog_space("U4-flag")
    first = enumerate_structures(space)
    second = enumerate_structures(space)
    assert first is not second
    assert all(a is b for a, b in zip(first, second)) and len(first) == len(second) == 64
    assert [j.to_signs() for j in first] == [
        "".join("+" if c == "0" else "-" for c in format(code, "06b")) for code in range(64)
    ]
    for j in first:
        assert parse_signs(space, j.to_signs()) is j
        assert space.structure(j.summand_signs) is j
    # the standard structure and the SU list are the inventory's objects too
    u3 = catalog_space("U3-flag")
    assert catalog_entry("U3-flag").standard_structure() is enumerate_structures(u3)[0]
    su = find_su_structures(u3)
    assert su == find_su_structures(u3) and all(j is parse_signs(u3, j.to_signs()) for j in su)


def test_cap_is_checked_before_any_structure_is_built(monkeypatch):
    space = make_space("U(7)")
    assert len(space.summands) == 21 > STRUCTURE_CAP
    for call in (enumerate_structures, find_su_structures):
        with pytest.raises(InputError, match="too many summands \\(21\\)"):
            call(space)
    assert not space._structures and "_inventory" not in space.__dict__
    # a self-conjugate summand means no structures, whatever the cap
    monkeypatch.setattr(homgenus.structures, "STRUCTURE_CAP", 0)
    assert enumerate_structures(catalog_space("HP2")) == []


# U(5)/(U(2) x U(1) x U(2)) and Sp(3)/(Sp(1) x T2): summands of 2 and 4 lines
# (S6 in the catalog has a summand whose lines take both orientations)
MULTI_LINE = {
    "U5-blocks": {
        "group": "U(5)",
        "subgroup_roots": [[1, -1, 0, 0, 0], [-1, 1, 0, 0, 0], [0, 0, 0, 1, -1], [0, 0, 0, -1, 1]],
    },
    "Sp3-Sp1": {"group": "Sp(3)", "subgroup_roots": [[2, 0, 0], [-2, 0, 0]]},
}


def _counting_spaces():
    spaces = [catalog_space(name) for name in catalog_list()]
    return spaces + [space_from_json(doc, label=name) for name, doc in MULTI_LINE.items()]


@pytest.mark.parametrize("space", _counting_spaces(), ids=lambda sp: sp.label)
def test_batched_counts_match_the_recount(space):
    structures = enumerate_structures(space)
    shared = {}
    for j in structures:
        counts = j.index_counts
        assert counts == index_counts_reference(j, space.ordering)
        assert sum(counts) == space.euler_characteristic
        # the one-structure pass gives the same interned vector
        assert InvariantStructure(space, j.summand_signs).index_counts is counts
        chi = chi_y_genus(j)
        assert chi == chi_y_genus(j, ordering=space.ordering)
        # the space keeps one chi_y polynomial per interned count vector
        assert shared.setdefault(counts, chi) is chi
    if space.label in MULTI_LINE:
        assert max(len(sm) for sm in space.summands) > 1
    if space.label == "S6":
        assert set(space.summands[0].orientation) == {1, -1}
    if space.label == "U5-flag":
        assert len(structures) == 1024 and len(shared) == 9


def test_summand_line_indices():
    assert [s.line_indices for s in catalog_space("U3-flag").summands] == [
        (0,),
        (1,),
        (2,),
    ]


def test_fixed_points_cp1():
    pts = fixed_points(InvariantStructure(catalog_space("CP1"), (1,)))
    assert [(p.weights, p.sign) for p in pts] == [
        (((1, -1),), 1),
        (((-1, 1),), 1),
    ]


@pytest.mark.parametrize("name", catalog_list())
def test_structure_roots_are_the_identity_weights(name):
    """`roots` are the tangent weights at the identity coset, long roots of
    Sp(n) at full size rather than their primitive lines."""
    for s in enumerate_structures(catalog_space(name)):
        assert s.roots == fixed_points(s)[0].weights


def test_fixed_points_count_matches_euler():
    for name in ("CP3", "U3-flag", "G42", "Sp2-flag"):
        space = catalog_space(name)
        std = InvariantStructure(space, (1,) * len(space.summands))
        assert len(fixed_points(std)) == space.euler_characteristic


def test_fixed_points_stable_preset():
    ss = catalog_entry("CP3").stable_structure("cp3-e11-minus")
    assert ss.global_sign == -1
    pts = fixed_points(ss)
    assert pts[1].weights == (
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 1, 0, -1),
    )
    assert pts[1].sign == -1


def test_stable_table_validation():
    cp3 = catalog_space("CP3")
    std = InvariantStructure(cp3, (1,))
    with pytest.raises(ValueError, match="3 entries"):
        StableStructure(cp3, std, ((1, 1),) * 4)
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        StableStructure(cp3, std, ((1, 1, 2),) * 4)


def test_stable_base_must_be_invariant_on_the_same_space():
    # a U3-flag base would read its own summand signs on CP3's lines, and an
    # S6 base would reach the sum as a pole: both are refused as input
    cp3 = catalog_space("CP3")
    rows = ((1, 1, 1),) * 4
    for other in ("U3-flag", "S6"):
        space = catalog_space(other)
        with pytest.raises(InputError, match="base must be an invariant structure on CP3"):
            StableStructure(cp3, InvariantStructure(space, (1,) * len(space.summands)), rows)
    stable = StableStructure(cp3, InvariantStructure(cp3, (1,)), rows)
    with pytest.raises(InputError, match="base must be an invariant structure"):
        StableStructure(cp3, stable, rows)
    # the same root data built into a second space object is another space
    twin = HomogeneousSpace(cp3.group, cp3.subgroup, label="CP3")
    with pytest.raises(InputError, match="base must be an invariant structure on CP3"):
        StableStructure(cp3, InvariantStructure(twin, (1,)), rows)


def test_space_data_never_enumerates_subgroup_weyl(monkeypatch):
    """Cosets, summands, integrability and the twisted product's invariance
    check use only H's simple reflections."""
    from homgenus.structures import HomogeneousSpace, SubgroupData, make_space
    from homgenus.toricgenus import chern_dold_genus, twisted_product

    def refuse(self):
        raise AssertionError("W_H was enumerated")

    monkeypatch.setattr(HomogeneousSpace, "subgroup_weyl", property(refuse))
    for name in ("S6", "CP3", "G52", "U4-T2xU2", "HP2", "CP3-sp"):
        entry = catalog_entry(name)
        space = make_space(entry.group, entry.subgroup_roots, label=name)
        assert len(space.cosets) == entry.expected["euler"]
        assert space.summands
        for s in enumerate_structures(space):
            is_integrable(s)
    # the inputs of the twisted-product check: fibrations over S6 and CP2
    for name, cutoff in (("S6", 3), ("CP2", 3)):
        entry = catalog_entry(name)
        space = make_space(entry.group, entry.subgroup_roots, label=name)
        base = InvariantStructure(space, (1,) * len(space.summands))
        h = space.subgroup.as_group()
        fiber_space = HomogeneousSpace(h, SubgroupData(h, ()))
        fiber = InvariantStructure(fiber_space, (1,) * len(fiber_space.summands))
        tw = twisted_product(base, fiber, cutoff=cutoff)
        assert tw.form == chern_dold_genus(tw.structure, cutoff=cutoff).form


def test_space_data_never_builds_weyl(monkeypatch):
    """Cosets, summands, coset root images, the structure inventory, the
    bordism class, the top s-number, chi_y, the odd-genus certificate on
    every structure and the reproduction checks never build W."""
    from homgenus.hirzebruch import certify_odd_rigidity
    from homgenus.structures import HomogeneousSpace
    from homgenus.toricgenus import chern_dold_genus, top_s
    from homgenus.verification import run_checks

    def refuse(self):
        raise AssertionError("W was built")

    monkeypatch.setattr(HomogeneousSpace, "weyl", property(refuse))
    for name in catalog_list():
        entry = catalog_entry(name)
        space = make_space(entry.group, entry.subgroup_roots, label=name)
        assert len(space.cosets) == entry.expected["euler"]
        assert space.summands and len(space.coset_root_images) == len(space.cosets)
        inventory = enumerate_structures(space)
        if inventory:
            j = inventory[0]
            chern_dold_genus(j).bordism_class()
            top_s(j)
            chi_y_genus(j)
        for j in inventory:
            certify_odd_rigidity(j)
        for preset in sorted(entry.stable_presets):
            certify_odd_rigidity(entry.stable_structure(preset))
    # a check that raised would read as failed, not as a test error
    assert all(row["passed"] for row in run_checks())
