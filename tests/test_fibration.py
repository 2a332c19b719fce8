"""Twisted products: total-space expansions against base x fiber."""

import pytest

import homgenus.toricgenus
from homgenus.catalog import catalog_entry, catalog_space
from homgenus.cli import main
from homgenus.exactalg import MultiPoly
from homgenus.rootdata import SubgroupData
from homgenus.structures import HomogeneousSpace, InvariantStructure
from homgenus.toricgenus import certified, chern_dold_genus, combine_structures, twisted_product
from rootdata_reference import residues_cancel_reference


def _std(space):
    return InvariantStructure(space, (1,) * len(space.summands))


def _full_flag_fiber(base_space):
    """The fiber H/T of the fibration G/T -> G/H, with its standard structure."""
    h = base_space.subgroup.as_group()
    fs = HomogeneousSpace(h, SubgroupData(h, ()), label="H/T")
    return fs


def test_six_sphere_times_su3_flag():
    # G2/T fibers over the six-sphere with full-flag fiber
    s6 = catalog_space("S6")
    base = _std(s6)
    fiber_space = _full_flag_fiber(s6)
    assert len(fiber_space.cosets.representatives) == 6
    fiber = _std(fiber_space)

    tw = twisted_product(base, fiber, cutoff=6)
    assert tw.structure.space.euler_characteristic == 12
    direct = chern_dold_genus(tw.structure, cutoff=6)
    assert tw.form == direct.form
    prod = (chern_dold_genus(base, 6).form * chern_dold_genus(fiber, 6).form).truncate_var(
        "t", 6
    )
    assert tw.form == prod
    assert tw.lower_terms_vanish()


def test_grassmannian_class_from_the_flattened_table():
    # U(5)/T over G(2,5): the twisted class sums over the pairs (base point,
    # fiber point) of the base's and the fiber's coset searches, so the total
    # space's own search has not run when it is read
    g52 = catalog_space("G52")
    fiber_space = _full_flag_fiber(g52)
    tw = twisted_product(_std(g52), _std(fiber_space))
    assert tw.route == "point" and len(tw.table) == 120
    cls = tw.bordism_class()
    assert "cosets" not in tw.structure.space.__dict__
    assert cls == chern_dold_genus(tw.structure).bordism_class()


@pytest.mark.parametrize(
    "name, bsign, fsign",
    [("S6", 1, 1)] + [("CP2", b, f) for b in (1, -1) for f in (1, -1)] + [("G42", 1, 1)],
)
def test_flattened_table_certificate_matches_the_reference(name, bsign, fsign):
    """The certificate on a twisted product's flattened (base point, fiber
    point) table, by root id, against the reference on the table's weight
    vectors, each labelled 0; with one row's sign flipped both refuse."""
    base_space = catalog_space(name)
    fiber_space = _full_flag_fiber(base_space)
    base = InvariantStructure(base_space, (bsign,) * len(base_space.summands))
    fiber = InvariantStructure(fiber_space, (fsign,) * len(fiber_space.summands))
    tw = twisted_product(base, fiber)
    space = tw.structure.space
    roots = space.group.roots

    def verdicts(table):
        points = [(sign, [roots[r] for r in ids], (0,) * len(ids)) for sign, ids in table]
        return certified(tw.structure, table), residues_cancel_reference(points, space.ordering)

    assert verdicts(tw.table) == (True, True)
    (sign, ids), *rest = tw.table
    assert verdicts([(-sign, ids)] + rest) == (False, False)


def test_combined_structure_signs():
    s6 = catalog_space("S6")
    fiber_space = _full_flag_fiber(s6)
    comb = combine_structures(_std(s6), _std(fiber_space))
    # one fiber summand lands negatively against the total positive system
    assert comb.to_signs() == "++-+++"
    assert comb.space.euler_characteristic == 12


def test_projective_plane_all_sign_combinations():
    # the U(3) flag fibers over CP2 with CP1 fiber, but the isotropy group
    # has a torus factor, so the expansion does NOT factor as base x fiber;
    # the twisted product formula must still match the direct computation
    cp2 = catalog_space("CP2")
    fiber_space = _full_flag_fiber(cp2)
    for bsign in (1, -1):
        for fsign in (1, -1):
            base = InvariantStructure(cp2, (bsign,))
            fiber = InvariantStructure(fiber_space, (fsign,) * len(fiber_space.summands))
            tw = twisted_product(base, fiber, cutoff=3)
            direct = chern_dold_genus(tw.structure, cutoff=3)
            assert tw.form == direct.form
            prod = (
                chern_dold_genus(base, 3).form * chern_dold_genus(fiber, 3).form
            ).truncate_var("t", 3)
            assert tw.form != prod


def test_negative_cutoff_rejected():
    s6 = catalog_space("S6")
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        twisted_product(_std(s6), _std(_full_flag_fiber(s6)), cutoff=-1)


def test_cutoff_above_the_degree_cap_rejected_first():
    # refused before the fiber is even checked against the base
    with pytest.raises(ValueError, match="cutoff must be <= 256"):
        twisted_product(_std(catalog_space("S6")), _std(catalog_space("CP1")), cutoff=257)


def test_fiber_group_must_match_isotropy():
    base = _std(catalog_space("S6"))
    stranger = _std(catalog_space("CP1"))
    with pytest.raises(ValueError, match="isotropy"):
        twisted_product(base, stranger, cutoff=3)
    with pytest.raises(ValueError, match="isotropy"):
        combine_structures(base, stranger)


def test_stable_structures_are_rejected():
    entry = catalog_entry("CP3")
    base = _std(entry.space())
    stable = entry.stable_structure("cp3-null")
    fiber = _std(_full_flag_fiber(base.space))
    with pytest.raises(ValueError, match="invariant base and fiber"):
        twisted_product(stable, fiber)
    with pytest.raises(ValueError, match="invariant base and fiber"):
        twisted_product(base, stable)


def test_the_point_class_is_built_once_per_expansion(monkeypatch, capsys):
    # `form` at t^n is the kept class times t^n; `fibration check` reads the
    # twisted form, the direct form and the twisted class: one class each
    calls = []
    point_class = homgenus.toricgenus._point_class

    def counted(*args):
        calls.append(args)
        return point_class(*args)

    monkeypatch.setattr(homgenus.toricgenus, "_point_class", counted)
    ge = chern_dold_genus(_std(catalog_space("G42")))
    assert ge.route == "point"
    assert ge.form == ge.bordism_class() * MultiPoly.variable("t") ** ge.structure.space.n
    assert ge.bordism_class() is ge.bordism_class()
    assert len(calls) == 1
    calls.clear()
    assert main(["fibration", "check", "--space", "G42", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 2
