"""The keyed coset search and the interned residue certificate against the
direct references in `rootdata_reference`: the same representatives, words
and actions, and the same certificate verdicts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from homgenus.catalog import catalog_entry, catalog_list, catalog_space
from homgenus.rootdata import CosetSpace, Ordering
from homgenus.structures import InvariantStructure, fixed_points, make_space, residues_cancel, space_from_json
from homgenus.toricgenus import certified
from rootdata_reference import coset_search_reference, residues_cancel_reference
from test_certificate import stable_tables
from test_lattice import SCALED
from test_structures import closed_json_docs


def _assert_searches_agree(space):
    """G/H, W and W_H of `space`, each against the full-permutation search."""
    simple, h_simple = space.simple_roots, space.subgroup_simple
    for a, b in ((simple, h_simple), (simple, ()), (h_simple, ())):
        got = CosetSpace(space.group, a, b)
        reps, action = coset_search_reference(space.group, a, b)
        assert [(r.perm, r.word) for r in got] == reps
        assert got.action == action


@pytest.mark.parametrize("name", catalog_list())
def test_catalog_searches_match_the_reference(name):
    _assert_searches_agree(catalog_space(name))


@pytest.mark.parametrize("group", ["U(6)", "Sp(4)", "SO(9)", "G2"])
def test_full_flag_searches_match_the_reference(group):
    space = make_space(group)
    assert len(space.cosets) == {"U(6)": 720, "Sp(4)": 384, "SO(9)": 384, "G2": 12}[group]
    _assert_searches_agree(space)


@settings(max_examples=40, deadline=None)
@given(closed_json_docs())
def test_searches_match_the_reference_on_random_subsystems(doc):
    _assert_searches_agree(space_from_json(doc))


def _reference_points(space):
    """Each fixed point's weights under the sign +1 on every summand,
    labelled by summand, as vectors: the input of the space's certificate."""
    labels, orient = [0] * space.n, [0] * space.n
    for k, sm in enumerate(space.summands):
        for li, o in zip(sm.line_indices, sm.orientation):
            labels[li], orient[li] = k, o
    return [
        (1, [tuple(o * c for c in img) for o, img in zip(orient, row)], labels) for row in space.coset_root_images
    ]


def _certificate_spaces():
    spaces = [catalog_space(name) for name in catalog_list()]
    return spaces + [space_from_json(doc, label=name) for name, doc in sorted(SCALED.items())]


@pytest.mark.parametrize("space", _certificate_spaces(), ids=lambda sp: sp.label)
def test_space_certificates_match_the_reference(space):
    if any(sm.self_conjugate for sm in space.summands):
        assert space.residues_cancel is False
        return
    points = _reference_points(space)
    want = residues_cancel_reference(points, space.ordering)
    assert space.residues_cancel is want is True
    assert residues_cancel(points, space.ordering) is want


@settings(max_examples=40, deadline=None)
@given(closed_json_docs())
def test_space_certificates_match_the_reference_on_random_subsystems(doc):
    space = space_from_json(doc)
    if not any(sm.self_conjugate for sm in space.summands):
        assert space.residues_cancel == residues_cancel_reference(_reference_points(space), space.ordering)


def _stable_points(s):
    return [(fp.sign, fp.weights, (0,) * len(fp.weights)) for fp in fixed_points(s)]


@pytest.mark.parametrize(
    "name, preset", [(name, p) for name in catalog_list() for p in sorted(catalog_entry(name).stable_presets)]
)
def test_stable_preset_certificates_match_the_reference(name, preset):
    s = catalog_entry(name).stable_structure(preset)
    assert certified(s) == residues_cancel_reference(_stable_points(s), s.space.ordering)


@settings(max_examples=40, deadline=None)
@given(stable_tables())
def test_stable_table_certificates_match_the_reference(s):
    assert certified(s) == residues_cancel_reference(_stable_points(s), s.space.ordering)


def test_a_flipped_point_sign_breaks_the_certificate():
    space = catalog_space("U3-flag")
    points = _stable_points(InvariantStructure(space, (1, 1, 1)))
    assert residues_cancel(points, space.ordering) and residues_cancel_reference(points, space.ordering)
    sign, weights, labels = points[2]
    points[2] = (-sign, weights, labels)
    assert residues_cancel(points, space.ordering) is False
    assert residues_cancel_reference(points, space.ordering) is False


def test_a_shared_line_raises_the_same_error():
    points = [(1, [(1, -1, 0), (2, -2, 0)], (0, 1)), (1, [(-1, 1, 0), (0, 1, -1)], (0, 1))]
    ordering = Ordering((3, 2, 1))
    for fn in (residues_cancel, residues_cancel_reference):
        with pytest.raises(ValueError, match="two isotropy weights at one fixed point share a line"):
            fn(points, ordering)


def test_a_line_vanishing_at_the_functional_is_not_certified():
    # the two points of CP1 cancel, but their line is zero at (1, 1)
    points = [(1, [(1, -1)], (0,)), (1, [(-1, 1)], (0,))]
    assert residues_cancel(points, Ordering((2, 1))) and residues_cancel_reference(points, Ordering((2, 1)))
    for fn in (residues_cancel, residues_cancel_reference):
        assert fn(points, Ordering((1, 1))) is False


def test_labels_keep_their_groups_apart():
    # the same weights with the labels swapped: unlabelled they would cancel
    a, b = (1, -1, 0), (0, 1, -1)
    points = [(1, [a, b], (0, 1)), (-1, [a, b], (1, 0))]
    ordering = Ordering((3, 2, 1))
    assert residues_cancel([(1, [a, b], (0, 1)), (-1, [a, b], (0, 1))], ordering)
    for fn in (residues_cancel, residues_cancel_reference):
        assert fn(points, ordering) is False


def test_rational_scales_enter_as_sign_over_c():
    # 1/(w/2) + 1/(-w) leaves a pole; 1/(w/2) + 1/(-w/2) does not
    half, neg_half = ("1/2", "-1/2"), ("-1/2", "1/2")

    def point(*w):
        return (1, [tuple(Fraction(c) for c in w)], (0,))

    ordering = Ordering((2, 1))
    for fn in (residues_cancel, residues_cancel_reference):
        assert fn([point(*half), point(-1, 1)], ordering) is False
        assert fn([point(*half), point(*neg_half)], ordering) is True
