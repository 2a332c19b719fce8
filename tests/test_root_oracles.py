"""The keyed coset search, the interned residue certificate, the one-pass
block partition and the line-set pairing against the direct references in
`rootdata_reference`: the same representatives and words, certificate
verdicts, blocks and flip counts."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homgenus.catalog import catalog_entry, catalog_list, catalog_space
from homgenus.hirzebruch import certify_odd_rigidity
from homgenus.rootdata import CosetSpace, Ordering, group_from_doc
from homgenus.structures import (
    InvariantStructure,
    enumerate_structures,
    fixed_points,
    make_space,
    residues_cancel,
    space_from_json,
)
from homgenus.toricgenus import _block_partition, certified
from rootdata_reference import (
    block_partition_reference,
    coset_search_reference,
    match_weights_reference,
    residues_cancel_reference,
    signed_points_reference,
)
from test_certificate import stable_tables
from test_lattice import SCALED
from test_structures import closed_json_docs


def _assert_searches_agree(space):
    """G/H, W and W_H of `space`, each against the full-permutation search."""
    simple, h_simple = space.simple_roots, space.subgroup_simple
    for a, b in ((simple, h_simple), (simple, ()), (h_simple, ())):
        got = CosetSpace(space.group, a, b)
        reps, _ = coset_search_reference(space.group, a, b)
        assert [(r.perm, r.word) for r in got] == reps


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


def _set_partitions(items):
    """Every partition of the list `items` into blocks, each in item order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _set_partitions(rest):
        yield [[first]] + p
        for k in range(len(p)):
            yield p[:k] + [[first] + p[k]] + p[k + 1 :]


def _block_roots(n, blocks, scale=1):
    """scale * (e_i - e_j) for i != j in one block."""
    return [
        tuple(scale if k == i else -scale if k == j else 0 for k in range(n))
        for b in blocks
        for i in b
        for j in b
        if i != j
    ]


def _labelled_u(label, dim, roots):
    """A JSON group labelled `label` whose roots are not those of U(dim)."""
    return group_from_doc({"label": label, "dim": dim, "roots": [list(r) for r in roots]})


def _block_spaces():
    """The catalog, U(n) over every set partition for n <= 5 and every
    second one for n = 6, SU(n) for n <= 4, and groups labelled U(n) or
    SU(n) whose roots are B2's, C3's or twice A2's."""
    spaces = [catalog_space(name) for name in catalog_list()]
    for group, n, step in [("U(%d)" % n, n, 1) for n in range(1, 6)] + [("U(6)", 6, 2)] + [
        ("SU(%d)" % n, n, 1) for n in range(2, 5)
    ]:
        for blocks in list(_set_partitions(list(range(n))))[::step]:
            spaces.append(make_space(group, _block_roots(n, blocks)))
    b2 = [(1, 0), (0, 1), (1, 1), (1, -1)]
    b2 = _labelled_u("U(2)", 2, b2 + [tuple(-c for c in r) for r in b2])
    for sub in ([], [(1, -1)], [(1, 1)], [(1, 0)], [(1, -1), (1, 1)], b2.roots):
        spaces.append(make_space(b2, sub))
    c3 = _block_roots(3, [[0, 1, 2]])
    c3 += [tuple(s * c for c in r) for s in (1, -1) for r in [(1, 1, 0), (1, 0, 1), (0, 1, 1)]]
    c3 += [tuple(s * c for c in r) for s in (1, -1) for r in [(2, 0, 0), (0, 2, 0), (0, 0, 2)]]
    c3 = _labelled_u("SU(3)", 3, c3)
    for sub in ([], _block_roots(3, [[0, 1], [2]]), _block_roots(3, [[0, 1, 2]]), [(2, 0, 0)], [(1, 1, 0)]):
        spaces.append(make_space(c3, sub))
    twice = _labelled_u("U(3)", 3, _block_roots(3, [[0, 1, 2]], 2))
    for blocks in _set_partitions([0, 1, 2]):
        spaces.append(make_space(twice, _block_roots(3, blocks, 2)))
    return spaces


def test_block_partitions_match_the_reference():
    spaces = _block_spaces()
    found = [b for b in map(block_partition_reference, spaces) if b is not None]
    assert len(spaces) == 231 and len(found) == 215
    for space in spaces:
        assert _block_partition(space) == block_partition_reference(space)


@cache
def _pairing_structures():
    """The first invariant structure of each catalog space with an even
    number of fixed points, and the three CP3 presets: the tables the
    odd-genus pairing matches rows of."""
    spaces = [catalog_space(name) for name in catalog_list()]
    found = [enumerate_structures(space) for space in spaces if len(space.cosets) % 2 == 0]
    entry = catalog_entry("CP3")
    return [js[0] for js in found if js] + [entry.stable_structure(p) for p in sorted(entry.stable_presets)]


def test_weight_matching_matches_the_reference():
    """Each pair of the line-set certificate against the multiset matching
    of the two points' weight vectors: the same flip count, never None."""
    structures = _pairing_structures()
    assert len(structures) == 16
    matched = 0
    for s in structures:
        points = signed_points_reference(s)
        cert = certify_odd_rigidity(s)["certificate"]
        for p in cert["pairs"] if cert else ():
            i, j = p["pair"]
            assert p["flips"] == match_weights_reference(points[i][1], points[j][1])
            matched += 1
    assert matched == 95
