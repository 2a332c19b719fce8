"""Every tangent-weight read goes through one signed-root table built on
`HomogeneousSpace.point_roots`: the table, the weights, values and signs
read through it, the index counts under any ordering and the stable
certificate against the direct references in `rootdata_reference`, on every
catalog space, the multi-line JSON spaces and the scaled JSON spaces."""

import pytest

from homgenus.catalog import catalog_entry, catalog_list, catalog_space
from homgenus.hirzebruch import chi_y_genus
from homgenus.rootdata import Ordering, dot
from homgenus.structures import (
    StableStructure,
    enumerate_structures,
    fixed_points,
    index_counts,
    signed_root_table,
    space_from_json,
)
from homgenus.toricgenus import certified
from rootdata_reference import (
    index_counts_reference,
    point_tables_reference,
    signed_points_reference,
    stable_certificate_reference,
)
from test_lattice import SCALED
from test_structures import MULTI_LINE

# at most this many invariant structures of a space are recounted here;
# test_structures recounts every one on the default ordering
SAMPLED = 16


def _spaces():
    spaces = [catalog_space(name) for name in catalog_list()]
    spaces += [space_from_json(doc, label=name) for name, doc in sorted(MULTI_LINE.items())]
    return spaces + [space_from_json(doc, label=name) for name, doc in sorted(SCALED.items())]


def _other_ordering(space):
    """A generic functional of alternating sign, unlike the default one: its
    coordinates are powers of 7, and no root coordinate exceeds 3."""
    d = space.group.dim
    v = tuple((-1) ** i * 7 ** (d - 1 - i) for i in range(d))
    assert all(dot(r, v) for r in space.group.roots)
    return Ordering(v)


def _sampled(structures):
    step = max(1, len(structures) // SAMPLED)
    return structures[::step]


def _stable_tables(space):
    """Relative tables of other invariant structures over the standard one
    (certified), each also with one entry flipped (usually not), and
    orientation -1 on every second one."""
    structures = enumerate_structures(space)
    base = structures[0]
    out = []
    for k, other in enumerate(_sampled(structures)):
        table = [[a * b for a, b in zip(other.eps, base.eps)] for _ in range(space.euler_characteristic)]
        out.append(StableStructure(space, base, table, (-1) ** k))
        table[-1][0] = -table[-1][0]
        out.append(StableStructure(space, base, table, (-1) ** k))
    return out


def _read_through(space, rows, orderings):
    """(sign, weights, values, negative flags per ordering) of each (sign,
    ids) row, every id looked up in the space's per-root lists."""
    roots, values = space.group.roots, space.root_values
    negatives = [space.negative_roots(o) for o in orderings]
    return [
        (sign, [roots[r] for r in ids], [values[r] for r in ids], [[neg[r] for r in ids] for neg in negatives])
        for sign, ids in rows
    ]


def _by_vectors(space, points, orderings):
    """`_read_through` of the (sign, weight vectors) `points`, each value a
    dot product and each flag a call of `Ordering.sign`."""
    v = space.ordering.v
    return [
        (sign, list(ws), [dot(w, v) for w in ws], [[o.sign(w) < 0 for w in ws] for o in orderings])
        for sign, ws in points
    ]


@pytest.mark.parametrize("space", _spaces(), ids=lambda sp: sp.label)
def test_point_tables_match_the_reference(space):
    images = point_tables_reference(space)
    assert space.coset_root_images == images
    roots = space.group.roots
    assert all(roots[space.group.negation[i]] == tuple(-c for c in r) for i, r in enumerate(roots))
    orderings = (space.ordering, _other_ordering(space))
    # the positive line roots, which every structure's table signs
    lines = [(1, row) for row in space.point_roots]
    assert _read_through(space, lines, orderings) == _by_vectors(space, [(1, ws) for ws in images], orderings)
    structures = enumerate_structures(space)
    for s in _sampled(structures) + (_stable_tables(space) if structures else []):
        want = signed_points_reference(s)
        assert [(fp.sign, list(fp.weights)) for fp in fixed_points(s)] == want
        assert _read_through(space, signed_root_table(s), orderings) == _by_vectors(space, want, orderings)


@pytest.mark.parametrize("space", _spaces(), ids=lambda sp: sp.label)
def test_index_counts_match_the_reference(space):
    alt = _other_ordering(space)
    structures = enumerate_structures(space)
    stable = _stable_tables(space) if structures else []
    for s in _sampled(structures) + stable:
        assert index_counts(s) == index_counts_reference(s, space.ordering) == s.index_counts
        assert index_counts(s, alt) == index_counts_reference(s, alt)
    # chi_y does not depend on the ordering where the table is a genuine
    # structure: not on the flipped ones
    for s in _sampled(structures) + stable[::2]:
        assert chi_y_genus(s, ordering=alt) == chi_y_genus(s)


@pytest.mark.parametrize("space", _spaces(), ids=lambda sp: sp.label)
def test_stable_certificates_match_the_reference(space):
    structures = enumerate_structures(space)
    if not structures:
        pytest.skip("a self-conjugate summand: no invariant base structure")
    verdicts = []
    for s in _stable_tables(space):
        verdicts.append(certified(s))
        assert verdicts[-1] == stable_certificate_reference(s)
    # a relative table of an invariant structure is certified
    assert all(verdicts[::2])


CP3_CHI_Y = {"cp3-standard": "-y^3 + y^2 - y + 1", "cp3-e11-minus": "y^2 - y", "cp3-null": "0"}


@pytest.mark.parametrize("preset", sorted(CP3_CHI_Y))
@pytest.mark.parametrize("v", [(11, 5, 2, 1), (1, 2, 3, 4), (7, -3, 2, 20)])
def test_stable_chi_y_under_another_ordering(preset, v):
    s = catalog_entry("CP3").stable_structure(preset)
    assert chi_y_genus(s).to_text() == CP3_CHI_Y[preset]
    assert chi_y_genus(s, ordering=Ordering(v)) == chi_y_genus(s)


def test_an_ordering_vanishing_on_a_stable_weight_is_refused():
    # x1 - x2 is a tangent weight of CP3 at the point of the first coordinate
    s = catalog_entry("CP3").stable_structure("cp3-e11-minus")
    with pytest.raises(ValueError, match="not generic"):
        chi_y_genus(s, ordering=Ordering((1, 1, 2, 3)))
    with pytest.raises(ValueError, match="not generic"):
        index_counts(s, Ordering((1, 1, 2, 3)))
