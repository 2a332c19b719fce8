"""Slow, direct references for the root-data kernels.

The package's coset search keys each Weyl element by its images of the
simple roots and composes a full root permutation only for a kept
representative; `coset_search_reference` composes and hashes the full
permutation of every candidate product.  The package's residue certificate
groups interned weights by small-int codes and sums int coefficients;
`residues_cancel_reference` groups the weight vectors themselves and sums
Fractions.  The package finds the blocks of a block-diagonal subgroup of
U(n) in one pass and matches two fixed points' weights on a Counter;
`block_partition_reference` uses union-find and `match_weights_reference` a
dict that drops spent weights.  The package reads every tangent weight
as a root id of one signed-root table, `structures.signed_root_table`,
built on `HomogeneousSpace.point_roots`; `point_tables_reference` composes
each representative's permutation with the line roots,
`signed_points_reference` signs those vectors coordinate by coordinate,
`index_counts_reference` signs each weight vector of `fixed_points` with
`Ordering.sign`, and `stable_certificate_reference` runs `residues_cancel`
on those vectors.  The package certifies odd genera by grouping the fixed
points by their line sets; `pairing_walk_reference` walks W for a left
translation that pairs them, on the reference search's coset action.
Tests compare the two.
"""

import math
from fractions import Fraction
from functools import cache

from homgenus.rootdata import canonical_positive, compose, dot
from homgenus.structures import StableStructure, fixed_points, residues_cancel


def coset_search_reference(group, simple, h_simple):
    """((perm, word) per representative, action) of the left cosets of W_H
    in W, by the same breadth-first search as `CosetSpace`, each candidate
    keyed by its whole root permutation."""
    gens = [group.reflection_perm(a) for a in simple]
    letter = {group.root_index[a]: g for g, a in enumerate(simple)}
    h_roots = [group.root_index[a] for a in h_simple]
    ident = tuple(range(len(group.roots)))
    reps, index = [(ident, ())], {ident: 0}
    blocked = [{letter[a] for a in h_roots if a in letter}]
    action = [[] for _ in gens]
    done = 0
    while done < len(reps):
        level = range(done, len(reps))
        for g, (gen, row) in enumerate(zip(gens, action)):
            for i in level:
                if g in blocked[i]:
                    row.append(i)
                    continue
                p = compose(gen, reps[i][0])
                j = index.get(p)
                if j is None:
                    j = index[p] = len(reps)
                    reps.append((p, (g,) + reps[i][1]))
                    blocked.append({letter[p[a]] for a in h_roots if p[a] in letter})
                row.append(j)
        done = level.stop
    return reps, tuple(map(tuple, action))


def coset_action_reference(action, word, n):
    """The permutation of the n coset indices by which the element with this
    word acts on the left: the letters' rows of `action`, applied right to
    left."""
    sigma = tuple(range(n))
    for g in reversed(word):
        sigma = compose(action[g], sigma)
    return sigma


@cache
def _walk_tables(space):
    """W's words and the action table on G/H of the reference search, built
    once per space for the walk."""
    weyl, _ = coset_search_reference(space.group, space.simple_roots, ())
    _, action = coset_search_reference(space.group, space.simple_roots, space.subgroup_simple)
    return [word for _, word in weyl], action


def pairing_walk_reference(structure):
    """The pairs of the first non-identity t in W, in (length, word) order,
    whose left action pairs the cosets without fixed points, with each
    pair's weights matched up to k sign flips (`match_weights_reference`) and
    sign(p) + sign(q) (-1)^k = 0: [{"pair": (i, j), "flips": k}, ...] with
    i < j, or None when no t does."""
    weyl, action = _walk_tables(structure.space)
    points = signed_points_reference(structure)
    for word in weyl[1:]:
        sigma = coset_action_reference(action, word, len(points))
        if any(sigma[i] == i or sigma[sigma[i]] != i for i in range(len(sigma))):
            continue
        pairs = []
        for i, j in enumerate(sigma):
            if i > j:
                continue
            (si, wi), (sj, wj) = points[i], points[j]
            k = match_weights_reference(wi, wj)
            if k is None or si + sj * (-1) ** k:
                break
            pairs.append({"pair": (i, j), "flips": k})
        else:
            return pairs
    return None


def residues_cancel_reference(points, ordering):
    """`structures.residues_cancel`, grouping each line's points by the
    label on the line and the sorted (label, weight modulo the line) pairs of
    their other weights, with sign / c summed as Fractions."""
    canonical = {}
    by_line = {}
    for sign, ws, labels in points:
        cw = []
        for w in ws:
            c = canonical.get(w)
            if c is None:
                c = canonical[w] = canonical_positive(w, ordering)
            cw.append(c)
        if len({line for line, _ in cw}) != len(cw):
            raise ValueError("two isotropy weights at one fixed point share a line")
        for j, (line, scale) in enumerate(cw):
            by_line.setdefault(line, []).append((Fraction(sign, scale), j, ws, labels))
    for line, members in by_line.items():
        if not dot(line, ordering.v):
            return False
        i = next(k for k, c in enumerate(line) if c)
        groups = {}
        for coeff, j, ws, labels in members:
            others = sorted(
                (labels[m], tuple(line[i] * c - w[i] * lc for c, lc in zip(w, line)))
                for m, w in enumerate(ws)
                if m != j
            )
            key = (labels[j], tuple(others))
            groups[key] = groups.get(key, 0) + coeff
        if any(groups.values()):
            return False
    return True


def block_partition_reference(space):
    """toricgenus._block_partition by union-find over the subgroup roots,
    each of which must have exactly two nonzero coordinates, the blocks then
    checked to be filled by the subgroup roots."""
    g = space.group
    if not (g.label.startswith("U(") or g.label.startswith("SU(")):
        return None
    n = g.dim
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    sub_roots = set(space.subgroup.root_set)
    for r in space.subgroup.root_set:
        nz = [i for i, c in enumerate(r) if c]
        if len(nz) != 2:
            return None
        i, j = nz
        parent[find(i)] = find(j)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    block_list = sorted((tuple(sorted(b)) for b in blocks.values()), key=lambda b: b[0])
    expect = set()
    for b in block_list:
        for i in b:
            for j in b:
                if i != j:
                    r = [0] * n
                    r[i], r[j] = 1, -1
                    expect.add(tuple(r))
    if expect != sub_roots:
        return None
    return block_list


def match_weights_reference(wa, wb):
    """Match the multiset wb against +/- wa on a dict of counts that drops a
    weight when its count reaches zero: the number of weights of wa that wb
    holds negated, or None when wb is not wa up to sign."""
    remaining = {}
    for r in wb:
        key = tuple(r)
        remaining[key] = remaining.get(key, 0) + 1

    def take(key):
        c = remaining.get(key, 0)
        if not c:
            return False
        if c == 1:
            del remaining[key]
        else:
            remaining[key] = c - 1
        return True

    flips = 0
    for w in wa:
        if take(tuple(w)):
            continue
        if take(tuple(-c for c in w)):
            flips += 1
        else:
            return None
    return flips if not remaining else None


def point_tables_reference(space):
    """coset_root_images of `space`: roots[rep.perm[comp_root_indices[l]]]
    for every representative."""
    roots, ks = space.group.roots, space.comp_root_indices
    return tuple(tuple(roots[rep.perm[k]] for k in ks) for rep in space.cosets.representatives)


def signed_points_reference(structure):
    """(sign, weights) at each fixed point, every weight the vector e * image
    of `point_tables_reference` with e the line's sign; a stable structure's
    line signs are its table row times the base structure's, and its point
    sign the product of the row."""
    space = structure.space
    if isinstance(structure, StableStructure):
        rows = [(math.prod(row), [s * e for s, e in zip(row, structure.base.eps)]) for row in structure.table]
    else:
        rows = [(1, structure.eps)] * space.euler_characteristic
    return [
        (sign, [tuple(e * c for c in img) for e, img in zip(eps, images)])
        for (sign, eps), images in zip(rows, point_tables_reference(space))
    ]


def index_counts_reference(structure, ordering):
    """structures.index_counts: each fixed point's weights signed by
    `ordering` one vector at a time, the point counted with its sign times
    the global orientation."""
    counts = [0] * (structure.space.n + 1)
    for fp in fixed_points(structure):
        counts[sum(1 for w in fp.weights if ordering.sign(w) < 0)] += structure.global_sign * fp.sign
    return tuple(counts)


def stable_certificate_reference(structure):
    """toricgenus.certified on a stable structure: `residues_cancel` on the
    weight vectors of `fixed_points`, every weight labelled 0."""
    points = [(fp.sign, fp.weights, (0,) * len(fp.weights)) for fp in fixed_points(structure)]
    return residues_cancel(points, structure.space.ordering)
