"""Slow, direct references for the root-data kernels.

The package's coset search keys each Weyl element by its images of the
simple roots and composes a full root permutation only for a kept
representative; `coset_search_reference` composes and hashes the full
permutation of every candidate product.  The package's residue certificate
groups interned weights by small-int codes and sums int coefficients;
`residues_cancel_reference` groups the weight vectors themselves and sums
Fractions.  Tests compare the two.
"""

from fractions import Fraction

from homgenus.rootdata import canonical_positive, compose, dot


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
