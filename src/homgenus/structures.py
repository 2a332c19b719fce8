"""Homogeneous spaces G/H and their invariant / stable tangential structures.

A space is a pair (group, maximal-rank subgroup).  The complementary roots
split into orbits of the subgroup's Weyl group acting on signed roots; an
invariant almost complex structure is a choice of sign on each orbit, and a
stable tangential structure is a per-fixed-point sign table refining that.
"""

import itertools
import math
from functools import cached_property
from operator import add

from .rootdata import (
    CosetSpace,
    InputError,
    SubgroupData,
    build_group,
    canonical_positive,
    default_ordering,
    dot,
    space_from_doc,
    vec,
    vec_neg,
)

STRUCTURE_CAP = 20


def _comp_sort_key(root):
    lead = next(i for i, c in enumerate(root) if c)
    return (lead, root)


class Summand:
    """One irreducible isotropy summand: an orbit of signed complementary
    roots under the subgroup Weyl group, up to total sign."""

    __slots__ = ("line_indices", "orientation", "self_conjugate")

    def __init__(self, line_indices, orientation, self_conjugate):
        self.line_indices = tuple(line_indices)
        self.orientation = tuple(orientation)
        self.self_conjugate = self_conjugate

    def __repr__(self):
        return "Summand(lines=%s%s)" % (
            self.line_indices,
            ", self-conjugate" if self.self_conjugate else "",
        )

    def __len__(self):
        return len(self.line_indices)


class HomogeneousSpace:
    """G/H with positive Euler characteristic, plus cached Weyl data."""

    def __init__(self, group, subgroup, label=None):
        self.group = group
        self.subgroup = subgroup
        self.label = label or "%s/%s" % (group.label, subgroup.label)
        self.ordering = default_ordering(group.dim)
        # line -> index of the root of G that is a positive multiple of it
        along = {}
        for i, r in enumerate(group.roots):
            if r in subgroup.root_set:
                continue
            line, scale = canonical_positive(r, self.ordering)
            if scale > 0:
                along[line] = i
        self.comp_roots = tuple(sorted(along, key=_comp_sort_key))
        self.n = len(self.comp_roots)  # complex dimension of G/H
        # group.roots[comp_root_indices[l]] is the positive root on line comp_roots[l]
        self.comp_root_indices = tuple(along[line] for line in self.comp_roots)
        self._structures = {}  # summand signs -> the one InvariantStructure
        self._count_vectors = {}  # packed index counts -> the interned tuple

    def __repr__(self):
        return "HomogeneousSpace(%s)" % self.label

    def structure(self, signs):
        """The invariant structure with these summand signs: built and
        validated on the first request, the same object on every later one."""
        signs = tuple(signs)
        j = self._structures.get(signs)
        if j is None:
            j = self._structures[signs] = InvariantStructure(self, signs)
        return j

    @cached_property
    def _inventory(self):
        """Every invariant structure, in itertools.product order of the
        summand signs, with the index counts of all of them from one batched
        pass; empty when a summand is self-conjugate.  Unbounded:
        enumerate_structures checks the cap before reading it."""
        if any(sm.self_conjugate for sm in self.summands):
            return ()
        choices = ((1, -1),) * len(self.summands)
        inventory = []
        for signs, counts in zip(itertools.product(*choices), self._count_indices(choices)):
            j = self.structure(signs)
            j._index_counts = counts
            inventory.append(j)
        return tuple(inventory)

    @cached_property
    def _su_inventory(self):
        """The structures of the inventory whose first Chern class vanishes.

        The c1 vectors of all sign choices, in itertools.product order, come
        from one pass over summand_chern: each summand doubles the list of
        partial sums with +c1_k and -c1_k."""
        if not self._inventory:
            # no structures: a self-conjugate summand, which the cap lets past
            return ()
        sums = [(0,) * self.group.dim]
        for c1 in self.summand_chern:
            neg = tuple(-c for c in c1)
            sums = [tuple(map(add, total, part)) for total in sums for part in (c1, neg)]
        return tuple(j for j, total in zip(self._inventory, sums) if not any(total))

    @cached_property
    def _index_groups(self):
        """(sizes, groups) for _count_indices: the number of lines of each
        summand, and the fixed points grouped by (a_1, ..., a_s), with a_k
        the number of lines of summand k whose reference weight
        orientation * image is negative at the point, mapped to the size of
        the group."""
        negative = sum(
            1 << li for sm in self.summands for li, o in zip(sm.line_indices, sm.orientation) if o < 0
        )
        summand_masks = [sum(1 << li for li in sm.line_indices) for sm in self.summands]
        groups = {}
        for mask in self.line_sign_masks:
            mask ^= negative
            key = tuple((mask & sm).bit_count() for sm in summand_masks)
            groups[key] = groups.get(key, 0) + 1
        return tuple(len(sm) for sm in self.summands), groups

    def _count_indices(self, choices):
        """The index counts of the structures whose summand signs range over
        `choices` (one tuple of signs per summand), in itertools.product
        order.

        Under signs sigma, a point's index is the sum over the summands k of
        a_k where sigma_k = +1 and |S_k| - a_k where sigma_k = -1.  A
        depth-first pass over the summands carries, for each group of points
        that agree on the summands still to come, the polynomial
        sum_p y^(index so far) packed in one int, one bit field per power of
        y.  A field holds at most the number of fixed points, so adding
        never carries.  Equal vectors are one interned tuple."""
        sizes, groups = self._index_groups
        width = len(self.cosets).bit_length()
        field = (1 << width) - 1
        shifts = range(0, (self.n + 1) * width, width)
        vectors = self._count_vectors
        out = []

        def walk(k, groups):
            if k == len(sizes):
                packed = groups[()]
                counts = vectors.get(packed)
                if counts is None:
                    counts = vectors[packed] = tuple(packed >> sh & field for sh in shifts)
                out.append(counts)
                return
            size = sizes[k]
            for sign in choices[k]:
                nxt = {}
                for key, packed in groups.items():
                    rest = key[1:]
                    nxt[rest] = nxt.get(rest, 0) + (packed << (key[0] if sign > 0 else size - key[0]) * width)
                walk(k + 1, nxt)

        walk(0, groups)
        return out

    @cached_property
    def simple_roots(self):
        """The simple roots of G under the space's ordering."""
        return self.group.simple_roots(self.ordering)

    @cached_property
    def subgroup_simple(self):
        """The simple roots of H under the space's ordering."""
        return self.subgroup.simple_roots(self.ordering)

    @cached_property
    def subgroup_reflections(self):
        """The simple reflections of H, as permutations of the ambient
        group's root list: they generate W_H, which is never enumerated."""
        return tuple(self.group.reflection_perm(a) for a in self.subgroup_simple)

    @cached_property
    def weyl(self):
        """W, in (length, word) order, for inspection and tests: no library path builds it."""
        return CosetSpace(self.group, self.simple_roots, ())

    @cached_property
    def subgroup_weyl(self):
        """W_H, as permutations of the ambient group's root list; built on
        demand for inspection and tests, never by the library itself."""
        return CosetSpace(self.group, self.subgroup_simple, ())

    @cached_property
    def cosets(self):
        return CosetSpace(self.group, self.simple_roots, self.subgroup_simple)

    @property
    def euler_characteristic(self):
        return len(self.cosets)

    @cached_property
    def point_roots(self):
        """point_roots[w][l] = the index of the root that coset rep w makes
        of the positive root on line comp_roots[l]: the tangent weight of
        line l at fixed point w under the sign +1.  Every weight table below
        reads it."""
        ks = self.comp_root_indices
        return tuple(tuple(map(rep.perm.__getitem__, ks)) for rep in self.cosets.representatives)

    @cached_property
    def coset_root_images(self):
        """coset_root_images[w][l] = roots[point_roots[w][l]], a root of G."""
        roots = self.group.roots
        return tuple(tuple(map(roots.__getitem__, row)) for row in self.point_roots)

    @cached_property
    def root_values(self):
        """root_values[i] = <roots[i], v>, v the ordering's functional, for
        every root of G: an int wherever it is integral."""
        v = self.ordering.v
        return vec(dot(r, v) for r in self.group.roots)

    def negative_roots(self, ordering):
        """negative[i]: is roots[i] on the negative side of `ordering`?
        ValueError when the functional vanishes on a tangent weight."""
        values = [dot(r, ordering.v) for r in self.group.roots]
        if 0 in values:
            for row in self.point_roots:
                for r in row:
                    if not values[r]:
                        ordering.sign(self.group.roots[r])  # raises
        return [x < 0 for x in values]

    @cached_property
    def line_sign_masks(self):
        """One int per fixed point, with bit l set where the root
        point_roots[w][l] is negative under the space's ordering."""
        negative = self.negative_roots(self.ordering)
        return tuple(sum(1 << l for l, r in enumerate(row) if negative[r]) for row in self.point_roots)

    @cached_property
    def residues_cancel(self):
        """The residue-pairing certificate for every invariant structure at
        once.  Under summand signs sigma a line's weights are sigma times the
        reference weights orientation * image, so grouping by summand labels
        as well makes each group's residue sigma times the reference one."""
        # a self-conjugate summand admits no invariant structure at all
        if any(sm.self_conjugate for sm in self.summands):
            return False
        # (summand k, roots[r]) has the id k * len(roots) + r, and a line's
        # reference weight at w is roots[point_roots[w][l]] times its orientation
        roots, neg = self.group.roots, self.group.negation
        cols = [None] * self.n
        for k, sm in enumerate(self.summands):
            for li, o in zip(sm.line_indices, sm.orientation):
                cols[li] = [k * len(roots) + r for r in (neg if o < 0 else range(len(roots)))]
        # each id is one int object, which every row holding it shares
        rows = [(1, [col[r] for col, r in zip(cols, row)]) for row in self.point_roots]
        return _residues_cancel(rows, roots, self.ordering)

    @cached_property
    def summand_chern(self):
        """summand_chern[k] = the sum of orientation * line over summand k:
        its contribution to the first Chern vector under the sign +1."""
        dim = self.group.dim
        return tuple(
            tuple(
                sum(o * self.comp_roots[li][i] for li, o in zip(sm.line_indices, sm.orientation))
                for i in range(dim)
            )
            for sm in self.summands
        )

    @cached_property
    def summands(self):
        """The isotropy summands: the W_H-orbits of the signed complementary
        roots, up to total sign, in the order of their first lines."""
        roots, neg = self.group.roots, self.group.negation
        line_index = {r: i for i, r in enumerate(self.comp_roots)}
        gens = self.subgroup_reflections
        assigned = {}
        summands = []
        for i, k in enumerate(self.comp_root_indices):
            if i in assigned:
                continue
            # orbit of the signed root +rho_i under W_H, as root indices: the
            # closure of {k} under H's simple reflections
            orbit = {k}
            frontier = [k]
            while frontier:
                j = frontier.pop()
                for g in gens:
                    if g[j] not in orbit:
                        orbit.add(g[j])
                        frontier.append(g[j])
            self_conj = any(neg[j] in orbit for j in orbit)
            orient = {}
            for j in orbit:
                line, scale = canonical_positive(roots[j], self.ordering)
                orient[line_index[line]] = 1 if scale > 0 else -1
            lines = sorted(orient)
            for li in lines:
                assigned[li] = len(summands)
            if self_conj:
                summands.append(Summand(lines, (0,) * len(lines), True))
            else:
                summands.append(Summand(lines, tuple(orient[li] for li in lines), False))
        summands.sort(key=lambda s: s.line_indices[0])
        return tuple(summands)


def make_space(group, subgroup_roots=None, label=None):
    """Build a HomogeneousSpace from a group spec and subgroup root list.

    `group` may be a GroupData or a name like "Sp(3)"; `subgroup_roots` a
    list of vectors (negation closure is completed automatically).
    """
    if isinstance(group, str):
        group = build_group(group)
    roots = []
    seen = set()
    for r in subgroup_roots or ():
        r = vec(r)
        for s in (r, vec_neg(r)):
            if s not in seen:
                seen.add(s)
                roots.append(s)
    sub = SubgroupData(group, roots)
    return HomogeneousSpace(group, sub, label=label)


def space_from_json(doc, label=None):
    group, sub = space_from_doc(doc)
    return HomogeneousSpace(group, sub, label=label or doc.get("label"))


class InvariantStructure:
    """An invariant almost complex structure: a sign per isotropy summand.

    `space.structure(signs)` hands out the space's one structure per sign
    tuple; calling the class directly builds an equal, separate object."""

    __slots__ = ("space", "summand_signs", "_eps", "_index_counts")
    global_sign = 1  # the orientation a stable structure may reverse

    def __init__(self, space, summand_signs):
        if len(summand_signs) != len(space.summands):
            raise InputError(
                "expected %d summand signs, got %d" % (len(space.summands), len(summand_signs))
            )
        for k, (s, sm) in enumerate(zip(summand_signs, space.summands)):
            if s not in (1, -1):
                raise InputError("signs must be +1 or -1")
            if sm.self_conjugate:
                raise InputError(
                    "%s has no invariant almost complex structure: isotropy summand %d of %d is self-conjugate"
                    % (space.label, k + 1, len(space.summands))
                )
        self.space = space
        self.summand_signs = tuple(summand_signs)
        self._eps = None
        self._index_counts = None

    @property
    def eps(self):
        """Sign on each complementary root line, in comp_roots order; built
        on first read, which the inventory's structures mostly never make."""
        if self._eps is None:
            eps = [0] * self.space.n
            for sign, sm in zip(self.summand_signs, self.space.summands):
                for li, ori in zip(sm.line_indices, sm.orientation):
                    eps[li] = sign * ori
            self._eps = tuple(eps)
        return self._eps

    @property
    def index_counts(self):
        """counts[ind] = number of fixed points with ind weights on the
        negative side of the space's ordering, ind = 0..n, as a tuple the
        space interns: structures with equal counts share it.  Counted with
        the space's inventory, or on first use."""
        if self._index_counts is None:
            (self._index_counts,) = self.space._count_indices(tuple((s,) for s in self.summand_signs))
        return self._index_counts

    @property
    def roots(self):
        """The structure's weight roots at the identity coset, in comp_roots
        order: the identity row of `signed_root_table`, read without the
        coset search."""
        group = self.space.group
        ids = _signed_ids(self.eps, self.space.comp_root_indices, group.negation)
        return tuple(map(group.roots.__getitem__, ids))

    def to_signs(self):
        return "".join("+" if s > 0 else "-" for s in self.summand_signs)

    def conjugate(self):
        return self.space.structure(-s for s in self.summand_signs)

    def __eq__(self, other):
        return (
            isinstance(other, InvariantStructure)
            and self.space is other.space
            and self.summand_signs == other.summand_signs
        )

    def __hash__(self):
        return hash((id(self.space), self.summand_signs))

    def __repr__(self):
        return "InvariantStructure(%s, %s)" % (self.space.label, self.to_signs())


def parse_signs(space, text):
    text = text.strip()
    if set(text) - set("+-"):
        raise InputError("sign string may only contain '+' and '-': %r" % (text,))
    return space.structure(1 if c == "+" else -1 for c in text)


def _check_cap(space):
    """Refuse an inventory of more than 2^STRUCTURE_CAP structures before any
    is built; a space with a self-conjugate summand has none, whatever its
    size."""
    s = len(space.summands)
    if s > STRUCTURE_CAP and not any(sm.self_conjugate for sm in space.summands):
        raise InputError("too many summands (%d) for exhaustive enumeration; cap is %d" % (s, STRUCTURE_CAP))


def enumerate_structures(space):
    """All invariant almost complex structures (2^s sign choices), as a
    fresh list of the space's own structure objects in itertools.product
    order.

    Returns [] when some summand is conjugation-invariant, in which case no
    invariant structure exists at all.
    """
    _check_cap(space)
    return list(space._inventory)


def first_chern(structure):
    """First Chern class as a weight vector: the sum of the structure roots,
    formed as the signed sum of the space's per-summand vectors."""
    total = [0] * structure.space.group.dim
    for sign, c1 in zip(structure.summand_signs, structure.space.summand_chern):
        for i, c in enumerate(c1):
            total[i] += sign * c
    return tuple(total)


def find_su_structures(space):
    """Invariant structures with vanishing first Chern class, found once per
    space."""
    _check_cap(space)
    return list(space._su_inventory)


def c1_divisibility(structure, n):
    """Is every coordinate of c_1 divisible by n (in the weight lattice)?"""
    if n <= 0:
        raise InputError("divisor must be positive")
    return all(c % n == 0 for c in first_chern(structure))


def is_integrable(structure):
    """Does some Weyl element move the structure roots into a positive system?

    Exhaustive over the ambient Weyl group, by way of the coset
    representatives: the structure roots are W_H-stable, so w and w h send
    them to the same set.  Exact.  The subgroup's positive system can always
    be chosen compatibly afterwards, so this single check settles
    integrability of the invariant structure.  An element whose image of some
    structure root is not oriented by the ordering gives no verdict.
    """
    side = structure.space.root_values
    return any(all(side[r] > 0 for r in ids) for _, ids in signed_root_table(structure))


class StableStructure:
    """A stable tangential structure: per-fixed-point signs over a reference
    invariant structure, plus a global orientation sign."""

    __slots__ = ("space", "base", "table", "global_sign", "name", "_index_counts")

    def __init__(self, space, base, table, global_sign=1, name=None):
        if not (isinstance(base, InvariantStructure) and base.space is space):
            raise InputError("a stable structure's base must be an invariant structure on %s" % space.label)
        self.space = space
        self.base = base
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != space.euler_characteristic:
            raise InputError(
                "sign table needs one row per fixed point (%d), got %d"
                % (space.euler_characteristic, len(self.table))
            )
        for row in self.table:
            if len(row) != space.n:
                raise InputError("each sign-table row needs %d entries" % space.n)
            if any(s not in (1, -1) for s in row):
                raise InputError("table entries must be +1 or -1")
        if global_sign not in (1, -1):
            raise InputError("global sign must be +1 or -1")
        self.global_sign = global_sign
        self.name = name
        self._index_counts = None

    @property
    def index_counts(self):
        """`index_counts(self)`, counted on first use."""
        if self._index_counts is None:
            self._index_counts = index_counts(self)
        return self._index_counts

    def __repr__(self):
        return "StableStructure(%s%s)" % (self.space.label, ", " + self.name if self.name else "")


class FixedPoint:
    """Localization data at one coset: signed weights and an overall sign."""

    __slots__ = ("index", "rep", "weights", "sign")

    def __init__(self, index, rep, weights, sign):
        self.index = index
        self.rep = rep
        self.weights = tuple(weights)
        self.sign = sign

    def __repr__(self):
        return "FixedPoint(%d, sign=%+d, weights=%s)" % (self.index, self.sign, list(self.weights))


def residues_cancel(points, ordering):
    """The residue-pairing certificate (Goresky-Kottwitz-MacPherson) that the
    localization sum over `points` has no pole.

    `points` is a list of (sign, weights, labels), one label per weight.  The
    sum of sign * g(weights) / prod(weights), for any symmetric polynomial g,
    has at most a simple pole along each weight line l.  Its residue there is
    the sum, over the points with a weight c * l, of sign / c times
    g(0, others) / prod(others), the other weights taken modulo l.  Points
    whose other weights agree modulo l, as a multiset of (label, weight),
    share that term; when sign / c sums to zero in every such group, for
    every line, the sum is a polynomial.  The lines must also not vanish at
    the ordering's functional, where the point route evaluates.  Raises
    ValueError when two weights of one point share a line.
    """
    rows, roots = _intern([(sign, ws) for sign, ws, _ in points])
    labelled, _ = _intern([(sign, ls) for sign, _, ls in points])
    rows = [(sign, [k * len(roots) + r for k, r in zip(ks, ids)]) for (sign, ids), (_, ks) in zip(rows, labelled)]
    return _residues_cancel(rows, roots, ordering)


def _intern(points):
    """(rows, roots): the distinct weights of the (sign, weights) points in
    order of first appearance, and each point as (sign, ids) over them."""
    roots = {}  # weight -> its id
    return [(sign, [roots.setdefault(w, len(roots)) for w in ws]) for sign, ws in points], list(roots)


def _residues_cancel(rows, roots, ordering):
    """`residues_cancel` on root ids: `rows` holds (sign, ids), one id per
    weight, and the id k stands for the label k // R and the weight
    roots[k % R], with R = len(roots).

    Each root's line and scale come from one `canonical_positive`.  On line l
    a root reduces to its class modulo l, w -> l_i * w - w_i * l; the classes
    of the R roots get small int codes once per line, and the id k the code
    (k // R) * classes + code[k % R], one per (label, class).  A point with a
    weight on l is keyed by the sorted codes of all its weights: the one on l
    reduces to (its label, 0) and no other weight can, so the key holds the
    same data as (label on l, multiset of the others).  sign / c is summed as
    the int sign * q * (M // p), with c = p / q and M the lcm of the
    numerators."""
    if not roots:
        return True  # no weights, so no line to carry a pole
    lines = {}  # line -> its index
    line_of, scales = [], []  # per root: the index of its line, and its scale
    for r in roots:
        line, scale = canonical_positive(r, ordering)
        line_of.append(lines.setdefault(line, len(lines)))
        scales.append(scale)
    big = math.lcm(*(abs(scale.numerator) for scale in scales))
    coeff = [scale.denominator * (big // scale.numerator) for scale in scales]
    # every id's line and coefficient, through the labels the rows use
    labels = max((max(row) for _, row in rows if row), default=0) // len(roots) + 1
    line_of *= labels
    coeff *= labels
    # for each point with a weight on line l, in step: its id on l and its index in rows
    ids = [[] for _ in lines]
    at = [[] for _ in lines]
    for j, (_, row) in enumerate(rows):
        on = list(map(line_of.__getitem__, row))
        if len(set(on)) != len(on):
            raise ValueError("two isotropy weights at one fixed point share a line")
        for li, k in zip(on, row):
            ids[li].append(k)
            at[li].append(j)
    v = ordering.v
    for line, line_ids, line_at in zip(lines, ids, at):
        if not line_ids:
            continue
        if not dot(line, v):
            return False
        i = next(k for k, c in enumerate(line) if c)
        classes = {}
        root_code = [
            classes.setdefault(tuple(line[i] * c - w[i] * lc for c, lc in zip(w, line)), len(classes))
            for w in roots
        ]
        code = [label * len(classes) + c for label in range(labels) for c in root_code]
        sums = {}
        for k, j in zip(line_ids, line_at):
            sign, row = rows[j]
            key = tuple(sorted(map(code.__getitem__, row)))
            sums[key] = sums.get(key, 0) + sign * coeff[k]
        if any(sums.values()):
            return False
    return True


def _signed_ids(eps, row, negation):
    """The ids of the weights eps_l * roots[row[l]]: row[l], or its
    negation's id where eps_l is -1."""
    return [r if e > 0 else negation[r] for e, r in zip(eps, row)]


def signed_root_table(structure):
    """The structure's fixed points as (sign, ids) rows, in coset order: the
    weight on line l at point w is roots[ids[l]], the root point_roots[w][l]
    or, where the line's sign is -1, its negation.  Built on each call.

    For a stable structure the per-point sign is the product of that point's
    table entries -- the sign RELATIVE to the reference invariant structure.
    The global orientation sign is deliberately not folded in here: genera of
    the oriented manifold (chi_y, the genus expansion, s_omega) multiply it
    back themselves, while the rigidity functionals work with the relative
    data, which is what makes them structure-independent for odd kernels.
    """
    space = structure.space
    neg = space.group.negation
    if isinstance(structure, InvariantStructure):
        eps = structure.eps
        return [(1, _signed_ids(eps, row, neg)) for row in space.point_roots]
    if isinstance(structure, StableStructure):
        base_eps = structure.base.eps
        return [
            (math.prod(signs), _signed_ids((s * e for s, e in zip(signs, base_eps)), row, neg))
            for signs, row in zip(structure.table, space.point_roots)
        ]
    raise TypeError("expected an InvariantStructure or StableStructure")


def point_indices(structure, ordering=None):
    """(sign, index) at each fixed point: its `signed_root_table` sign and
    the number of its weights on the negative side of `ordering`, by
    default the space's own."""
    space = structure.space
    negative = space.negative_roots(space.ordering if ordering is None else ordering)
    return [(sign, sum(map(negative.__getitem__, ids))) for sign, ids in signed_root_table(structure)]


def index_counts(structure, ordering=None):
    """counts[ind] = the signed number of fixed points of index ind
    (`point_indices`) times the global orientation, ind = 0..n, as a tuple.
    An invariant structure keeps the batched count of its space's ordering
    (`InvariantStructure.index_counts`)."""
    counts = [0] * (structure.space.n + 1)
    for sign, index in point_indices(structure, ordering):
        counts[index] += structure.global_sign * sign
    return tuple(counts)


def fixed_points(structure):
    """Fixed-point localization data for an invariant or stable structure:
    `signed_root_table` with each id read as its root vector."""
    space = structure.space
    roots = space.group.roots
    return [
        FixedPoint(i, rep, map(roots.__getitem__, ids), sign)
        for i, (rep, (sign, ids)) in enumerate(zip(space.cosets.representatives, signed_root_table(structure)))
    ]
