"""Root systems, Weyl groups, and coset enumeration in exact arithmetic.

Groups are presented concretely: a coordinate dimension d, a finite list of
roots (integer/rational vectors of length d), and optionally a Gram matrix
when the natural coordinates are not orthonormal (G2).  A Weyl group acts
faithfully on its roots (Humphreys, Reflection Groups and Coxeter Groups,
1.10; Casselman, Machine calculations in Weyl groups, 1994), so each element
is stored as a permutation of the group's root list, together with a word in
the simple reflections.  One breadth-first search (CosetSpace) builds the
minimal representatives of the cosets W/W_H, and with H trivial the elements
of W, each with its lexicographically least reduced word.  Elements act on
roots, and on weights built from them, through the permutation alone.

Supported named groups: U(n), SU(n), Sp(n), SO(n), G2, and tori (U(1), Tn)
which contribute no roots.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

COSET_CAP = 100000


class InputError(ValueError):
    """The caller's input is malformed or too large to run, as opposed to a
    mathematical failure: raised where the library checks its arguments, and
    the command line exits 1 on it.  A ValueError, so `except ValueError`
    still catches it."""


def vec(values):
    """An exact lattice vector: ints where integral, Fractions elsewhere."""
    return tuple(map(_exact, values))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def dot(u, v):
    return sum(map(mul, u, v))


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if isinstance(x, int):
        return int(x)
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def compose(p, q):
    """The permutation p o q: apply q first, then p."""
    return tuple(map(p.__getitem__, q))


class Ordering:
    """A linear functional v picking the positive half of each root line.

    ``sign(root) = sgn <root, v>``; the ordering must be generic, i.e. never
    vanish on a root we ask about.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = vec(v)

    def __repr__(self):
        return "Ordering(%s)" % (self.v,)

    def sign(self, root):
        s = dot(root, self.v)
        if s > 0:
            return 1
        if s < 0:
            return -1
        raise ValueError("ordering is not generic: functional vanishes on root %s" % (root,))


def default_ordering(dim):
    """The standard generic functional (d, d-1, ..., 1)."""
    return Ordering(tuple(range(dim, 0, -1)))


def canonical_positive(vector, ordering=None):
    """Primitive integer representative of the line through `vector`,
    oriented positively (default ordering when possible, else first nonzero
    coordinate positive).  Returns (line, scale) with vector == scale * line:
    the line is a tuple of ints, and the scale an int when `vector` is
    integral, else a Fraction.
    """
    if all(not c for c in vector):
        raise InputError("zero vector has no direction")
    # ints and Fractions both carry numerator and denominator
    denom = lcm(*[c.denominator for c in vector])
    ints = [c.numerator * (denom // c.denominator) for c in vector]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    sign = 0
    if ordering is not None:
        s = dot(ints, ordering.v)
        sign = 1 if s > 0 else (-1 if s < 0 else 0)
    if sign == 0:
        for c in ints:
            if c:
                sign = 1 if c > 0 else -1
                break
    line = tuple(c * sign for c in ints)
    # g and denom are coprime, as denom is the least common denominator
    scale = g * sign if denom == 1 else Fraction(g * sign, denom)
    return line, scale


class GroupData:
    """A compact connected Lie group presented by its root system."""

    def __init__(self, label, dim, roots, gram=None, rank=None):
        self.label = label
        self.dim = dim
        self.roots = tuple(vec(r) for r in roots)
        self.root_set = frozenset(self.roots)
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self.gram = tuple(vec(row) for row in gram) if gram is not None else None
        self.rank = rank if rank is not None else dim
        if self.gram is not None and (len(self.gram) != dim or any(len(row) != dim for row in self.gram)):
            raise InputError("gram must be a %d x %d matrix, got %d rows of lengths %s"
                             % (dim, dim, len(self.gram), sorted({len(row) for row in self.gram})))
        self._reflections = {}  # root -> its reflection, as a root permutation
        negation = []
        for r in self.roots:
            if len(r) != dim:
                raise InputError("root %r has wrong length for dim %d" % (r, dim))
            neg = self.root_index.get(vec_neg(r))
            if neg is None:
                raise InputError("root set not closed under negation at %r" % (r,))
            # the coset search and the order by heights assume a reduced system
            if tuple(2 * c for c in r) in self.root_set:
                raise InputError("root set is not reduced: %r and twice it are both roots" % (r,))
            negation.append(neg)
        self.negation = tuple(negation)  # negation[i] = index of -roots[i]

    def __repr__(self):
        return "GroupData(%s)" % self.label

    def reflection_perm(self, alpha):
        """The reflection in alpha as a permutation of the roots: entry i is
        the index of s_alpha(roots[i]).  Each Cartan number
        2 B(r, alpha) / B(alpha, alpha) is an int quotient on an integral
        lattice; a Fraction only where the lattice holds a genuine rational.
        Built once per root: W, W_H and the cosets share them."""
        alpha = vec(alpha)
        if alpha in self._reflections:
            return self._reflections[alpha]
        # B(r, alpha) = <r, G alpha>, so the Gram matrix enters once
        galpha = alpha if self.gram is None else tuple(dot(row, alpha) for row in self.gram)
        norm = dot(alpha, galpha)
        if not norm:
            raise InputError("cannot reflect in an isotropic vector %r" % (alpha,))
        perm = []
        for r in self.roots:
            twice = 2 * dot(r, galpha)
            if type(twice) is int and type(norm) is int:
                n, rem = divmod(twice, norm)
                if rem:
                    n = Fraction(twice, norm)
            else:
                n = _exact(Fraction(twice) / norm)
            try:
                perm.append(self.root_index[tuple(a - n * b for a, b in zip(r, alpha)) if n else r])
            except KeyError:
                raise InputError(
                    "the reflection in (%s) does not permute the roots of %s"
                    % (", ".join(str(c) for c in alpha), self.label)
                ) from None
        perm = self._reflections[alpha] = tuple(perm)
        return perm

    def positive_roots(self, ordering=None):
        ordering = ordering or default_ordering(self.dim)
        return tuple(r for r in self.roots if ordering.sign(r) > 0)

    def simple_roots(self, ordering=None):
        """Indecomposable positive roots (a simple system)."""
        pos = self.positive_roots(ordering)
        pos_set = set(pos)
        simple = []
        for a in pos:
            if any(vec_sub(a, b) in pos_set for b in pos if b != a):
                continue
            simple.append(a)
        return tuple(sorted(simple))


_GROUP_RE = re.compile(r"^(U|SU|Sp|SO)\((\d+)\)$|^G2$|^T(\d+)$")


def build_group(spec):
    """Construct a named group from a string like "U(3)", "Sp(2)", "G2"."""
    spec = spec.strip()
    m = _GROUP_RE.match(spec)
    if not m:
        raise InputError("unrecognized group %r (expected U(n), SU(n), Sp(n), SO(n), G2, or Tk)" % (spec,))
    if spec == "G2":
        gram = ((2, -1), (-1, 2))
        short = [(1, 0), (0, 1), (1, 1)]
        long = [(1, -1), (2, 1), (1, 2)]
        roots = []
        for r in short + long:
            roots.append(r)
            roots.append(tuple(-c for c in r))
        return GroupData("G2", 2, roots, gram=gram, rank=2)
    if m.group(3) is not None:  # torus Tk
        k = int(m.group(3))
        return GroupData(spec, k, [], rank=k)
    fam, n = m.group(1), int(m.group(2))
    if fam in ("U", "SU"):
        if n < 1:
            raise InputError("need n >= 1 in %r" % (spec,))
        roots = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    r = [0] * n
                    r[i], r[j] = 1, -1
                    roots.append(tuple(r))
        return GroupData(spec, n, roots, rank=n - 1 if fam == "SU" else n)
    if fam == "Sp":
        roots = []
        for i in range(n):
            r = [0] * n
            r[i] = 2
            roots.append(tuple(r))
            roots.append(tuple(-c for c in r))
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        r = [0] * n
                        r[i], r[j] = si, sj
                        roots.append(tuple(r))
        return GroupData(spec, n, roots, rank=n)
    if fam == "SO":
        l = n // 2
        roots = []
        for i in range(l):
            if n % 2 == 1:
                r = [0] * l
                r[i] = 1
                roots.append(tuple(r))
                roots.append(tuple(-c for c in r))
            for j in range(i + 1, l):
                for si in (1, -1):
                    for sj in (1, -1):
                        r = [0] * l
                        r[i], r[j] = si, sj
                        roots.append(tuple(r))
        return GroupData(spec, l, roots, rank=l)
    raise InputError("unrecognized group %r" % (spec,))


class WeylElement:
    """One Weyl group element: a permutation of the root list and a word in
    the simple reflections.  ``perm[i]`` is the index of the image of
    ``roots[i]``; the word, applied right to left, moves the same roots."""

    __slots__ = ("perm", "word")

    def __init__(self, perm, word):
        self.perm = perm
        self.word = word

    def __repr__(self):
        return "WeylElement(word=%s)" % (self.word,)


class SubgroupData:
    """A closed subgroup of maximal rank, presented by its root subset."""

    def __init__(self, group, roots, label=""):
        self.group = group
        self.label = label or "H"
        self.roots = tuple(vec(r) for r in roots)
        self.root_set = frozenset(self.roots)
        for r in self.roots:
            if r not in group.root_set:
                raise InputError("subgroup root %r is not a root of %s" % (r, group.label))
            if vec_neg(r) not in self.root_set:
                raise InputError("subgroup roots not closed under negation at %r" % (r,))
        for a in self.roots:
            for b in self.roots:
                s = vec_add(a, b)
                if s in group.root_set and s not in self.root_set:
                    raise InputError(
                        "subgroup roots not closed under addition: %r + %r is a root of %s but missing"
                        % (a, b, group.label)
                    )

    def __repr__(self):
        return "SubgroupData(%s < %s)" % (self.label, self.group.label)

    def as_group(self):
        """The subgroup viewed as a group in the ambient coordinates."""
        return GroupData(self.label, self.group.dim, self.roots, gram=self.group.gram)

    def simple_roots(self, ordering=None):
        return self.as_group().simple_roots(ordering)


def reflection_group_order(group, simple):
    """The order of the group generated by the reflections in `simple`, a
    simple system of a closed subsystem of the roots of `group`, read off the
    root heights before any reflection is built.  Adding simple roots one at
    a time reaches its positive roots level by level, n_k of them at height k;
    exactly n_k exponents m_i are >= k (Kostant, Amer. J. Math. 81, 1959),
    and the order is the product of the m_i + 1."""
    level, height, order = set(simple), 1, 1
    while level:
        up = {vec_add(b, a) for b in level for a in simple} & group.root_set
        order *= (height + 1) ** (len(level) - len(up))
        level, height = up, height + 1
    return order


class CosetSpace:
    """Left cosets w W_H in W, one representative each, for W generated by
    the reflections in `simple` and W_H by those in `h_simple`, both simple
    systems under one ordering.  With `h_simple` empty the cosets are the
    elements of W.

    Each coset has a unique element of minimal length, the one that maps
    every simple root of H to a positive root (Deodhar, Arch. Math. 53, 1989;
    Dyer, J. Algebra 135, 1990); it is the representative.  Removing the
    first letter of a minimal element's reduced word leaves a minimal
    element, so a breadth-first search that multiplies on the left by the
    simple reflections and keeps the minimal products reaches every
    representative and no other element.  Level by level, with the
    generators in the outer loop and the level's representatives in order in
    the inner loop, the candidate words (g,) + rep.word come in lexicographic
    order: each representative gets its least reduced word, and the
    representatives come in (length, word) order.  The number of cosets is
    the Euler characteristic of G/H; above COSET_CAP it is refused before
    any reflection is built.
    """

    def __init__(self, group, simple, h_simple):
        order, h_order = reflection_group_order(group, simple), reflection_group_order(group, h_simple)
        if order // h_order > COSET_CAP:
            raise InputError(
                "%d cosets W/W_H, above the cap of %d (|W| = %d, |W_H| = %d)"
                % (order // h_order, COSET_CAP, order, h_order)
            )
        gens = [group.reflection_perm(a) for a in simple]
        basis = tuple(group.root_index[a] for a in simple)
        # letter[k] = g when roots[k] is the simple root of s_g
        letter = {k: g for g, k in enumerate(basis)}
        h_roots = [group.root_index[a] for a in h_simple]
        ident = tuple(range(len(group.roots)))
        reps = [WeylElement(ident, ())]
        # an element is fixed by its images of the simple roots (Casselman,
        # Invent. Math. 116, 1994): images[i] holds rep_i's, as root indices,
        # and keys the index; a product is composed only when it is kept
        images, index = [basis], {basis: 0}
        # s_g permutes the positive roots other than its own simple root, so
        # s_g rep_i is minimal unless rep_i maps a simple root of H to that
        # root: blocked[i] holds those g
        blocked = [{letter[a] for a in h_roots if a in letter}]
        done = 0
        while done < len(reps):
            level = range(done, len(reps))
            for g, gen in enumerate(gens):
                move = gen.__getitem__
                for i in level:
                    if g in blocked[i]:
                        # s_g rep_i = rep_i s_a lies in coset i (Deodhar)
                        continue
                    key = tuple(map(move, images[i]))
                    if key not in index:
                        index[key] = len(reps)
                        p = compose(gen, reps[i].perm)
                        reps.append(WeylElement(p, (g,) + reps[i].word))
                        images.append(key)
                        blocked.append({letter[p[a]] for a in h_roots if p[a] in letter})
            done = level.stop
        self.representatives = tuple(reps)

    def __len__(self):
        return len(self.representatives)

    def __iter__(self):
        return iter(self.representatives)


# ---------------------------------------------------------------------------
# JSON space descriptions


def read_vectors(value, field):
    """The exact vectors of a JSON list of lists whose entries are integers
    or rationals written as "p/q"; InputError naming `field` otherwise."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise InputError("%s must be a list of lists, got %r" % (field, value))
    vectors = []
    for r in value:
        try:
            vectors.append(vec(r))
        except (TypeError, ValueError, ZeroDivisionError):
            raise InputError('%s: %r holds an entry that is not an integer or a "p/q" rational' % (field, r)) from None
    return vectors


def group_from_doc(doc):
    """A group from its JSON description: a name such as "U(3)", or an object
    {"dim": d, "roots": [...]} with an optional "gram" matrix and "label"."""
    if isinstance(doc, str):
        return build_group(doc)
    if not isinstance(doc, dict):
        raise InputError("group description must be a name or a {roots, dim} object")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 0:
        raise InputError("dim must be a nonnegative integer, got %r" % (dim,))
    gram = doc.get("gram")
    return GroupData(
        doc.get("label", "custom"),
        dim,
        read_vectors(doc.get("roots"), "roots"),
        gram=None if gram is None else read_vectors(gram, "gram"),
    )


def space_from_doc(doc):
    """Parse {"group": ..., "subgroup_roots": [[...]]} into (group, subgroup).

    Vector entries may be integers or exact rationals written as "p/q".
    """
    if not isinstance(doc, dict) or "group" not in doc:
        raise InputError('a space document must be a JSON object with a "group" field')
    group = group_from_doc(doc["group"])
    roots = read_vectors(doc.get("subgroup_roots", []), "subgroup_roots")
    sub = SubgroupData(group, roots, label=doc.get("subgroup_label", "H"))
    return group, sub
