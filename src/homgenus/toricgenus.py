"""Universal toric genus via torus fixed-point localization.

The expansion of the genus of G/H lives in Q[x_1..x_d][a_1, a_2, ...][t]:
summing over the fixed points (Weyl cosets), each point contributes

    sign(p) * prod_j f(t * <Lambda_j(p), x>) / <Lambda_j(p), x>,

with f(z) = 1 + a_1 z + a_2 z^2 + ...  Everything below t^n vanishes for a
genuine structure and the t^n coefficient, which is free of the x's, is the
bordism class.  Characteristic numbers s_omega keep only the a^omega
coefficient of the f-product.

Two routes compute these, and both multiply out the f-chain on one step
table over the multi-indices of the a's (`_table`, built once per
down-set).  The symbolic route runs it with packed polynomials in the x's
as values, clears the sum to the common denominator, the product of the
distinct weight lines, and divides each a-monomial's polynomial by the
lines exactly.  The point route runs it on ints, the weights' values at
one integer point x0 where no weight vanishes.  It first proves that the
sum has no pole, by the residue pairing of `structures._residues_cancel`
on the signed-root table's root ids (`certified`): each root of G is
canonicalized once, and classed modulo each weight line once, however
many points or labels carry it.  The sum is then a polynomial in x,
homogeneous of degree l - n in its t^l part, so its lower terms vanish
and the class and every s_omega are constants, exactly their value at
x0.  A structure the certificate does not cover takes the symbolic route.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .exactalg import MAX_EXPONENT, MultiPoly, Packing, exact_divide
from .catalog import catalog_space
from .rootdata import InputError, canonical_positive
from .structures import (
    HomogeneousSpace,
    InvariantStructure,
    SubgroupData,
    _intern,
    _residues_cancel,
    _signed_ids,
    signed_root_table,
)


_POLE = "localization sum has uncancelled pole"


def _times_line(poly, line_terms):
    """poly times a packed linear form."""
    acc = {}
    get = acc.get
    for step, c in line_terms:
        for k, v in poly.items():
            k += step
            acc[k] = get(k, 0) + c * v
    return acc


def _powers(line_terms, top):
    """[1, L, ..., L^top] of a packed linear form L, each power as (key,
    coefficient) pairs."""
    pw = [{0: 1}]
    for _ in range(top):
        pw.append(_times_line(pw[-1], line_terms))
    return [list(p.items()) for p in pw]


def _step_pass(acc, pw, steps, dead):
    """One weight through the steps of a `_table` on packed polynomials:
    each step (src, i, dst) adds acc[src] times pw[i], the weight's i-th
    power, to acc[dst].  acc[j] is a {key: int} dict, or None until a step
    first writes it; a term whose key meets `dead` is dropped."""
    for src, i, dst in steps:
        a = acc[src]
        if a:
            out = acc[dst]
            if out is None:
                out = acc[dst] = {}
            get = out.get
            for k2, c2 in pw[i]:
                for k1, c1 in a.items():
                    if not (k := k1 + k2) & dead:
                        out[k] = get(k, 0) + c1 * c2


def _packed_sum(rows, roots, ordering, cutoff):
    """The symbolic fixed-point sum over the (sign, ids) `rows`, id r the
    weight roots[r], as packed polynomials in x1..xd, each point one
    `_step_pass` per weight on the table of `_chain`.

    Returns (terms, den, line_terms, layout, tails): over the product of the
    lines, the numerator's coefficient of the monomial in a1..a_cutoff and t
    with exponents tails[j] is the {key: int} dict of the terms whose key
    holds j above `layout.top`, over den, and line_terms maps each line, in
    the order the rows meet it, to <line, x> as packed (key, coefficient)
    pairs, its first coordinate first.  With D the lcm of the weights'
    coordinate denominators, a point's t^k part is sign * D^(n-k) [t^k] prod_j f(t D w_j) / prod_j D
    w_j, each D w_j an int scale times its line: each point's sign * D^n /
    (prod scales * D^cutoff) is scaled to an int over den, the lcm over the
    points, and t^k's coefficient by D^(cutoff-k).
    """
    # a sum meets each root id it uses at many points
    canonical = {r: canonical_positive(roots[r], ordering) for r in dict.fromkeys(r for _, ids in rows for r in ids)}
    lines = list(dict.fromkeys(line for line, _ in canonical.values()))
    d = math.lcm(*(c.denominator for r in canonical for c in roots[r]))
    # the missing lines and the f-chain bound the x-degree; a division by a
    # line keeps each term's x-degree
    layout = Packing(dict.fromkeys(("x%d" % (j + 1) for j in range(len(ordering.v))), len(lines) + cutoff))
    unit = list(layout.unit.values())
    line_terms = {line: [(u, c) for u, c in zip(unit, line) if c] for line in lines}
    tails, steps = _chain(cutoff, max((len(ids) for _, ids in rows), default=0))

    # each point's rational as an int over one denominator, before any product
    points = []
    for sign, ids in rows:
        cw = list(map(canonical.__getitem__, ids))
        own = {line for line, _ in cw}
        if len(own) != len(cw):
            raise ValueError("two isotropy weights at one fixed point share a line")
        pairs = [(line, int(scale * d)) for line, scale in cw]
        q = Fraction(sign * d ** len(pairs), math.prod(s for _, s in pairs) * d**cutoff)
        points.append((q, pairs, tuple(line for line in lines if line not in own)))
    den = math.lcm(*(q.denominator for q, _, _ in points))

    # the coefficient of the monomial tails[j] holds j above the x fields,
    # where no product or division by a line reaches
    top = layout.top
    powers, groups = {}, {}
    for q, pairs, missing in points:
        acc = [{0: q.numerator * (den // q.denominator)}] + [None] * (len(tails) - 1)
        for line, s in pairs:
            if (line, s) not in powers:
                powers[line, s] = _powers([(u, s * c) for u, c in line_terms[line]], cutoff)
            _step_pass(acc, powers[line, s], steps, 0)
        group = groups.setdefault(missing, {})
        get = group.get
        for j, poly in enumerate(acc):
            for k, c in (poly or {}).items():
                k += j << top
                group[k] = get(k, 0) + c
    total = {}
    get = total.get
    for missing, group in groups.items():
        for line in missing:
            group = _times_line(group, line_terms[line])
        for k, c in group.items():
            total[k] = get(k, 0) + c
    # the t^k coefficient times D^(cutoff - k)
    terms = {k: c * d ** (cutoff - tails[k >> top][-1]) for k, c in total.items() if c}
    return terms, den, line_terms, layout, tails


def _unpack(terms, den, line_terms, layout, tails):
    """The MultiPoly of `_packed_sum`'s terms over den, each term's a and t
    exponents the tail its key holds.  Its variables are the factors': the
    lines' x's, a1..a_cutoff and t."""
    keep = [j for j in range(len(layout.names)) if any(line[j] for line in line_terms)]
    names = tuple(layout.names[j] for j in keep) + tuple("a%d" % i for i in range(1, len(tails[0]))) + ("t",)
    fields = [layout.fields[j] for j in keep]
    out = {}
    for k, c in terms.items():
        out[tuple([k >> s & m for s, m in fields]) + tails[k >> layout.top]] = Fraction(c, den)
    return MultiPoly._from_clean(names, out)


def localized_numerator(points, ordering, cutoff):
    """The one symbolic fixed-point sum, cleared to a common denominator.

    `points` is a list of (sign, weights), interned to ids (`_intern`).
    Returns (N, lines): N over the product of the distinct weight lines is
    the sum over the points of sign times prod_j f(t * w_j) / prod_j w_j,
    each f-factor carried to t^cutoff.  Points that miss the same lines are
    summed first, and each group's sum then multiplies its missing lines once.
    """
    packed = _packed_sum(*_intern(points), ordering, cutoff)
    return _unpack(*packed), list(packed[2])


def _localized_form(rows, roots, ordering, cutoff):
    """The N of `_packed_sum` over (sign, ids) `rows` divided by its lines,
    exactly, on its packed ints, every a-monomial's polynomial at once: each
    line is primitive, so `Packing.divide` by it on its first nonzero
    coordinate raises PoleCancellationError on an uncancelled pole."""
    terms, den, line_terms, layout, tails = _packed_sum(rows, roots, ordering, cutoff)
    for line, ((_, lead), *rest) in line_terms.items():
        pivot = "x%d" % (next(j for j, c in enumerate(line) if c) + 1)
        terms = layout.divide(terms.items(), pivot, lead, rest, _POLE)
    return _unpack(terms, den, line_terms, layout, tails).restrict_vars()


def certified(structure, table=None):
    """Does the residue-pairing certificate prove the fixed-point sum over
    `table`, by default the structure's `signed_root_table`, free of poles?
    An invariant structure's own table reads its space's certificate, which
    holds for every sign choice at once; any other table is checked on its
    own rows, each weight's root id under the one label 0.  Raises
    ValueError when two weights of one fixed point share a line."""
    space = structure.space
    if table is None:
        if isinstance(structure, InvariantStructure):
            return space.residues_cancel
        table = signed_root_table(structure)
    return _residues_cancel(table, space.group.roots, space.ordering)


def _down_set(cap, room, count=math.inf, part=1):
    """The multi-indices k <= cap with sum_i i * k_i <= room (k_i counts the
    parts i) and at most `count` parts, the zero index first."""
    if part > len(cap):
        return [()]
    return [
        (c,) + rest
        for c in range(min(cap[part - 1], room // part, count) + 1)
        for rest in _down_set(cap, room - c * part, count - c, part + 1)
    ]


@lru_cache(maxsize=64)
def _table(cap, room, count=math.inf):
    """(keys, index, steps, parts), the step table of the down-set
    `_down_set(cap, room, count)`, built once per argument tuple: keys the
    multi-indices, zero first, index[k] k's position, steps the (src, i, dst)
    moves adding a part i to key src, the heaviest src first so that one
    pass per factor adds at most one part, and parts the sizes i used
    (Macdonald, Symmetric Functions, I.6).  Callers must not mutate it."""
    keys = tuple(_down_set(cap, room, count))
    weight = {k: sum(i * c for i, c in enumerate(k, 1)) for k in keys}
    index = {k: j for j, k in enumerate(keys)}
    steps = []
    for k in sorted(keys, key=weight.get, reverse=True):
        for i in range(len(k)):
            up = index.get(k[:i] + (k[i] + 1,) + k[i + 1 :])
            if up is not None:
                steps.append((index[k], i + 1, up))
    parts = tuple(sorted({i for _, i, _ in steps}))
    return keys, index, tuple(steps), parts


def _chain(cutoff, count):
    """The exponents of a1..a_cutoff and t of each multi-index to t^cutoff
    with at most `count` parts, and the steps of `_table` on them."""
    keys, _, steps, _ = _table((cutoff,) * cutoff, cutoff, count)
    return tuple(k + (sum(i * c for i, c in enumerate(k, 1)),) for k in keys), steps


def _point_sums(structure, cap, targets, table=None):
    """sum_p sign(p) * [a^k] prod_j f(v_j) / prod_j v_j for each k in
    `targets`, exactly, over the points of `table`, by default the
    structure's `signed_root_table`, with v_j the point's weights at x0, the
    ordering's functional: each id read in the space's `root_values`.

    The targets lie in the down-set of the multi-indices k <= `cap` of
    weight at most n.  At each point one int pass of its `_table` per weight
    v adds a part i, times v^i, to every key below the top.
    """
    if table is None:
        table = signed_root_table(structure)
    values = structure.space.root_values
    # the summand is homogeneous of degree 0 in the v's, so clearing a
    # rational value's denominators from all of them changes nothing
    d = math.lcm(*(v.denominator for v in values))
    if d > 1:
        values = [int(v * d) for v in values]
    keys, index, steps, parts = _table(cap, structure.space.n)
    pw = [0] * (max(parts, default=0) + 1)
    picks = [index[k] for k in targets]
    terms = []
    for sign, ids in table:
        acc = [1] + [0] * (len(keys) - 1)
        point = list(map(values.__getitem__, ids))
        for v in point:
            for i in parts:
                pw[i] = v**i
            for src, i, dst in steps:
                c = acc[src]
                if c:
                    acc[dst] += c * pw[i]
        terms.append((sign, math.prod(point), [acc[j] for j in picks]))
    den = math.lcm(*(e for _, e, _ in terms))
    nums = [0] * len(picks)
    for sign, e, got in terms:
        q = sign * (den // e)
        for j, c in enumerate(got):
            nums[j] += q * c
    return [Fraction(structure.global_sign * c, den) for c in nums]


def _point_class(structure, table=None):
    """The bordism class of a certified structure, or of a certified `table`
    on its space, from the point route."""
    n = structure.space.n
    cap = (n,) * n
    top = [k for k in _table(cap, n)[0] if sum(i * c for i, c in enumerate(k, 1)) == n]
    names = tuple("a%d" % i for i in range(1, n + 1))
    return MultiPoly(names, dict(zip(top, _point_sums(structure, cap, top, table)))).restrict_vars()


def _symbolic_form(structure, cutoff, table=None):
    """The expansion to t^cutoff over `table`, by default the structure's
    `signed_root_table`, cleared of denominators and divided out."""
    # the table's signs are relative to the reference structure; the
    # expansion is an invariant of the oriented manifold, so the orientation
    # sign comes back in here.
    if table is None:
        table = signed_root_table(structure)
    rows = [(structure.global_sign * sign, ids) for sign, ids in table]
    return _localized_form(rows, structure.space.group.roots, structure.space.ordering, cutoff)


class GenusExpansion:
    """The localized genus of a structure, to t^cutoff.

    The sum runs over `table`, a signed-root table on the structure's
    space, by default the structure's own (`signed_root_table`).  `form` is
    the expansion cleared of denominators and divided out exactly.  An
    expansion given its form, or of a table the certificate does not cover,
    reads everything from the form (route "symbolic"); the latter builds it
    here, so that a pole raises at once.  Otherwise (route "point") the
    class comes from the point route, built once and kept, the lower terms
    vanish by the certificate, and the form is built when first read: zero
    below t^n, the class times t^n at cutoff n, and only past t^n
    symbolically (`form_route`).
    """

    def __init__(self, structure, cutoff, form=None, label=None, table=None):
        if form is None and not certified(structure, table):
            form = _symbolic_form(structure, cutoff, table)
        self.structure = structure
        self.cutoff = cutoff
        self._form = form
        self.label = label
        self.table = table
        self.route = "symbolic" if form is not None else "point"
        self._class = None

    def __repr__(self):
        return "GenusExpansion(%s, cutoff=%d)" % (self.label or "?", self.cutoff)

    @property
    def form(self):
        if self._form is None:
            # the certificate proves every term below t^n zero and the t^n
            # term the constant class; past t^n only the symbolic route gives them
            n = self.structure.space.n
            if self.cutoff < n:
                self._form = MultiPoly.zero()
            elif self.cutoff == n:
                self._form = self.bordism_class() * MultiPoly(("t",), {(n,): 1})
            else:
                self._form = _symbolic_form(self.structure, self.cutoff, self.table)
        return self._form

    @property
    def form_route(self):
        """The route `form` is read from: "symbolic" past t^n."""
        return "symbolic" if self.cutoff > self.structure.space.n else self.route

    def coefficient(self, l):
        """Coefficient of t^l, a polynomial in the x's and a's."""
        return self.form.coefficient_of("t", l)

    def lower_terms_vanish(self):
        if self.route == "point":
            return True
        n = self.structure.space.n
        return all(self.coefficient(l).is_zero() for l in range(min(n, self.cutoff + 1)))

    def bordism_class(self):
        """The t^n coefficient; must be free of the x's."""
        n = self.structure.space.n
        if self.cutoff < n:
            raise InputError("expansion cutoff %d is below the dimension %d" % (self.cutoff, n))
        if self.route == "point":
            if self._class is None:
                self._class = _point_class(self.structure, self.table)
            return self._class
        cls = self.coefficient(n).restrict_vars()
        if any(v[0] == "x" for v in cls.vars):
            raise ArithmeticError(
                "top t-coefficient still involves the torus variables; not a bordism class"
            )
        return cls

    def __eq__(self, other):
        if not isinstance(other, GenusExpansion):
            return NotImplemented
        return self.cutoff == other.cutoff and self.form == other.form


def _check_cutoff(cutoff):
    """Refuse a t-cutoff below 0 or above MAX_EXPONENT before any work."""
    if cutoff < 0:
        raise InputError("cutoff must be >= 0, got %d" % cutoff)
    if cutoff > MAX_EXPONENT:
        raise InputError("cutoff must be <= %d, got %d" % (MAX_EXPONENT, cutoff))


def chern_dold_genus(structure, cutoff=None):
    """Localized genus expansion of an invariant or stable structure."""
    space = structure.space
    if cutoff is None:
        cutoff = space.n
    _check_cutoff(cutoff)
    return GenusExpansion(structure, cutoff, label=space.label)


# ---------------------------------------------------------------------------
# characteristic numbers s_omega


def _normalize_omega(omega, n):
    omega = tuple(int(k) for k in omega)
    if any(k < 0 for k in omega):
        raise InputError("omega entries must be nonnegative")
    if any(omega[n:]):
        raise InputError("omega has entries beyond the dimension")
    omega = (omega + (0,) * n)[:n]
    weight = sum((i + 1) * k for i, k in enumerate(omega))
    if weight != n:
        raise InputError("omega must have total weight %d, got %d" % (n, weight))
    return omega


def _symbolic_class(structure):
    """`chern_dold_genus(structure).bordism_class()`, built once per
    structure and kept on it; a class that raised an ArithmeticError raises
    that error again on every later call."""
    cls = structure._symbolic_class
    if cls is None:
        try:
            cls = chern_dold_genus(structure).bordism_class()
        except ArithmeticError as exc:
            cls = exc
        structure._symbolic_class = cls
    if isinstance(cls, ArithmeticError):
        raise cls.with_traceback(None)
    return cls


def s_number(structure, omega):
    """The characteristic number s_omega, an exact integer.

    A certified structure takes the point route over the down-set of omega.
    Otherwise s_omega is the a^omega coefficient of the symbolic class, so it
    raises exactly where `chern_dold_genus(structure).bordism_class()` does.
    """
    space = structure.space
    omega = _normalize_omega(omega, space.n)
    if certified(structure):
        (value,) = _point_sums(structure, omega, [omega])
    else:
        value = _symbolic_class(structure)
        for i, k in enumerate(omega, 1):
            value = value.coefficient_of("a%d" % i, k)
        value = value.constant_value()
    if value.denominator != 1:
        raise ArithmeticError("s_omega value is not an integer: %s" % value)
    return int(value)


def top_s(structure):
    """s_n, the top power-sum characteristic number (obstruction to nothing:
    it simply vanishes in many flag cases)."""
    n = structure.space.n
    return s_number(structure, (0,) * (n - 1) + (1,))


def _block_partition(space):
    """For U(n)-type spaces with block-diagonal isotropy: list of blocks
    (sorted tuples of coordinate indices), or None when not of that shape:
    i joins the block of the least j with e_j - e_i a subgroup root, and the
    roots inside the blocks must be exactly the subgroup roots."""
    g = space.group
    if not g.label.startswith(("U(", "SU(")):
        return None
    diff = [[tuple((k == i) - (k == j) for k in range(g.dim)) for j in range(g.dim)] for i in range(g.dim)]
    sub_roots = set(space.subgroup.root_set)
    first = [next(j for j in range(i + 1) if j == i or diff[j][i] in sub_roots) for i in range(g.dim)]
    blocks = [tuple(i for i, f in enumerate(first) if f == j) for j in sorted(set(first))]
    if {diff[i][j] for b in blocks for i in b for j in b if i != j} != sub_roots:
        return None
    return blocks


def s_number_schur_route(structure, omega):
    """Type-A cross-check: s_omega via the divided-difference operator.

    Valid for an invariant structure on U(dim)/(product of unitary blocks):
    s_omega = L(prod_b Vandermonde_b * f_omega) / (c * prod q_b!), with
    f_omega = [a^omega] prod_j f(<r_j, x>) over the structure's roots r_j,
    c the product of their scales over the positive lines (the product of
    the structure's signs where the roots are the lines) and L = d_{w0}.
    The argument has the degree C(dim, 2) of the staircase delta, so L of it
    is the sum of its coefficients at the permutations of delta signed by
    their inversions (Macdonald, Notes on Schubert Polynomials, ch. II).  Symbolic in x, on packed ints: f_omega
    by the point route's step table, roots times the lcm D of their
    coordinates' denominators, and the sum over D^n.
    """
    if not isinstance(structure, InvariantStructure):
        raise InputError("the divided-difference route needs an invariant structure")
    space = structure.space
    blocks = _block_partition(space)
    if blocks is None:
        raise InputError("the divided-difference route needs a U(n)/(block product) space")
    omega = _normalize_omega(omega, space.n)
    dim, top = space.group.dim, math.comb(space.group.dim, 2)
    if space.n + sum(math.comb(len(b), 2) for b in blocks) != top:
        raise ArithmeticError("divided difference did not produce a constant")
    # a field holds its exponent plus 2^m - dim, so an exponent above dim - 1,
    # which never reaches the staircase as exponents only grow, sets `dead`
    m = (dim - 1).bit_length()
    layout = Packing(dict.fromkeys(range(dim), top + 2**m - dim))
    unit, bias = list(layout.unit.values()), (2**m - dim) * sum(layout.unit.values())
    dead = sum((mask ^ (2**m - 1)) << s for s, mask in layout.fields)
    d = math.lcm(*(c.denominator for r in structure.roots for c in r))
    keys, index, steps, parts = _table(omega, space.n)
    acc = [{bias: 1}] + [None] * (len(keys) - 1)
    for r in structure.roots:
        line = [(u, c.numerator * (d // c.denominator)) for u, c in zip(unit, r) if c]
        _step_pass(acc, _powers(line, max(parts)), steps, dead)
    arg = acc[index[omega]] or {}
    for i, j in (pair for b in blocks for pair in itertools.combinations(b, 2)):
        arg = _times_line(arg, [(unit[i], 1), (unit[j], -1)])
    # (key, sign, exponents taken) of the permuted staircases: variable i takes
    # an exponent v not taken yet, and each taken one below v is an inversion
    stair = [(bias, 1, 0)]
    for u in unit:
        moves = [(v * u, 1 << v) for v in range(dim)]
        stair = [(k + vu, s * (-1) ** (t % b).bit_count(), t | b) for k, s, t in stair for vu, b in moves if not t & b]
    scale = math.prod(canonical_positive(r, space.ordering)[1] for r in structure.roots)
    den = d**space.n * math.prod(math.factorial(len(b)) for b in blocks)
    value = Fraction(sum(s * arg.get(k, 0) for k, s, _ in stair), den) / scale
    if value.denominator != 1:
        raise ArithmeticError("s_omega value is not an integer: %s" % value)
    return int(value)


# ---------------------------------------------------------------------------
# twisted products of fibrations


def combine_structures(base_structure, fiber_structure):
    """The invariant structure on G/K induced by base (G/H) and fiber (H/K):
    a line's sign is +1 where its positive root is a base or fiber root."""
    base_space = base_structure.space
    fiber_space = fiber_structure.space
    if fiber_space.group.root_set != base_space.subgroup.root_set:
        raise InputError("fiber ambient group must be the base isotropy group")
    group = base_space.group
    total_space = HomogeneousSpace(
        group,
        SubgroupData(group, fiber_space.subgroup.roots, label=fiber_space.subgroup.label),
        label="%s/%s" % (group.label, fiber_space.subgroup.label),
    )
    union = {group.root_index[r] for r in base_structure.roots + fiber_structure.roots}
    lines = total_space.comp_roots
    signs = []
    for sm in total_space.summands:
        sm_signs = set()
        for li, ori in zip(sm.line_indices, sm.orientation):
            k = total_space.comp_root_indices[li]
            if k not in union and group.negation[k] not in union:
                raise ValueError("line %s of the total space is covered by neither base nor fiber" % (lines[li],))
            sm_signs.add((1 if k in union else -1) * ori)
        if len(sm_signs) != 1:
            raise ValueError("combined signs are not constant on an isotropy summand")
        signs.append(sm_signs.pop())
    return total_space.structure(signs)


def twisted_product(base_structure, fiber_structure, cutoff=None):
    """Genus of the total space of H/K -> G/K -> G/H from base and fiber data.

    Requires the base structure's signed root set to be invariant under the
    isotropy Weyl group W_H.  The total space's fixed points are then the
    pairs (base point p, fiber point q): the pair's row of the flattened
    signed-root table is p's ids followed by q's, each root of H taken into
    G and moved by p's coset representative, a root permutation, and its
    sign is the product of the two.  The expansion sums over that table
    like any other (`GenusExpansion`), without the total space's own coset
    search.
    """
    base_space = base_structure.space
    fiber_space = fiber_structure.space
    if cutoff is not None:
        _check_cutoff(cutoff)
    if not (isinstance(base_structure, InvariantStructure) and isinstance(fiber_structure, InvariantStructure)):
        raise InputError("a twisted product needs invariant base and fiber structures, not stable ones")
    if fiber_space.group.root_set != base_space.subgroup.root_set:
        raise InputError("fiber ambient group must be the base isotropy group")
    base_rows = signed_root_table(base_structure)
    # the identity coset comes first: its ids are the structure's signed roots
    signed = set(base_rows[0][1])
    # invariance under the generators of W_H is invariance under W_H
    for gen in base_space.subgroup_reflections:
        if {gen[k] for k in signed} != signed:
            raise InputError(
                "base structure is not invariant under the isotropy Weyl group; "
                "the fibration does not transport it"
            )
    combined = combine_structures(base_structure, fiber_structure)
    total_space = combined.space
    if cutoff is None:
        cutoff = total_space.n
    # a root id of H -> the id of the same root in G
    root_index = base_space.group.root_index
    to_g = [root_index[r] for r in fiber_space.group.roots]
    fiber_rows = [(sign, [to_g[r] for r in ids]) for sign, ids in signed_root_table(fiber_structure)]
    table = [
        (bsign * fsign, bids + list(map(rep.perm.__getitem__, fids)))
        for rep, (bsign, bids) in zip(base_space.cosets.representatives, base_rows)
        for fsign, fids in fiber_rows
    ]
    return GenusExpansion(combined, cutoff, label=total_space.label + " (twisted)", table=table)


# ---------------------------------------------------------------------------
# quaternionic projective spaces: restricted expansions and the obstruction


def _odd_component(var, max_index):
    """[f(2v) - f(-2v)] / (2v) = sum_l a_{2l+1} 2^{2l+1} v^{2l}, computed by
    genuine series division (not transcribed)."""
    cutoff = 2 * max_index + 1
    v = MultiPoly.variable(var)

    def f(u):
        powers = (MultiPoly.variable("a%d" % i) * u**i for i in range(1, cutoff + 1))
        return MultiPoly.sum([MultiPoly.const(1), *powers])

    return exact_divide(f(2 * v) - f(-2 * v), 2 * v, "odd part lost its leading factor")


def restricted_genus_hp(n=2, which="sp-flag", max_index=3):
    """Expansion of the genus restricted over the quaternionic base (n = 2).

    which = "sp-flag": the full flag Sp(2)/T^2 fibered over the quaternionic
    line; the component at one base point is the product of two odd f-kernels
    and its coefficient table g0 is returned.  which = "cp-odd": the odd
    projective space fibered by spheres; the two-point expansion in the
    fiber variable is returned together with a note that the closed-form
    coefficient table sometimes quoted for it differs by a factor of 4 —
    the computed expansion is authoritative.
    """
    if n != 2:
        raise InputError("only n = 2 is implemented; general n is out of scope")
    if max_index < 0:
        raise InputError("max_index must be >= 0, got %d" % max_index)
    if 2 * max_index + 1 > MAX_EXPONENT:
        raise InputError(
            "max_index %d needs a%d, above the degree cap %d" % (max_index, 2 * max_index + 1, MAX_EXPONENT)
        )
    if which == "sp-flag":
        s1 = _odd_component("x1", max_index)
        s2 = _odd_component("x2", max_index)
        component = s1 * s2
        table = {}
        for i1 in range(max_index + 1):
            for i2 in range(max_index + 1):
                c = component.coefficient_of("x1", 2 * i1).coefficient_of("x2", 2 * i2)
                table[(i1, i2)] = c
        return {
            "which": which,
            "fixed_point_brackets": {
                "prefactor": 2,
                "factors": [[(2, 0), (-2, 0)], [(0, 2), (0, -2)]],
            },
            "component": component,
            "restriction": component * 2,
            "g0_table": table,
        }
    if which == "cp-odd":
        s2 = _odd_component("x2", max_index)
        expansion = s2 * 2
        coeffs = {k: expansion.coefficient_of("x2", 2 * k) for k in range(max_index + 1)}
        return {
            "which": which,
            "fixed_point_brackets": {
                "prefactor": 2,
                "factors": [[(0, 2), (0, -2)]],
            },
            "component": s2,
            "expansion": expansion,
            "coefficients": coeffs,
            "note": (
                "coefficient of x2^(2k) computed as 2^(2k+2) * a_(2k+1); a closed-form "
                "table sometimes quoted for this case differs by a factor of 4, and the "
                "computed expansion here is authoritative"
            ),
        }
    raise InputError("which must be 'sp-flag' or 'cp-odd'")


def hp_obstruction_search(n=2):
    """Exhaustive sign search for a torus-invariant structure on the
    quaternionic plane Sp(3)/(Sp(1) x Sp(2)).

    Hypothetical structure roots are eps_j (x1 + xj) and delta_j (x1 - xj)
    for j = 2, 3 with free signs.  For each of the 16 assignments we form the
    localization numerator over the three fixed points and test the t^l
    coefficients for l < 4 (all of which vanish on a genuine structure).
    The numerator is first formed to t^1 only, and again to t^3 only when
    its t^0 and t^1 terms vanish: the t-truncated chain is exact, so both
    give the same low terms.  Every assignment fails; the report records,
    per assignment, the first nonvanishing order and a rational witness
    value, plus the sign relations that characterize surviving the t^1 test.
    """
    if n != 2:
        raise InputError("only n = 2 is implemented; general n is out of scope")
    space = catalog_space("HP2")
    # complementary lines in canonical order: x1-x2, x1-x3, x1+x3, x1+x2
    lines = space.comp_roots
    by_vec = {line: i for i, line in enumerate(lines)}
    plus = {2: by_vec[(1, 1, 0)], 3: by_vec[(1, 0, 1)]}
    minus = {2: by_vec[(1, -1, 0)], 3: by_vec[(1, 0, -1)]}
    names = ("eps2", "eps3", "delta2", "delta3")
    rows = []
    t1_survivors = []
    for assignment in itertools.product((1, -1), repeat=4):
        eps = {2: assignment[0], 3: assignment[1]}
        delta = {2: assignment[2], 3: assignment[3]}
        signs_by_line = [0] * len(lines)
        for j in (2, 3):
            signs_by_line[plus[j]] = eps[j]
            signs_by_line[minus[j]] = delta[j]
        table = [(1, _signed_ids(signs_by_line, row, space.group.negation)) for row in space.point_roots]
        first_bad = None
        witness = None
        for l in range(4):
            if l in (0, 2):
                # to t^1 first; only a row whose t^0 and t^1 terms vanish goes on to t^3
                numerator = _unpack(*_packed_sum(table, space.group.roots, space.ordering, l + 1))
            coeff = numerator.coefficient_of("t", l)
            if not coeff.is_zero():
                first_bad = l
                # a readable rational witness: strip the a-variable, plug small x's
                stripped = coeff
                for v in list(coeff.vars):
                    if v[0] == "a":
                        stripped = stripped.coefficient_of(v, stripped.degree_in(v))
                point = {v: Fraction(k) for k, v in enumerate(sorted(stripped.vars))}
                witness = stripped.evaluate(point) if stripped.vars else stripped.constant_value()
                break
        if first_bad is None or first_bad > 1:
            t1_survivors.append(assignment)
        rows.append(
            {
                "assignment": dict(zip(names, assignment)),
                "first_nonvanishing_order": first_bad,
                "witness": witness,
            }
        )
    relations = _characterize_survivors(t1_survivors, names)
    admissible = [r for r in rows if r["first_nonvanishing_order"] is None]
    return {
        "space": "Sp(3)/(Sp(1)xSp(2))",
        "verdict": "no valid assignment" if not admissible else "admissible assignment found",
        "exhaustive": len(rows) == 16,
        "admissible": admissible,
        "rows": rows,
        "t1_relations": relations,
        "t1_survivors": [dict(zip(names, a)) for a in t1_survivors],
    }


def _characterize_survivors(survivors, names):
    """Linear sign relations (si = sj or si = -sj) holding on all survivors."""
    if not survivors:
        return ["t^1 already excludes every assignment"]
    rels = []
    k = len(names)
    for i in range(k):
        for j in range(i + 1, k):
            if all(a[i] == a[j] for a in survivors):
                rels.append("%s = %s" % (names[i], names[j]))
            elif all(a[i] == -a[j] for a in survivors):
                rels.append("%s = -%s" % (names[i], names[j]))
    return rels
