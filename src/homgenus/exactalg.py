"""Exact multivariate polynomial / truncated power series arithmetic.

All coefficients are ``fractions.Fraction``.  Variables are named by a short
prefix plus an index and carry an intrinsic grading weight:

    x1, x2, ...   weight 1   (ambient torus coordinates)
    u, u1, u2...  weight 1   (first Chern / orientation classes)
    t             weight 1   (expansion bookkeeping variable)
    a1, a2, ...   weight i   (coefficients of the universal series f)
    b1, b2, ...   weight n   (coefficients of the universal logarithm)
    y             weight 0   (Hirzebruch genus parameter)

The canonical variable order is x-block, u-block, a-block, b-block, t, y,
each block sorted by index.  Serialization is graded-lex over that order, so
text output is deterministic and round-trips exactly.
"""

import ast
import math
import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby, zip_longest
from operator import itemgetter, mul, or_

from .rootdata import InputError

_VAR_RE = re.compile(r"^([a-z]+?)(\d*)$")

# category rank within the canonical ordering, by prefix
_CAT = {"x": 0, "u": 1, "v": 2, "a": 3, "b": 4, "t": 5, "y": 6, "z": 7}


# the two below are pure functions of the name, called for every variable of
# every polynomial; the bound keeps hostile input from growing the caches
@lru_cache(maxsize=1024)
def var_weight(name):
    """Grading weight of a variable, from its name."""
    m = _VAR_RE.match(name)
    if not m or m.group(1) not in _CAT:
        raise InputError("unknown variable %r" % (name,))
    prefix, idx = m.group(1), m.group(2)
    if prefix in ("a", "b"):
        if not idx:
            raise InputError("variable %r needs an index" % (name,))
        return int(idx)
    if prefix in ("v", "z"):
        return 2
    if prefix == "y":
        return 0
    return 1  # x, u, t


@lru_cache(maxsize=1024)
def var_key(name):
    """Canonical sort key for a variable name."""
    m = _VAR_RE.match(name)
    if not m or m.group(1) not in _CAT:
        raise InputError("unknown variable %r" % (name,))
    prefix, idx = m.group(1), m.group(2)
    return (_CAT[prefix], int(idx) if idx else 0)


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError("coefficient must be rational, got %r" % (c,))


def _union(polys):
    """The canonical union of the variables of `polys`; the first one's
    when they all agree, as they mostly do."""
    vs = polys[0].vars if polys else ()
    if any(p.vars != vs for p in polys):
        vs = tuple(sorted({v for p in polys for v in p.vars}, key=var_key))
    return vs


class PoleCancellationError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _times(a, b, shift, cutoff):
    """The product of the packed (key, int) pairs a and b, as (key, int)
    pairs with the zeros dropped: the one multiply loop of `product` and
    `subs`.  With a cutoff, only pairs whose weights (the fields from bit
    `shift` up) sum to at most it are formed: each weight of the shorter
    side, sorted by weight, meets a bisected prefix of the longer; no
    weight is negative, so a dropped pair makes no kept term."""
    if len(a) > len(b):
        a, b = b, a
    rows = [(a, b)]
    if cutoff is not None:
        a, b = (sorted([(k >> shift, k, c) for k, c in x if k >> shift <= cutoff]) for x in (a, b))
        weights = [w for w, _, _ in b]
        b = [(k, c) for _, k, c in b]
        rows = [([(k, c) for _, k, c in row], b[: bisect_right(weights, cutoff - w)]) for w, row in groupby(a, key=itemgetter(0))]
    acc = {}
    get = acc.get
    for row, inner in rows:
        for k1, c1 in row:
            for k2, c2 in inner:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return [kc for kc in acc.items() if kc[1]]


class Packing:
    """The packed-int layout of monomials that products, substitutions and
    exact divisions run on.

    `bounds` maps each variable, in canonical order, to a bound on its
    exponent; a monomial becomes one int with a bit field per variable, the
    first variable lowest, each field wide enough for its bound.  With
    `weights` (a variable's non-negative weight, 0 when it is not named), a
    top field above the others holds the monomial's weighted degree,
    `key >> top`.  Adding keys multiplies monomials: exponents and
    degrees add with no carry between fields as long as every exponent stays
    within its bound.  `unit[v]` is the key of the variable v.
    """

    __slots__ = ("names", "fields", "top", "unit")

    def __init__(self, bounds, weights=None):
        self.names = tuple(bounds)
        self.fields = fields = []
        self.unit = unit = {}
        shift = 0
        for v, bound in bounds.items():
            width = bound.bit_length()
            fields.append((shift, (1 << width) - 1))
            unit[v] = 1 << shift
            shift += width
        self.top = shift
        if weights:
            for v in unit:
                unit[v] += weights.get(v, 0) << shift

    def pack(self, poly):
        """(terms, den): poly as (key, int) pairs over the lcm den of its
        coefficient denominators.  Every variable of poly must be in the
        layout (KeyError otherwise)."""
        unit = self.unit
        units = [unit[v] for v in poly.vars]
        den = math.lcm(*(c.denominator for c in poly.terms.values()))
        return [(sum(map(mul, e, units)), c.numerator * (den // c.denominator)) for e, c in poly.terms.items()], den

    def unpack(self, terms, den, used=None):
        """The MultiPoly of the (key, int) pairs `terms` over den.  Its
        variables are all the layout's, or with `used` only those whose field
        holds a nonzero bit of it (the OR of the keys gives the variables the
        terms use)."""
        names, fields = self.names, self.fields
        if used is not None:
            keep = [i for i, (s, m) in enumerate(fields) if used >> s & m]
            names, fields = tuple(names[i] for i in keep), [fields[i] for i in keep]
        out = {tuple([k >> s & m for s, m in fields]): Fraction(c, den) for k, c in terms}
        return MultiPoly._from_clean(names, out)

    def divide(self, terms, pivot, lead, rest, message):
        """The exact quotient {key: int} of the (key, int) pairs `terms` by
        lead * pivot + R, R given as (key, int) pairs `rest` free of the
        variable `pivot`, by synthetic division from the top power of the
        pivot down.

        When the divisor is primitive (the gcd of lead and R's coefficients
        is 1), Gauss's lemma makes an exact quotient of integral terms
        integral: a pivot step that leaves a remainder on dividing by lead,
        or a term left with no pivot, means the quotient over Q does not
        exist, and raises PoleCancellationError(message).  The bounds must
        hold every key the division forms, each quotient key plus each key
        of R.
        """
        shift, mask = self.fields[self.names.index(pivot)]
        unit = self.unit[pivot]
        buckets = {}
        for k, c in terms:
            buckets.setdefault(k >> shift & mask, {})[k] = c
        quotient = {}
        for e in range(max(buckets, default=0), 0, -1):
            cur = buckets.pop(e, None)
            if cur is None:
                continue
            below = buckets.setdefault(e - 1, {})
            get = below.get
            for k, c in cur.items():
                if c:
                    qc, r = divmod(c, lead)
                    if r:
                        raise PoleCancellationError(message)
                    k -= unit
                    quotient[k] = qc
                    for step, l in rest:
                        below[k + step] = get(k + step, 0) - l * qc
        if any(buckets.get(0, {}).values()):
            raise PoleCancellationError(message)
        return quotient


class MultiPoly:
    """Sparse multivariate polynomial over Fraction.

    Immutable: all operations return new instances, and nothing may change
    ``vars`` or ``terms`` after construction, because the text and the
    one-variable integer form are memoized on the object.  ``vars`` is the
    tuple of variable names this polynomial mentions (kept in canonical
    order), ``terms`` maps exponent tuples to nonzero Fractions.
    """

    __slots__ = ("vars", "terms", "_text", "_ints")

    def __init__(self, vars=(), terms=None):
        vars = tuple(vars)
        vs = tuple(sorted(set(vars), key=var_key))
        if len(set(vars)) != len(vars):
            raise InputError("duplicate variable in %r" % (vars,))
        self.vars = vs
        if terms is None:
            terms = {}
        clean = {}
        if vs == vars:
            for e, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[tuple(e)] = c
        else:
            # caller handed us vars out of canonical order: permuting the
            # exponent positions keeps distinct exponent tuples distinct
            pos = [vars.index(v) for v in vs]
            for e, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[tuple([e[i] for i in pos])] = c
        self.terms = clean
        self._text = None
        self._ints = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls((), {})

    @classmethod
    def const(cls, c):
        c = _as_fraction(c)
        return cls((), {(): c} if c else {})

    @classmethod
    def variable(cls, name, c=1):
        return cls((name,), {(1,): _as_fraction(c)})

    @classmethod
    def linear_form(cls, names, coeffs):
        """sum of c_i * name_i for parallel sequences names, coeffs."""
        return cls.sum(cls.variable(n, c) for n, c in zip(names, map(_as_fraction, coeffs)) if c)

    # -- bookkeeping -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self.to_text())
        return self.terms.get((0,) * len(self.vars), Fraction(0)) if self.vars else self.terms.get((), Fraction(0))

    def _weights(self):
        # looked up once per call by each caller, not once per term
        return tuple(var_weight(v) for v in self.vars)

    def degree_in(self, name):
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def _over(self, vs):
        """The same polynomial over `vs`, canonical variables that include
        its own."""
        if self.vars == vs:
            return self
        idx = [self.vars.index(v) if v in self.vars else None for v in vs]
        terms = {tuple([e[i] if i is not None else 0 for i in idx]): c for e, c in self.terms.items()}
        return MultiPoly._from_clean(vs, terms)

    def restrict_vars(self):
        """Drop variables that no term actually uses."""
        if not self.vars:
            return self
        used = [False] * len(self.vars)
        for e in self.terms:
            for i, ei in enumerate(e):
                if ei:
                    used[i] = True
        if all(used):
            return self
        vs = tuple(v for v, u in zip(self.vars, used) if u)
        keep = [i for i, u in enumerate(used) if u]
        return MultiPoly(vs, {tuple(e[i] for i in keep): c for e, c in self.terms.items()})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        return MultiPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(other) + (-self)

    @classmethod
    def sum(cls, polys):
        """The sum of many polynomials, accumulated in one dict, with no
        copy of a running total; ``p + q`` is its two-term case."""
        polys = list(polys)
        if not polys:
            return cls.zero()
        vs = _union(polys)
        out = dict(polys[0]._over(vs).terms)
        get = out.get
        for p in polys[1:]:
            for e, c in p._over(vs).terms.items():
                out[e] = get(e, 0) + c
        return cls._from_clean(vs, {e: c for e, c in out.items() if c})

    @classmethod
    def _from_clean(cls, vs, terms):
        """Wrap vars already in canonical order and terms mapping exponent
        tuples to nonzero Fractions, without re-checking either."""
        p = object.__new__(cls)
        p.vars = vs
        p.terms = terms
        p._text = None
        p._ints = None
        return p

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return MultiPoly.zero()
            return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})
        return MultiPoly.product((self, other))

    __rmul__ = __mul__

    @classmethod
    def product(cls, factors, cutoff=None):
        """Exact product of `factors`, on packed integer monomials; with a
        cutoff, only its terms of `var_weight` degree (the grading of
        ``truncate_weight``) at most the cutoff.

        Each factor is packed once on one `Packing`, a field per variable
        wide enough for the sum of the factors' largest exponents in that
        variable, with coefficients scaled to ints over the lcm of the
        factor's denominators, and the running product stays packed ints,
        so each output term becomes a Fraction once.  With a
        cutoff, the layout's top field carries each term's weighted degree,
        which adds under multiplication like the exponents do.  Both sides of
        every step are sorted by it and only pairs whose degrees sum to at
        most the cutoff are formed; dropping a term early loses nothing,
        since no weight is negative.
        """
        factors = list(factors)
        vs = _union(factors)
        bounds = dict.fromkeys(vs, 0)
        for p in factors:
            if not p.terms:
                return cls._from_clean(vs, {})
            for v, column in zip(p.vars, zip(*p.terms)):
                bounds[v] += max(column)
        layout = Packing(bounds, {v: var_weight(v) for v in vs} if cutoff is not None else None)
        shift = layout.top
        terms, den = layout.pack(factors[0]) if factors else ([(0, 1)], 1)
        if cutoff is not None:
            terms = [kc for kc in terms if kc[0] >> shift <= cutoff]
        for p in factors[1:]:
            pb, den_b = layout.pack(p)
            terms = _times(terms, pb, shift, cutoff)
            den *= den_b
        return layout.unpack(terms, den)

    def __pow__(self, n):
        """self ** n: t^n with t replaced by self, by the packed
        square-and-multiply of `subs` (simultaneous, so a t of self stays)."""
        if not isinstance(n, int) or n < 0:
            raise InputError("only nonnegative integer powers")
        return MultiPoly(("t",), {(n,): 1}).subs({"t": self})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a = self.restrict_vars()
        b = other.restrict_vars()
        return a.vars == b.vars and a.terms == b.terms

    def __hash__(self):
        a = self.restrict_vars()
        return hash((a.vars, frozenset(a.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "MultiPoly(%s)" % self.to_text()

    # -- truncation --------------------------------------------------------

    def truncate_weight(self, cutoff):
        """Drop terms of weighted degree > cutoff."""
        w = self._weights()
        return MultiPoly._from_clean(self.vars, {e: c for e, c in self.terms.items() if sum(map(mul, e, w)) <= cutoff})

    def truncate_var(self, name, cutoff):
        """Drop terms whose exponent of `name` exceeds cutoff."""
        if name not in self.vars:
            return self
        i = self.vars.index(name)
        return MultiPoly(self.vars, {e: c for e, c in self.terms.items() if e[i] <= cutoff})

    def coefficient_of(self, name, k):
        """Coefficient of name**k, as a polynomial in the other variables."""
        if name not in self.vars:
            return self if k == 0 else MultiPoly.zero()
        i = self.vars.index(name)
        vs = self.vars[:i] + self.vars[i + 1:]
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                out[e[:i] + e[i + 1:]] = c
        return MultiPoly(vs, out).restrict_vars()

    # -- substitution / evaluation -----------------------------------------

    def subs(self, mapping, cutoff=None):
        """Substitute variables by polynomials (or rationals), all at once.

        Exact.  With a cutoff, the result is
        ``subs(mapping).truncate_weight(cutoff)``, built without forming a
        term above the cutoff.  One `Packing` of the result's variables (the
        kept ones and those of the images used; none when self is zero),
        each field as wide as the largest exponent a term of self gives it,
        holds every image, packed once, its powers, each from the one below
        or from two halves, and each group of terms with the same powers of the
        substituted variables times those powers; the groups, scaled to one
        denominator, add into one int dict, unpacked once.
        """
        p = self.restrict_vars()
        images = {v: MultiPoly.const(_as_fraction(img)) if isinstance(img, (int, Fraction, str)) else img for v, img in mapping.items() if v in p.vars}
        subbed = [i for i, v in enumerate(p.vars) if v in images]
        kept = [i for i, v in enumerate(p.vars) if v not in images]
        # a term e raises the output variable w to the power e . cols[w]
        rows = [dict(zip_longest(images[v].vars, map(max, zip(*images[v].terms)), fillvalue=0)) if v in images else {v: 1} for v in p.vars]
        cols = {w: [r.get(w, 0) for r in rows] for w in sorted(set().union(*rows), key=var_key)}
        bounds = {w: max(sum(map(mul, e, col)) for e in p.terms) for w, col in cols.items()}
        layout = Packing(bounds, {w: var_weight(w) for w in cols} if cutoff is not None else None)
        shift = layout.top
        packed = {v: layout.pack(img) for v, img in images.items()}
        powers = {v: {1: terms} for v, (terms, _) in packed.items()}

        def power(v, n):
            memo = powers[v]
            if n not in memo:
                a, b = (memo[n - 1], memo[1]) if n - 1 in memo else (power(v, n // 2), power(v, n - n // 2))
                memo[n] = _times(a, b, shift, cutoff)
            return memo[n]

        den_p = math.lcm(*(c.denominator for c in p.terms.values()))
        units = [layout.unit[p.vars[i]] for i in kept]
        groups = {}
        for e, c in p.terms.items():
            k = sum(e[i] * u for i, u in zip(kept, units))
            if cutoff is None or k >> shift <= cutoff:
                groups.setdefault(tuple([e[i] for i in subbed]), []).append((k, c.numerator * (den_p // c.denominator)))
        scales = {g: math.prod(packed[p.vars[i]][1] ** n for i, n in zip(subbed, g)) for g in groups}
        den = math.lcm(*scales.values())
        acc = {}
        get = acc.get
        for g, terms in groups.items():
            for i, n in zip(subbed, g):
                if n:
                    terms = _times(terms, power(p.vars[i], n), shift, cutoff)
            scale = den // scales[g]
            for k, c in terms:
                acc[k] = get(k, 0) + c * scale
        return layout.unpack([kc for kc in acc.items() if kc[1]], den * den_p)

    def evaluate(self, point):
        """Evaluate at a dict name -> rational, exactly, as a Fraction.
        Every variable must be set.

        The sum is taken in ints: each coefficient is scaled to the lcm of
        the coefficient denominators, and a variable of degree D set to p/q
        enters a term with exponent e as p^e * q^(D-e), so the whole sum
        shares the denominator lcm * prod q^D and one Fraction is built.
        A polynomial in one variable keeps (lcm, scaled coefficients) after
        its first evaluation and runs Horner's scheme on those ints."""
        vals = [_as_fraction(point[v]) for v in self.vars]
        if not self.terms:
            return Fraction(0)
        if len(vals) == 1:
            if self._ints is None:
                lcm = math.lcm(*(c.denominator for c in self.terms.values()))
                coeffs = [0] * (max(self.terms)[0] + 1)
                for (e,), c in self.terms.items():
                    coeffs[e] = c.numerator * (lcm // c.denominator)
                self._ints = (lcm, tuple(coeffs))
            lcm, coeffs = self._ints
            p, q = vals[0].numerator, vals[0].denominator
            # after the step for exponent e, total = sum_{f >= e} c_f p^(f-e) q^(deg-f)
            total, qpow = 0, 1
            for c in reversed(coeffs):
                total = total * p + c * qpow
                qpow *= q
            return Fraction(total, lcm * q ** (len(coeffs) - 1))
        lcm = math.lcm(*(c.denominator for c in self.terms.values()))
        den = lcm
        powers = []
        for val, column in zip(vals, zip(*self.terms)):
            p, q, deg = val.numerator, val.denominator, max(column)
            den *= q**deg
            powers.append({e: p**e * q ** (deg - e) for e in set(column)})
        total = 0
        for e, c in self.terms.items():
            t = c.numerator * (lcm // c.denominator)
            for pw, ei in zip(powers, e):
                t *= pw[ei]
            total += t
        return Fraction(total, den)

    # -- serialization -----------------------------------------------------

    def _sorted_terms(self):
        # graded-lex, highest first: (weight, exponent tuple) descending
        p = self.restrict_vars()
        w = p._weights()
        return p.vars, sorted(p.terms.items(), key=lambda ec: (sum(map(mul, ec[0], w)), ec[0]), reverse=True)

    def to_text(self):
        """The polynomial in graded-lex order, highest term first; built on
        the first call and kept."""
        if self._text is None:
            self._text = self._to_text()
        return self._text

    def _to_text(self):
        vs, items = self._sorted_terms()
        if not items:
            return "0"
        parts = []
        for e, c in items:
            mono = "*".join([v if ei == 1 else "%s^%d" % (v, ei) for v, ei in zip(vs, e) if ei])
            # sign and magnitude straight from the ints, not Fraction arithmetic
            num, den = c.numerator, c.denominator
            mag = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
            parts.append(" - " if num < 0 else " + ")
            parts.append(mag if not mono else mono if mag == "1" else mag + "*" + mono)
        # the leading separator becomes a bare minus sign, or nothing
        return ("-" if parts[0] == " - " else "") + "".join(parts)[3:]

    def to_json(self):
        vs, items = self._sorted_terms()
        return {
            "vars": list(vs),
            "terms": [{"exps": list(e), "coeff": str(c)} for e, c in items],
        }


# ---------------------------------------------------------------------------
# exact division


def exact_divide(numerator, denominator, message="pole not cancelled"):
    """Divide exactly, raising PoleCancellationError on any remainder.

    Since we only ever divide by actual factors (products of linear forms
    coming from isotropy weights), a nonzero remainder means a localization
    pole failed to cancel — hence the default error text.  The divisor must
    be linear in a pivot: its graded-lex leading term is c*x_p, with x_p in
    no other term (ValueError otherwise).  The division is `Packing.divide`:
    the numerator as ints over the lcm of its denominators, divided by the
    divisor's primitive integer part, the quotient read back over that lcm
    times the divisor's content.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    vs = _union((numerator, denominator))
    num, den = numerator._over(vs), denominator._over(vs)
    w = den._weights()
    de = max(den.terms, key=lambda e: (sum(map(mul, e, w)), e))  # the graded-lex leading term
    p = de.index(1) if sum(de) == 1 else None
    if p is None or sum(e[p] for e in den.terms) != 1:
        raise ValueError(
            "exact_divide needs a divisor linear in a pivot (leading term c*x, x in no other term), got %s"
            % denominator.to_text()
        )
    if numerator.is_zero():
        return MultiPoly.zero()
    # room for the divisor and every key the division forms: at most
    # deg_p(N) steps down, each adding R's exponents
    n_deg = [max(column) for column in zip(*num.terms)]
    layout = Packing({v: a + (n_deg[p] + 1) * max(b) for v, a, b in zip(vs, n_deg, zip(*den.terms))})
    terms, n_den = layout.pack(num)
    d_terms, d_den = layout.pack(den)
    g = math.gcd(*(c for _, c in d_terms))
    unit = layout.unit[vs[p]]
    lead = next(c for k, c in d_terms if k == unit) // g
    rest = [(k, c // g) for k, c in d_terms if k != unit]
    quotient = layout.divide(terms, vs[p], lead, rest, message)
    return layout.unpack(((k, c * d_den) for k, c in quotient.items()), n_den * g, reduce(or_, quotient, 0))


# ---------------------------------------------------------------------------
# alternation / divided differences


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _sort_sign(exps):
    """(sorted descending, sign of sorting permutation) or (None, 0) on ties."""
    if len(set(exps)) != len(exps):
        return None, 0
    order = sorted(range(len(exps)), key=lambda i: -exps[i])
    perm = [0] * len(exps)
    for newpos, old in enumerate(order):
        perm[old] = newpos
    return tuple(exps[i] for i in order), _perm_sign(perm)


def _antisym_monomial(names, exps):
    """sum over permutations sigma of sign(sigma) * x^{sigma(exps)}."""
    from itertools import permutations

    n = len(names)
    out = {}
    for perm in permutations(range(n)):
        e = tuple(exps[perm[i]] for i in range(n))
        s = _perm_sign(perm)
        out[e] = out.get(e, Fraction(0)) + s
    return MultiPoly(tuple(names), out)


def divided_difference(poly, names):
    """Full symmetrizing divided-difference operator.

    Sends x^xi to the Schur-type quotient (sum_sigma sign(sigma) x^{sigma xi})
    / prod_{i<j}(x_i - x_j).  Kills any monomial with a repeated exponent;
    monomials with all-distinct exponents sorted to the staircase
    (n-1, ..., 1, 0) contribute their sign.  The generic case goes through an
    actual exact division by the Vandermonde factor by factor, so the answer
    is always a genuine polynomial (symmetric in the x's).
    """
    names = tuple(names)
    n = len(names)
    delta = tuple(range(n - 1, -1, -1))
    pos = {v: i for i, v in enumerate(poly.vars)}
    for v in names:
        if v not in pos:
            poly = poly * MultiPoly((v,), {(0,): 1})  # force var presence
            pos = {u: i for i, u in enumerate(poly.vars)}
    idx = [pos[v] for v in names]
    other_idx = [i for i in range(len(poly.vars)) if i not in idx]
    other_vars = tuple(poly.vars[i] for i in other_idx)

    # bucket terms: key = (sorted x-exponents desc, other-exponents), value coeff
    buckets = {}
    for e, c in poly.terms.items():
        xe = tuple(e[i] for i in idx)
        srt, sgn = _sort_sign(xe)
        if sgn == 0:
            continue
        rest = tuple(e[i] for i in other_idx)
        key = (srt, rest)
        buckets[key] = buckets.get(key, Fraction(0)) + sgn * c
    terms = []
    schur_cache = {}
    for (srt, rest), c in buckets.items():
        if not c:
            continue
        if srt == delta:
            sym = MultiPoly.const(1)
        else:
            if srt not in schur_cache:
                num = _antisym_monomial(names, srt)
                q = num
                for i in range(n):
                    for j in range(i + 1, n):
                        q = exact_divide(
                            q,
                            MultiPoly.variable(names[i]) - MultiPoly.variable(names[j]),
                            message="alternating quotient left a remainder",
                        )
                schur_cache[srt] = q
            sym = schur_cache[srt]
        tail = MultiPoly(other_vars, {rest: c}) if other_vars else MultiPoly.const(c)
        terms.append(sym * tail)
    return MultiPoly.sum(terms)


# ---------------------------------------------------------------------------
# truncated power series


class TruncatedSeries:
    """A MultiPoly together with a weighted-degree cutoff.

    Terms beyond the cutoff are meaningless and eagerly dropped.  Binary
    operations take the min of the two cutoffs.
    """

    __slots__ = ("body", "cutoff")

    def __init__(self, body, cutoff):
        if cutoff < 0:
            raise InputError("cutoff must be >= 0")
        self.body = body.truncate_weight(cutoff)
        self.cutoff = cutoff

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.body + other, self.cutoff)
        return TruncatedSeries(self.body + other.body, min(self.cutoff, other.cutoff))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.body, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.body * other, self.cutoff)
        c = min(self.cutoff, other.cutoff)
        return TruncatedSeries(MultiPoly.product((self.body, other.body), cutoff=c), c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.cutoff == other.cutoff and self.body == other.body

    def __repr__(self):
        return "TruncatedSeries(%s; cutoff %d)" % (self.body.to_text(), self.cutoff)

    def constant_term(self):
        p = self.body
        return p.terms.get((0,) * len(p.vars), Fraction(0))

    def compose(self, name, inner):
        """Substitute variable `name` by the series `inner` (valuation >= 1),
        by one truncated `MultiPoly.subs` at the lesser cutoff."""
        if isinstance(inner, MultiPoly):
            inner = TruncatedSeries(inner, self.cutoff)
        cutoff = min(self.cutoff, inner.cutoff)
        if inner.constant_term():
            raise InputError("composition needs a series with zero constant term")
        return TruncatedSeries(self.body.subs({name: inner.body}, cutoff=cutoff), cutoff)


# ---------------------------------------------------------------------------
# parsing (polynomials and rational functions in our variable alphabet)


class RationalFn:
    """Quotient num/den of two MultiPoly, kept unreduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p):
        return cls(p, MultiPoly.const(1))

    def __add__(self, other):
        other = _as_ratfn(other)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_ratfn(other))

    def __rsub__(self, other):
        return _as_ratfn(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfn(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfn(other)
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_ratfn(other) / self

    def __pow__(self, n):
        if n < 0:
            return RationalFn(self.den ** (-n), self.num ** (-n))
        return RationalFn(self.num ** n, self.den ** n)

    def evaluate(self, point):
        d = self.den.evaluate(point)
        if not d:
            raise ZeroDivisionError("denominator vanishes at %r" % (point,))
        return self.num.evaluate(point) / d

    def is_polynomial(self):
        return self.den.is_constant()

    def as_poly(self):
        c = self.den.constant_value()
        return self.num * (1 / c)

    def is_odd(self, name="u"):
        """True iff f(-u) == -f(u) as a rational function (cross-multiplied)."""
        flip = {name: MultiPoly.variable(name) * Fraction(-1)}
        pn = self.num.subs(flip)
        pd = self.den.subs(flip)
        return pn * self.den == -(self.num * pd)

    def to_text(self):
        return "(%s)/(%s)" % (self.num.to_text(), self.den.to_text())


def _as_ratfn(v):
    if isinstance(v, RationalFn):
        return v
    if isinstance(v, MultiPoly):
        return RationalFn.from_poly(v)
    return RationalFn.from_poly(MultiPoly.const(_as_fraction(v)))


# A parsed power base^N is refused when N, or the degree N * deg(base) it
# would reach, exceeds this cap; both are known before the power is formed.
# `restricted_genus_hp` refuses a series that would reach past it too, and
# `chern_dold_genus` and `twisted_product` a t-cutoff above it.
MAX_EXPONENT = 256


def _degree(r):
    """The largest total degree of a term of r's numerator or denominator."""
    return max((sum(e) for p in (r.num, r.den) for e in p.terms), default=0)


def _eval_node(node):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return _as_ratfn(node.value)
        raise InputError("only integer literals allowed, got %r" % (node.value,))
    if isinstance(node, ast.Name):
        var_weight(node.id)  # validates the name
        return _as_ratfn(MultiPoly.variable(node.id))
    if isinstance(node, ast.UnaryOp):
        v = _eval_node(node.operand)
        if isinstance(node.op, ast.USub):
            return -v
        if isinstance(node.op, ast.UAdd):
            return v
        raise InputError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        op = node.op
        if isinstance(op, ast.Pow):
            base = _eval_node(node.left)
            if not isinstance(node.right, ast.Constant) or not isinstance(node.right.value, int):
                raise InputError("exponent must be an integer literal")
            n = node.right.value
            if n > MAX_EXPONENT or n * _degree(base) > MAX_EXPONENT:
                raise InputError("power of degree above %d (exponent %d)" % (MAX_EXPONENT, n))
            return base ** n
        left = _eval_node(node.left)
        right = _eval_node(node.right)
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.Div):
            return left / right
        raise InputError("unsupported operator %r" % (op,))
    raise InputError("unsupported syntax: %s" % ast.dump(node))


def parse_rational(text):
    """Parse e.g. "u/(1+u^2)" into a RationalFn.  `^` means power.

    Exponents are integer literals; a power whose exponent or degree exceeds
    ``MAX_EXPONENT`` raises InputError before it is formed, as does text
    that is not an expression, is nested too deeply or divides by zero."""
    cooked = text.replace("^", "**")
    try:
        return _eval_node(ast.parse(cooked, mode="eval"))
    except SyntaxError as exc:
        raise InputError("cannot parse %r: %s" % (text, exc)) from None
    except RecursionError:
        raise InputError("the expression is nested too deeply to parse") from None
    except ZeroDivisionError as exc:
        raise InputError(str(exc)) from None


def parse_poly(text):
    """Parse a polynomial; rejects genuine quotients."""
    r = parse_rational(text)
    if not r.is_polynomial():
        raise InputError("expected a polynomial, got a quotient: %r" % (text,))
    return r.as_poly()
