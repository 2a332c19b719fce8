"""The universal formal group law and its series dictionary.

The logarithm is g(u) = u + sum_n b_n u^{n+1} with free coefficients b_n;
its compositional inverse ("exponential") rewrites everything in the dual
alphabet a_i via x/exp(x) = 1 + a_1 x + a_2 x^2 + ...  The group law is
F(u, v) = exp(g(u) + g(v)).  All series are truncated at the weighted degree
matching a fixed u-degree cutoff D: a term u^i v^j b_omega is homogeneous of
weight 2(i+j) - 1, so weighted cutoff 2D - 1 keeps exactly the u-degrees
through D.  The truncation happens as terms are formed: series products,
composition and substitution (`MultiPoly.product` and `MultiPoly.subs` with
a cutoff) never build a term above it, which is exact because no weight is
negative and weights add under multiplication, homogeneous input or not.
The law, `add`, composition and `basis_convert` all run through `subs`,
which keeps each image's powers and every product as packed ints on one
layout and builds the result's Fractions once.

The exponential and both dictionaries are closed forms by Lagrange
inversion (Stanley, Enumerative Combinatorics II, 5.4): each coefficient is
one [u^k] of a power of A(u) = 1 + sum a_i u^i or B(u) = 1 + sum b_k u^k,
a sum over the partitions of k.  A coefficient depends on its index alone,
so each is built once per process and shared (a `MultiPoly` is immutable),
as is the table of the partitions of k that the a-, b- and exponential
coefficients all read.  Every degree is at most MAX_DEGREE, which bounds
what the caches keep.
"""

import math
from fractions import Fraction
from functools import cache, cached_property

from .exactalg import MultiPoly, PoleCancellationError, RationalFn, TruncatedSeries, var_weight
from .rootdata import InputError

# the largest degree of a law or a dictionary, since every coefficient stays
# cached: at 32 both dictionaries take about 1.1 s and the law 0.6 s more,
# and the process holds about 70 MB (2-core Intel Xeon, Python 3.11.7)
MAX_DEGREE = 32


def _check_degree(degree, least):
    if degree < least:
        raise InputError("degree must be >= %d" % least)
    if degree > MAX_DEGREE:
        raise InputError("degree must be <= %d, got %d" % (MAX_DEGREE, degree))


def _weighted_cutoff(degree):
    return 2 * degree - 1


def _partitions(n, largest=None):
    """The partitions of n, as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@cache
def _partition_table(k):
    """(l, m, prod_j m_j!) for each partition of k: its number of parts l
    and its multiplicity vector m = (m_1, ..., m_k)."""
    table = []
    for parts in _partitions(k):
        mult = tuple(parts.count(j) for j in range(1, k + 1))
        table.append((len(parts), mult, math.prod(map(math.factorial, mult))))
    return tuple(table)


def _power_coefficient(prefix, p, k, divisor):
    """[u^k] (1 + sum_j prefix_j u^j)^p / divisor, a polynomial in
    prefix_1..prefix_k, for integers p and divisor != 0.

    By the multinomial theorem [u^k] is the sum over the partitions lambda
    of k of p(p-1)...(p-l+1) / prod_j m_j! * prefix^lambda, where l is the
    number of parts and m_j the multiplicity of part j.
    """
    names = ["%s%d" % (prefix, j) for j in range(1, k + 1)]
    terms = {mult: Fraction(math.prod(range(p, p - l, -1)), den * divisor) for l, mult, den in _partition_table(k)}
    return MultiPoly(names, terms).restrict_vars()


@cache
def _a_coefficient(i):
    """a_i in the b-alphabet: b_1, and [u^i] B(u)^{1-i} / (1-i) for i >= 2."""
    return MultiPoly.variable("b1") if i == 1 else _power_coefficient("b", 1 - i, i, 1 - i)


@cache
def _b_coefficient(n):
    """b_n in the a-alphabet: [u^n] A(u)^{n+1} / (n+1)."""
    return _power_coefficient("a", n + 1, n, n + 1)


@cache
def _exp_term(m):
    """The x^m term of the exponential: x^m [u^{m-1}] B(u)^{-m} / m."""
    c = _power_coefficient("b", -m, m - 1, m)
    return MultiPoly(("x1",) + c.vars, {(m,) + e: v for e, v in c.terms.items()})


class FormalGroupLaw:
    """Universal formal group law truncated at u-degree D <= MAX_DEGREE."""

    def __init__(self, degree):
        _check_degree(degree, 1)
        self.degree = degree
        cutoff = _weighted_cutoff(degree)
        self.cutoff = cutoff
        # g(u) = u + sum_k u^{k+1} b_k, term by term over (u1, b1, ..., b_{D-1})
        names = ["u1"] + ["b%d" % k for k in range(1, degree)]
        log = {(k + 1,) + tuple(int(j == k) for j in range(1, degree)): 1 for k in range(degree)}
        self.log = TruncatedSeries(MultiPoly(names, log), cutoff)
        self.exp = TruncatedSeries(MultiPoly.sum(map(_exp_term, range(1, degree + 1))), cutoff)

    @cached_property
    def law(self):
        """F(u1, u2) = exp(g(u1) + g(u2)), built on first use."""
        log_u2 = TruncatedSeries(self.log.body.subs({"u1": MultiPoly.variable("u2")}), self.cutoff)
        return self.exp.compose("x1", self.log + log_u2)

    def __repr__(self):
        return "FormalGroupLaw(degree=%d)" % self.degree

    def add(self, s, t):
        """F(s, t) by simultaneous substitution (capture-free), truncated at
        the least of the three cutoffs as its terms are formed: no power of
        s or t and no term of the law above that cutoff is ever built."""
        if isinstance(s, MultiPoly):
            s = TruncatedSeries(s, self.cutoff)
        if isinstance(t, MultiPoly):
            t = TruncatedSeries(t, self.cutoff)
        c = min(self.cutoff, s.cutoff, t.cutoff)
        body = self.law.body.subs({"u1": s.body, "u2": t.body}, cutoff=c)
        return TruncatedSeries(body, c)

    @cached_property
    def inverse(self):
        """iota(u) with F(u, iota(u)) = 0: exp(-g(u)), one composition."""
        return self.exp.compose("x1", -self.log)


@cache
def formal_group_law(degree):
    """The law truncated at u-degree `degree`, one object per degree."""
    return FormalGroupLaw(degree)


# ---------------------------------------------------------------------------
# the a <-> b dictionary


def a_in_terms_of_b(degree):
    """{i: polynomial in b} from x/exp(x) = 1 + a_1 x + ..., for i <= degree.

    a_1 = b_1 and a_i = [u^i] B(u)^{1-i} / (1-i) for i >= 2, by
    Lagrange-Buermann applied to x/exp(x) = B(exp(x)).  A fresh dict over
    the cached coefficients.
    """
    _check_degree(degree, 0)
    return {i: _a_coefficient(i) for i in range(1, degree + 1)}


def b_in_terms_of_a(degree):
    """{n: polynomial in a} from the logarithm, for n <= degree.

    g is the compositional inverse of x/A(x), so Lagrange inversion gives
    b_n = [u^n] A(u)^{n+1} / (n+1).  A fresh dict over the cached
    coefficients.
    """
    _check_degree(degree, 0)
    return {n: _b_coefficient(n) for n in range(1, degree + 1)}


def _alphabet_degree(poly, prefix):
    """The largest index of a variable of poly in the alphabet `prefix`."""
    return max((var_weight(v) for v in poly.vars if v[0] == prefix), default=0)


def basis_convert(poly, direction):
    """Rewrite a polynomial between the a- and b-alphabets.

    direction is "a->b" or "b->a"; the needed dictionary depth is read off
    the polynomial itself and refused above MAX_DEGREE.
    """
    dictionaries = {"a->b": a_in_terms_of_b, "b->a": b_in_terms_of_a}
    if direction not in dictionaries:
        raise InputError("direction must be 'a->b' or 'b->a'")
    source = direction[0]
    table = dictionaries[direction](_alphabet_degree(poly, source))
    if not table:
        return poly
    return poly.subs({"%s%d" % (source, i): p for i, p in table.items()})


# ---------------------------------------------------------------------------
# genus specializations


def _single_series_var(vars_):
    cands = [v for v in vars_ if v[0] in ("u", "x")]
    if len(set(cands)) != 1:
        raise InputError("expected a one-variable series, got variables %r" % (sorted(vars_),))
    return cands[0]


def _quotient(num, den, degree):
    """[x^0..x^degree] of num/den, for coefficient lists of Fractions
    (missing entries are 0) with den[0] != 0, by the triangular recurrence
    q_k = (num_k - sum_{j>=1} den_j q_{k-j}) / den_0."""
    d0 = den[0]
    if not d0:
        raise ZeroDivisionError("series has zero constant term")
    tail = [(j, c) for j, c in enumerate(den[1 : degree + 1], 1) if c]
    q = []
    for k in range(degree + 1):
        s = num[k] if k < len(num) else Fraction(0)
        for j, c in tail:
            if j > k:
                break
            s -= c * q[k - j]
        q.append(s / d0)
    return q


def _coefficients(poly, var, count):
    """[var^0..var^(count-1)] of poly, as Fractions; each must be a number."""
    i = poly.vars.index(var) if var in poly.vars else None
    out = [Fraction(0)] * count
    for e, c in poly.terms.items():
        k = e[i] if i is not None else 0
        if k < count:
            if sum(e) != k:
                raise InputError("genus coefficients must be numbers, got %s" % poly.coefficient_of(var, k).to_text())
            out[k] = c
    return out


def specialize_genus(f, degree):
    """Coefficient assignment {a_i: q_i} of the genus with f-series f.

    q_i is the x^i coefficient of x/f(x) = den(x) / (num(x)/x), one
    power-series quotient.  `f` is a RationalFn num/den or a TruncatedSeries
    num (den = 1) in one variable; it must start u + O(u^2), and a series
    must hold the u^(degree+1) term that q_degree reads.
    """
    if isinstance(f, RationalFn):
        num, den = f.num, f.den
        var = _single_series_var(set(num.vars) | set(den.vars))
    elif isinstance(f, TruncatedSeries):
        if f.cutoff < degree + 1:
            raise InputError("series cutoff %d is below degree + 1 = %d" % (f.cutoff, degree + 1))
        num, den = f.body, MultiPoly.const(1)
        var = _single_series_var(num.vars)
    else:
        raise TypeError("f must be a RationalFn or TruncatedSeries")
    if not num.coefficient_of(var, 0).is_zero():
        raise PoleCancellationError("genus series must vanish at the origin")
    q = _quotient(_coefficients(den, var, degree + 1), _coefficients(num, var, degree + 2)[1:], degree)
    if q[0] != 1:
        raise InputError("genus series must start with the variable itself (f'(0) = 1)")
    return dict(enumerate(q[1:], 1))


def evaluate_class(class_poly, assignment):
    """Evaluate a cobordism class (polynomial in a_i) at numeric a-values.

    Unassigned a_i beyond the table default to 0.
    """
    point = {}
    for v in class_poly.vars:
        if v[0] == "a":
            point[v] = assignment.get(var_weight(v), Fraction(0))
        elif v.startswith("b"):
            raise InputError("class is written in the b-alphabet; convert with basis_convert first")
        else:
            raise InputError("class has a non-coefficient variable %r" % (v,))
    return class_poly.evaluate(point)


def todd_series(cutoff):
    """f(u) = 1 - e^{-u}, the Todd genus."""
    fact = Fraction(1)
    terms = {}
    for k in range(1, cutoff + 1):
        fact *= k
        terms[(k,)] = Fraction((-1) ** (k + 1), 1) / fact
    return TruncatedSeries(MultiPoly(("u1",), terms), cutoff)


def tanh_series(cutoff):
    """f(u) = tanh(u) = sinh(u)/cosh(u), the signature."""
    fact = [Fraction(1)]
    for k in range(1, cutoff + 1):
        fact.append(fact[-1] * k)
    sinh = [1 / fact[k] if k % 2 else Fraction(0) for k in range(cutoff + 1)]
    cosh = [Fraction(0) if k % 2 else 1 / fact[k] for k in range(cutoff + 1)]
    q = _quotient(sinh, cosh, cutoff)
    return TruncatedSeries(MultiPoly(("u1",), {(k,): c for k, c in enumerate(q)}), cutoff)
