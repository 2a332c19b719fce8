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
a sum over the partitions of k.
"""

import math
from fractions import Fraction
from functools import cached_property

from .exactalg import MultiPoly, PoleCancellationError, RationalFn, TruncatedSeries, var_weight
from .rootdata import InputError


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


def _power_coefficient(prefix, p, k):
    """[u^k] (1 + sum_j prefix_j u^j)^p, a polynomial in prefix_1..prefix_k.

    By the multinomial theorem it is the sum over the partitions lambda of k
    of p(p-1)...(p-l+1) / prod_j m_j! * prefix^lambda, where l is the number
    of parts and m_j the multiplicity of part j; p is any rational.
    """
    names = ["%s%d" % (prefix, j) for j in range(1, k + 1)]
    terms = {}
    for parts in _partitions(k):
        mult = tuple(parts.count(j) for j in range(1, k + 1))
        c = Fraction(math.prod(p - i for i in range(len(parts))))
        terms[mult] = c / math.prod(math.factorial(m) for m in mult)
    return MultiPoly(names, terms).restrict_vars()


class FormalGroupLaw:
    """Universal formal group law truncated at u-degree D."""

    def __init__(self, degree):
        if degree < 1:
            raise InputError("degree must be >= 1")
        self.degree = degree
        cutoff = _weighted_cutoff(degree)
        self.cutoff = cutoff
        u, x = MultiPoly.variable("u1"), MultiPoly.variable("x1")
        log = u + MultiPoly.sum(u ** (k + 1) * MultiPoly.variable("b%d" % k) for k in range(1, degree))
        self.log = TruncatedSeries(log, cutoff)
        # [x^m] exp = [u^{m-1}] B(u)^{-m} / m
        self.exp = TruncatedSeries(
            MultiPoly.sum(x ** m * _power_coefficient("b", -m, m - 1) * Fraction(1, m) for m in range(1, degree + 1)),
            cutoff,
        )

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


_FGL_CACHE = {}


def formal_group_law(degree):
    if degree not in _FGL_CACHE:
        _FGL_CACHE[degree] = FormalGroupLaw(degree)
    return _FGL_CACHE[degree]


# ---------------------------------------------------------------------------
# the a <-> b dictionary


def a_in_terms_of_b(degree):
    """{i: polynomial in b} from x/exp(x) = 1 + a_1 x + ..., for i <= degree.

    a_1 = b_1 and a_i = [u^i] B(u)^{1-i} / (1-i) for i >= 2, by
    Lagrange-Buermann applied to x/exp(x) = B(exp(x)).
    """
    if degree < 0:
        raise InputError("degree must be >= 0")
    return {
        i: MultiPoly.variable("b1") if i == 1 else _power_coefficient("b", 1 - i, i) * Fraction(1, 1 - i)
        for i in range(1, degree + 1)
    }


def b_in_terms_of_a(degree):
    """{n: polynomial in a} from the logarithm, for n <= degree.

    g is the compositional inverse of x/A(x), so Lagrange inversion gives
    b_n = [u^n] A(u)^{n+1} / (n+1).
    """
    if degree < 0:
        raise InputError("degree must be >= 0")
    return {n: _power_coefficient("a", n + 1, n) * Fraction(1, n + 1) for n in range(1, degree + 1)}


def _alphabet_degree(poly, prefix):
    """The largest index of a variable of poly in the alphabet `prefix`."""
    return max((var_weight(v) for v in poly.vars if v[0] == prefix), default=0)


def basis_convert(poly, direction):
    """Rewrite a polynomial between the a- and b-alphabets.

    direction is "a->b" or "b->a"; the needed dictionary depth is read off
    the polynomial itself.
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
