"""Exact-arithmetic combinatorics and the polynomial families of the model.

Stirling numbers, generalized Bernoulli polynomials, Hermite and associated
Hermite polynomials, their positive-coefficient twists p/q entering the
bulk profile functions, and the combinatorial weights used by the finite
evaluation formula.  All identities live in exact rational arithmetic;
floats appear only when a polynomial is evaluated numerically.
"""

import math
from fractions import Fraction
from functools import lru_cache

import scipy

from .errors import DomainError, SingularPointError, UnsupportedOrderError

_GEN_BERNOULLI_ORDER_CAP = 32


class Poly:
    """Dense univariate polynomial with exact ``Fraction`` coefficients.

    ``coeffs[k]`` is the coefficient of x^k; trailing zeros are trimmed so
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return Poly([other]) - self

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        c = Fraction(other)
        return Poly([c * x for x in self.coeffs])

    __rmul__ = __mul__

    def derivative(self):
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; exact when x is a Fraction or int."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def float_coeffs(self):
        return [float(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}*x^{k}" if k else f"{c}")
        return "Poly(" + " + ".join(parts) + ")"


X = Poly([0, 1])


@lru_cache(maxsize=None)
def stirling2(ell, j):
    """Stirling number of the second kind S(ell, j), exact integer."""
    if ell < 0 or j < 0:
        raise DomainError("stirling2 requires nonnegative indices")
    return scipy.special.stirling2(ell, j, exact=True)


@lru_cache(maxsize=None)
def _gen_bernoulli_series(k, order):
    """Coefficients g_0..g_order of (t/(e^t - 1))^k = v^-k, v = sum_m
    t^m/(m+1)!, by J.C.P. Miller's power recurrence: g_0 = 1 and
    g_m = (1/m) sum_{j=1..m} ((1-k) j - m) v_j g_{m-j}."""
    v = [Fraction(1, math.factorial(m + 1)) for m in range(order + 1)]
    g = [Fraction(1)]
    for m in range(1, order + 1):
        g.append(sum(((1 - k) * j - m) * v[j] * g[m - j] for j in range(1, m + 1)) / m)
    return tuple(g)


def gen_bernoulli(ell, k, x):
    """Generalized Bernoulli polynomial B_ell^(k)(x), exact rational.

    Defined by (t/(e^t-1))^k * e^{xt} = sum_ell B_ell^(k)(x) t^ell / ell!.
    ``k`` and ``x`` may be any rationals; B_ell^(0)(x) = x^ell.
    """
    if ell < 0:
        raise DomainError("gen_bernoulli requires ell >= 0")
    if ell > _GEN_BERNOULLI_ORDER_CAP:
        raise UnsupportedOrderError(
            f"gen_bernoulli series order capped at {_GEN_BERNOULLI_ORDER_CAP}"
        )
    k = Fraction(k)
    x = Fraction(x)
    base = _gen_bernoulli_series(k, ell)
    # multiply by e^{xt} and read off the t^ell coefficient
    coeff = Fraction(0)
    for m in range(ell + 1):
        coeff += base[ell - m] * x**m / math.factorial(m)
    return coeff * math.factorial(ell)


# ---------------------------------------------------------------------------
# Hermite families


@lru_cache(maxsize=None)
def assoc_hermite(nu, k):
    """Associated Hermite polynomial He_k^(nu) as an exact Poly, k >= 0.

    Three-term recurrence He_{m+1} = x He_m - (m+nu) He_{m-1} from
    He_{-1} = 0, He_0 = 1, run as a loop on integer coefficient lists;
    nu = 0 gives the classical polynomials.
    """
    if nu not in (0, 1):
        raise DomainError("assoc_hermite implements nu in {0, 1} only")
    if k < 0:
        raise DomainError("assoc_hermite requires k >= 0")
    prev, cur = [], [1]
    for m in range(k):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= (m + nu) * c
        prev, cur = cur, nxt
    return Poly(cur)


def hermite(k):
    """Classical He_k (probabilists' normalization)."""
    return assoc_hermite(0, k)


@lru_cache(maxsize=None)
def p0(a):
    """p_{0,a}(x) = i^{-a} He_a(i x): He_a with all coefficients made positive."""
    if a < 0:
        raise DomainError("p0 requires a >= 0")
    return Poly([abs(c) for c in hermite(a).coeffs])


@lru_cache(maxsize=None)
def q0(a):
    """q_{0,a}(x) = i^{-(a-1)} He_{a-1}^{(1)}(i x): He_{a-1}^{(1)} with all
    coefficients made positive; q_{0,0} = 0."""
    if a < 0:
        raise DomainError("q0 requires a >= 0")
    return Poly([abs(c) for c in assoc_hermite(1, a - 1).coeffs]) if a else Poly()


def bracket_a_q0(a):
    """[a * q_{0,a-1}]: equals 1 when a = 0, else a*q_{0,a-1}."""
    if a == 0:
        return Poly([1])
    return a * q0(a - 1)


def bracket_a3_q0(a):
    """[a(a-1)(a-2) * q_{0,a-3}] with the four-case convention at a <= 2."""
    if a == 0:
        return Poly([-1, 0, 1])  # x^2 - 1
    if a == 1:
        return Poly([0, -1])  # -x
    if a == 2:
        return Poly([2])
    return a * (a - 1) * (a - 2) * q0(a - 3)


def p1(a, b):
    """p_{1,a} = -(a/2) p_{0,a+1} - a*b*(p_{0,a+1} - (3a-1) p_{0,a-1}
    + (5/3)(a-1)(a-2) p_{0,a-3})."""
    if a < 0:
        raise DomainError("p1 requires a >= 0")
    b = Fraction(b)
    out = Fraction(-a, 2) * p0(a + 1)
    if a >= 1:
        inner = p0(a + 1) - (3 * a - 1) * p0(a - 1)
        if a >= 3:
            inner = inner + Fraction(5 * (a - 1) * (a - 2), 3) * p0(a - 3)
        out = out - (a * b) * inner
    return out


def q1(a, b):
    """q_{1,a} = -(a/2) q_{0,a+1} - b*(a q_{0,a+1} - (3a-1)[a q_{0,a-1}]
    + (5/3)[a(a-1)(a-2) q_{0,a-3}])."""
    if a < 0:
        raise DomainError("q1 requires a >= 0")
    b = Fraction(b)
    inner = (
        a * q0(a + 1)
        - (3 * a - 1) * bracket_a_q0(a)
        + Fraction(5, 3) * bracket_a3_q0(a)
    )
    return Fraction(-a, 2) * q0(a + 1) - b * inner


# ---------------------------------------------------------------------------
# Combinatorial weights


def gfrak(ell, a, x):
    """Direct sum sum_{k=0}^{a} C(a,k) x^k k^ell (0^0 = 1); exact rational."""
    if ell < 0 or a < 0:
        raise DomainError("gfrak requires nonnegative ell and a")
    x = Fraction(x)
    total = Fraction(0)
    for k in range(a + 1):
        kp = Fraction(1) if ell == 0 else Fraction(k**ell)
        total += math.comb(a, k) * x**k * kp
    return total


def gfrak_stirling(ell, a, x):
    """Stirling-number representation of gfrak; agrees with the direct sum.

    For ell >= 1: sum_j S(ell,j) a!/(a-j)! x^j (1+x)^{a-j}; for ell = 0 it
    degenerates to (1+x)^a.
    """
    if ell < 0 or a < 0:
        raise DomainError("gfrak_stirling requires nonnegative ell and a")
    x = Fraction(x)
    if ell == 0:
        return (1 + x) ** a
    total = Fraction(0)
    for j in range(1, min(ell, a) + 1):
        falling = Fraction(math.factorial(a), math.factorial(a - j))
        total += stirling2(ell, j) * falling * x**j * (1 + x) ** (a - j)
    return total


def gamma_ell(ell, x, params):
    """Radial weight moment: sum_k C(a,k)(+-r)^{a-k} (x/b)^{k/(2b)} k^ell.

    Piecewise in x relative to the critical mass b*r^(2b): above it the
    alternating-sign branch applies, below it the (-1)^k branch.  At the
    critical point itself only ell <= a has a finite one-sided limit.
    """
    if ell < 0:
        raise DomainError("gamma_ell requires ell >= 0")
    if not (x > 0):
        raise DomainError("gamma_ell requires x > 0", constraint="x")
    a, b, r = params.a, params.b, params.r
    crit = params.bulk_mass
    if x == crit and ell > a:
        raise SingularPointError(
            "gamma_ell has no two-sided value at x = b*r^(2b) for ell > a"
        )
    s = (x / b) ** (1.0 / (2.0 * b))
    total = 0.0
    for k in range(a + 1):
        kp = 1.0 if ell == 0 else float(k) ** ell
        if x >= crit:
            sign = (-r) ** (a - k)
        else:
            sign = (-1.0) ** k * r ** (a - k)
        total += math.comb(a, k) * sign * s**k * kp
    return total


def gamma_ell_stirling(ell, x, params):
    """Closed form of gamma_ell via Stirling numbers (ell >= 1 case)."""
    if ell < 0:
        raise DomainError("gamma_ell_stirling requires ell >= 0")
    if not (x > 0):
        raise DomainError("gamma_ell_stirling requires x > 0", constraint="x")
    a, b, r = params.a, params.b, params.r
    s = (x / b) ** (1.0 / (2.0 * b))
    if ell == 0:
        return abs(r - s) ** a
    if s == r:
        raise SingularPointError("gamma_ell_stirling singular at x = b*r^(2b)")
    total = 0.0
    for j in range(1, min(ell, a) + 1):
        falling = math.factorial(a) / math.factorial(a - j)
        total += stirling2(ell, j) * falling * s ** (j - 1) * (s - r) ** (-j)
    return s * abs(r - s) ** a * total


def pfrak(ell, k, b, alpha):
    """Gamma-ratio expansion weight b^ell C(k/2b, ell) B_ell^(1+k/2b)((2a+k)/2b).

    Exact rational for rational inputs; vanishes at k = 0 for ell >= 1.
    """
    if ell < 0:
        raise DomainError("pfrak requires ell >= 0")
    b = Fraction(b)
    alpha = Fraction(alpha)
    k = Fraction(k)
    half = k / (2 * b)
    binom = Fraction(1)
    for i in range(ell):
        binom *= half - i
    binom /= math.factorial(ell)
    return b**ell * binom * gen_bernoulli(ell, 1 + half, (2 * alpha + k) / (2 * b))
