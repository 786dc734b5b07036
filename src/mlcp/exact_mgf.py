"""Exact finite-n evaluation of the log moment generating function.

For parameters (b, alpha, r, u, a) and matrix size n,

    ln E_n = sum_{j=1}^{n} ln( sum_{k=0}^{a} C(a,k) (-r)^{a-k} n^{-k/(2b)}
                 * Gamma((2j+2alpha+k)/(2b)) / Gamma((2j+2alpha)/(2b))
                 * [1 + ((-1)^a e^u - 1) P((2j+2alpha+k)/(2b), n r^{2b})] ),

where P is the regularized lower incomplete gamma function.  One kernel,
``_log_terms``, evaluates the j-terms as arrays, a chunk of indices at a
time.

P can change a j-term only near the critical index.  The factor
1 + cu*P, cu = (-1)^a e^u - 1, is the same double for P = 1 below and
P = 0 above a window of shapes around z (``specfun.saturation_window``,
2*sqrt(E^2/9 + 2*E*z) wide around z + E/3 for exponent E), with E = 40 on
the lower side and E = 40 + log1p(|cu|) on the upper (the one rule, for
every shape, is derived on ``_TermContext``), which holds O(sqrt(n)) of
the n rows of each shift.  Every shape is a point s_m = (m + 2 alpha)/(2b)
of one lattice, m = 2j + k, so the shapes of a chunk's rows over all
shifts are one ascending slice of it without repeats (the shift k = 2 of
row j is the shift 0 of row j + 1).  The kernel builds that slice once per
chunk (only its even points at a = 0), finds the window in it by binary
search, writes the constants 1 and 0 outside it and calls
``reg_lower_gamma`` once on the points inside; shift k reads the slice
with stride 2 from m = 2j + k.  A chunk whose shapes of one shift all
saturate gets a scalar factor for that shift, and one whose shifts all
saturate builds no slice.  With cu = 0 (u = 0, a even) it calls
``reg_lower_gamma`` on no row.  The shift k = 0 has a log-gamma ratio of
0 and needs no ``lgamma_diff`` call; one call per chunk takes the shifts
k >= 1 as a column, so that they share the powers of the shapes, with
the scale -(k/2b) ln n inside its main term, and its Stirling series
stops at the first term that cannot change a bit (see
``specfun.lgamma_diff``).

The inner alternating sum loses up to a*|log10(x_j - b r^{2b})| digits
near the critical index j ~ b n r^{2b}.  It is one plain double sum on
every platform, from k = 0 on.  Each term is rounded by exp of its
log-gamma ratio and by P before it is added, and those roundings, not the
a additions, set the row's error (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 4): a compensated sum of the same terms measured
as far from 40 digits.  A row that comes out nonpositive is an
AccuracyError naming its j: by then the other rows near it have lost tens
of nats, and a wider re-sum of the same double-rounded inputs cannot
recover the digits they lost.  A row whose terms overflow a double (e^u
near its limit) is an AccuracyError too.

One summation routine, ``_span_sums``, serves ``ln_mgf_exact`` (the span
1..n) and ``split_sums`` (its four spans).  In each span only three kinds
of rows are evaluated one by one: the head j <= 128; the critical window,
the rows with |j - j_c| <= W around j_c = b n r^{2b} - alpha or with a
shape inside the P window; and eight rows at each end of each remaining
range [A, B] of the span at least 4096 rows long.  On those ranges P is 1
or 0 on every shift, the j-term f is a smooth function of real j (the
kernel takes real j as it is; the argument is on ``_gregory_ranges``),
and the range is summed by Gregory's end-corrected trapezoid rule
(Gregory 1670; Hildebrand, Introduction to Numerical Analysis, 5.9):

    sum_{j=A}^{B} f_j = int_A^B f + (f_A + f_B)/2
                        + sum_{k=1}^{7} c_k (nabla^k f_B + (-1)^k Delta^k f_A),

c_k = 1/12, 1/24, 19/720, 3/160, 863/60480, 275/24192, 33953/3628800, with
the integral from ``quadrature.adaptive`` on 42 panels graded toward both
ends.  W = 2b 1e4^(-1/a) j_c keeps out of the ranges the rows whose k-sum
conditioning exceeds about 2^a 1e4, whose rounding noise stalls the
quadrature; at a >= 2 W is at least 40 sqrt(j_c), since without that floor
the noise of the rows just outside W put the hybrid more than 1e-13 of
|ln E_n| from the row sum on 4 of 900 random configs at a = 3 (n <= 2^17).
At a <= 1 the P window alone is the critical window.  The rows evaluated
grow like sqrt(n) while the P window or the floor is the wider (at b = 1,
r = 0.5 up to n of about 1.6e7 at a = 2, 7e5 at a = 3 and 1.6e5 at
a = 4) and like n after it, and no array grows with n.  On the 84
compare geometries at n = 2^14, 2^17 and 2^20 the hybrid is within
3.2e-16, 1.1e-15, 4.8e-16, 5.5e-15, 1.1e-14, 7.4e-14 and 2.0e-13 of
|ln E_n| from the row sum at a = 0..6.  The quadrature's error estimate
is not a bound, and no error is stated with the value: near W the rows
carry a rounding error of their own (against 40 digits, rms 2.3e-13 to
2.2e-11 per row in the 300 rows past W at b = 0.5, a = 3 and 4), which
the quadrature integrates with them.  A span with no Gregory range (every
span at n < 4224) is summed row by row.  Each span is walked once, in
ascending j; a range whose Gregory sum raises AccuracyError (an end row
that cancels or overflows, a quadrature node inside the P window, a
stalled quadrature) is summed from its own rows instead, so the routine
raises the row sum's AccuracyError, naming the same j, and evaluates no
row twice but the end rows of a range that falls back.

The module also provides the diagnostic decomposition of ln E_n into four
index ranges.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import AccuracyError, DomainError, RangeError
from .params import check_size, exp_u, is_int
from .quadrature import adaptive
from .specfun import lgamma_diff, reg_lower_gamma, saturation_window

# j-terms per kernel call: bounds the kernel's working arrays, and so the
# peak memory, independently of n.
_CHUNK = 4096

# A shape below the saturation window for E = _TERM_EXPONENT, or above it
# for E = _TERM_EXPONENT + log1p(|cu|), cannot change the factor 1 + cu P
# of its j-term (see _TermContext).
_TERM_EXPONENT = 40.0

# The hybrid sum (module docstring): the rows j <= _HEAD, the window
# |j - j_c| <= W, W = 2b _KAPPA^(-1/a) j_c and at a >= 2 at least
# _WINDOW_SQRT sqrt(j_c), and the P window one by one; a remaining range of
# at least _MIN_GREGORY_ROWS rows (the measured break-even against its 630
# quadrature nodes) by Gregory's formula, its integral to _QUAD_RTOL per
# row and per unit of max(1, |f_A|, |f_B|) on panels halving toward both
# ends over _GRADE_LEVELS levels, under quadrature's bisection bound: on
# 9,000 random configs (n from 2^13 to 2^20, a <= 6) no converging range
# needed more than one bisection, and 1 of 9,656 stalled; a stalled range
# falls back to its row sum.
# _HEAD is derived on _gregory_ranges.
_HEAD = 128
_WINDOW_SQRT = 40.0
_KAPPA = 1e4
_MIN_GREGORY_ROWS = 4096
_QUAD_RTOL = 1e-13
_GRADE_LEVELS = 20

# Gregory's end corrections, for the differences of order 1..7.
_GREGORY = (1 / 12, 1 / 24, 19 / 720, 3 / 160, 863 / 60480, 275 / 24192, 33953 / 3628800)


@dataclass(frozen=True)
class SplitDiagnostics:
    """Bookkeeping of the four-range decomposition of ln E_n.

    S0..S3 are the sums of the j-terms over the four ranges of split_sums;
    ``total`` is ln E_n from them.
    """

    S0: float
    S1: float
    S2: float
    S3: float
    M: float
    j_minus: int
    j_plus: int
    g_minus: int
    g_plus: int
    theta_minus_eps: float
    theta_plus_eps: float
    theta_minus_M: float
    theta_plus_M: float

    @property
    def total(self):
        return math.fsum((self.S0, self.S1, self.S2, self.S3))


@dataclass(frozen=True)
class ExactResult:
    ln_mgf: float


class _TermContext:
    """Per-(params, n) constants reused by every j-term.

    ``shifts`` is the column of the nonzero shifts k/(2b), k = 1..a.
    ``window`` holds the shape bounds (a_lo, a_hi) of specfun's
    saturation_window at z: a_lo for the exponent _TERM_EXPONENT = 40,
    a_hi for

        E = _TERM_EXPONENT + log1p(|cu|),

    at most about 749.8, since e^u must not overflow.  Outside the window
    a*(lambda - 1 - ln lambda), lambda = z/a, exceeds the exponent of its
    side, and for every shape the factor 1 + cu*P of a j-term is the same
    double for P from reg_lower_gamma as for the constant the kernel
    writes:

    * Above the window (lambda < 1) the Chernoff bound gives
      P <= lambda^a e^(a - z) < e^-E, so |cu P| < e^-40 < 2^-54 (also for
      reg_lower_gamma's P, within 1e-12 relative of it): 1 + cu*P rounds
      to 1, which is 1 + cu*0.
    * Below it (lambda > 1) reg_lower_gamma returns exactly 1.0, so
      1 + cu*P is 1 + cu*1 whatever cu is, and an exponent of 40 suffices.
      For shapes >= 1e3 its uniform expansion's P is
      1 - erfc(eta sqrt(a/2))/2 - e^(-a eta^2/2) series/sqrt(2 pi a) with
      a eta^2/2 > 40: erfc(sqrt(40))/2 and the correction are both below
      2^-54, and past about 745.13 both underflow to 0.
      For shapes below 1e3 scipy's gammainc rounds 1 - Q, Q <= e^-40 by
      the same bound, to exactly 1.0 (tests/test_specfun.py,
      TestSaturationWindow, checks this across z and E).

    cu = 0 (u = 0 and a even) makes 1 + cu*P = 1 for every P, so then no
    row needs P at all.  A u whose e^u overflows is a DomainError.

    P's shapes are the points s_m = (m + 2 alpha)/(2b) of one lattice,
    m = 2j + k for row j and shift k, which ``shape`` gives for an m or an
    array of them.
    """

    __slots__ = (
        "params", "n", "z", "cu", "coeffs", "shifts", "window", "two_alpha", "two_b",
    )

    def __init__(self, params, n):
        self.params = params
        self.n = n
        self.z = n * params.r ** (2.0 * params.b)
        sign = -1.0 if params.a % 2 else 1.0
        self.cu = sign * exp_u(params.u) - 1.0
        self.coeffs = [
            math.comb(params.a, k) * (-params.r) ** (params.a - k)
            for k in range(params.a + 1)
        ]
        self.two_b = 2.0 * params.b
        self.shifts = np.arange(1.0, params.a + 1).reshape(-1, 1) / self.two_b
        exponent = _TERM_EXPONENT + math.log1p(abs(self.cu))
        self.window = (
            saturation_window(self.z, _TERM_EXPONENT)[0],
            saturation_window(self.z, exponent)[1],
        )
        self.two_alpha = 2.0 * params.alpha

    def shape(self, m):
        """The lattice shape s_m = (m + 2 alpha)/(2b)."""
        return (m + self.two_alpha) / self.two_b


def _row_error(j, total):
    """The AccuracyError for row j, whose inner k-sum came out as total:
    not finite (a term overflowed a double, which leaves +-inf or NaN), or
    nonpositive."""
    if not math.isfinite(total):
        return AccuracyError(
            f"inner sum not finite at j={j}: a term of the k-sum overflowed a double"
        )
    return AccuracyError(
        f"inner sum nonpositive at j={j}: the alternating k-sum cancelled "
        "below double-precision rounding"
    )


def _p_shifts(ctx, j):
    """P(a, z) where it can change a j-term, at the shapes s_(2j+k) of
    every shift k for the ascending j: one float or array per shift, a
    float where one value serves the whole chunk.

    The shapes below ctx.window get 1 and those above it 0, which leaves
    1 + cu*P as reg_lower_gamma's value would (the rule on _TermContext).
    A chunk with a shape inside it must be rows, consecutive integers j:
    their shapes are then the lattice slice m = 2j[0]..2j[-1] + a (even m
    only at a = 0), ascending and without repeats, which takes P once per
    point inside the window, and shift k reads it from m = 2j[0] + k with
    stride 2.  Gregory's quadrature nodes lie outside the window (see
    _gregory_ranges); a chunk of them that reaches it raises AccuracyError,
    which sends that range back to its rows.  With cu = 0 no row runs P.
    """
    a = ctx.params.a
    if not ctx.cu:  # 1 + 0*P is 1 whatever P is
        return [0.0] * (a + 1)
    a_lo, a_hi = ctx.window
    first, last = 2.0 * j[0], 2.0 * j[-1]
    ps = []
    for k in range(a + 1):
        if ctx.shape(first + k) > a_hi:
            ps.append(0.0)
        elif ctx.shape(last + k) < a_lo:
            ps.append(1.0)
        else:
            ps.append(None)  # read from the lattice slice
    if None not in ps:
        return ps
    if not (first.is_integer() and (np.diff(j) == 1.0).all()):
        raise AccuracyError(
            f"quadrature node inside the P window at j={float(j[0])!r}"
        )
    step = 1 if a else 2
    shapes = ctx.shape(np.arange(first, last + a + 1, step))
    lo = int(np.searchsorted(shapes, a_lo))
    hi = int(np.searchsorted(shapes, a_hi, side="right"))
    lattice = np.zeros_like(shapes)  # the points from hi on
    lattice[:lo] = 1.0
    lattice[lo:hi] = reg_lower_gamma(shapes[lo:hi], ctx.z)
    return [
        lattice[k // step::2 // step][:j.size] if pk is None else pk
        for k, pk in enumerate(ps)
    ]


def _log_terms(ctx, j):
    """ln of the inner k-sum for every index in the ascending array j:
    the rows' integers, or the real nodes of a Gregory range's quadrature.

    The k-sum adds its a + 1 terms from k = 0 on in plain double
    precision.  Every row gets its log; a row that comes out not finite or
    nonpositive raises AccuracyError naming the first such j.
    """
    p = ctx.params
    at0 = (j + p.alpha) / p.b
    # one lgamma_diff call takes every shift k >= 1 (row k - 1 of gs), so
    # that the powers of at0 are shared; the shift k = 0 has g = 0, and
    # leaving out its factor exp(0) = 1 changes no bit of its term
    gs = lgamma_diff(at0, ctx.shifts, ctx.n) if p.a else None
    terms = []
    # a term that overflows (e^u near its limit) leaves an inf or a NaN in
    # its row; the log of a row that is not finite and positive is not
    # finite, which the check below reports
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, pk in enumerate(_p_shifts(ctx, j)):
            term = ctx.coeffs[k]
            if k:
                term = term * np.exp(gs[k - 1])
            terms.append(term * (1.0 + ctx.cu * pk))
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        if np.ndim(total) == 0:  # a = 0 on a chunk where P is one constant
            total = np.full_like(j, total)
        logs = np.log(total)

    finite = np.isfinite(logs)
    if not finite.all():
        i = int(np.argmin(finite))  # argmin of a bool array: the first False
        raise _row_error(int(j[i]), float(total[i]))
    return logs


def _gregory_ranges(ctx, lo, hi):
    """The row ranges [A, B] inside the span lo..hi that are summed by
    Gregory's formula: past the head of _HEAD rows, below and above the
    critical window |j - j_c| <= W and the rows with a shape inside
    ctx.window, each at least _MIN_GREGORY_ROWS long.

    On these rows P is exactly 1 or 0 on every shift, so
    f(j) = ln(1 + cu P) + ln(sum_k C(a,k) (-r)^(a-k) n^(-k/2b)
    Gamma(x + k/2b)/Gamma(x)), x = (j + alpha)/b, is smooth in real j.  Its
    sum behaves like (t - r)^a, t = (x/n)^(1/2b) (1 + O(1/x)), which
    vanishes at j_c, so f ~ a ln|j - j_c| there, and its k-th derivative
    at distance d from j_c is about a (k-1)!/d^k.  Outside the P window
    d >= b sqrt(80 z), about 9 sqrt(j_c) at b = 1, and Gregory's remainder,
    about c_8 f^(8) = c_8 a 7!/d^8 with c_8 = 8183/1036800, is 9e-15 a at
    j_c = 100 and below 1e-18 a from j_c = 1000 on.  Near the head the
    shapes are small instead: the k-th derivative of the log-gamma ratios
    is about (a/2b) (k-1)!/(j + alpha)^k, so the remainder at
    A = _HEAD + 1 is about c_8 (a/2b) 7!/(128 + alpha)^8 <= 5.9e-16 a/2b
    (alpha > -1), against a quadrature tolerance of 1e-13 per row; a head
    of 64 would allow 1.6e-13 a/2b.  c_8 times the eighth differences of
    40-digit j-terms at A = 129, alpha = -0.95 measured at most 7e-17 for
    b from 0.25 to 5, a <= 6 and r up to 0.999 of the edge.
    """
    p = ctx.params
    j_c = p.b * ctx.z - p.alpha
    width = 0.0
    if p.a:
        width = 2.0 * p.b * _KAPPA ** (-1.0 / p.a) * max(j_c, 0.0)
    if p.a >= 2:
        width = max(width, _WINDOW_SQRT * math.sqrt(max(j_c, 0.0)))
    a_lo, a_hi = ctx.window  # shapes (j + alpha)/b + k/(2b), k = 0..a
    below = min(j_c - width, p.b * a_lo - p.alpha - 0.5 * p.a)
    above = max(j_c + width, p.b * a_hi - p.alpha)
    bounds = (
        (max(lo, _HEAD + 1), min(hi, math.ceil(below) - 1)),
        (max(lo, _HEAD + 1, math.floor(above) + 1), hi),
    )
    return [(A, B) for A, B in bounds if B - A + 1 >= _MIN_GREGORY_ROWS]


def _rows(ctx, lo, hi):
    """The j-terms of the rows lo..hi in ascending j, one list of Python
    floats (which fsum reads far faster than numpy scalars) per chunk of
    at most _CHUNK rows."""
    for start in range(lo, hi + 1, _CHUNK):
        j = np.arange(start, min(start + _CHUNK - 1, hi) + 1, dtype=float)
        yield _log_terms(ctx, j).tolist()


def _gregory(ctx, A, B):
    """A list of floats whose sum is sum_{j=A}^{B} f_j by Gregory's formula:

        sum_{j=A}^{B} f_j = int_A^B f + (f_A + f_B)/2
                            + sum_k c_k (nabla^k f_B + (-1)^k Delta^k f_A),

    with the c_k of _GREGORY and the differences from the rows A..A+7 and
    B-7..B.  The integral is quadrature.adaptive on _log_terms at real j.
    An end row that cancels or overflows, a node inside the P window or a
    stalled quadrature raises AccuracyError."""
    order = len(_GREGORY)
    forward = _log_terms(ctx, np.arange(A, A + order + 1, dtype=float))
    backward = _log_terms(ctx, np.arange(B - order, B + 1, dtype=float))

    def f(x):
        return _log_terms(ctx, x.ravel()).reshape(x.shape)

    # panels halve toward both ends of the range, over _GRADE_LEVELS levels
    grades = [0.5**k for k in range(_GRADE_LEVELS, 0, -1)]
    half = 0.5 * (B - A)
    edges = (
        [A] + [A + half * g for g in grades] + [A + half]
        + [B - half * g for g in reversed(grades)] + [B]
    )
    f_A, f_B = float(forward[0]), float(backward[-1])
    tol = _QUAD_RTOL * (B - A) * max(1.0, abs(f_A), abs(f_B))
    parts = [adaptive(f, edges, tol)[0], 0.5 * f_A, 0.5 * f_B]
    for k, c in enumerate(_GREGORY, start=1):
        forward, backward = np.diff(forward), np.diff(backward)
        parts += [c * float(backward[-1]), c * (-1) ** k * float(forward[0])]
    return parts


def _summands(ctx, lo, hi):
    """Lists of floats whose sum is sum_{j=lo}^{hi} f_j, in one pass over
    the span in ascending j: the rows up to each range [A, B] that
    _gregory_ranges finds in it, one list per chunk, then the range as one
    list from _gregory, or its own rows where _gregory raises
    AccuracyError, and the rows after the last range."""
    row = lo
    for A, B in _gregory_ranges(ctx, lo, hi):
        yield from _rows(ctx, row, A - 1)
        try:
            yield _gregory(ctx, A, B)
        except AccuracyError:
            yield from _rows(ctx, A, B)
        row = B + 1
    yield from _rows(ctx, row, hi)


def _span_sums(params, n, spans):
    """sum_{j=lo}^{hi} f_j for each span (lo, hi) of ``spans``, ascending
    and together within 1..n: one math.fsum per span over the lists of its
    _summands.

    fsum rounds the exact sum once, so feeding it a list at a time changes
    no bit of the result.  A range whose Gregory sum raises is summed from
    its own rows, so a row that cancels or overflows raises the
    AccuracyError of the first such row in ascending j, as the row sum
    would: the rows below a range are evaluated before it, the k-sum comes
    out nonpositive only inside the window, whose rows are summed one by
    one, and the rows that overflow below the window form one run up to
    it, which a range's end rows B-7..B meet.
    """
    ctx = _TermContext(params, n)
    return [math.fsum(chain.from_iterable(_summands(ctx, lo, hi))) for lo, hi in spans]


def ln_mgf_exact(params, n):
    """Evaluate ln E_n exactly (up to floating-point error) at size n.

    Returns an ExactResult.  Nothing of size n is allocated, and once n is
    large enough for a Gregory range (past _HEAD rows and the critical
    window, at least _MIN_GREGORY_ROWS long) the rows outside the window
    are summed by Gregory's formula (the module docstring); on the compare
    geometries at n = 2^14, 2^17 and 2^20 that value is within 5.5e-15 of
    |ln E_n| from the row sum at a <= 3, 1.1e-14 at a = 4 and 7.4e-14 at
    a = 5.
    The j-terms are evaluated in chunks of _CHUNK indices, with P(a, z)
    evaluated only in the window where it can change a term (the rule on
    _TermContext), once per point of the chunk's slice of the shape
    lattice (m + 2 alpha)/(2b), m = 2j + k; the per-term values are those
    of evaluating P on every row and shift at its lattice shape, bit for
    bit.
    The total is one math.fsum over the summands, which rounds their exact
    sum once, so neither the chunks nor the order change a bit of it.  A u
    with e^u beyond the double range (u > 709.78) is a DomainError.  No
    accuracy is certified: on 50-digit references the error is 8.1e-5 at
    a = 4, n = 2**17, and below 1e-10 for a <= 3 (n <= 256; n = 2**14 at
    a = 1).  A j-term whose inner sum comes out nonpositive or not finite
    raises AccuracyError naming its j, the first such j of the row sum; a
    Gregory range that cannot be summed by the formula is summed from its
    own rows, and the rest of the span is not evaluated again.
    """
    check_size(params, n)
    (total,) = _span_sums(params, n, [(1, n)])
    return ExactResult(ln_mgf=total)


def _frac_ceil(x):
    c = math.ceil(x)
    return c, c - x


def _frac_floor(x):
    f = math.floor(x)
    return f, x - f


def default_window_width(n):
    """The reference choice M = n^{1/8} (ln n)^{-1/8} for the central window."""
    if n < 2:
        raise RangeError("default window width requires n >= 2")
    return n ** 0.125 * math.log(n) ** -0.125


def split_sums(params, n, eps, m_prime):
    """Decompose ln E_n into S0 + S1 + S2 + S3 over four j-ranges.

    S0 covers j <= m_prime, S1 the bulk below the critical index
    j_minus = ceil(b n r^{2b}/(1+eps) - alpha), S2 the critical window
    [j_minus, j_plus], and S3 the rest.  eps must satisfy
    b r^{2b}/(1-eps) < 1/(1+eps); the ranges must all be nonempty.
    g_minus, g_plus bound the window b n r^{2b}/(1 +- M/sqrt n) - alpha,
    with M = default_window_width(n).
    Purely diagnostic: the total is ln E_n for every admissible choice.
    Each of the four ranges is summed as ln_mgf_exact sums 1..n
    (_span_sums), with Gregory's formula on the saturated rows inside it,
    so work and memory grow like sqrt(n), as ln_mgf_exact's do.  Where no
    Gregory range fits in any of the four (every n below 4224) the
    total is within a few ulps of ln_mgf_exact's row sum; elsewhere each
    S_i agrees with its row sum as ln_mgf_exact does.  The four ranges are
    walked once each, in ascending j, so a row that cancels or overflows
    raises ln_mgf_exact's AccuracyError, naming the same j.
    """
    check_size(params, n)
    mass = params.bulk_mass
    if not (0.0 < eps < 1.0) or mass / (1.0 - eps) >= 1.0 / (1.0 + eps):
        raise DomainError(
            "eps must satisfy 0 < eps < 1 and b r^{2b}/(1-eps) < 1/(1+eps)",
            constraint="eps",
        )
    if not (is_int(m_prime) and m_prime >= 1):
        raise DomainError("m_prime must be a positive integer", constraint="m_prime")
    M = default_window_width(n)

    center = params.b * n * params.r ** (2.0 * params.b)
    j_minus, theta_minus_eps = _frac_ceil(center / (1.0 + eps) - params.alpha)
    j_plus, theta_plus_eps = _frac_floor(center / (1.0 - eps) - params.alpha)
    root_n = math.sqrt(n)
    g_minus, theta_minus_M = _frac_ceil(center / (1.0 + M / root_n) - params.alpha)
    g_plus, theta_plus_M = _frac_floor(center / (1.0 - M / root_n) - params.alpha)

    if m_prime >= j_minus:
        raise RangeError(f"m_prime={m_prime} must be < j_minus={j_minus}")
    if j_minus > j_plus:
        raise RangeError("empty critical window: j_minus > j_plus (n too small)")
    if j_plus > n:
        raise RangeError(f"j_plus={j_plus} exceeds n={n} (n too small for eps)")

    spans = [(1, m_prime), (m_prime + 1, j_minus - 1), (j_minus, j_plus), (j_plus + 1, n)]
    s0, s1, s2, s3 = _span_sums(params, n, spans)
    return SplitDiagnostics(
        S0=s0,
        S1=s1,
        S2=s2,
        S3=s3,
        M=M,
        j_minus=j_minus,
        j_plus=j_plus,
        g_minus=g_minus,
        g_plus=g_plus,
        theta_minus_eps=theta_minus_eps,
        theta_plus_eps=theta_plus_eps,
        theta_minus_M=theta_minus_M,
        theta_plus_M=theta_plus_M,
    )

