"""Bulk profile functions and the asymptotic constants C1, C2, C3.

ln E_n grows like C1*n + C2*sqrt(n) + C3 with

  C1 = int_0^r (u + a ln(r-y)) dmu + int_r^edge a ln(y-r) dmu,
  C2 = sqrt(2) b r^b int (ln g0(y) - a ln(sqrt(2)|y|) - u*[y<0]) dy,
  C3 = closed form + int { g1/(sqrt(2) g0) + 4by(ln g0 - u*[y<0])
        - (a/2) y (1+2b+8b ln(sqrt(2)|y|)) + (2ab-a^2) y/(4(1+y^2)) } dy,

where dmu(y) = 2 b^2 y^{2b-1} dy and (g0, g1) are erfc/Gaussian-smoothed
evaluations of the p/q polynomial families, built from one erfc per node
(_parts).  The integrands cancel strongly at large |y|; all cancellations
are performed either in exact coefficient space (polynomial counterterms)
or via log1p of explicitly tiny corrections, never by subtracting two
large floats: ln g0 - a ln(sqrt2 |y|) is one log1p formula on the whole
line, which the C3 integrand reuses (_integrands).

C1 is closed-form up to one smooth integral.  With s = 2b and Y = edge
(Y^s = 1/b), C1 = u b r^s + a b I, I = int_0^Y s y^{s-1} ln|r-y| dy.
Integrating by parts against y^s - r^s, which vanishes at y = r, and
putting y = r t gives

  I = (1/b - r^s) ln(Y-r) + r^s ln r - r^s (psi(s+1) + gamma + K),
  K = int_1^{Y/r} (t^s-1)/(t-1) dt = int_0^{(Y-r)/r} expm1(s log1p(h))/h dh,

with psi(s+1) + gamma = int_0^1 (1-t^s)/(1-t) dt (DLMF 5.9.16).  K's
integrand is analytic: one adaptive Gauss-Kronrod call on panels graded
toward h = 0, where it turns from s into about h^(s-1) once h > 1.
C1's error is a b r^s times K's estimate plus a rounding allowance of 4 eps
a b times the summed |terms| of I, counting (1/b + r^s)|ln(Y-r)| for the
first.

C2 and C3 are integrated together, as the two components of one
integrand (_integrands), which evaluates the profile once per node for
both.  They take two adaptive Gauss-Kronrod calls, which share their
panels: the core |y| <= y_switch, and both tails mapped by t = 1/y onto
[-1/y_switch, 1/y_switch], where integrand(1/t)/t^2 is smooth through
t = 0 (see _in_t).  Each constant's error estimate is the sum of its
component's estimates in the two calls.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy

from . import combo_poly
from .errors import AccuracyError, DomainError
from .params import check_size, exp_u
from .quadrature import adaptive, graded_edges
from .specfun import horner

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN_SQRT2 = 0.5 * math.log(2.0)
_T_MIN = 2.0**-30
# Below t = sqrt2 |y| = _T_TINY, far under the smallest quadrature node
# (about 1e-18), psi2 is formed from its definition (_integrands); at large
# a, from where t^a < 2^-900 (_Profile.t_tiny).
_T_TINY = 1e-30


def _erfc(x):
    """math.erfc element by element on the array x, in x's shape: against a
    40-digit reference, scipy's erfc is 1.4e-14 relative off for y in
    [6, 12] and 5.7e-14 by y = 26, where math.erfc stays within 4e-16."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class GPair:
    g0: float
    g1: float


@dataclass(frozen=True)
class ScanResult:
    all_positive: bool
    min_value: float
    argmin: float


@dataclass(frozen=True)
class AsymptoticCoeffs:
    C1: float
    C2: float
    C3: float
    err1: float
    err2: float
    err3: float


class _Profile:
    """Float-ready polynomial data for one (a, b, u) triple.

    The combinations p1 + (a/2)(1+2b) s p0 and q1 + (a/2)(1+2b) s q0 have
    their degree-(a+1) and degree-a heads cancelled exactly in rational
    arithmetic; they are what keeps the C3 integrand O(1/y) pointwise.
    """

    __slots__ = (
        "a", "b", "u", "cu_e", "exp_neg_u", "sign_a",
        "p0", "q0", "p1", "q1", "p_comb", "q_comb", "tail_ratio", "t_tiny", "y_switch",
    )

    def __init__(self, a, b, u):
        self.a = a
        self.b = b
        self.u = u
        self.sign_a = -1.0 if a % 2 else 1.0
        self.cu_e = exp_u(u) - self.sign_a  # e^u - (-1)^a
        self.exp_neg_u = exp_u(-u)  # e^-u, for y < 0 in psi2 (_integrands)
        bfrac = Fraction(b)
        p0 = combo_poly.p0(a)
        q0 = combo_poly.q0(a)
        p1 = combo_poly.p1(a, bfrac)
        q1 = combo_poly.q1(a, bfrac)
        head = Fraction(a, 2) * (1 + 2 * bfrac)
        s_poly = combo_poly.X
        self.p0 = p0.float_coeffs()
        self.q0 = q0.float_coeffs()
        self.p1 = p1.float_coeffs()
        self.q1 = q1.float_coeffs()
        self.p_comb = (p1 + head * s_poly * p0).float_coeffs()
        self.q_comb = (q1 + head * s_poly * q0).float_coeffs()
        # p0(t)/t^a - 1 as a polynomial in w = 1/t^2: constant term 0, then
        # the coefficients of t^{a-2}, t^{a-4}, ... below the monic head
        self.tail_ratio = [0.0] + [float(p0.coeffs[a - 2 * m]) for m in range(1, a // 2 + 1)]
        # tail_ratio reaches w^(a/2) = t^-a, which overflows a double as
        # t^a nears underflow: from a = 18 at the smallest nodes
        self.t_tiny = max(_T_TINY, 2.0 ** (-900.0 / max(a, 1)))
        self.y_switch = max(8.0, math.sqrt(max(u, 0.0) + 64.0))


@functools.lru_cache(maxsize=256)
def _cached_profile(a, b, u):
    return _Profile(a, b, u)


def _profile(params):
    """The _Profile of params, built once per (a, b, u) and shared by later
    calls: C2, C3 and every eval_G call would otherwise repeat its exact
    rational arithmetic."""
    return _cached_profile(params.a, params.b, params.u)


def _parts(y, prof):
    """s = -sqrt2 y, the erfc and Gaussian weights (amp, gauss) of every
    profile p(s) amp + q(s) gauss, and erfc(|y|)/2 at the array y: one erfc
    per node, read as erfc(y)/2 = 1 - erfc(|y|)/2 for y < 0."""
    half = 0.5 * _erfc(np.abs(y))
    amp = prof.sign_a + prof.cu_e * np.where(y < 0.0, 1.0 - half, half)
    gauss = prof.cu_e * np.exp(-y * y) / _SQRT_2PI
    return -_SQRT2 * y, amp, gauss, half


def _mix(p, q, parts):
    """p(s) amp + q(s) gauss for the polynomial pair (p, q)."""
    s, amp, gauss, _ = parts
    return horner(p, s) * amp + horner(q, s) * gauss


def _float_or_array(x):
    """A 0-d result as a float, any other as the array it is."""
    return float(x) if np.ndim(x) == 0 else x


def eval_G(y, params):
    """Evaluate the profile pair (g0, g1) at real y (a float or an array).

    g0 = p0(-sqrt2 y) [(-1)^a + (e^u - (-1)^a) erfc(y)/2]
         + q0(-sqrt2 y) (e^u - (-1)^a) exp(-y^2)/sqrt(2 pi),
    and g1 likewise with (p1, q1).  g0 is strictly positive for every
    real y, u and nonnegative integer a.
    """
    prof = _profile(params)
    parts = _parts(np.asarray(y, dtype=float), prof)
    return GPair(
        g0=_float_or_array(_mix(prof.p0, prof.q0, parts)),
        g1=_float_or_array(_mix(prof.p1, prof.q1, parts)),
    )


def _finite(name, y, values):
    """values, or AccuracyError naming the first y where they are not
    finite: an integrand that overflowed a double."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise AccuracyError(f"{name} integrand not finite at y={y[bad][0]}")
    return values


def _integrands(y, prof):
    """The C2 and C3 integrands at the nodes y, none of them 0, stacked:
    shape (2,) + y.shape.  One _parts (one erfc) and one p0(s), q0(s) per
    node serve both.

    C2's, psi2 = ln g0(y) - a ln(sqrt2 |y|) - u [y<0], is one formula on
    the whole line.  With t = sqrt2 |y| and w = 1/t^2,

      psi2 = log1p(p0(t)/t^a - 1) + log1p(side (e^u - (-1)^a) small),
      small = erfc(|y|)/2 - exp(-y^2) q0(t) / (sqrt(2 pi) p0(t)),

    side = (-1)^a for y > 0 and -e^-u for y < 0.  p0(t)/t^a - 1 is the
    polynomial tail_ratio in w, so ln p0(t) - a ln t, which cancels at
    large t (and the tail map multiplies that error by y^2), is never
    formed by subtraction.  Below t = t_tiny (_T_TINY, far under every
    node, to a = 9; above, where t^a < 2^-900), psi2 is its definition,
    ln(g0 e^(-u [y<0])) - a ln t: nothing cancels there, while w and, at
    odd a, q0/p0 overflow a double as t -> 0.
    t = |s|, and p0 has parity a and q0 parity a - 1, so q0(t)/p0(t) is
    q0(s)/p0(s) for y < 0 and its negative for y > 0, bit for bit.

    C3's folds the linear counterterm into exact algebra:

      combined + 4 b y psi2 + (2ab - a^2) y / (4 (1 + y^2)),
      combined = [p_comb(s) amp + q_comb(s) gauss] / (sqrt2 g0(y)).

    A g0 that is not positive (psi2's second log1p argument at most -1, or
    g0 itself), or a value that is not finite (a term overflowed a double),
    raises AccuracyError naming the first such y, C2's checks first.
    """
    a, b = prof.a, prof.b
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = _parts(y, prof)
        s, amp, gauss, half = parts
        p0, q0 = horner(prof.p0, s), horner(prof.q0, s)
        t = _SQRT2 * np.abs(y)
        ratio = horner(prof.tail_ratio, 1.0 / (t * t))
        above = y > 0.0
        q_over_p = q0 / p0
        small = prof.cu_e * half - gauss * np.where(above, -q_over_p, q_over_p)
        corr = np.where(above, prof.sign_a, -prof.exp_neg_u) * small
        _nonpositive(y, corr <= -1.0)
        psi2 = np.log1p(ratio) + np.log1p(corr)
        g0 = p0 * amp + q0 * gauss
        tiny = t < prof.t_tiny
        if np.any(tiny):
            # ln t from |y|: sqrt2 |y| loses digits below the normal range
            ln_t = np.log(np.abs(y[tiny])) + _LN_SQRT2
            # -u, not a factor e^-u: g0 e^-u overflows at u = -700, a >= 18
            u_neg = np.where(above[tiny], 0.0, prof.u)
            psi2[tiny] = np.log(g0[tiny]) - u_neg - a * ln_t
        psi2 = _finite("C2", y, psi2)
        _nonpositive(y, ~(g0 > 0.0))
        combined = _mix(prof.p_comb, prof.q_comb, parts) / (_SQRT2 * g0)
        c3 = combined + (2.0 * a * b - a * a) * y / (4.0 * (1.0 + y * y)) + 4.0 * b * y * psi2
    return np.stack((psi2, _finite("C3", y, c3)))


def _nonpositive(y, bad):
    """AccuracyError naming the first y where bad holds: g0 is not positive
    there."""
    if np.any(bad):
        raise AccuracyError(f"g0 nonpositive at y={y[bad][0]}")


def positivity_scan(params):
    """Check g0 > 0 on the grid of step 1e-3 over [-12, 12]; returns the
    grid minimum and its location."""
    y = np.arange(-12.0, 12.0 + 0.5e-3, 1e-3)
    g0 = eval_G(y, params).g0
    idx = int(np.argmin(g0))
    return ScanResult(
        all_positive=bool(np.all(g0 > 0.0)),
        min_value=float(g0[idx]),
        argmin=float(y[idx]),
    )


def _in_t(prof):
    """h(t) = _integrands(1/t, prof)/t^2 for 0 < |t| <= 1/y_switch: the
    tails in t = 1/y.  The integrands decay like A/y^2 (C2) and A/y^3 (C3),
    and the logs in psi2 cancel exactly, so h is smooth through t = 0.
    Below |t| = t_min = _T_MIN/y_switch, h is held at h(+-t_min), which
    moves the tail by about |h'(0)| t_min^2/2 per side: the integrands
    overflow at large |y| (from about 1e16 at a = 6, u = 500), and C3's
    cancelling O(1/y) parts leave noise of about eps*|y| in h."""
    t_min = _T_MIN / prof.y_switch

    def h(t):
        y = 1.0 / np.copysign(np.maximum(np.abs(t), t_min), t)
        return _integrands(y, prof) * (y * y)

    return h


def _whole_line(prof, tols):
    """Integrals of _integrands over the real line and their errors, lists
    of (C2, C3).  The integrands are one formula for every y; y_switch only
    places the split between two adaptive calls, each to half of tols:
    the core |y| <= y_switch, graded toward the log singularity at y = 0
    from both sides, and both tails (_in_t) on uniform panels of
    [-1/y_switch, 1/y_switch].  Each error is the sum of the two gk15
    estimates; holding h below t_min adds under 1e-17 at a <= 6, far below
    their roundoff term."""
    core = graded_edges(prof.y_switch)
    core = [-y for y in core[:0:-1]] + core
    t_edge = 1.0 / prof.y_switch
    tail = [-t_edge, -0.5 * t_edge, 0.0, 0.5 * t_edge, t_edge]
    half = [0.5 * t for t in tols]
    ys = f"{prof.y_switch:.4g}"
    core_val, core_err = _joint(
        lambda y: _integrands(y, prof), core, half, f"core call, |y| <= {ys}"
    )
    tail_val, tail_err = _joint(_in_t(prof), tail, half, f"tail call, |y| >= {ys}")
    return (core_val + tail_val).tolist(), (core_err + tail_err).tolist()


def _joint(f, edges, tols, call):
    """adaptive on the stacked (C2, C3) integrand f; a stall names the
    constant that stalled and the call (core or tail) it stalled in."""
    try:
        return adaptive(f, edges, tols)
    except AccuracyError as exc:
        if exc.component is None:  # raised by the integrand itself
            raise
        raise AccuracyError(
            f"{exc} (C{2 + exc.component}) of the {call}", component=exc.component
        ) from None


def _c1_with_err(params, tol):
    """C1 and its error from the closed form in the module docstring."""
    a, b, r, u = params.a, params.b, params.r, params.u
    u_part = u * params.bulk_mass
    if a == 0:
        return u_part, 0.0
    s, r_s, gap = 2.0 * b, r ** (2.0 * b), params.edge_radius - r
    k, k_err = adaptive(
        lambda h: np.expm1(s * np.log1p(h)) / h,  # (t^s - 1)/(t - 1), t = 1 + h
        graded_edges(gap / r),
        tol / (2 * a * b * r_s),
    )
    log_gap = math.log(gap)
    terms = [(1.0 / b - r_s) * log_gap, r_s * math.log(r), -r_s * k]
    terms += [-r_s * float(scipy.special.digamma(s + 1.0)), -r_s * np.euler_gamma]
    rounding = 8.9e-16 * (sum(map(abs, terms)) + 2.0 * r_s * abs(log_gap))  # 4 eps
    return u_part + a * b * math.fsum(terms), a * b * (r_s * k_err + rounding)


def _c2_c3_with_err(params, tol):
    """(C2, err2) and (C3, err3) from one _whole_line call, each to tol:
    C2 = sqrt2 b r^b times its integral, C3 a closed form plus its
    integral."""
    a, b, alpha, u = params.a, params.b, params.alpha, params.u
    pref = _SQRT2 * b * params.r**b
    mass = params.bulk_mass  # b r^{2b}
    closed = -(0.5 + alpha) * u
    if a:
        inner_radius = mass ** (1.0 / (2.0 * b))  # b^{1/(2b)} r < 1
        closed += a * (1.0 - a) / (4.0 * (1.0 - inner_radius))
        closed += 0.25 * a * (2.0 + a - 2.0 * b + 4.0 * alpha) * math.log(
            1.0 / inner_radius - 1.0
        )
    (c2, c3), (e2, e3) = _whole_line(_profile(params), [tol / pref, tol])
    return (pref * c2, pref * e2), (closed + c3, e3)


def compute_coeffs(params, tol=1e-9):
    """C1, C2 and C3 with their quadrature error estimates, each certified
    within tol: the one entry to the three constants.  A tol that is not
    positive and finite is a DomainError, and an estimate above tol an
    AccuracyError naming its constant."""
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite", constraint="tol")
    c1, e1 = _c1_with_err(params, tol)
    (c2, e2), (c3, e3) = _c2_c3_with_err(params, tol)
    for name, err in (("C1", e1), ("C2", e2), ("C3", e3)):
        if not (err <= tol):
            raise AccuracyError(f"{name} error estimate {err:.3e} exceeds tol {tol:.3e}")
    return AsymptoticCoeffs(C1=c1, C2=c2, C3=c3, err1=e1, err2=e2, err3=e3)


def predict(params, n, coeffs):
    """C1*n + C2*sqrt(n) + C3; params and n are checked by check_size."""
    check_size(params, n)
    return coeffs.C1 * n + coeffs.C2 * math.sqrt(n) + coeffs.C3
