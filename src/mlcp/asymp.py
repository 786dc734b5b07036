"""Bulk profile functions and the asymptotic constants C1, C2, C3.

ln E_n grows like C1*n + C2*sqrt(n) + C3 with

  C1 = int_0^r (u + a ln(r-y)) dmu + int_r^edge a ln(y-r) dmu,
  C2 = sqrt(2) b r^b int (ln g0(y) - a ln(sqrt(2)|y|) - u*[y<0]) dy,
  C3 = closed form + int { g1/(sqrt(2) g0) + 4by(ln g0 - u*[y<0])
        - (a/2) y (1+2b+8b ln(sqrt(2)|y|)) + (2ab-a^2) y/(4(1+y^2)) } dy,

where dmu(y) = 2 b^2 y^{2b-1} dy and (g0, g1) are erfc/Gaussian-smoothed
evaluations of the p/q polynomial families.  The integrands cancel
strongly at large |y|; all cancellations are performed either in exact
coefficient space (polynomial counterterms) or via log1p of explicitly
tiny corrections, never by subtracting two large floats.

C2 and C3 are each two adaptive Gauss-Kronrod integrals: the core
|y| <= y_switch, and both tails mapped by t = 1/y onto [-1/y_switch,
1/y_switch], where integrand(1/t)/t^2 is smooth through t = 0 (see _in_t).
Their error estimate is the sum of the two integrals' estimates.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import combo_poly
from .errors import AccuracyError, DomainError
from .exact_mgf import ln_mgf_exact
from .quadrature import adaptive, graded_edges
from .specfun import horner

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_T_MIN = 2.0**-30
# math.erfc element by element: against 40-digit mpmath, scipy's erfc is
# 1.4e-14 relative off for y in [6, 12] and 5.7e-14 by y = 26, where
# math.erfc stays within 4e-16.
_erfc = np.vectorize(math.erfc, otypes=[float])


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
        "a", "b", "u", "cu_e", "sign_a",
        "p0", "q0", "p1", "q1", "p_comb", "q_comb", "tail_ratio", "y_switch",
    )

    def __init__(self, a, b, u):
        self.a = a
        self.b = b
        self.u = u
        self.sign_a = -1.0 if a % 2 else 1.0
        self.cu_e = math.exp(u) - self.sign_a  # e^u - (-1)^a
        bfrac = Fraction(b) if float(b).is_integer() else Fraction(b).limit_denominator(10**12)
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
    """s = -sqrt2 y and the erfc and Gaussian weights (amp, gauss) at the
    array y: the pieces every profile p(s) amp + q(s) gauss is made of."""
    amp = prof.sign_a + prof.cu_e * 0.5 * _erfc(y)
    gauss = prof.cu_e * np.exp(-y * y) / _SQRT_2PI
    return -_SQRT2 * y, amp, gauss


def _mix(p, q, parts):
    """p(s) amp + q(s) gauss for the polynomial pair (p, q)."""
    s, amp, gauss = parts
    return horner(p, s) * amp + horner(q, s) * gauss


def _positive_g0(y, prof, parts):
    """g0 from the parts at y; AccuracyError where it is not positive."""
    g0 = _mix(prof.p0, prof.q0, parts)
    bad = g0 <= 0.0
    if np.any(bad):
        raise AccuracyError(f"g0 nonpositive at y={y[bad][0]}")
    return g0


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


def _psi2(y, prof):
    """C2 integrand: ln g0(y) - a ln(sqrt2 |y|) - u [y<0], stably.

    Beyond |y| >= y_switch the polynomial head dominates and the value is
    assembled from two log1p's of explicitly small corrections.
    """
    out = np.empty_like(y)
    ay = np.abs(y)
    core = ay < prof.y_switch
    yc = y[core]
    psi = np.log(_positive_g0(yc, prof, _parts(yc, prof)))
    if prof.a:
        psi -= prof.a * np.log(_SQRT2 * ay[core])
    out[core] = np.where(yc < 0.0, psi - prof.u, psi)
    tail = ~core
    yt = y[tail]
    t = _SQRT2 * ay[tail]
    ratio = horner(prof.tail_ratio, 1.0 / (t * t))
    qp = horner(prof.q0, t) / horner(prof.p0, t)
    small = 0.5 * _erfc(ay[tail]) - np.exp(-yt * yt) / _SQRT_2PI * qp
    side = np.where(yt > 0.0, prof.sign_a, -math.exp(-prof.u))
    out[tail] = np.log1p(ratio) + np.log1p(side * prof.cu_e * small)
    return out


def _c3_integrand(y, prof):
    """C3 integrand with the linear counterterm folded into exact algebra:

        combined + 4 b y psi2(y) + (2ab - a^2) y / (4 (1 + y^2)),

    combined = [p_comb(s) amp + q_comb(s) gauss] / (sqrt2 g0(y)), s = -sqrt2 y.
    """
    a, b = prof.a, prof.b
    parts = _parts(y, prof)
    g0 = _positive_g0(y, prof, parts)
    combined = _mix(prof.p_comb, prof.q_comb, parts) / (_SQRT2 * g0)
    linear = np.zeros_like(y)
    nonzero = y != 0.0
    linear[nonzero] = 4.0 * b * y[nonzero] * _psi2(y[nonzero], prof)
    return combined + (2.0 * a * b - a * a) * y / (4.0 * (1.0 + y * y)) + linear


def c2_integrand(y, params):
    return _float_or_array(_psi2(np.asarray(y, dtype=float), _profile(params)))


def c3_integrand(y, params):
    return _float_or_array(_c3_integrand(np.asarray(y, dtype=float), _profile(params)))


def positivity_scan(params, y_min=-12.0, y_max=12.0, step=1e-3):
    """Check g0 > 0 on a uniform grid; returns the grid minimum and location."""
    y = np.arange(y_min, y_max + 0.5 * step, step)
    g0 = eval_G(y, params).g0
    idx = int(np.argmin(g0))
    return ScanResult(
        all_positive=bool(np.all(g0 > 0.0)),
        min_value=float(g0[idx]),
        argmin=float(y[idx]),
    )


def _refine_edges(edges, times):
    for _ in range(times):
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            out.extend((lo, 0.5 * (lo + hi)))
        out.append(edges[-1])
        edges = out
    return edges


def _in_t(integrand, prof):
    """h(t) = integrand(1/t, prof)/t^2 for 0 < |t| <= 1/y_switch: the tails
    in t = 1/y.  The integrands decay like A/y^2 (C2) and A/y^3 (C3), and
    the logs in _psi2 cancel exactly, so h is smooth through t = 0.  Below
    |t| = t_min = _T_MIN/y_switch, h is held at h(+-t_min), which moves the
    tail by about |h'(0)| t_min^2/2 per side: the integrands overflow at
    large |y| (from about 1e16 at a = 6, u = 500), and C3's cancelling
    O(1/y) parts leave noise of about eps*|y| in h."""
    t_min = _T_MIN / prof.y_switch

    def h(t):
        y = 1.0 / np.copysign(np.maximum(np.abs(t), t_min), t)
        return integrand(y, prof) * (y * y)

    return h


def _whole_line(integrand, prof, tol, refine):
    """Integral of integrand(y, prof) over the real line and its error: one
    adaptive call on the core |y| <= y_switch, graded toward the log
    singularity at y = 0 from both sides, and one on both tails (_in_t) on
    uniform panels of [-1/y_switch, 1/y_switch], each to 2 tol; ``refine``
    halves both.  The error is the sum of the two gk15 estimates; holding h
    below t_min adds under 1e-17 at a <= 6, far below their roundoff term."""
    core = _refine_edges(graded_edges(0.0, prof.y_switch, 0.0), refine)
    core = [-y for y in core[:0:-1]] + core
    t_edge = 1.0 / prof.y_switch
    tail = _refine_edges([-t_edge, -0.5 * t_edge, 0.0, 0.5 * t_edge, t_edge], refine)
    core_val, core_err = adaptive(lambda y: integrand(y, prof), core, 2.0 * tol)
    tail_val, tail_err = adaptive(_in_t(integrand, prof), tail, 2.0 * tol)
    return core_val + tail_val, core_err + tail_err


def coeff_C1(params, tol=1e-9):
    return _c1_with_err(params, tol)[0]


def _c1_with_err(params, tol=1e-9, refine=0):
    """C1 via the mass substitution x = b y^{2b}: the radial measure becomes
    Lebesgue on [0, 1] and the only singularity is the log at x = b r^{2b}.

    |r - (x/b)^{1/(2b)}| is evaluated as r*|expm1(ln(x/crit)/(2b))| so the
    graded panels next to the critical point never subtract equal floats.
    """
    if tol <= 0:
        raise DomainError("tol must be positive", constraint="tol")
    a, b, r, u = params.a, params.b, params.r, params.u
    crit = params.bulk_mass
    u_part = u * crit
    if a == 0:
        return u_part, 0.0
    inv2b = 1.0 / (2.0 * b)
    log_r = math.log(r)
    gap_floor = 2.3e-16 * inv2b  # one ulp of x/crit through the map

    def log_gap(x):
        gap = np.abs(np.expm1(inv2b * np.log(x / crit)))
        return log_r + np.log(np.maximum(gap, gap_floor))

    levels = 40  # closest node sits ~crit*4e-15 from the singular point
    lo_edges = _refine_edges(graded_edges(0.0, crit, crit, levels=levels), refine)
    hi_edges = _refine_edges(graded_edges(crit, 1.0, crit, levels=levels), refine)
    v1, e1 = adaptive(log_gap, lo_edges, tol / (3.0 * a))
    v2, e2 = adaptive(log_gap, hi_edges, tol / (3.0 * a))
    # dropped strips of width w on each side of the singular point
    w = max(crit, 1.0 - crit) * 0.5**levels
    slope = r ** (1.0 - 2.0 * b) / (2.0 * b * b)
    drop = 2.0 * w * (abs(math.log(w * slope)) + 1.0)
    return u_part + a * (v1 + v2), a * (e1 + e2 + drop)


def coeff_C2(params, tol=1e-9):
    return _c2_with_err(params, tol)[0]


def _c2_with_err(params, tol=1e-9, refine=0):
    if tol <= 0:
        raise DomainError("tol must be positive", constraint="tol")
    prof = _profile(params)
    pref = _SQRT2 * params.b * params.r**params.b
    total, err = _whole_line(_psi2, prof, tol / (4.0 * pref), refine)
    return pref * total, pref * err


def coeff_C3(params, tol=1e-9):
    return _c3_with_err(params, tol)[0]


def _c3_with_err(params, tol=1e-9, refine=0):
    if tol <= 0:
        raise DomainError("tol must be positive", constraint="tol")
    a, b, alpha, u = params.a, params.b, params.alpha, params.u
    mass = params.bulk_mass  # b r^{2b}
    closed = -(0.5 + alpha) * u
    if a:
        inner_radius = mass ** (1.0 / (2.0 * b))  # b^{1/(2b)} r < 1
        closed += a * (1.0 - a) / (4.0 * (1.0 - inner_radius))
        closed += 0.25 * a * (2.0 + a - 2.0 * b + 4.0 * alpha) * math.log(
            1.0 / inner_radius - 1.0
        )
    total, err = _whole_line(_c3_integrand, _profile(params), tol / 4.0, refine)
    return closed + total, err


def compute_coeffs(params, tol=1e-9):
    """All three constants with their quadrature error estimates."""
    c1, e1 = _c1_with_err(params, tol)
    c2, e2 = _c2_with_err(params, tol)
    c3, e3 = _c3_with_err(params, tol)
    for name, err in (("C1", e1), ("C2", e2), ("C3", e3)):
        if not (err <= tol):
            raise AccuracyError(f"{name} error estimate {err:.3e} exceeds tol {tol:.3e}")
    return AsymptoticCoeffs(C1=c1, C2=c2, C3=c3, err1=e1, err2=e2, err3=e3)


def predict(params, n, coeffs):
    """C1*n + C2*sqrt(n) + C3."""
    if n < 1:
        raise DomainError("n must be >= 1", constraint="n")
    return coeffs.C1 * n + coeffs.C2 * math.sqrt(n) + coeffs.C3


def residual(params, n, coeffs):
    """ln E_n minus its three-term prediction."""
    return ln_mgf_exact(params, n).ln_mgf - predict(params, n, coeffs)
