"""Exact finite-n evaluation of the log moment generating function.

For parameters (b, alpha, r, u, a) and matrix size n,

    ln E_n = sum_{j=1}^{n} ln( sum_{k=0}^{a} C(a,k) (-r)^{a-k} n^{-k/(2b)}
                 * Gamma((2j+2alpha+k)/(2b)) / Gamma((2j+2alpha)/(2b))
                 * [1 + ((-1)^a e^u - 1) P((2j+2alpha+k)/(2b), n r^{2b})] ),

where P is the regularized lower incomplete gamma function.  One kernel,
``_log_terms``, evaluates the j-terms as arrays, a chunk of indices at a
time.  The inner alternating sum loses up to a*|log10(x_j - b r^{2b})|
digits near the critical index j ~ b n r^{2b}, so it has three precision
tiers: a compensated (Neumaier) sum in double precision; a re-sum in 80-bit
extended precision of the rows whose sum drops below 1e-3 of their largest
term or turns nonpositive; and a 50-digit evaluation, row by row, of the
rows still nonpositive.

The module also provides the diagnostic decomposition of ln E_n into four
index ranges and the partition-function identity ln D_n - ln Z_n = ln E_n.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AccuracyError, CancellationError, DomainError, RangeError
from .params import Params
from .specfun import lgamma_diff, reg_lower_gamma

# Escalate the inner sum when it is smaller than this fraction of its
# largest term (a-fold alternating cancellation).
_ESCALATION_RATIO = 1e-3

_LONGDOUBLE_OK = np.finfo(np.longdouble).eps < 1e-18

# j-terms per kernel call: bounds the kernel's working arrays, and so the
# peak memory, independently of n.
_CHUNK = 4096


@dataclass(frozen=True)
class SplitDiagnostics:
    """Bookkeeping of the four-range decomposition of ln E_n.

    ``ln_mgf`` is the fsum of all n terms, the value ln_mgf_exact returns.
    """

    ln_mgf: float
    S0: float
    S1: float
    S2: float
    S3: float
    eps: float
    m_prime: int
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
    per_term: Optional[np.ndarray] = None
    split: Optional[SplitDiagnostics] = None


class _TermContext:
    """Per-(params, n) constants reused by every j-term."""

    __slots__ = ("params", "n", "ln_n", "z", "cu", "binom", "r_pow", "k_over_2b")

    def __init__(self, params, n):
        self.params = params
        self.n = n
        self.ln_n = math.log(n)
        self.z = n * params.r ** (2.0 * params.b)
        sign = -1.0 if params.a % 2 else 1.0
        self.cu = sign * math.exp(params.u) - 1.0
        self.binom = [math.comb(params.a, k) for k in range(params.a + 1)]
        self.r_pow = [(-params.r) ** (params.a - k) for k in range(params.a + 1)]
        self.k_over_2b = [k / (2.0 * params.b) for k in range(params.a + 1)]


def _log_term_mp(ctx, j):
    """Last-resort 50-digit evaluation of one j-term."""
    from mpmath import mp
    from mpmath.libmp import NoConvergence

    p = ctx.params
    with mp.workdps(50):
        z = mp.mpf(ctx.n) * mp.mpf(p.r) ** (2 * mp.mpf(p.b))
        at0 = (mp.mpf(j) + mp.mpf(p.alpha)) / mp.mpf(p.b)
        cu = mp.mpf(-1 if p.a % 2 else 1) * mp.exp(mp.mpf(p.u)) - 1
        lg0 = mp.loggamma(at0)
        total = mp.mpf(0)
        for k in range(p.a + 1):
            at = at0 + mp.mpf(k) / (2 * mp.mpf(p.b))
            try:
                pk = mp.gammainc(at, 0, z, regularized=True)
            except NoConvergence as exc:
                raise AccuracyError(
                    f"50-digit incomplete gamma did not converge at j={j}: {exc}"
                ) from exc
            g = mp.loggamma(at) - lg0 - mp.mpf(k) / (2 * mp.mpf(p.b)) * mp.log(ctx.n)
            total += mp.binomial(p.a, k) * (-mp.mpf(p.r)) ** (p.a - k) * mp.exp(g) * (
                1 + cu * pk
            )
        if total <= 0:
            raise CancellationError(
                f"inner sum nonpositive at j={j} after 50-digit retry", j=j
            )
        return float(mp.log(total))


def _log_terms(ctx, j):
    """ln of the inner k-sum for every index in the integer array j.

    The k-sum is accumulated in double precision with Neumaier compensation.
    Rows that come out nonpositive or below _ESCALATION_RATIO of their
    largest term are re-summed in 80-bit precision from the same g_k and
    P_k, and rows still nonpositive go to the 50-digit evaluation.
    """
    p = ctx.params
    at0 = (j + p.alpha) / p.b
    gs = [lgamma_diff(at0, d) - d * ctx.ln_n for d in ctx.k_over_2b]
    ps = [reg_lower_gamma(at0 + d, ctx.z) for d in ctx.k_over_2b]
    terms = [
        ctx.binom[k] * ctx.r_pow[k] * np.exp(gs[k]) * (1.0 + ctx.cu * ps[k])
        for k in range(p.a + 1)
    ]
    total = terms[0]
    comp = np.zeros_like(total)
    largest = np.abs(total)
    for t in terms[1:]:
        s = total + t
        comp += np.where(np.abs(total) >= np.abs(t), (total - s) + t, (t - s) + total)
        total = s
        largest = np.maximum(largest, np.abs(t))
    total = total + comp

    out = np.empty_like(total)
    good = (total > 0.0) & (np.abs(total) >= _ESCALATION_RATIO * largest)
    out[good] = np.log(total[good])
    bad = np.flatnonzero(~good)
    if bad.size and _LONGDOUBLE_OK:
        ld = np.longdouble
        ext = np.zeros(bad.size, dtype=ld)
        for k in range(p.a + 1):
            w = ld(1.0) + ld(ctx.cu) * ps[k][bad].astype(ld)
            ext += ld(ctx.binom[k]) * ld(ctx.r_pow[k]) * np.exp(gs[k][bad].astype(ld)) * w
        positive = ext > 0.0
        out[bad[positive]] = np.log(ext[positive]).astype(float)
        bad = bad[~positive]
    for i in bad.tolist():
        out[i] = _log_term_mp(ctx, int(j[i]))
    return out


def ln_mgf_exact(params, n, keep_terms=False):
    """Evaluate ln E_n exactly (up to floating-point error) at size n.

    Returns an ExactResult; with ``keep_terms=True`` the n individual log
    summands are attached as an array (ascending j, the summation order).
    The j-terms are evaluated in chunks of _CHUNK indices.  The
    accumulated-error budget is certified for n up to 2**20; larger n
    still evaluates but without a stated accuracy claim.
    """
    if not isinstance(params, Params):
        raise DomainError("params must be a Params instance")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError("n must be a positive integer", constraint="n")
    terms = np.zeros(n)
    if params.a != 0 or params.u != 0.0:  # otherwise every factor is exactly 1
        ctx = _TermContext(params, n)
        for start in range(0, n, _CHUNK):
            j = np.arange(start + 1, min(start + _CHUNK, n) + 1, dtype=float)
            terms[start : start + j.size] = _log_terms(ctx, j)
    total = math.fsum(terms)
    return ExactResult(ln_mgf=total, per_term=terms if keep_terms else None)


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


def split_sums(params, n, eps, m_prime, M=None):
    """Decompose ln E_n into S0 + S1 + S2 + S3 over four j-ranges.

    S0 covers j <= m_prime, S1 the bulk below the critical index
    j_minus = ceil(b n r^{2b}/(1+eps) - alpha), S2 the critical window
    [j_minus, j_plus], and S3 the rest.  eps must satisfy
    b r^{2b}/(1-eps) < 1/(1+eps); the ranges must all be nonempty.
    Purely diagnostic: the total is ln E_n for every admissible choice.
    """
    if not isinstance(params, Params):
        raise DomainError("params must be a Params instance")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError("n must be a positive integer", constraint="n")
    mass = params.bulk_mass
    if not (0.0 < eps < 1.0) or mass / (1.0 - eps) >= 1.0 / (1.0 + eps):
        raise DomainError(
            "eps must satisfy 0 < eps < 1 and b r^{2b}/(1-eps) < 1/(1+eps)",
            constraint="eps",
        )
    if not (isinstance(m_prime, int) and m_prime >= 1):
        raise DomainError("m_prime must be a positive integer", constraint="m_prime")
    if M is None:
        M = default_window_width(n)
    elif not (M > 0):
        raise DomainError("M must be positive", constraint="M")

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

    exact = ln_mgf_exact(params, n, keep_terms=True)
    terms = exact.per_term
    s0 = math.fsum(terms[0:m_prime])
    s1 = math.fsum(terms[m_prime : j_minus - 1])
    s2 = math.fsum(terms[j_minus - 1 : j_plus])
    s3 = math.fsum(terms[j_plus:n])
    return SplitDiagnostics(
        ln_mgf=exact.ln_mgf,
        S0=s0,
        S1=s1,
        S2=s2,
        S3=s3,
        eps=eps,
        m_prime=m_prime,
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


def ln_partition(params, n):
    """Return {'ln_Z': ..., 'ln_D': ...} for the normalizing constants.

    ln Z_n uses the closed product formula; ln D_n evaluates the deformed
    product with its own max-shifted inner sums, so ln_D - ln_Z furnishes
    an independent consistency route to ln E_n.
    """
    if not isinstance(params, Params):
        raise DomainError("params must be a Params instance")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError("n must be a positive integer", constraint="n")
    b, alpha = params.b, params.alpha
    ln_n = math.log(n)
    prefactor = (
        -(n * n) / (2.0 * b) * ln_n
        - (1.0 + 2.0 * alpha) / (2.0 * b) * n * ln_n
        + n * math.log(math.pi / b)
    )
    ln_z = prefactor + math.fsum(
        math.lgamma((j + alpha) / b) for j in range(1, n + 1)
    )

    ctx = _TermContext(params, n)
    at0s = (np.arange(1, n + 1, dtype=float) + alpha) / b
    ps = [reg_lower_gamma(at0s + d, ctx.z).tolist() for d in ctx.k_over_2b]
    d_terms = []
    for j in range(1, n + 1):
        at0 = (j + alpha) / b
        lgs = [math.lgamma(at0 + d) for d in ctx.k_over_2b]
        shift = max(lgs)
        inner = math.fsum(
            ctx.binom[k]
            * ctx.r_pow[k]
            * math.exp(lgs[k] - shift - ctx.k_over_2b[k] * ln_n)
            * (1.0 + ctx.cu * ps[k][j - 1])
            for k in range(params.a + 1)
        )
        if inner <= 0.0:
            # the D-term equals lnGamma(at0) plus the normalized j-term
            d_terms.append(math.lgamma(at0) + _log_term_mp(ctx, j))
        else:
            d_terms.append(shift + math.log(inner))
    ln_d = prefactor + math.fsum(d_terms)
    return {"ln_Z": ln_z, "ln_D": ln_d}
