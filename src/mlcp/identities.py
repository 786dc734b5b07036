"""Runnable identity suites: exact polynomial/combinatorial identities,
special-function consistency grids, and the orthogonality quadratures.

Each check returns its worst deviation so the CLI can print a one-line
report per identity; exact checks must come back with deviation 0.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from scipy.special import erfi, gammainc

from . import combo_poly as cp
from . import specfun
from .asymp import eval_G, positivity_scan
from .errors import MlcpError
from .params import Params
from .quadrature import adaptive

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str


def _poly_gap(p, q):
    """Max |coefficient difference| between two exact polynomials."""
    d = p - q
    if d.is_zero:
        return 0.0
    return float(max(abs(c) for c in d.coeffs))


def check_differentiation_rules(a_max=12):
    """p'_{0,a+1} = (a+1) p_{0,a};  q'_{0,a+1} = (a+1) q_{0,a} + x q_{0,a+1} - p_{0,a+1}."""
    worst = 0.0
    for a in range(a_max + 1):
        worst = max(worst, _poly_gap(cp.p0(a + 1).derivative(), (a + 1) * cp.p0(a)))
        rhs = (a + 1) * cp.q0(a) + cp.X * cp.q0(a + 1) - cp.p0(a + 1)
        worst = max(worst, _poly_gap(cp.q0(a + 1).derivative(), rhs))
    return CheckResult(
        "hermite_differentiation", worst == 0.0, worst, f"a <= {a_max}, exact"
    )


def check_functional_equation(a_max=10):
    """sum_s C(a+1,s) [i^s He_s(ix)] He_{a-s}(x) = i^a He_a^(1)(ix), exactly.

    The i-powers reduce to sign flips: i^s He_s(ix) = (-1)^s p_{0,s}(x) and
    the right side is (-1)^a q_{0,a+1}(x)."""
    worst = 0.0
    for a in range(a_max + 1):
        lhs = cp.Poly()
        for s in range(a + 1):
            lhs = lhs + math.comb(a + 1, s) * cp.hermite_i_twist(s) * cp.hermite(a - s)
        sign = -1 if a % 2 else 1
        worst = max(worst, _poly_gap(lhs, sign * cp.q0(a + 1)))
    return CheckResult(
        "hermite_functional_equation", worst == 0.0, worst, f"a <= {a_max}, exact"
    )


def check_vanishing_sum(a_max=10):
    """sum_s C(a,s) [i^s He_s(ix)] He_{a-s}(x) = 1 if a=0 else 0, exactly."""
    worst = 0.0
    for a in range(a_max + 1):
        acc = cp.Poly()
        for s in range(a + 1):
            acc = acc + math.comb(a, s) * cp.hermite_i_twist(s) * cp.hermite(a - s)
        target = cp.Poly([1]) if a == 0 else cp.Poly()
        worst = max(worst, _poly_gap(acc, target))
    return CheckResult(
        "hermite_vanishing_sum", worst == 0.0, worst, f"a <= {a_max}, exact"
    )


def check_stirling_sum(limit=10):
    """sum_k C(a,k)(-1)^{a-k} k^ell = a! S(ell,a), plus the three-case table."""
    worst = 0
    for a in range(limit + 1):
        for ell in range(limit + 1):
            lhs = sum(
                math.comb(a, k) * (-1) ** (a - k) * (k**ell if ell or k else 1)
                for k in range(a + 1)
            )
            rhs = math.factorial(a) * cp.stirling2(ell, a)
            worst = max(worst, abs(lhs - rhs))
            if ell < a:
                worst = max(worst, abs(lhs))
            elif ell == a:
                worst = max(worst, abs(lhs - math.factorial(a)))
            elif ell == a + 1:
                worst = max(worst, abs(2 * lhs - math.factorial(a + 1) * a))
    return CheckResult(
        "stirling_alternating_sum", worst == 0, float(worst), f"a,ell <= {limit}, exact"
    )


def check_gfrak_representation(limit=8):
    """Direct k-sum of gfrak equals its Stirling-number form, exactly."""
    xs = [Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(2)]
    worst = Fraction(0)
    for a in range(limit + 1):
        for ell in range(limit + 1):
            for x in xs:
                gap = abs(cp.gfrak(ell, a, x) - cp.gfrak_stirling(ell, a, x))
                worst = max(worst, gap)
    return CheckResult(
        "gfrak_stirling_form", worst == 0, float(worst), f"a,ell <= {limit}, exact"
    )


def check_pfrak(limit=10):
    """pfrak(ell, 0) = 0; the quartic closed form; its zero at k = 2b."""
    worst = Fraction(0)
    bs = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 4)]
    alphas = [Fraction(0), Fraction(1, 3), Fraction(-1, 2)]
    for b in bs:
        for alpha in alphas:
            for ell in range(1, 7):
                worst = max(worst, abs(cp.pfrak(ell, 0, b, alpha)))
            for k in list(range(0, limit + 1)) + [2 * b]:
                k = Fraction(k)
                closed = (
                    k
                    * (k - 2 * b)
                    * (8 * b**2 + 3 * (k + 4 * alpha) ** 2 - 2 * b * (7 * k + 24 * alpha))
                    / (384 * b**2)
                )
                worst = max(worst, abs(cp.pfrak(2, k, b, alpha) - closed))
            worst = max(worst, abs(cp.pfrak(2, 2 * b, b, alpha)))
    return CheckResult("pfrak_quartic_form", worst == 0, float(worst), "exact")


def check_gamma_ell_representation():
    """Direct sum and Stirling closed form of gamma_ell agree to 1e-12."""
    p = Params(1.0, 0.0, 0.5, 0.0, 3)
    worst = 0.0
    for ell in range(6):
        for x in (0.7, 0.1, 0.2, 0.9):
            direct = cp.gamma_ell(ell, x, p)
            closed = cp.gamma_ell_stirling(ell, x, p)
            scale = max(abs(direct), abs(closed), 1e-30)
            worst = max(worst, abs(direct - closed) / scale)
    return CheckResult("gamma_ell_stirling_form", worst <= 1e-12, worst, "rel 1e-12")


def check_temme_eta():
    """a*eta(lambda)^2/2 equals a*(lambda - 1 - ln lambda) to 1e-12 relative."""
    worst = 0.0
    lam = 0.1
    while lam <= 10.0:
        eta = specfun.temme_eta(lam)
        lhs = 0.5 * eta * eta
        rhs = lam - 1.0 - math.log(lam)
        if rhs > 0:
            worst = max(worst, abs(lhs - rhs) / rhs)
        lam += 0.045
    return CheckResult("temme_eta_identity", worst <= 1e-12, worst, "rel 1e-12")


def check_incomplete_gamma_grid():
    """P in [0,1], nondecreasing in z, nonincreasing in a on the test grid."""
    a_grid = [0.5, 1.0, 5.0, 50.0, 1e3, 1e5]
    lam_grid = [0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0]
    worst = 0.0
    ok = True
    values = {}
    for at in a_grid:
        prev = None
        for lam in lam_grid:
            p = specfun.reg_lower_gamma(at, lam * at)
            values[(at, lam)] = p
            if not (0.0 <= p <= 1.0):
                ok = False
                worst = max(worst, abs(p - 0.5) - 0.5)
            if prev is not None and p < prev - 1e-13:
                ok = False
                worst = max(worst, prev - p)
            prev = p
    # nonincreasing in a at fixed z means: increase a while keeping z
    for lam in lam_grid:
        for lo, hi in zip(a_grid[:-1], a_grid[1:]):
            z = lam * lo
            if specfun.reg_lower_gamma(hi, z) > values[(lo, lam)] + 1e-13:
                ok = False
                worst = max(
                    worst, specfun.reg_lower_gamma(hi, z) - values[(lo, lam)]
                )
    return CheckResult("incomplete_gamma_grid", ok, worst, "bounds+monotone")


def check_incomplete_gamma_overlap():
    """Uniform-expansion route vs scipy's gammainc, a in [1e3, 1e4]."""
    worst = 0.0
    for at in (1000.0, 2000.0, 5000.0, 10000.0):
        for lam in (1.005, 1.01, 1.05, 1.2, 1.5, 2.0):
            z = lam * at
            if 0.5 * at * specfun.temme_eta(lam) ** 2 > 700.0:
                continue
            p_sp = float(gammainc(at, z))
            p_tm = specfun.reg_lower_gamma(at, z)
            worst = max(worst, abs(p_sp - p_tm) / p_sp)
    return CheckResult("incomplete_gamma_overlap", worst <= 1e-10, worst, "rel 1e-10")


def check_saturation_bound():
    """For fixed a <= 10 and z >= 200: |P(a,z) - 1| <= 10 e^{-z/2}."""
    worst = 0.0
    for at in (0.5, 1.0, 2.0, 5.0, 10.0):
        for z in (200.0, 300.0, 500.0, 745.0, 1000.0):
            gap = abs(specfun.reg_lower_gamma(at, z) - 1.0)
            bound = 10.0 * math.exp(-0.5 * z)
            worst = max(worst, gap - bound)
    return CheckResult(
        "incomplete_gamma_saturation", worst <= 0.0, worst, "exp(-z/2) bound"
    )


def _orthogonality_worst(nu):
    if nu == 0:
        weight = lambda x: math.exp(-0.5 * x * x)
    else:
        inv_sqrt2 = 1.0 / math.sqrt(2.0)

        def weight(x):
            t = float(erfi(x * inv_sqrt2))
            return 2.0 / math.pi * math.exp(0.5 * x * x) / (1.0 + t * t)

    polys = [cp.assoc_hermite(nu, k).float_coeffs() for k in range(7)]

    def horner(cs, x):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    worst = 0.0
    edges = [-12.0, -8.0, -5.0, -2.5, 0.0, 2.5, 5.0, 8.0, 12.0]
    for k in range(7):
        for ell in range(k, 7):
            f = lambda x: horner(polys[k], x) * horner(polys[ell], x) * weight(x)
            val, _ = adaptive(f, edges, 1e-10 * _SQRT_2PI * math.factorial(ell + nu))
            if k == ell:
                target = _SQRT_2PI * math.factorial(k + nu)
                worst = max(worst, abs(val - target) / target)
            else:
                bound = _SQRT_2PI * math.factorial(max(k, ell))
                worst = max(worst, abs(val) / bound)
    return worst


def check_orthogonality(nu):
    """Quadrature pairing of He^(nu) against its weight: sqrt(2pi)(k+nu)! delta."""
    worst = _orthogonality_worst(nu)
    return CheckResult(
        f"orthogonality_nu{nu}", worst <= 1e-8, worst, "k,ell <= 6, tol 1e-8"
    )


def check_orthogonality_nu0():
    return check_orthogonality(0)


def check_orthogonality_nu1():
    return check_orthogonality(1)


def check_profile_wiring(n_points=20, seed=7):
    """Scaled evaluation r^{a-ab} (2b)^{-a} g0(-r^b x / sqrt2) recomputed from
    raw exact coefficients matches eval_G at random x (wiring check)."""
    rng = random.Random(seed)
    worst = 0.0
    for a in (0, 1, 2, 3):
        p = Params(1.0, 0.0, 0.6, 0.8, a)
        scale = p.r ** (a - a * p.b) / (2.0 * p.b) ** a
        sign_a = -1.0 if a % 2 else 1.0
        cu_e = math.exp(p.u) - sign_a
        p0c = cp.p0(a)
        q0c = cp.q0(a)
        for _ in range(n_points):
            x = rng.uniform(-8.0, 8.0)
            y = -p.r**p.b * x / math.sqrt(2.0)
            via_eval = scale * eval_G(y, p).g0
            s = -math.sqrt(2.0) * y
            raw = scale * (
                p0c.evalf(s) * (sign_a + cu_e * 0.5 * math.erfc(y))
                + q0c.evalf(s) * cu_e * math.exp(-y * y) / _SQRT_2PI
            )
            ref = max(abs(raw), 1e-300)
            worst = max(worst, abs(via_eval - raw) / ref)
    return CheckResult("profile_scaling_wiring", worst <= 1e-12, worst, "20 random x")


def check_positivity_scan():
    """g0 > 0 on |y| <= 12 at step 1e-3 for u in {-10..10}, a in 0..6."""
    worst = math.inf
    ok = True
    where = ""
    for u in (-10.0, -1.0, 0.0, 1.0, 10.0):
        for a in range(7):
            scan = positivity_scan(Params(1.0, 0.0, 0.5, u, a))
            if not scan.all_positive:
                ok = False
            if scan.min_value < worst:
                worst = scan.min_value
                where = f"u={u}, a={a}, y={scan.argmin:.3f}"
    return CheckResult("g0_positivity_scan", ok, worst, f"min at {where}")


ALL_CHECKS = (
    check_differentiation_rules,
    check_functional_equation,
    check_vanishing_sum,
    check_stirling_sum,
    check_gfrak_representation,
    check_pfrak,
    check_gamma_ell_representation,
    check_temme_eta,
    check_incomplete_gamma_grid,
    check_incomplete_gamma_overlap,
    check_saturation_bound,
    check_orthogonality_nu0,
    check_orthogonality_nu1,
    check_profile_wiring,
    check_positivity_scan,
)


def run_all():
    """Run every identity suite; returns the list of CheckResults."""
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn())
        except MlcpError as exc:  # a crashed check is a failed check
            results.append(CheckResult(fn.__name__, False, math.inf, f"error: {exc}"))
    return results
