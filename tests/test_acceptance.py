"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import math
import random
import time

import pytest
from mpmath import mp, mpf

from mlcp.asymp import compute_coeffs, positivity_scan, predict
from mlcp.exact_mgf import ln_mgf_exact, split_sums
from mlcp.identities import (
    check_differentiation_rules,
    check_functional_equation,
    check_gfrak_representation,
    check_orthogonality,
    check_pfrak,
    check_stirling_sum,
    check_vanishing_sum,
)
from mlcp.params import Params
from mlcp.sampler import mc_ln_mgf
from mlcp.specfun import reg_lower_gamma

from mp_terms import log_term_mp

# Frozen values of ln E_n from direct numerical integration of the defining
# expectation (40-digit quadrature of radial moments; n=2 includes the
# (v1^2+v2^2) angle factor).  Configurations span a in {0,1,2,3} and
# b in {1/2, 1, 2}.
BRUTE_FORCE_ORACLE = [
    (1, (1.0, 0.0, 0.5, 1.0, 0), 0.32214334876778271),
    (1, (1.0, 0.0, 0.5, 0.0, 1), -0.76859315870914309),
    (1, (0.5, 0.5, 1.0, -0.7, 2), 1.9451698110435038),
    (2, (2.0, -0.5, 0.6, 0.5, 3), -6.301452116931153),
    (2, (1.0, 1.0, 0.7, 0.3, 2), -2.7885505564378887),
    (2, (0.5, 0.0, 0.8, 1.2, 1), 0.13850355737454776),
]


def report(number, description):
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def fit_slope(points):
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )


def test_criterion_01_null_case():
    t0 = time.perf_counter()
    for b, alpha, r in ((1.0, 0.0, 0.5), (2.0, -0.5, 0.6), (0.5, 1.5, 1.2)):
        p = Params(b, alpha, r, 0.0, 0)
        for n in (1, 10, 100, 1000):
            assert abs(ln_mgf_exact(p, n).ln_mgf) <= 1e-12
        c = compute_coeffs(p, tol=1e-9)
        assert max(abs(c.C1), abs(c.C2), abs(c.C3)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"null case took {elapsed:.2f}s (budget 1s)"
    report(1, f"u=a=0 gives ln E_n = 0 and C1=C2=C3=0 ({elapsed*1e3:.0f} ms)")


def test_criterion_02_exact_vs_monte_carlo():
    t0 = time.perf_counter()
    p = Params(1.0, 0.0, 0.6, 0.5, 2)
    res = mc_ln_mgf(p, 30, 10**6, seed=20260810)
    exact = ln_mgf_exact(p, 30).ln_mgf
    gap = abs(res.ln_estimate - exact)
    assert gap <= 4.0 * res.ln_stderr, (
        f"|MC - exact| = {gap:.4f} > 4 stderr = {4*res.ln_stderr:.4f}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"MC run took {elapsed:.0f}s (budget 120s)"
    report(
        2,
        f"10^6-sample MC within {gap/res.ln_stderr:.2f} stderr of exact "
        f"({elapsed:.1f} s)",
    )


def test_criterion_03_brute_force_oracle():
    worst = 0.0
    for n, (b, alpha, r, u, a), expected in BRUTE_FORCE_ORACLE:
        p = Params(b, alpha, r, u, int(a))
        got = ln_mgf_exact(p, n).ln_mgf
        worst = max(worst, abs(got - expected))
        assert got == pytest.approx(expected, abs=1e-8)
    report(3, f"6 configs at n=1,2 match integration oracle (worst {worst:.1e})")


def test_criterion_04_asymptotic_convergence():
    t0 = time.perf_counter()
    p = Params(1.0, 0.0, 0.5, 1.0, 1)
    coeffs = compute_coeffs(p, tol=1e-9)
    residuals = []
    for k in range(8, 14):  # 256 .. 8192
        n = 2**k
        residuals.append((n, ln_mgf_exact(p, n).ln_mgf - predict(p, n, coeffs)))
    mags = [abs(rr) for _, rr in residuals]
    assert mags[-1] < mags[0], "residual magnitude failed to decrease"
    slope = fit_slope([(math.log(n), math.log(abs(rr))) for n, rr in residuals])
    assert slope <= -0.3, f"log-log slope {slope:.3f} > -0.3"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"convergence run took {elapsed:.0f}s (budget 60s)"
    report(
        4,
        f"residuals fall from {mags[0]:.2e} to {mags[-1]:.2e}, slope "
        f"{slope:.3f} <= -0.3 ({elapsed:.1f} s)",
    )


def test_criterion_05_a0_specialization():
    p = Params(1.0, 0.0, 0.5, 1.0, 0)
    analytic = p.u * p.bulk_mass
    coeffs = compute_coeffs(p, tol=1e-9)
    assert coeffs.C1 == pytest.approx(analytic, abs=1e-10)
    residuals = []
    for k in range(8, 14):
        n = 2**k
        residuals.append((n, ln_mgf_exact(p, n).ln_mgf - predict(p, n, coeffs)))
    mags = [abs(rr) for _, rr in residuals]
    assert mags[-1] < mags[0]
    slope = fit_slope([(math.log(n), math.log(abs(rr))) for n, rr in residuals])
    assert slope <= -0.4, f"a=0 slope {slope:.3f} > -0.4"
    report(5, f"a=0: C1 = u*b*r^(2b) to 1e-10 and slope {slope:.3f} <= -0.4")


def test_criterion_06_identity_suite():
    t0 = time.perf_counter()
    checks = (
        check_differentiation_rules(),
        check_functional_equation(),
        check_vanishing_sum(),
        check_stirling_sum(),
        check_gfrak_representation(),
        check_pfrak(),
    )
    for res in checks:
        assert res.passed and res.worst == 0.0, f"{res.name}: deviation {res.worst}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s (budget 10s)"
    report(6, f"{len(checks)} exact identity families, zero deviation ({elapsed:.2f} s)")


def test_criterion_07_orthogonality():
    worst = 0.0
    for nu in (0, 1):
        res = check_orthogonality(nu)
        assert res.passed, f"orthogonality nu={nu} worst {res.worst:.2e}"
        worst = max(worst, res.worst)
    report(7, f"associated-Hermite orthogonality to 1e-8 (worst {worst:.1e})")


def test_criterion_08_incomplete_gamma_accuracy():
    worst = 0.0
    tested = 0
    with mp.workdps(50):
        for at in (1e3, 1e4, 1e5):
            for lam in (0.9, 0.99, 1.0, 1.01, 1.1):
                z = lam * at
                ref = mp.gammainc(mpf(at), 0, mpf(z), regularized=True)
                if not (mpf("1e-250") <= ref <= 1):
                    continue
                got = reg_lower_gamma(at, z)
                rel = float(abs((mpf(got) - ref) / ref))
                worst = max(worst, rel)
                tested += 1
                assert rel <= 1e-10, f"(a={at}, lam={lam}): rel err {rel:.2e}"
    assert tested >= 12
    report(
        8,
        f"uniform-expansion route vs 50-digit oracle on {tested} points "
        f"(worst rel {worst:.1e})",
    )


def test_criterion_09_partition_identities():
    rng = random.Random(20260810)
    checked = 0
    while checked < 10:
        b = rng.choice((0.5, 1.0, 2.0))
        alpha = rng.uniform(-0.5, 1.5)
        edge = b ** (-1.0 / (2.0 * b))
        r = rng.uniform(0.35, 0.75) * edge
        u = rng.uniform(-1.0, 1.0)
        a = rng.randint(0, 3)
        p = Params(b, alpha, r, u, a)
        n = rng.randint(150, 500)
        eps = rng.uniform(0.02, 0.08)
        if p.bulk_mass / (1.0 - eps) >= 1.0 / (1.0 + eps):
            continue
        m_prime = rng.randint(1, 8)
        try:
            split = split_sums(p, n, eps, m_prime)
        except Exception:
            continue
        total = ln_mgf_exact(p, n).ln_mgf
        assert split.total == pytest.approx(total, abs=1e-10), (
            f"S-split mismatch at {p}, n={n}, eps={eps}"
        )
        checked += 1
    # ln D_n - ln Z_n at 50 digits: the prefactors and ln Z_n cancel term
    # by term, which leaves the sum of the 50-digit j-terms
    for b, alpha, r, u, a, n in (
        (1.0, 0.0, 0.5, 0.7, 1, 50),
        (1.0, 0.5, 0.6, -0.4, 2, 60),
        (2.0, 0.0, 0.6, 0.3, 1, 40),
        (0.5, -0.2, 0.9, 0.5, 2, 50),
        (1.0, 0.0, 0.4, 0.0, 3, 30),
    ):
        p = Params(b, alpha, r, u, a)
        ln_d_minus_ln_z = math.fsum(log_term_mp(p, n, j) for j in range(1, n + 1))
        assert ln_mgf_exact(p, n).ln_mgf == pytest.approx(ln_d_minus_ln_z, abs=1e-11)
    report(
        9,
        "S0+S1+S2+S3 = ln E_n (10 random) and ln D - ln Z = ln E_n "
        "against 50 digits (5 configs)",
    )


def test_criterion_10_g0_positivity():
    worst = math.inf
    for u in (-10.0, -1.0, 0.0, 1.0, 10.0):
        for a in range(7):
            scan = positivity_scan(Params(1.0, 0.0, 0.5, u, a))
            assert scan.all_positive, f"g0 <= 0 at u={u}, a={a}, y={scan.argmin}"
            worst = min(worst, scan.min_value)
    report(10, f"g0 > 0 on 35 grids of 24001 points (min value {worst:.2e})")
