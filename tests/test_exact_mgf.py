"""Exact finite-n evaluator tests: oracles, identities, diagnostics."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcp.errors import AccuracyError, DomainError, RangeError
from mlcp.exact_mgf import (
    _log_term_mp,
    _log_terms,
    _TermContext,
    default_window_width,
    ln_mgf_exact,
    ln_partition,
    split_sums,
)
from mlcp.params import Params

# ln E_n values from direct numerical integration of the defining
# expectation (40-digit tanh-sinh quadrature of the radial moments;
# for n = 2 the angle average contributes the factor (v1^2 + v2^2)).
ORACLE_SMALL_N = [
    (1, (1.0, 0.0, 0.5, 1.0, 0), 0.32214334876778271),
    (1, (1.0, 0.0, 0.5, 0.0, 1), -0.76859315870914309),
    (1, (0.5, 0.5, 1.0, -0.7, 2), 1.9451698110435038),
    (2, (2.0, -0.5, 0.6, 0.5, 3), -6.301452116931153),
    (2, (1.0, 1.0, 0.7, 0.3, 2), -2.7885505564378887),
    (2, (0.5, 0.0, 0.8, 1.2, 1), 0.13850355737454776),
]


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            Params(-1.0, 0.0, 0.5, 0.0, 0)
        with pytest.raises(DomainError):
            Params(1.0, -1.0, 0.5, 0.0, 0)
        with pytest.raises(DomainError):
            Params(1.0, 0.0, 1.0, 0.0, 0)  # r at the edge
        with pytest.raises(DomainError):
            Params(1.0, 0.0, 0.5, 0.0, -1)
        with pytest.raises(DomainError):
            Params(1.0, 0.0, 0.5, 0.0, 1.5)

    def test_constraint_field(self):
        try:
            Params(1.0, 0.0, 2.0, 0.0, 0)
        except DomainError as exc:
            assert exc.constraint == "r"

    def test_edge_radius(self):
        assert Params(1.0, 0.0, 0.5, 0.0, 0).edge_radius == 1.0
        assert Params(0.5, 0.0, 1.0, 0.0, 0).edge_radius == pytest.approx(2.0)


class TestNullCase:
    def test_exact_zero(self):
        p = Params(1.3, 0.2, 0.55, 0.0, 0)
        for n in (1, 10, 200):
            assert ln_mgf_exact(p, n).ln_mgf == 0.0


class TestSmallNOracles:
    @pytest.mark.parametrize("n,tpl,expected", ORACLE_SMALL_N)
    def test_against_integration_oracle(self, n, tpl, expected):
        params = Params(tpl[0], tpl[1], tpl[2], tpl[3], int(tpl[4]))
        assert ln_mgf_exact(params, n).ln_mgf == pytest.approx(expected, abs=1e-8)

    def test_quoted_value_a0(self):
        # ln(1 + (e-1)(1 - e^{-1/4})) ~ 0.322
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        assert ln_mgf_exact(p, 1).ln_mgf == pytest.approx(
            math.log(1.0 + (math.e - 1.0) * (1.0 - math.exp(-0.25))), rel=1e-14
        )


class TestShapeInU:
    def test_monotone_increasing(self):
        base = (1.0, 0.0, 0.6, 2)
        prev = None
        for u in (-2.0, -1.0, 0.0, 1.0, 2.0):
            p = Params(base[0], base[1], base[2], u, base[3])
            v = ln_mgf_exact(p, 40).ln_mgf
            if prev is not None:
                assert v > prev
            prev = v

    def test_log_convex(self):
        # d^2/du^2 ln E_n >= 0 by symmetric second differences
        h = 0.05
        for u in (-1.0, 0.0, 0.8):
            vals = [
                ln_mgf_exact(Params(1.0, 0.0, 0.6, u + k * h, 1), 40).ln_mgf
                for k in (-1, 0, 1)
            ]
            assert vals[0] - 2.0 * vals[1] + vals[2] >= -1e-9


class TestPerTerm:
    def test_terms_sum_to_total(self):
        # 4097 crosses the boundary of the 4096-index evaluation chunks
        p = Params(1.0, 0.0, 0.6, 0.5, 2)
        for n in (300, 4097):
            res = ln_mgf_exact(p, n, keep_terms=True)
            assert len(res.per_term) == n
            assert math.fsum(res.per_term) == pytest.approx(res.ln_mgf, abs=1e-12)
            ctx = _TermContext(p, n)
            for j in (1, 2, n - 1, n):
                one = _log_terms(ctx, np.array([float(j)]))[0]
                assert res.per_term[j - 1] == one


class TestFiftyDigitTier:
    def test_no_convergence_is_accuracy_error(self):
        # deep in the saturated regime mpmath's gammainc does not converge
        ctx = _TermContext(Params(1, 0, 0.5, 0.7, 4), 100000)
        with pytest.raises(AccuracyError):
            _log_term_mp(ctx, 13000)


class TestHighPrecisionAgreement:
    def test_escalated_terms_match_mpmath(self):
        # config with strong inner cancellation around j ~ b n r^{2b}
        from mpmath import mp

        p = Params(1.0, 0.0, 0.5, 0.3, 3)
        n = 300
        ours = ln_mgf_exact(p, n).ln_mgf
        with mp.workdps(40):
            z = mp.mpf(n) * mp.mpf(p.r) ** 2
            total = mp.mpf(0)
            for j in range(1, n + 1):
                inner = mp.mpf(0)
                lg0 = mp.loggamma(mp.mpf(j))
                for k in range(p.a + 1):
                    at = mp.mpf(j) + mp.mpf(k) / 2
                    pk = mp.gammainc(at, 0, z, regularized=True)
                    g = mp.loggamma(at) - lg0 - mp.mpf(k) / 2 * mp.log(n)
                    cu = -mp.exp(mp.mpf(p.u)) - 1
                    inner += (
                        mp.binomial(p.a, k)
                        * (-mp.mpf(p.r)) ** (p.a - k)
                        * mp.exp(g)
                        * (1 + cu * pk)
                    )
                total += mp.log(inner)
            ref = float(total)
        assert ours == pytest.approx(ref, abs=5e-8)


class TestSplitSums:
    def test_partition_identity(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 2)
        n = 500
        split = split_sums(p, n, eps=0.05, m_prime=10)
        total = ln_mgf_exact(p, n).ln_mgf
        assert split.total == pytest.approx(total, abs=1e-10)

    def test_j_minus_formula(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 2)
        n, eps = 500, 0.05
        split = split_sums(p, n, eps, 10)
        assert split.j_minus == math.ceil(p.b * n * p.r ** (2 * p.b) / (1 + eps) - p.alpha)
        assert split.j_plus == math.floor(p.b * n * p.r ** (2 * p.b) / (1 - eps) - p.alpha)

    def test_diagnostic_invariance(self):
        # the total never depends on (eps, m_prime, M)
        p = Params(1.0, 0.3, 0.55, -0.4, 1)
        n = 400
        t1 = split_sums(p, n, 0.04, 5).total
        t2 = split_sums(p, n, 0.09, 17, M=2.0).total
        assert t1 == pytest.approx(t2, abs=1e-11)

    @given(
        st.integers(min_value=100, max_value=5000),
        st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=100, deadline=None)
    def test_theta_in_unit_interval(self, n, eps):
        p = Params(1.0, 0.25, 0.6, 0.0, 0)
        if p.bulk_mass / (1 - eps) >= 1 / (1 + eps):
            return
        try:
            split = split_sums(p, n, eps, 1)
        except RangeError:
            return
        for theta in (
            split.theta_minus_eps,
            split.theta_plus_eps,
            split.theta_minus_M,
            split.theta_plus_M,
        ):
            assert 0.0 <= theta < 1.0

    def test_eps_constraint(self):
        p = Params(1.0, 0.0, 0.95, 0.0, 0)  # bulk mass 0.9025: tight
        with pytest.raises(DomainError):
            split_sums(p, 100, 0.06, 2)

    def test_small_n_range_error(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 1)
        with pytest.raises(RangeError):
            split_sums(p, 6, 0.05, 4)

    def test_m_prime_bound(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 1)
        with pytest.raises(RangeError):
            split_sums(p, 100, 0.05, 50)

    def test_default_window(self):
        assert default_window_width(256) == pytest.approx(
            256.0**0.125 * math.log(256.0) ** -0.125
        )
        with pytest.raises(RangeError):
            default_window_width(1)


class TestPartitionFunctions:
    def test_z1_is_log_pi(self):
        res = ln_partition(Params(1.0, 0.0, 0.5, 0.0, 0), 1)
        assert res["ln_Z"] == pytest.approx(math.log(math.pi), rel=1e-15)

    def test_undeformed_equality(self):
        p = Params(1.0, 0.0, 0.5, 0.0, 0)
        for n in (1, 7, 40):
            res = ln_partition(p, n)
            assert res["ln_D"] == pytest.approx(res["ln_Z"], abs=1e-9 * max(1, n))

    def test_ratio_identity(self):
        p = Params(1.0, 0.0, 0.5, 0.7, 1)
        res = ln_partition(p, 50)
        assert res["ln_D"] - res["ln_Z"] == pytest.approx(
            ln_mgf_exact(p, 50).ln_mgf, abs=1e-9
        )


class TestPerformance:
    def test_large_n_budget(self):
        p = Params(1.0, 0.0, 0.5, 0.7, 4)
        t0 = time.perf_counter()
        v = ln_mgf_exact(p, 100000).ln_mgf
        elapsed = time.perf_counter() - t0
        assert math.isfinite(v)
        assert elapsed < 10.0, f"n=1e5, a=4 took {elapsed:.1f}s (budget 10s)"
