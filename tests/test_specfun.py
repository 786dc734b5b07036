"""Special-function accuracy tests: P(a, z) on both routes, the uniform
expansion's eta and c_j, and the log-gamma difference."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.special import erfi, gammainc

from mlcp import specfun
from mlcp.errors import DomainError, UnsupportedOrderError
from mlcp.specfun import (
    LARGE_A_THRESHOLD,
    SATURATION_EXPONENT,
    lgamma_diff,
    reg_lower_gamma,
    saturation_window,
    temme_c,
    temme_eta,
)


class TestErf:
    """scipy's erfi, which the nu = 1 orthogonality weight uses."""

    def test_erfi_odd(self):
        for x in (0.2, 1.7, 5.0):
            assert erfi(-x) == -erfi(x)

    def test_erfi_accuracy(self):
        with mp.workdps(40):
            for x in [0.05, 0.5, 1.0, 2.0, 3.5, 6.0, 8.49, 12.0]:
                ref = mp.erfi(mpf(x))
                assert abs((mpf(erfi(x)) - ref) / ref) < 1e-12


class TestTemmeEta:
    def test_removable_point(self):
        assert temme_eta(1.0) == 0.0

    def test_at_e(self):
        # eta(e) = sqrt(2(e - 2))
        assert temme_eta(math.e) == pytest.approx(
            math.sqrt(2.0 * (math.e - 2.0)), rel=1e-14
        )

    def test_series_leading_terms(self):
        h = 1e-4
        assert abs(temme_eta(1.0 + h) - (h - h * h / 3.0)) < 1e-12

    def test_sign(self):
        for lam in (0.2, 0.7, 0.999, 1.001, 1.5, 9.0):
            assert math.copysign(1.0, temme_eta(lam)) == math.copysign(1.0, lam - 1.0)

    def test_defining_identity(self):
        # eta^2/2 == lambda - 1 - ln(lambda), relative 1e-12 over [0.1, 10]
        lam = 0.1
        while lam <= 10.0:
            lhs = 0.5 * temme_eta(lam) ** 2
            rhs = lam - 1.0 - math.log(lam)
            if rhs > 1e-30:
                assert abs(lhs - rhs) <= 1e-12 * rhs
            lam += 0.0437

    def test_domain(self):
        with pytest.raises(DomainError):
            temme_eta(0.0)


class TestTemmeC:
    def test_c0_limit(self):
        assert temme_c(0, 1.0) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_c0_is_its_definition(self):
        lam = 2.0
        assert temme_c(0, lam) == pytest.approx(
            1.0 / (lam - 1.0) - 1.0 / temme_eta(lam), rel=1e-14
        )

    def test_c1_display_at_two(self):
        # explicit closed form evaluated in high precision
        with mp.workdps(40):
            eta = mp.sqrt(2 * (1 - mp.log(2)))
            ref = 1 / eta**3 - 1 - 1 - mpf(1) / 12
            assert temme_c(1, 2.0) == pytest.approx(float(ref), rel=1e-13)

    def test_series_matches_closed_form_at_boundary(self):
        # Taylor window and closed forms must agree where they hand over
        for lam in (1.0 + 0.0501, 1.0 - 0.0501):
            for j in range(4):
                inside = temme_c(j, lam + math.copysign(0.002, 1.0 - lam))
                outside = temme_c(j, lam)
                # smoothness: small step, small change
                assert abs(inside - outside) < 0.05 * max(1.0, abs(outside))

    def test_known_limits(self):
        # c_1(1) = -1/540, c_2(1) = 25/6048, c_3(1) = 101/155520
        assert temme_c(1, 1.0) == pytest.approx(-1.0 / 540.0, abs=1e-16)
        assert temme_c(2, 1.0) == pytest.approx(25.0 / 6048.0, abs=1e-16)
        assert temme_c(3, 1.0) == pytest.approx(101.0 / 155520.0, abs=1e-16)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            temme_c(4, 1.5)


class TestTemmePoint:
    def test_invariants(self):
        # the (a, lambda, eta) triple of the uniform expansion at z = lambda*a
        for a_tilde in (2.0, 1e3, 1e6):
            for lam in (0.5, 0.9, 1.0, 1.2, 4.0):
                z = lam * a_tilde
                eta = temme_eta(z / a_tilde)
                assert z / a_tilde == pytest.approx(lam, rel=1e-15)
                if lam == 1.0:
                    assert eta == 0.0
                else:
                    assert math.copysign(1.0, eta) == math.copysign(1.0, lam - 1.0)
                lhs = a_tilde * eta**2 / 2.0
                rhs = z - a_tilde + a_tilde * math.log(a_tilde / z)
                if rhs > 1e-12 * a_tilde:
                    assert abs(lhs - rhs) <= 1e-12 * rhs


class TestRegLowerGamma:
    def test_exponential_case(self):
        assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_erf_identity(self):
        # gamma(1/2, z) = sqrt(pi) erf(sqrt(z))
        assert reg_lower_gamma(0.5, 1.0) == pytest.approx(math.erf(1.0), rel=1e-13)

    def test_huge_balanced(self):
        p = reg_lower_gamma(1e6, 1e6)
        assert abs(p - 0.5) < 1e-3
        # leading correction is +1/(3 sqrt(2 pi a))
        assert p - 0.5 == pytest.approx(1.0 / (3.0 * math.sqrt(2 * math.pi * 1e6)), rel=1e-2)

    def test_bounds_and_monotonicity_grid(self):
        a_grid = [0.5, 1.0, 5.0, 50.0, 1e3, 1e5]
        lam_grid = [0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0]
        for at in a_grid:
            prev = None
            for lam in lam_grid:
                p = reg_lower_gamma(at, lam * at)
                assert 0.0 <= p <= 1.0
                if prev is not None:
                    assert p >= prev - 1e-13  # nondecreasing in z
                prev = p
        for lam in lam_grid:
            for lo, hi in zip(a_grid[:-1], a_grid[1:]):
                z = lam * lo
                assert reg_lower_gamma(hi, z) <= reg_lower_gamma(lo, z) + 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_lower_gamma(1.0, -0.5)
        with pytest.raises(DomainError):
            reg_lower_gamma(-1.0, 2.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(np.array([1.0, 0.0]), 2.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(5e3, np.array([1.0, math.inf]))

    def test_overlap_agreement(self):
        # uniform expansion vs scipy's gammainc where both are accurate
        for at in (1e3, 2e3, 5e3, 1e4):
            for lam in (1.005, 1.05, 1.3, 2.0):
                z = lam * at
                if 0.5 * at * temme_eta(lam) ** 2 > 700.0:
                    continue
                p_sp = gammainc(at, z)
                p_tm = reg_lower_gamma(at, z)
                assert p_sp == pytest.approx(p_tm, rel=1e-10)

    def test_saturation_bound(self):
        # fixed a <= 10, z >= 200: |P - 1| <= 10 exp(-z/2)
        for at in (0.5, 2.0, 10.0):
            for z in (200.0, 400.0, 900.0):
                assert abs(reg_lower_gamma(at, z) - 1.0) <= 10.0 * math.exp(-0.5 * z)

    def test_accuracy_against_mpmath(self):
        cases = [
            (0.5, 0.2), (1.0, 3.0), (7.5, 2.0), (50.0, 65.0), (400.0, 380.0),
            (999.0, 500.0), (1e3, 990.0), (1e4, 10100.0), (1e5, 99000.0),
        ]
        with mp.workdps(50):
            for at, z in cases:
                ref = mp.gammainc(mpf(at), 0, mpf(z), regularized=True)
                if ref < mpf("1e-300"):
                    continue
                assert abs((mpf(reg_lower_gamma(at, z)) - ref) / ref) < 1e-11

    def test_small_a_tails_against_mpmath(self):
        # the scipy route, down to P = 1e-300 in the lower tail
        lams = (1e-300, 1e-100, 1e-30, 1e-5, 0.01, 0.1, 0.3, 0.6, 0.9, 0.99,
                1.0, 1.01, 1.2, 2.0, 5.0)
        tested = 0
        with mp.workdps(50):
            for at in (0.5, 1.0, 3.7, 20.0, 150.0, 999.0):
                for lam in lams:
                    z = lam * at
                    ref = mp.gammainc(mpf(at), 0, mpf(z), regularized=True)
                    if ref < mpf("1e-300"):
                        continue
                    got = reg_lower_gamma(at, z)
                    assert abs((mpf(got) - ref) / ref) < 1e-11, (at, lam)
                    tested += 1
        assert tested >= 70

    def test_large_a_stays_on_expansion(self):
        # scipy's gammainc is ~1e-12 off here; the expansion ~1e-15
        with mp.workdps(50):
            for at in (1e6, 2e6):
                z = 0.995 * at
                ref = mp.gammainc(mpf(at), 0, mpf(z), regularized=True)
                assert abs(mpf(reg_lower_gamma(at, z)) - ref) < 1e-14

    def test_array_matches_scalar(self):
        at = np.repeat([0.5, 3.0, 999.9, 1e3, 5e3, 1e5, 1e6, 2e6], 9)
        lam = np.tile([1e-3, 0.3, 0.9, 0.995, 1.0, 1.001, 1.04, 1.06, 3.0], 8)
        z = lam * at
        arr = reg_lower_gamma(at, z)
        assert arr.shape == at.shape
        assert arr.tolist() == [reg_lower_gamma(a, zz) for a, zz in zip(at, z)]
        assert reg_lower_gamma(at.reshape(8, 9), z.reshape(8, 9)).shape == (8, 9)

    def test_expansion_runs_only_on_large_shapes(self, monkeypatch):
        # all shapes below 1e3: scipy's values, bit for bit, and no call
        # of the expansion, not even on empty arrays
        calls = []
        expansion = specfun._p_uniform

        def counted(a, z):
            calls.append(a.size)
            return expansion(a, z)

        monkeypatch.setattr(specfun, "_p_uniform", counted)
        at = np.array([0.5, 3.0, 40.0, 999.9, 999.9])
        z = np.array([0.1, 3.0, 38.0, 1200.0, 0.0])
        assert reg_lower_gamma(at, z).tolist() == gammainc(at, z).tolist()
        assert reg_lower_gamma(3.0, 2.5) == gammainc(3.0, 2.5)
        assert calls == []
        # z = 0 needs no expansion either; one large shape runs it once
        reg_lower_gamma(np.array([5e3, 3.0]), np.array([0.0, 1.0]))
        assert calls == []
        reg_lower_gamma(np.array([5e3, 3.0, 2e3]), np.array([5e3, 1.0, 0.0]))
        assert calls == [1]


class TestSaturationWindow:
    @pytest.mark.parametrize("z", [1e3, 1490.0, 5e3, 2.6e5, 2.1e6, 1e8])
    def test_saturated_outside(self, z):
        # on each side, 200 shapes next to the bound and 200 farther out
        a_lo, a_hi = saturation_window(z)
        below = np.concatenate([
            np.nextafter(a_lo, 0.0) - np.arange(200.0) * 1e-6 * a_lo,
            np.geomspace(0.01 * a_lo, a_lo, 200, endpoint=False),
        ])
        below = below[below >= LARGE_A_THRESHOLD]
        above = np.concatenate([
            np.nextafter(a_hi, math.inf) + np.arange(200.0) * 1e-6 * a_hi,
            np.geomspace(a_hi * 1.001, 100.0 * a_hi, 200),
        ])
        assert np.all(reg_lower_gamma(below, z) == 1.0)
        assert np.all(reg_lower_gamma(above, z) == 0.0)
        assert below.size >= (200 if a_lo > 1.001 * LARGE_A_THRESHOLD else 0)

    @pytest.mark.parametrize("z", [746.0, 1e3, 5e3, 2.6e5, 2.1e6, 1e8])
    def test_bounds_hug_the_roots(self, z):
        # a (lambda - 1 - ln lambda) at the bounds, lambda = z/a, lies just
        # above the saturation exponent: widening a root by 1e-6 relative
        # adds about 1e-6 sqrt(2 * 745 z) to it
        slack = 2e-6 * math.sqrt(2.0 * SATURATION_EXPONENT * z)
        with mp.workdps(40):
            for bound in saturation_window(z):
                a = mpf(bound)
                lam = mpf(z) / a
                expo = a * (lam - 1 - mp.log(lam))
                assert SATURATION_EXPONENT < expo < SATURATION_EXPONENT + slack

    def test_no_lower_root(self):
        # for z <= 745 the exponent stays under the limit for every a < z
        a_lo, a_hi = saturation_window(745.0)
        assert a_lo == 0.0 and a_hi > 745.0
        assert saturation_window(0.0) == (0.0, 0.0)

    def test_domain(self):
        for z in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                saturation_window(z)


class TestLgammaDiff:
    def test_matches_mpmath(self):
        with mp.workdps(40):
            for x in (0.7, 5.0, 19.9, 20.1, 123.0, 4.5e4, 2.2e6):
                for d in (0.25, 1.0, 2.5):
                    ref = mp.loggamma(mpf(x) + mpf(d)) - mp.loggamma(mpf(x))
                    assert abs(mpf(lgamma_diff(x, d)) - ref) < 5e-14 * max(1.0, abs(float(ref)))

    def test_zero_shift(self):
        assert lgamma_diff(17.3, 0.0) == 0.0

    def test_array_matches_scalar(self):
        x = np.array([0.7, 5.0, 19.9, 20.0, 20.1, 123.0, 4.5e4, 2.2e6])
        for d in (0.0, 0.25, 1.0, 2.5):
            arr = lgamma_diff(x, d)
            assert arr.tolist() == [lgamma_diff(xi, d) for xi in x]
        # a column of shifts against the row x, as the exact kernel calls it
        shifts = np.array([0.0, 0.25, 1.0, 2.5, -0.5])
        grid = lgamma_diff(x, shifts[:, None])
        assert grid.tolist() == [[lgamma_diff(xi, d) for xi in x] for d in shifts]

    def test_domain(self):
        with pytest.raises(DomainError):
            lgamma_diff(0.0, 1.0)
        with pytest.raises(DomainError):
            lgamma_diff(np.array([3.0, 0.5]), -1.0)
