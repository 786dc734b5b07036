"""Special-function accuracy tests: erfc, P(a, z) on both routes, the uniform
expansion's eta and c_j, and the log-gamma difference."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy.special import erfi, gammainc

from mlcp import specfun
from mlcp.errors import DomainError
from mlcp.specfun import (
    LARGE_A_THRESHOLD,
    NEAR_ONE_SWITCH,
    erfc,
    lgamma_diff,
    reg_lower_gamma,
    saturation_window,
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


class TestErfc:
    """specfun.erfc, the erfc of the uniform expansion and the profiles."""

    GRID = np.concatenate((
        np.linspace(-30.0, 26.5, 2261),
        np.linspace(22.0, 26.0, 1601),  # where scipy's erfc is 5.7e-14 off
        np.geomspace(1e-8, 1.0, 300),
        -np.geomspace(1e-8, 1.0, 300),
    ))

    @staticmethod
    def assert_within_1e_15(x):
        # relative to 40 digits, wherever erfc(x) >= 1e-300
        values = erfc(x)
        with mp.workdps(40):
            for xi, value in zip(x.tolist(), values.tolist()):
                ref = mp.erfc(mpf(xi))
                if ref >= 1e-300:
                    assert abs((mpf(value) - ref) / ref) <= 1e-15, xi

    def test_against_40_digits(self):
        self.assert_within_1e_15(self.GRID)

    def test_built_without_long_double(self, monkeypatch):
        # as where long double is the double (Windows, macOS on arm64)
        monkeypatch.setattr(np, "longdouble", np.float64)
        specfun._erfc_table.cache_clear()
        try:
            self.assert_within_1e_15(self.GRID)
        finally:
            specfun._erfc_table.cache_clear()

    def test_every_interval(self):
        # k/64, (k+1)/64 - 2^-40 and (k+1/2)/64 on each interval of
        # [0, 26.5]; GRID's step of 0.025 skips many of them
        k = np.arange(26.5 * specfun._ERFC_PER_UNIT)
        ends = np.concatenate((k, k + 1 - 2.0**-34, k + 0.5)) / specfun._ERFC_PER_UNIT
        self.assert_within_1e_15(ends)

    def test_special_values(self):
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert erfc(0.0) == erfc(-0.0) == 1.0
            assert erfc(math.inf) == 0.0
            assert erfc(-math.inf) == 2.0
            assert math.isnan(erfc(math.nan))
            assert np.isnan(erfc(np.array([1.0, math.nan, -math.nan]))[1:]).all()

    def test_underflow_to_zero_without_warning(self):
        # subnormal from about 26.55, exactly 0 from 27.25 on
        x = np.array([26.6, 27.0, 27.2, 27.25, 27.3, 28.0, 40.0, 1e300])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values = erfc(x)
        assert np.all(values[:3] > 0.0) and np.all(values[3:] == 0.0)

    def test_array_equals_scalar(self):
        x = self.GRID.reshape(2, -1)
        values = erfc(x)
        assert values.shape == x.shape
        for xi, value in zip(x.ravel().tolist(), values.ravel().tolist()):
            scalar = erfc(xi)
            assert isinstance(scalar, float) and scalar == value


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
    # the c_j tables of the uniform expansion at h = lambda - 1: Taylor
    # polynomials near lambda = 1 (_cs_near), closed forms away from it
    # (_cs_far), each giving c_0..c_3

    @staticmethod
    def _near(lam):
        return specfun._cs_near(lam - 1.0, None)

    @staticmethod
    def _far(lam):
        h = lam - 1.0
        return specfun._cs_far(h, specfun._eta_far(h))

    def test_c0_limit(self):
        assert self._near(1.0)[0] == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_c0_is_its_definition(self):
        lam = 2.0
        assert self._far(lam)[0] == pytest.approx(
            1.0 / (lam - 1.0) - 1.0 / temme_eta(lam), rel=1e-14
        )

    def test_c1_display_at_two(self):
        # explicit closed form evaluated in high precision
        with mp.workdps(40):
            eta = mp.sqrt(2 * (1 - mp.log(2)))
            ref = 1 / eta**3 - 1 - 1 - mpf(1) / 12
            assert self._far(2.0)[1] == pytest.approx(float(ref), rel=1e-13)

    def test_series_matches_closed_form_at_boundary(self):
        # Taylor window and closed forms must agree where they hand over
        for lam in (1.0 + 0.0501, 1.0 - 0.0501):
            assert abs(lam - 1.0) > NEAR_ONE_SWITCH
            inside_lam = lam + math.copysign(0.002, 1.0 - lam)
            assert abs(inside_lam - 1.0) < NEAR_ONE_SWITCH
            for inside, outside in zip(self._near(inside_lam), self._far(lam)):
                # smoothness: small step, small change
                assert abs(inside - outside) < 0.05 * max(1.0, abs(outside))

    def test_known_limits(self):
        # c_1(1) = -1/540, c_2(1) = 25/6048, c_3(1) = 101/155520
        cs = self._near(1.0)
        assert cs[1] == pytest.approx(-1.0 / 540.0, abs=1e-16)
        assert cs[2] == pytest.approx(25.0 / 6048.0, abs=1e-16)
        assert cs[3] == pytest.approx(101.0 / 155520.0, abs=1e-16)


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

    def test_tiny_lambda_without_warning(self):
        # z/a below 2^-53 rounds lambda - 1 to -1: eta = -inf and P = 0,
        # with no divide-by-zero warning from log1p(-1)
        assert reg_lower_gamma(np.array([1e3, 2e3]), 2e-15).tolist() == [0.0, 0.0]

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

    # P(a, a + x sqrt(a)) to 50 digits at the x of WINDOW_X, from mpmath:
    # exp(a ln z - z - lnGamma(a + 1)) 1F1(1; a + 1; z), at the double z
    WINDOW_X = (-12, -9, -6, -3, -2, -1, -0.5, 0, 0.5, 1, 2, 3, 6, 9, 12)
    WINDOW_P = {
        1e4: (
            "3.156548275780672214667e-36",
            "8.334444723475769064002e-21",
            "4.648524608121270314188e-10",
            "0.001234175584468491996642",
            "0.02220754381396969386165",
            "0.1586511921935646569571",
            "0.30941788486118259421",
            "0.5013298083399552003827",
            "0.6923424407025655578575",
            "0.8413487504471796223965",
            "0.9767126778664011960526",
            "0.9985295051036143187241",
            "0.999999998037807517867",
            "0.9999999999999999989011",
            "1.0",
        ),
        1e6: (
            "9.935030455836756700995e-34",
            "8.837522530124922842349e-20",
            "9.178900262302023421887e-10",
            "0.001338104167313599692259",
            "0.02269611400673680280602",
            "0.158655213574303652463",
            "0.3086255568908153209815",
            "0.5001329807608725912443",
            "0.6915504757714971815334",
            "0.8413447863683402916276",
            "0.9771959041012301372418",
            "0.9986382593537824085206",
            "0.9999999989402602647156",
            "0.9999999999999999998563",
            "1.0",
        ),
        2e6: (
            "1.179144490543315019899e-33",
            "9.497004483905272847266e-20",
            "9.375636962777568911097e-10",
            "0.001341553453822980743894",
            "0.02271194107915604685654",
            "0.1586552337570894369495",
            "0.3085997765876310503133",
            "0.5000940315975191579709",
            "0.6915246973019786218441",
            "0.8413447662226321444589",
            "0.9772117041782486643175",
            "0.998641733015411473192",
            "0.999999998962161382813",
            "0.9999999999999999998661",
            "1.0",
        ),
    }

    @pytest.mark.parametrize("at", sorted(WINDOW_P))
    def test_window_against_50_digits(self, at):
        # h = (z - a)/a is one rounding off; z/a - 1 would carry the
        # rounding of z/a, which erfc's argument multiplies by about
        # sqrt(a/2): 2.7e-14 off at a = 1e6
        z = at + np.array(self.WINDOW_X) * math.sqrt(at)
        got = reg_lower_gamma(at, z)
        with mp.workdps(50):
            err = max(abs(mpf(g) - mpf(ref)) for g, ref in zip(got.tolist(), self.WINDOW_P[at]))
        assert err <= 3e-16

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
        # the large shapes of a call run it once, z = 0 among them
        reg_lower_gamma(np.array([5e3, 3.0, 2e3]), np.array([5e3, 1.0, 0.0]))
        assert calls == [2]
        # its P at z = 0 is exactly 0, scalar and array: h = -1, eta = -inf,
        # and its erfc and exp go to 0
        shapes = [LARGE_A_THRESHOLD, 5e3, 1e6, 1e9]
        for a_tilde in shapes:
            assert reg_lower_gamma(a_tilde, 0.0) == 0.0
        assert reg_lower_gamma(np.array(shapes), 0.0).tolist() == [0.0] * 4
        mixed = reg_lower_gamma(np.array(shapes), np.array([0.0, 5e3, 0.0, 1e9]))
        assert mixed[0] == 0.0 and mixed[2] == 0.0


class TestSaturationWindow:
    @pytest.mark.parametrize("z", [1e3, 1490.0, 5e3, 2.6e5, 2.1e6, 1e8])
    def test_saturated_outside(self, z):
        # on each side, 200 shapes next to the bound and 200 farther out
        a_lo, a_hi = saturation_window(z, 745.0)
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

    @pytest.mark.parametrize("exponent", [40.0, 40.69, 41.0, 45.0, 90.0, 400.0, 745.0, 749.78])
    def test_one_rule_for_every_shape(self, exponent):
        # the exact kernel's rule, E = 40 + log1p(|cu|) up to 749.78 at the
        # largest e^u: below the window scipy's P, like the expansion's, is
        # exactly 1.0, and above it |cu P| leaves 1 + cu*P at 1
        cu = math.expm1(exponent - 40.0)
        checked = 0
        for z in np.geomspace(1e2, 1e9, 22):
            a_lo, a_hi = saturation_window(z, exponent)
            top = min(a_lo, LARGE_A_THRESHOLD)
            below = np.concatenate([
                np.nextafter(top, 0.0) - np.arange(300.0) * 1e-6 * top,
                np.geomspace(1e-3, top, 300, endpoint=False),
            ]) if top > 1e-3 else np.empty(0)
            below = below[below < a_lo]
            above = np.concatenate([
                np.nextafter(a_hi, math.inf) + np.arange(300.0) * 1e-6 * a_hi,
                np.geomspace(a_hi * 1.001, 100.0 * a_hi, 300),
            ])
            assert np.all(reg_lower_gamma(below, z) == 1.0)
            p_above = reg_lower_gamma(above, z)
            assert np.all(1.0 + cu * p_above == 1.0)
            assert np.all(1.0 - cu * p_above == 1.0)
            checked += below.size
        assert checked >= 10_000

    @pytest.mark.parametrize("z", [50.0, 100.0, 746.0, 1e3, 5e3, 2.6e5, 2.1e6, 1e8])
    def test_bounds_enclose_the_roots(self, z):
        # a (lambda - 1 - ln lambda), lambda = z/a, is at least the exponent
        # at each positive bound (Bennett's bound lies under it), and for
        # large z the bounds sit within 0.01 sqrt(2 E z) outside the exact
        # roots.  40.7 is the exact kernel's exponent at u = 0.7, a even,
        # and 749.78 its largest.
        def expo(a):
            return a * (mpf(z) / a - 1 - mp.log(mpf(z) / a))

        with mp.workdps(40):
            for exponent in (40.0, 40.7, 90.0, 745.0, 749.78):
                a_lo, a_hi = saturation_window(z, exponent)
                for bound in (a_lo, a_hi):
                    assert bound == 0.0 or expo(mpf(bound)) >= exponent
                if z < 5e3:
                    continue
                lo_root, hi_root = (
                    mp.findroot(lambda a: expo(a) - exponent, bracket, solver="anderson")
                    for bracket in ((1e-30 * z, z), (z, 2 * z + 4 * exponent))
                )
                slack = 0.01 * math.sqrt(2.0 * exponent * z)
                assert 0.0 <= lo_root - a_lo <= slack
                assert 0.0 <= a_hi - hi_root <= slack

    def test_no_lower_root(self):
        # for z <= exponent the exponent stays under it for every a < z
        for z in (40.7, 745.0):
            a_lo, a_hi = saturation_window(z, z)
            assert a_lo == 0.0 and a_hi > z
            assert saturation_window(0.0, z) == (0.0, 0.0)

    def test_domain(self):
        for z in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                saturation_window(z, 745.0)


# the scale n of lgamma_diff below, the exact kernel's at n = 2^20
SCALE = 2**20


class TestLgammaDiff:
    def test_matches_mpmath(self):
        with mp.workdps(40):
            for x in (0.7, 5.0, 19.9, 20.1, 123.0, 4.5e4, 2.2e6):
                for d in (0.25, 1.0, 2.5):
                    for n in (1, 1000):
                        ref = mp.loggamma(mpf(x) + mpf(d)) - mp.loggamma(mpf(x))
                        ref -= d * mp.log(n)
                        got = mpf(lgamma_diff(x, d, n))
                        assert abs(got - ref) < 5e-14 * max(1.0, abs(float(ref)))

    @pytest.mark.parametrize("n", [2**14, 2**20, 2**24])
    def test_scaled_against_40_digits(self, n):
        # the exact kernel's shapes x ~ n: delta ln n is part of the main
        # term; subtracted from the result it would leave 5.5e-15 to
        # 1.6e-14 of error
        x = np.linspace(0.2 * n, 0.9 * n, 7)
        shifts = [0.5, 1.0, 1.5, 2.0, 3.0]
        got = lgamma_diff(x, np.array(shifts).reshape(-1, 1), n)
        with mp.workdps(40):
            for d, row in zip(shifts, got.tolist()):
                for xi, g in zip(x.tolist(), row):
                    ref = mp.loggamma(mpf(xi) + d) - mp.loggamma(mpf(xi)) - d * mp.log(n)
                    assert abs(mpf(g) - ref) <= 2e-15

    def test_zero_shift(self):
        assert lgamma_diff(17.3, 0.0, SCALE) == 0.0

    def test_array_matches_scalar(self):
        x = np.array([0.7, 5.0, 19.9, 20.0, 20.1, 123.0, 4.5e4, 2.2e6])
        for d in (0.0, 0.25, 1.0, 2.5):
            arr = lgamma_diff(x, d, SCALE)
            assert arr.tolist() == [lgamma_diff(xi, d, SCALE) for xi in x]
        # a column of shifts against the row x, as the exact kernel calls it
        shifts = np.array([0.0, 0.25, 1.0, 2.5, -0.5])
        grid = lgamma_diff(x, shifts[:, None], SCALE)
        assert grid.tolist() == [[lgamma_diff(xi, d, SCALE) for xi in x] for d in shifts]

    def test_domain(self):
        with pytest.raises(DomainError):
            lgamma_diff(0.0, 1.0, SCALE)
        with pytest.raises(DomainError):
            lgamma_diff(np.array([3.0, 0.5]), -1.0, SCALE)
        for x, d in ((math.nan, 1.0), (3.0, math.nan)):
            with pytest.raises(DomainError):
                lgamma_diff(x, d, SCALE)

    def test_pairs_not_extrema(self):
        # min(x) + min(delta) <= 0 here, but every pair is positive
        x, d = np.array([1.0, 10.0]), np.array([5.0, -5.0])
        pairs = [lgamma_diff(1.0, 5.0, SCALE), lgamma_diff(10.0, -5.0, SCALE)]
        assert lgamma_diff(x, d, SCALE).tolist() == pairs
        assert lgamma_diff(np.array([]), -1.0, SCALE).shape == (0,)


def _full_series(x, delta):
    """lgamma_diff with every Stirling term, whatever x is."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(specfun, "_STIRLING_REACH", (math.inf,) * 5)
        return lgamma_diff(x, delta, SCALE)


# shifts up to 6, the largest kernel shift a/(2b) at a = 6, b = 0.5
CUTOFF_SHIFTS = np.concatenate(
    [[0.0, 2.0**-30], np.geomspace(1e-9, 6.0, 40), np.linspace(0.05, 6.0, 120)]
).reshape(-1, 1)


class TestStirlingCutoff:
    def test_thresholds(self):
        # X_m falls with m, so stopping at the first m with x >= X_m
        # leaves out only terms below 2^-60 of the first
        reach = specfun._STIRLING_REACH
        assert reach[0] == math.inf
        assert all(a > b for a, b in zip(reach, reach[1:]))
        tail = specfun._STIRLING_TAIL
        for m in range(2, 6):
            bound = (2 * m - 1) * abs(tail[m - 1] / tail[0]) * reach[m - 1] ** (2 - 2 * m)
            assert bound == pytest.approx(2.0**-60, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bitwise_just_above_each_threshold(self, m):
        # rows starting at X_m itself: the call stops the series at term m
        limit = specfun._STIRLING_REACH[m - 1]
        x = np.concatenate([
            limit * (1.0 + np.arange(3000) * 2.0**-52),
            np.geomspace(limit, 1.01 * limit, 1000),
        ])
        assert x.min() >= limit
        fast = lgamma_diff(x, CUTOFF_SHIFTS, SCALE)
        assert fast.tobytes() == _full_series(x, CUTOFF_SHIFTS).tobytes()

    @given(
        st.floats(min_value=20.0, max_value=1e9),
        st.floats(min_value=0.0, max_value=6.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_property(self, x, d):
        fast = lgamma_diff(x, d, SCALE)
        full = _full_series(x, d)
        assert fast.hex() == full.hex()

    def test_negative_shift_runs_every_term(self, stirling_terms):
        # the bound needs delta >= 0; with a negative shift the series runs
        # all five terms on every entry
        x = np.array([2e4, 5e4, 1e6])
        d = np.array([[-0.5], [1.0]])
        lgamma_diff(x, d, SCALE)
        assert stirling_terms == [6] * 5
        stirling_terms.clear()
        lgamma_diff(x, np.abs(d), SCALE)
        assert stirling_terms == [6] * 2
