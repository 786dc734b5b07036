"""Profile functions, asymptotic constants, and residual-decay tests."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import erfc as sp_erfc

from mlcp import asymp, combo_poly, quadrature
from mlcp.asymp import (
    c2_integrand,
    c3_integrand,
    coeff_C1,
    coeff_C2,
    coeff_C3,
    compute_coeffs,
    eval_G,
    positivity_scan,
    predict,
    residual,
)
from mlcp.params import Params

SQRT_2PI = math.sqrt(2.0 * math.pi)
# (alpha, r) of the three compare geometries, by b
GEOMETRIES = {0.5: (0.5, 1.0), 1.0: (0.0, 0.5), 2.0: (-0.5, 0.6)}


def c1_trapezoid_oracle(params, panels=10**6):
    """Trapezoid C1 with the log singularity split off by parts:
    int ln|r-y| dF = [ln|r-y| (F - F(r))] - int (F - F(r))/(y-r) dy with
    smooth remaining integrands."""
    a, b, r, u = params.a, params.b, params.r, params.u
    edge = params.edge_radius
    F = lambda y: b * y ** (2.0 * b)
    Fr = F(r)
    y = np.linspace(0.0, r, panels + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (Fr - F(y)) / (r - y)
    g[-1] = 2.0 * b * b * r ** (2.0 * b - 1.0)
    inner = u * Fr + a * (Fr * math.log(r) - np.trapezoid(g, y))
    y = np.linspace(r, edge, panels + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (F(y) - Fr) / (y - r)
    g[0] = 2.0 * b * b * r ** (2.0 * b - 1.0)
    outer = a * (math.log(edge - r) * (F(edge) - Fr) - np.trapezoid(g, y))
    return inner + outer


def c2_simpson_oracle_a0(params, Y=40.0, h=1e-4):
    """Brute-force C2 for a = 0: exponential-tail integrand on |y| <= Y."""
    u, b, r = params.u, params.b, params.r
    c = math.exp(u) - 1.0
    total = 0.0
    for sgn in (1.0, -1.0):
        y = np.arange(0.0, Y + h, h) * sgn
        f = np.log1p(c * sp_erfc(y) / 2.0)
        if sgn < 0:
            f = f - u
        total += simpson(f, x=y) * sgn
    return math.sqrt(2.0) * b * r**b * total


class TestEvalG:
    def test_a0_closed_form(self):
        p = Params(1.0, 0.0, 0.5, 0.8, 0)
        for y in (-2.0, 0.0, 1.3):
            g = eval_G(y, p)
            assert g.g0 == pytest.approx(
                1.0 + (math.exp(0.8) - 1.0) * math.erfc(y) / 2.0, rel=1e-14
            )

    def test_even_a_u0_reduces_to_polynomial(self):
        p = Params(1.0, 0.0, 0.5, 0.0, 2)
        for y in (-1.1, 0.4, 2.0):
            s = -math.sqrt(2.0) * y
            assert eval_G(y, p).g0 == pytest.approx(s * s + 1.0, rel=1e-14)

    def test_origin_a1(self):
        p = Params(1.0, 0.0, 0.5, 0.7, 1)
        assert eval_G(0.0, p).g0 == pytest.approx(
            (math.exp(0.7) + 1.0) / SQRT_2PI, rel=1e-14
        )

    @pytest.mark.parametrize("a", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("u", [-3.0, 0.7, 500.0])
    def test_array_equals_scalar_calls(self, a, u):
        # includes y in [22, 26], where scipy's erfc and math.erfc differ most;
        # at u = 500 the erfc term dominates g0 there
        p = Params(1.0, 0.0, 0.5, u, a)
        y = np.concatenate((np.linspace(-30.0, 30.0, 121), np.linspace(22.0, 26.0, 41)))
        g = eval_G(y.reshape(2, -1), p)
        assert g.g0.shape == g.g1.shape == (2, y.size // 2)
        for yi, g0, g1 in zip(y, g.g0.ravel(), g.g1.ravel()):
            scalar = eval_G(float(yi), p)
            assert isinstance(scalar.g0, float)
            assert (scalar.g0, scalar.g1) == (g0, g1)

    def test_positive_everywhere_spot(self):
        for a in range(5):
            p = Params(1.0, 0.0, 0.5, -3.0, a)
            for y in np.linspace(-10, 10, 101):
                assert eval_G(float(y), p).g0 > 0.0


class TestPositivityScan:
    def test_null_profile(self):
        scan = positivity_scan(Params(1.0, 0.0, 0.5, 0.0, 0))
        assert scan.all_positive
        assert scan.min_value == 1.0

    def test_deep_negative_u(self):
        scan = positivity_scan(Params(1.0, 0.0, 0.5, -10.0, 3))
        assert scan.all_positive
        assert scan.min_value > 0.0

    def test_large_positive_u(self):
        scan = positivity_scan(Params(1.0, 0.0, 0.5, 5.0, 4))
        assert scan.all_positive


class TestC1:
    def test_a0_closed_form(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        assert coeff_C1(p) == pytest.approx(1.0 * 1.0 * 0.25, abs=1e-12)

    def test_null(self):
        assert coeff_C1(Params(1.0, 0.0, 0.5, 0.0, 0)) == 0.0

    def test_vs_trapezoid_oracle(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 1)
        assert coeff_C1(p) == pytest.approx(c1_trapezoid_oracle(p), abs=1e-8)

    def test_vs_trapezoid_oracle_general_b(self):
        p = Params(2.0, 0.25, 0.6, -0.4, 3)
        assert coeff_C1(p) == pytest.approx(c1_trapezoid_oracle(p), abs=1e-8)


class TestC2:
    def test_null(self):
        assert coeff_C2(Params(1.0, 0.0, 0.5, 0.0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_vs_simpson_oracle_a0(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        assert coeff_C2(p) == pytest.approx(c2_simpson_oracle_a0(p), abs=1e-8)

    def test_exact_pi_case(self):
        # a=2, u=0, b=1, r=1/2: integrand is ln(1 + 1/(2y^2)), whose
        # integral is pi*sqrt(2), so C2 = sqrt(2)*(1/2)*pi*sqrt(2)/ ... = pi
        p = Params(1.0, 0.0, 0.5, 0.0, 2)
        assert coeff_C2(p) == pytest.approx(math.pi, abs=1e-9)

    def test_parity_even_a_u0(self):
        p = Params(1.0, 0.0, 0.5, 0.0, 2)
        for y in (0.3, 1.7, 9.0, 44.0):
            left = c2_integrand(-y, p)
            right = c2_integrand(y, p)
            assert left == pytest.approx(right, rel=1e-10)

    def test_integrand_continuity_across_switch(self):
        for a in (0, 1, 3):
            p = Params(1.0, 0.0, 0.5, 0.6, a)
            ys = 8.0  # switch for u=0.6 stays at 8
            lo = c2_integrand(ys - 1e-9, p)
            hi = c2_integrand(ys + 1e-9, p)
            assert lo == pytest.approx(hi, rel=1e-9, abs=1e-13)

    def test_tail_rate(self):
        # y^2 * integrand -> a(a-1)/4; for a=1 the tail decays faster
        for a in (2, 4):
            p = Params(1.0, 0.0, 0.5, 0.3, a)
            assert 200.0**2 * c2_integrand(200.0, p) == pytest.approx(
                a * (a - 1) / 4.0, rel=1e-3
            )
        p1 = Params(1.0, 0.0, 0.5, 0.3, 1)
        assert abs(200.0**2 * c2_integrand(200.0, p1)) < 1e-12


class TestC3:
    def test_null(self):
        assert coeff_C3(Params(1.0, 0.0, 0.5, 0.0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_exact_minus_one_case(self):
        # a=2, u=0, b=1, r=1/2: odd integrand, C3 = closed form = -1
        p = Params(1.0, 0.0, 0.5, 0.0, 2)
        assert coeff_C3(p) == pytest.approx(-1.0, abs=1e-9)

    def test_alpha_shift(self):
        # C3(alpha+1) - C3(alpha) = -u + a ln((b r^{2b})^{-1/(2b)} - 1)
        pa = Params(1.0, 0.3, 0.5, 0.7, 2)
        pb = Params(1.0, 1.3, 0.5, 0.7, 2)
        shift = coeff_C3(pb) - coeff_C3(pa)
        expected = -0.7 + 2.0 * math.log((1.0 * 0.25) ** -0.5 - 1.0)
        assert shift == pytest.approx(expected, abs=1e-9)

    def test_integrand_continuity_across_switch(self):
        p = Params(1.0, 0.0, 0.5, 0.6, 2)
        lo = c3_integrand(8.0 - 1e-9, p)
        hi = c3_integrand(8.0 + 1e-9, p)
        assert lo == pytest.approx(hi, rel=1e-8, abs=1e-13)


class TestCoeffBundle:
    def test_null_bundle(self):
        c = compute_coeffs(Params(2.0, 0.5, 0.4, 0.0, 0))
        assert (c.C1, c.C2, c.C3) == (0.0, 0.0, 0.0)
        assert max(c.err1, c.err2, c.err3) <= 1e-9

    def test_double_grid_consistency(self):
        # halving the base panel width moves C2, C3 by less than the
        # reported error estimates
        p = Params(1.0, 0.0, 0.5, 1.0, 1)
        c2, e2 = asymp._c2_with_err(p, 1e-9)
        c2r, _ = asymp._c2_with_err(p, 1e-9, refine=1)
        assert abs(c2 - c2r) <= e2
        c3, e3 = asymp._c3_with_err(p, 1e-9)
        c3r, _ = asymp._c3_with_err(p, 1e-9, refine=1)
        assert abs(c3 - c3r) <= e3

    def test_error_estimates_within_tol(self):
        c = compute_coeffs(Params(1.0, 0.0, 0.6, 0.5, 2), tol=1e-9)
        assert c.err1 <= 1e-9 and c.err2 <= 1e-9 and c.err3 <= 1e-9

    def test_profile_built_once(self, monkeypatch):
        # one build for C2, C3 and later point evaluations of the same
        # (a, b, u); alpha and r do not enter the profile
        built = []

        class Counted(asymp._Profile):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(asymp, "_Profile", Counted)
        asymp._cached_profile.cache_clear()
        try:
            p = Params(1.0, 0.0, 0.6, 0.5, 2)
            first = compute_coeffs(p)
            eval_G(0.3, p)
            c2_integrand(1.5, Params(1.0, 0.25, 0.55, 0.5, 2))
            c3_integrand(-2.0, p)
            assert built == [(2, 1.0, 0.5)]
            assert compute_coeffs(p) == first
            eval_G(0.3, Params(1.0, 0.0, 0.6, 0.7, 2))
            assert len(built) == 2
        finally:
            asymp._cached_profile.cache_clear()


def mp_integrands(params):
    """The C2 and C3 integrands of the module docstring in mpmath, from the
    exact profile polynomials: no log1p tail form, no folded counterterm."""
    a, u, b = params.a, mp.mpf(params.u), mp.mpf(params.b)
    polys = [
        [mp.mpf(c.numerator) / c.denominator for c in poly.coeffs[::-1]]
        for poly in (
            combo_poly.p0(a),
            combo_poly.q0(a),
            combo_poly.p1(a, Fraction(params.b)),
            combo_poly.q1(a, Fraction(params.b)),
        )
    ]
    sign = -1 if a % 2 else 1
    cu = mp.exp(u) - sign

    def logs(y):
        s = -mp.sqrt(2) * y
        amp = sign + cu * mp.erfc(y) / 2
        gauss = cu * mp.exp(-y * y) / mp.sqrt(2 * mp.pi)
        p0, q0, p1, q1 = (mp.polyval(c, s) for c in polys)
        g0 = p0 * amp + q0 * gauss
        ln_g0 = mp.log(g0) - (u if y < 0 else 0)
        return ln_g0, (p1 * amp + q1 * gauss) / g0, mp.log(mp.sqrt(2) * abs(y))

    def psi2(y):
        ln_g0, _, ln_y = logs(y)
        return ln_g0 - a * ln_y

    def c3(y):
        ln_g0, ratio, ln_y = logs(y)
        return (
            ratio / mp.sqrt(2)
            + 4 * b * y * ln_g0
            - a * y * (1 + 2 * b + 8 * b * ln_y) / 2
            + (2 * a * b - a * a) * y / (4 * (1 + y * y))
        )

    return psi2, c3


class TestTails:
    """C2/C3 tails in t = 1/y (asymp._in_t)."""

    GRID = [
        Params(b, *GEOMETRIES[b], u, a)
        for b in (0.5, 2.0)
        for u in (-0.7, 500.0)  # u = 500: y_switch = 23.7
        for a in (0, 1, 6)
    ]

    @pytest.mark.parametrize("params", GRID, ids=str)
    def test_finite_wherever_adaptive_reaches(self, params):
        # panels of [-1/y_switch, 1/y_switch] bisect down to 5e-300 wide;
        # a RuntimeWarning fails the test (pyproject's filterwarnings)
        prof = asymp._profile(params)
        t = np.geomspace(1e-305, 1.0 / prof.y_switch, 500)
        t = np.concatenate((-t, t))
        for integrand in (asymp._psi2, asymp._c3_integrand):
            assert np.all(np.isfinite(asymp._in_t(integrand, prof)(t)))

    # u = 2.5 for 500: compute_coeffs cannot certify C3 there (its core
    # stalls), so it returns no error to compare with
    @pytest.mark.parametrize(
        "params", [Params(p.b, p.alpha, p.r, min(p.u, 2.5), p.a) for p in GRID], ids=str
    )
    def test_held_piece_inside_error(self, params):
        # Below t_min the tail integrand is held at h(t_min).  Against the
        # 120-digit integrands, t_min * max |h(t) - h(t_min)| over t in
        # [t_min 2^-40, t_min] bounds what that moves, per side; it must lie
        # inside the returned error (C2's carries the factor sqrt2 b r^b).
        prof = asymp._profile(params)
        t_min = asymp._T_MIN / prof.y_switch
        coeffs = compute_coeffs(params)
        pref = math.sqrt(2.0) * params.b * params.r**params.b
        with mp.workdps(120):
            for f, scale, err, integrand in zip(
                mp_integrands(params),
                (pref, 1.0),
                (coeffs.err2, coeffs.err3),
                (asymp._psi2, asymp._c3_integrand),
            ):
                y = np.array([30.0, -30.0])
                assert integrand(y, prof) == pytest.approx(
                    [float(f(mp.mpf(v))) for v in y], rel=1e-12, abs=1e-15
                )
                moved = 0
                for side in (1, -1):
                    h = lambda t: f(side / mp.mpf(t)) / mp.mpf(t) ** 2
                    held = h(t_min)
                    dev = max(abs(h(t_min * 2.0**-k) - held) for k in range(4, 41, 4))
                    moved += t_min * dev
                assert scale * moved <= min(err, 1e-17)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0, 1, 2, 6])
    @pytest.mark.parametrize("u", [-0.7, 2.5])
    def test_error_estimates_cover_tighter_tol(self, b, a, u):
        p = Params(b, *GEOMETRIES[b], u, a)
        for with_err in (asymp._c2_with_err, asymp._c3_with_err):
            value, err = with_err(p, 1e-9)
            tight, _ = with_err(p, 1e-11)
            assert abs(value - tight) <= err
            assert abs(value - tight) <= 1e-12

    def test_gk15_calls(self, monkeypatch):
        # the octave-by-octave tails with a fitted A/y^p remainder made 262
        # gk15 calls on this grid; the t = 1/y tails make 115
        calls = []
        gk15 = quadrature.gk15

        def counted(f, lo, hi):
            calls.append(np.shape(lo))
            return gk15(f, lo, hi)

        monkeypatch.setattr(quadrature, "gk15", counted)
        for b, (alpha, r) in GEOMETRIES.items():
            for a in (1, 4):
                compute_coeffs(Params(b, alpha, r, 1.0, a))
        assert len(calls) <= 262 // 2


class TestPredictResidual:
    def test_null_residuals(self):
        p = Params(1.0, 0.0, 0.5, 0.0, 0)
        c = compute_coeffs(p)
        for n in (1, 10, 1000):
            assert residual(p, n, c) == 0.0

    def test_predict_formula(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        c = compute_coeffs(p)
        n = 77
        assert predict(p, n, c) == c.C1 * 77 + c.C2 * math.sqrt(77.0) + c.C3

    def test_a0_residual_shrinks(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        c = compute_coeffs(p)
        assert abs(residual(p, 4096, c)) < abs(residual(p, 256, c))

    def test_a1_residual_slope(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 1)
        c = compute_coeffs(p)
        pts = []
        for k in range(8, 14):  # n = 256 .. 8192
            n = 2**k
            pts.append((math.log(n), math.log(abs(residual(p, n, c)))))
        mean_x = sum(x for x, _ in pts) / len(pts)
        mean_y = sum(y for _, y in pts) / len(pts)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in pts) / sum(
            (x - mean_x) ** 2 for x, _ in pts
        )
        assert slope <= -0.3
