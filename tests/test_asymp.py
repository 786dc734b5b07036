"""Profile functions, asymptotic constants, and residual-decay tests."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import erfc as sp_erfc

from mlcp import asymp, combo_poly, quadrature
from mlcp.asymp import (
    compute_coeffs,
    eval_G,
    positivity_scan,
    predict,
)
from mlcp.errors import AccuracyError, DomainError
from mlcp.exact_mgf import ln_mgf_exact
from mlcp.params import Params

SQRT_2PI = math.sqrt(2.0 * math.pi)
# (alpha, r) of the three compare geometries, by b
GEOMETRIES = {0.5: (0.5, 1.0), 1.0: (0.0, 0.5), 2.0: (-0.5, 0.6)}


def integrands(y, params):
    """The (C2, C3) integrands of params at the nonzero nodes y, stacked."""
    return asymp._integrands(np.array(y, dtype=float), asymp._profile(params))


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


def c1_mpmath(params):
    """C1 by mpmath.quad in the mass variable x = b y^{2b}:
    u b r^{2b} + a int_0^1 ln|r - (x/b)^{1/(2b)}| dx, split at the singular
    point x = b r^{2b}."""
    b, r = mp.mpf(params.b), mp.mpf(params.r)
    crit = b * r ** (2 * b)
    f = lambda x: mp.log(abs(r - (x / b) ** (1 / (2 * b))))
    return params.u * crit + params.a * (mp.quad(f, [0, crit]) + mp.quad(f, [crit, 1]))


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
        assert compute_coeffs(p).C1 == pytest.approx(1.0 * 1.0 * 0.25, abs=1e-12)

    def test_null(self):
        assert compute_coeffs(Params(1.0, 0.0, 0.5, 0.0, 0)).C1 == 0.0

    def test_vs_trapezoid_oracle(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 1)
        assert compute_coeffs(p).C1 == pytest.approx(c1_trapezoid_oracle(p), abs=1e-8)

    def test_vs_trapezoid_oracle_general_b(self):
        p = Params(2.0, 0.25, 0.6, -0.4, 3)
        assert compute_coeffs(p).C1 == pytest.approx(c1_trapezoid_oracle(p), abs=1e-8)

    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7, 1.0, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("frac", [0.02, 0.3, 0.7, 0.95, 0.999])
    def test_vs_mpmath(self, b, frac):
        # r from far inside the droplet to 0.999 of its edge
        p = Params(b, 0.0, frac * b ** (-1.0 / (2.0 * b)), 0.5, 2)
        c1, err = asymp._c1_with_err(p, 1e-12)
        with mp.workdps(30):
            ref = c1_mpmath(p)
        assert abs(c1 - ref) <= err
        assert abs(c1 - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("b", sorted(GEOMETRIES))
    @pytest.mark.parametrize("a", [1, 6])
    def test_certified_at_tight_tol(self, b, a):
        p = Params(b, *GEOMETRIES[b], 1.0, a)
        assert asymp._c1_with_err(p, 1e-12)[1] <= 1e-12
        # at 1e-12 compute_coeffs stalls in C3 at b = 2, a = 6
        assert compute_coeffs(p, 1e-11).err1 <= 1e-11

    def test_gk15_calls(self, monkeypatch):
        # on the 84 compare configs at tol 1e-9 the graded log-singular
        # quadrature made 1,068 gk15 calls in all; K takes one per a >= 1
        calls = []
        gk15 = quadrature.gk15

        def counted(f, lo, hi):
            calls.append(np.shape(lo))
            return gk15(f, lo, hi)

        monkeypatch.setattr(quadrature, "gk15", counted)
        for b, (alpha, r) in GEOMETRIES.items():
            for u in (-0.7, 0.0, 1.0, 2.5):
                for a in range(7):
                    before = len(calls)
                    asymp._c1_with_err(Params(b, alpha, r, u, a), 1e-9)
                    assert len(calls) - before <= 2

    def test_gk15_calls_far_inside(self, monkeypatch):
        # K's integrand turns from s at h = 0 to about h^(s-1) beyond h = 1;
        # on 4 uniform panels of [0, gap/r] K took 25 / 5 / 1 gk15 calls at
        # b = 0.1 and 18 / 4 / 1 at b = 0.3 for r/edge = 1e-6 / 0.02 / 0.5
        # (1 at b = 1, 2); panels graded toward h = 0 take at most 8
        calls = []
        gk15 = quadrature.gk15

        def counted(f, lo, hi):
            calls.append(np.shape(lo))
            return gk15(f, lo, hi)

        monkeypatch.setattr(quadrature, "gk15", counted)
        limit = {(0.1, 1e-6): 8}
        for b in (0.1, 0.3, 1.0, 2.0):
            for frac in (1e-6, 0.02, 0.5):
                before = len(calls)
                p = Params(b, 0.0, frac * b ** (-1.0 / (2.0 * b)), 0.3, 2)
                asymp._c1_with_err(p, 1e-12)
                assert len(calls) - before <= limit.get((b, frac), 1)


class TestC2:
    def test_null(self):
        assert compute_coeffs(Params(1.0, 0.0, 0.5, 0.0, 0)).C2 == pytest.approx(0.0, abs=1e-12)

    def test_vs_simpson_oracle_a0(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        assert compute_coeffs(p).C2 == pytest.approx(c2_simpson_oracle_a0(p), abs=1e-8)

    def test_exact_pi_case(self):
        # a=2, u=0, b=1, r=1/2: integrand is ln(1 + 1/(2y^2)), whose
        # integral is pi*sqrt(2), so C2 = sqrt(2)*(1/2)*pi*sqrt(2)/ ... = pi
        p = Params(1.0, 0.0, 0.5, 0.0, 2)
        assert compute_coeffs(p).C2 == pytest.approx(math.pi, abs=1e-9)

    def test_parity_even_a_u0(self):
        p = Params(1.0, 0.0, 0.5, 0.0, 2)
        y = np.array([0.3, 1.7, 9.0, 44.0])
        assert integrands(-y, p)[0] == pytest.approx(integrands(y, p)[0], rel=1e-10)

    def test_integrand_continuity_across_switch(self):
        for a in (0, 1, 3):
            p = Params(1.0, 0.0, 0.5, 0.6, a)
            ys = 8.0  # switch for u=0.6 stays at 8
            lo, hi = integrands([ys - 1e-9, ys + 1e-9], p)[0]
            assert lo == pytest.approx(hi, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_integrand_at_zero(self, a):
        # toward y = 0 from both sides, psi2 + a ln(sqrt2 |y|) + u [y<0]
        # tends to ln g0(0), which is ln((1 + e^u)/2) at a = 0; no warning
        p = Params(1.0, 0.0, 0.5, 0.6, a)
        y = np.array([-1e-12, 1e-12])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi2 = integrands(y, p)[0]
        ln_g0 = psi2 + a * np.log(math.sqrt(2.0) * np.abs(y)) + np.where(y < 0.0, 0.6, 0.0)
        at0 = math.log(eval_G(0.0, p).g0)
        assert ln_g0 == pytest.approx([at0, at0], rel=1e-10)
        if a == 0:
            assert at0 == pytest.approx(math.log((1.0 + math.exp(0.6)) / 2.0), rel=1e-15)

    def test_tail_rate(self):
        # y^2 * integrand -> a(a-1)/4; for a=1 the tail decays faster
        for a in (2, 4):
            p = Params(1.0, 0.0, 0.5, 0.3, a)
            assert 200.0**2 * integrands([200.0], p)[0, 0] == pytest.approx(
                a * (a - 1) / 4.0, rel=1e-3
            )
        p1 = Params(1.0, 0.0, 0.5, 0.3, 1)
        assert abs(200.0**2 * integrands([200.0], p1)[0, 0]) < 1e-12


class TestC3:
    def test_null(self):
        assert compute_coeffs(Params(1.0, 0.0, 0.5, 0.0, 0)).C3 == pytest.approx(0.0, abs=1e-12)

    def test_exact_minus_one_case(self):
        # a=2, u=0, b=1, r=1/2: odd integrand, C3 = closed form = -1
        p = Params(1.0, 0.0, 0.5, 0.0, 2)
        assert compute_coeffs(p).C3 == pytest.approx(-1.0, abs=1e-9)

    def test_alpha_shift(self):
        # C3(alpha+1) - C3(alpha) = -u + a ln((b r^{2b})^{-1/(2b)} - 1)
        pa = Params(1.0, 0.3, 0.5, 0.7, 2)
        pb = Params(1.0, 1.3, 0.5, 0.7, 2)
        shift = compute_coeffs(pb).C3 - compute_coeffs(pa).C3
        expected = -0.7 + 2.0 * math.log((1.0 * 0.25) ** -0.5 - 1.0)
        assert shift == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_integrand_at_zero(self, a):
        # toward y = 0 from both sides the integrand tends to
        # g1(0)/(sqrt2 g0(0)) (4 b y psi2 goes like y ln|y| at a >= 1)
        p = Params(1.0, 0.0, 0.5, 0.6, a)
        g = eval_G(0.0, p)
        at0 = g.g1 / (math.sqrt(2.0) * g.g0)
        assert integrands([-1e-12, 1e-12], p)[1] == pytest.approx([at0, at0], abs=1e-9)

    def test_integrand_continuity_across_switch(self):
        p = Params(1.0, 0.0, 0.5, 0.6, 2)
        lo, hi = integrands([8.0 - 1e-9, 8.0 + 1e-9], p)[1]
        assert lo == pytest.approx(hi, rel=1e-8, abs=1e-13)


class TestCoeffBundle:
    def test_null_bundle(self):
        c = compute_coeffs(Params(2.0, 0.5, 0.4, 0.0, 0))
        assert (c.C1, c.C2, c.C3) == (0.0, 0.0, 0.0)
        assert max(c.err1, c.err2, c.err3) <= 1e-9

    @pytest.mark.parametrize(
        "a, c2, c3",
        # 30-digit mpmath quadrature of mp_integrands: the core |y| <= 8 by
        # tanh-sinh, the tails in t = 1/y by Gauss-Legendre
        [(18, 99.480437220220295558, -153.82953927636964409),
         (24, 154.03959556351546212, -277.08046694673504362)],
    )
    def test_large_a_vs_mpmath(self, a, c2, c3):
        # tail_ratio's w^(a/2) overflows at the smallest core nodes from
        # a = 18; psi2's definition form takes them
        c = compute_coeffs(Params(1.0, 0.0, 0.5, 0.5, a))
        assert max(c.err1, c.err2, c.err3) <= 1e-9
        assert abs(c.C2 - c2) <= 1e-11 and abs(c.C3 - c3) <= 1e-10

    def test_error_estimates_within_tol(self):
        c = compute_coeffs(Params(1.0, 0.0, 0.6, 0.5, 2), tol=1e-9)
        assert c.err1 <= 1e-9 and c.err2 <= 1e-9 and c.err3 <= 1e-9

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.inf, math.nan])
    def test_tol_positive_and_finite(self, tol):
        # an infinite tol would certify any error estimate
        params = Params(1.0, 0.0, 0.6, 0.5, 2)
        with pytest.raises(DomainError) as info:
            compute_coeffs(params, tol)
        assert info.value.constraint == "tol"

    @pytest.mark.parametrize(
        "u, a, error, switch", [(-30.0, 0, "1.210e-01", "8"), (300.0, 1, "1.526e-09", "19.08")]
    )
    def test_stall_names_constant_and_call(self, u, a, error, switch):
        # component 1 of the joint C2/C3 quadrature is C3
        with pytest.raises(AccuracyError) as info:
            compute_coeffs(Params(1.0, 0.0, 0.5, u, a))
        assert str(info.value) == (
            f"adaptive quadrature stalled at error {error} > tol 5.000e-10"
            f" in component 1 (C3) of the core call, |y| <= {switch}"
        )
        assert info.value.component == 1

    def test_tail_stall_names_the_tail(self, monkeypatch):
        adaptive = asymp.adaptive

        def tail_stalls(f, edges, tol):
            if edges[0] == -1.0 / 8.0:  # the tail call, t = 1/y
                raise AccuracyError("adaptive quadrature stalled in component 0", component=0)
            return adaptive(f, edges, tol)

        monkeypatch.setattr(asymp, "adaptive", tail_stalls)
        with pytest.raises(AccuracyError, match=r"0 \(C2\) of the tail call, \|y\| >= 8$"):
            compute_coeffs(Params(1.0, 0.0, 0.5, -0.7, 1))  # y_switch = 8

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
            integrands([1.5], Params(1.0, 0.25, 0.55, 0.5, 2))
            integrands([-2.0], p)
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


class TestSinglePath:
    """psi2 is one formula on the whole line, and every profile evaluation
    shares one erfc per node (asymp._parts); the C2 and C3 integrands are
    one evaluation (asymp._integrands)."""

    YS = [0.5, 2.0, 3.6, 5.0, 7.0, 7.99, 8.01, 9.0, 12.0, 20.0]  # y_switch = 8

    def test_one_erfc_per_evaluation(self, monkeypatch):
        calls = []
        erfc = asymp._erfc

        def counted(x):
            calls.append(np.size(x))
            return erfc(x)

        monkeypatch.setattr(asymp, "_erfc", counted)
        p = Params(1.0, 0.0, 0.5, 0.7, 3)
        prof = asymp._profile(p)
        y = np.array([-20.0, -9.0, -1.0, 0.5, 8.5, 30.0])
        for evaluate in (asymp._integrands, lambda y, _: eval_G(y, p)):
            calls.clear()
            evaluate(y, prof)
            assert calls == [y.size]

    @pytest.mark.parametrize("b", [0.5, 2.0])
    @pytest.mark.parametrize("u", [-0.7, 2.5])
    @pytest.mark.parametrize("a", [1, 2, 6])
    def test_integrands_vs_mpmath(self, b, u, a):
        params = Params(b, *GEOMETRIES[b], u, a)
        prof = asymp._profile(params)
        y = np.array(sorted([-v for v in self.YS] + self.YS))
        with mp.workdps(60):
            for f, values in zip(mp_integrands(params), asymp._integrands(y, prof)):
                ref = np.array([float(f(mp.mpf(v))) for v in y])
                err = np.abs(values - ref)
                assert np.all(err <= 2e-14 + 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("u", [0.6, 40.0, -700.0])
    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_integrands_below_the_nodes_vs_mpmath(self, a, u):
        # far below every node: 1/t^2 and q0/p0 (odd a) overflow a double
        # there, so psi2 is ln g0 - a ln t - u [y<0] itself; subnormal y too
        params = Params(1.0, 0.0, 0.5, u, a)
        tiny = [1e-300, 1e-200, 1e-160, 1e-40, 1e-31, 1e-310, 5e-324]
        y = np.array(sorted([-v for v in tiny] + tiny))
        values = asymp._integrands(y, asymp._profile(params))
        with mp.workdps(60):
            for f, value in zip(mp_integrands(params), values):
                ref = np.array([float(f(mp.mpf(v))) for v in y])
                assert np.all(np.abs(value - ref) <= 2e-14 + 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("u", [0.6, 40.0, -700.0])
    @pytest.mark.parametrize("a", [18, 24])
    def test_integrands_around_the_large_a_switch_vs_mpmath(self, a, u):
        # from a = 10, psi2 takes its definition where t^a < 2^-900, and
        # from a = 18 that is above the smallest nodes: both forms, either
        # side of the switch
        params = Params(1.0, 0.0, 0.5, u, a)
        prof = asymp._profile(params)
        assert prof.t_tiny == 2.0 ** (-900.0 / a)
        near = [0.01, 0.5, 0.999, 1.001, 2.0, 1e3]
        y = prof.t_tiny / math.sqrt(2.0) * np.array([-v for v in near[::-1]] + near)
        values = asymp._integrands(y, prof)
        with mp.workdps(60):
            for f, value in zip(mp_integrands(params), values):
                ref = np.array([float(f(mp.mpf(v))) for v in y])
                assert np.all(np.abs(value - ref) <= 2e-14 + 1e-12 * np.abs(ref))

    def test_erfc_elements_per_node(self, monkeypatch):
        # one profile evaluation per quadrature node for both C2 and C3:
        # the erfc elements of one compute_coeffs are 15 per panel of its
        # two C2/C3 adaptive calls (C1's integrand takes no erfc)
        elements, panels = [], []
        erfc, adaptive, gk15 = asymp._erfc, asymp.adaptive, quadrature.gk15

        def counted_erfc(x):
            elements.append(x.size)
            return erfc(x)

        def counted_adaptive(f, edges, tol):
            panels.append(0)
            return adaptive(f, edges, tol)

        def counted_gk15(f, lo, hi):
            panels[-1] += np.size(lo)
            return gk15(f, lo, hi)

        monkeypatch.setattr(asymp, "_erfc", counted_erfc)
        monkeypatch.setattr(asymp, "adaptive", counted_adaptive)
        monkeypatch.setattr(quadrature, "gk15", counted_gk15)
        for a in (0, 3):
            elements.clear()
            panels.clear()
            compute_coeffs(Params(1.0, 0.0, 0.5, 0.7, a))
            c2_c3 = panels[-2:]  # C1 makes one call at a >= 1, before them
            assert len(panels) == 2 + (a > 0)
            assert sum(elements) == 15 * sum(c2_c3)


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
        assert np.all(np.isfinite(asymp._in_t(prof)(t)))

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
        y = np.array([30.0, -30.0])
        with mp.workdps(120):
            for f, scale, err, values in zip(
                mp_integrands(params),
                (pref, 1.0),
                (coeffs.err2, coeffs.err3),
                asymp._integrands(y, prof),
            ):
                assert values == pytest.approx(
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
        for (value, err), (tight, _) in zip(
            asymp._c2_c3_with_err(p, 1e-9), asymp._c2_c3_with_err(p, 1e-11)
        ):
            assert abs(value - tight) <= err
            assert abs(value - tight) <= 1e-12

    def test_gk15_calls(self, monkeypatch):
        # the octave-by-octave tails with a fitted A/y^p remainder made 262
        # gk15 calls on this grid, the t = 1/y tails 115, and with C1 in
        # closed form 33; integrating C2 and C3 together makes 21 (C1 takes
        # one per config, the joint core and tail calls one each, and there
        # are three bisections)
        calls = []
        gk15 = quadrature.gk15

        def counted(f, lo, hi):
            calls.append(np.shape(lo))
            return gk15(f, lo, hi)

        monkeypatch.setattr(quadrature, "gk15", counted)
        for b, (alpha, r) in GEOMETRIES.items():
            for a in (1, 4):
                compute_coeffs(Params(b, alpha, r, 1.0, a))
        assert len(calls) <= 24


class TestPredictResidual:
    def test_null_residuals(self):
        p = Params(1.0, 0.0, 0.5, 0.0, 0)
        c = compute_coeffs(p)
        for n in (1, 10, 1000):
            assert ln_mgf_exact(p, n).ln_mgf - predict(p, n, c) == 0.0

    def test_predict_formula(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        c = compute_coeffs(p)
        n = 77
        assert predict(p, n, c) == c.C1 * 77 + c.C2 * math.sqrt(77.0) + c.C3

    def test_predict_checks_its_arguments(self):
        # params.check_size: a Params and a positive integer n
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        c = compute_coeffs(p)
        for params, n in ((p, 0), (p, 10.0), (None, 10)):
            with pytest.raises(DomainError):
                predict(params, n, c)

    def test_a0_residual_shrinks(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 0)
        c = compute_coeffs(p)
        res = [ln_mgf_exact(p, n).ln_mgf - predict(p, n, c) for n in (256, 4096)]
        assert abs(res[1]) < abs(res[0])

    def test_a1_residual_slope(self):
        p = Params(1.0, 0.0, 0.5, 1.0, 1)
        c = compute_coeffs(p)
        pts = []
        for k in range(8, 14):  # n = 256 .. 8192
            n = 2**k
            res = ln_mgf_exact(p, n).ln_mgf - predict(p, n, c)
            pts.append((math.log(n), math.log(abs(res))))
        mean_x = sum(x for x, _ in pts) / len(pts)
        mean_y = sum(y for _, y in pts) / len(pts)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in pts) / sum(
            (x - mean_x) ** 2 for x, _ in pts
        )
        assert slope <= -0.3
