"""Panel-quadrature unit tests."""

import math

import numpy as np
import pytest

from mlcp import asymp, identities, quadrature
from mlcp.errors import AccuracyError
from mlcp.params import Params
from mlcp.quadrature import adaptive, gk15, graded_edges


def test_gk15_polynomial_exactness():
    # K15 integrates polynomials of degree <= 22 exactly
    val, err = gk15(lambda x: x**10, -1.0, 1.0)
    assert val == pytest.approx(2.0 / 11.0, rel=1e-15)
    assert err < 1e-14


def test_smooth():
    val, err = adaptive(np.exp, [0.0, 1.0], 1e-13)
    assert val == pytest.approx(math.e - 1.0, rel=1e-14)
    assert abs(val - (math.e - 1.0)) <= max(err, 1e-15)


def test_log_endpoint_singularity():
    edges = graded_edges(1.0)
    val, _ = adaptive(np.log, edges, 1e-12)
    assert val == pytest.approx(-1.0, abs=1e-13)


def test_algebraic_endpoint_singularity():
    edges = graded_edges(1.0)
    val, _ = adaptive(lambda y: y**-0.5, edges, 1e-10)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_oscillatory():
    val, _ = adaptive(lambda y: np.sin(20.0 * y), [0.0, 1.1, 2.2, 3.0], 1e-13)
    assert val == pytest.approx((1.0 - math.cos(60.0)) / 20.0, abs=1e-13)


def test_panel_budget_failure(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_BISECTIONS", 7)
    f = lambda y: np.sin(300.0 * y) / (1e-8 + abs(y - 0.3))
    with pytest.raises(AccuracyError) as info:
        adaptive(f, [0.0, 1.0], 1e-16)
    assert info.value.component is None


def test_deterministic():
    f = lambda y: np.exp(-y) * np.sin(7.0 * y)
    a = adaptive(f, [0.0, 2.0, 5.0], 1e-12)
    b = adaptive(f, [0.0, 2.0, 5.0], 1e-12)
    assert a == b


def test_one_call_per_bisection(monkeypatch):
    # three initial panels in one call, then one call of both halves per
    # bisection, _MAX_BISECTIONS of them (read at call time) before a stall
    def f(y):
        shapes.append(y.shape)
        return np.sin(300.0 * y) / (1e-8 + abs(y - 0.3))

    for bisections in (quadrature._MAX_BISECTIONS, 7):
        monkeypatch.setattr(quadrature, "_MAX_BISECTIONS", bisections)
        shapes = []
        with pytest.raises(AccuracyError):
            adaptive(f, [0.0, 0.3, 0.6, 1.0], 1e-16)
        assert shapes == [(3, 15)] + [(2, 15)] * bisections


def _gk15_loop(f, lo, hi):
    """Node-by-node K15/G7 on one panel with a scalar f: the reference
    for the batched rule (its sums run in another order)."""
    xgk, wgk, wg = quadrature._XGK, quadrature._WGK, quadrature._WG
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = [f(center)] + [f(center + sign * half * x) for x in xgk[:7] for sign in (-1, 1)]
    weights = [wgk[7]] + [w for w in wgk[:7] for _ in (0, 1)]
    gauss = [wg[3]] + [wg[i // 2] if i % 2 else 0.0 for i in range(7) for _ in (0, 1)]
    res_k = sum(w * v for w, v in zip(weights, values))
    res_g = sum(w * v for w, v in zip(gauss, values))
    res_abs = sum(w * abs(v) for w, v in zip(weights, values)) * abs(half)
    res_asc = sum(w * abs(v - 0.5 * res_k) for w, v in zip(weights, values)) * abs(half)
    err = abs((res_k - res_g) * half)
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    if res_abs > 1e-290:
        err = max(err, 50.0 * 2.220446049250313e-16 * res_abs)
    return res_k * half, err


def test_batch_matches_node_loop():
    lo = np.array([0.0, 0.5, 2.0, -3.0])
    hi = np.array([0.5, 2.0, 3.0, 3.0])
    f = lambda y: np.sin(20.0 * y) / (1.5 + y)
    vals, errs = gk15(f, lo, hi)
    for i in range(lo.size):
        val, err = _gk15_loop(lambda y: math.sin(20.0 * y) / (1.5 + y), lo[i], hi[i])
        assert vals[i] == pytest.approx(val, rel=1e-14, abs=1e-15)
        assert errs[i] == pytest.approx(err, rel=1e-10, abs=0.0)


def _log_kink(y):
    return np.log(np.abs(y - 0.3)) * np.cos(3.0 * y)


def test_components_each_to_own_tol():
    # a smooth and a log-singular component on shared panels, with tols
    # 1e-5 apart: each estimate meets its own tol, and each value lies
    # within it of the component integrated alone
    f = lambda y: np.stack((np.exp(y), _log_kink(y)))
    tols = [1e-13, 1e-8]
    vals, errs = adaptive(f, [0.0, 0.5, 1.0], tols)
    assert vals.shape == errs.shape == (2,)
    for c, (g, tol) in enumerate(zip((np.exp, _log_kink), tols)):
        alone, _ = adaptive(g, [0.0, 0.5, 1.0], tol)
        assert errs[c] <= tol
        assert abs(vals[c] - alone) <= tol
    assert vals[0] == pytest.approx(math.e - 1.0, rel=1e-14)


def test_one_component_is_the_scalar_call():
    # the same bits, errors and number of f calls with or without a
    # component axis, pinned to the scalar route before components existed
    runs = []
    for wrap, tol in ((lambda v: v, 1e-11), (lambda v: v[None], [1e-11])):
        calls = []

        def f(y, wrap=wrap, calls=calls):
            calls.append(y.shape)
            return wrap(_log_kink(y))

        val, err = adaptive(f, [0.0, 0.5, 1.0], tol)
        runs.append((float(np.squeeze(val)).hex(), float(np.squeeze(err)).hex(), len(calls)))
    assert runs[0] == runs[1] == ("-0x1.236b859c474c0p-1", "0x1.2f530e3027802p-37", 51)


def test_stall_names_component(monkeypatch):
    # component 0 is easy; component 1 cannot reach its tol in 7 bisections
    monkeypatch.setattr(quadrature, "_MAX_BISECTIONS", 7)
    f = lambda y: np.stack((np.exp(y), np.sin(300.0 * y) / (1e-8 + abs(y - 0.3))))
    with pytest.raises(AccuracyError, match=r"> tol 1\.000e-16 in component 1$") as info:
        adaptive(f, [0.0, 1.0], [1e-6, 1e-16])
    assert info.value.component == 1


def test_converging_calls_keep_half_the_budget(monkeypatch):
    # every adaptive call of the 84 compare configs and the identity report
    # that converges does so within half of _MAX_BISECTIONS: the bound
    # stops only stalls
    bisections = []

    def counted(real):
        def adaptive(f, edges, tol):
            calls = []

            def g(y):
                calls.append(None)
                return f(y)

            result = real(g, edges, tol)
            bisections.append(len(calls) - 1)
            return result

        return adaptive

    for module in (asymp, identities):
        monkeypatch.setattr(module, "adaptive", counted(module.adaptive))
    for b, alpha, r in ((1.0, 0.0, 0.5), (2.0, -0.5, 0.6), (0.5, 0.5, 1.0)):
        for u in (-0.7, 0.0, 1.0, 2.5):
            for a in range(7):
                asymp.compute_coeffs(Params(b, alpha, r, u, a))
    assert all(check.passed for check in identities.run_all())
    assert len(bisections) > 84
    assert max(bisections) <= quadrature._MAX_BISECTIONS // 2
