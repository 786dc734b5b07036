"""Exact finite-n evaluator tests: oracles, identities, diagnostics."""

import hashlib
import math
import time
import tracemalloc
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from mlcp import exact_mgf, specfun
from mlcp.errors import AccuracyError, DomainError, RangeError
from mlcp.exact_mgf import (
    _CHUNK,
    _gregory,
    _gregory_ranges,
    _log_terms,
    _rows,
    _summands,
    _TermContext,
    default_window_width,
    ln_mgf_exact,
    split_sums,
)
from mlcp.params import Params
from mlcp.specfun import (
    LARGE_A_THRESHOLD,
    lgamma_diff,
    reg_lower_gamma,
    saturation_window,
)

from mp_terms import log_term_mp

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


def _row_sum(params, n):
    """ln E_n as the row sum, every j-term evaluated one by one in the
    kernel's chunks of _CHUNK rows, and the array of the n j-terms in
    ascending j (the summation order)."""
    chunks = list(_rows(_TermContext(params, n), 1, n))
    return math.fsum(chain.from_iterable(chunks)), np.concatenate(chunks)


# ln E_n through each caller of the exact summation routine
ROUTES = (
    lambda params, n: ln_mgf_exact(params, n).ln_mgf,
    lambda params, n: split_sums(params, n, 0.05, 10).total,
)


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

    def test_bool_a_is_refused(self):
        # a bool is an int to Python; True must not run as a = 1
        with pytest.raises(DomainError) as info:
            Params(1.0, 0.0, 0.5, 0.0, True)
        assert info.value.constraint == "a"

    def test_bool_n_is_refused(self):
        with pytest.raises(DomainError) as info:
            ln_mgf_exact(Params(1.0, 0.0, 0.5, 0.7, 1), True)
        assert info.value.constraint == "n"

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


class TestLargeU:
    @pytest.mark.parametrize("u", [709.79, 710.0, 1e4])
    def test_exp_overflow_is_domain_error(self, u):
        # every route through _TermContext: e**u is no double there
        params = Params(1.0, 0.0, 0.5, u, 1)
        calls = (
            lambda: ln_mgf_exact(params, 10),
            lambda: split_sums(params, 500, 0.05, 10),
        )
        for call in calls:
            with pytest.raises(DomainError) as info:
                call()
            assert info.value.constraint == "u"


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
            total, terms = _row_sum(p, n)
            assert len(terms) == n
            assert total == pytest.approx(ln_mgf_exact(p, n).ln_mgf, abs=1e-12)
            ctx = _TermContext(p, n)
            for j in (1, 2, n - 1, n):
                one = _log_terms(ctx, np.array([float(j)]))[0]
                assert terms[j - 1] == one


def _window_case(b, alpha, a, n, u=0.7):
    """Params whose P window straddles a chunk boundary once n > _CHUNK:
    z is 0.98 times the shape of the boundary, the chunk boundary nearest
    n/2 (for n = 4097 the only one), and the window, at least
    2*sqrt(2*40*z) wide, is wider than the gap."""
    edge = b ** (-1.0 / (2.0 * b))
    if n <= _CHUNK:
        return Params(b, alpha, 0.5 * edge, u, a), None
    boundary = _CHUNK * max(1, n // (2 * _CHUNK))
    r = (0.98 * boundary / b / n) ** (1.0 / (2.0 * b))
    return Params(b, alpha, r, u, a), boundary


WINDOW_CASES = [
    (b, alpha, a, n)
    for b in (0.5, 1.0, 2.0, 3.0)
    for alpha in (-0.5, 0.0, 0.5)
    for a in (0, 1, 4)
    for n in (1, 300, 4097)
] + [
    (b, alpha, a, 2**17)
    for b, alpha in ((0.5, -0.5), (1.0, 0.0), (2.0, 0.5), (3.0, 0.0))
    for a in (0, 1, 4)
]

# the window's exponent 40 + log1p(|cu|) from 40.69 (u = -5, a even) to 90
# (u = 50); at a = 4, u = 50, n = 2**17 a row comes out nonpositive.  u = 0
# with a even has cu = 0; a = 6 at n = 4097 cancels hardest.
U_WINDOW_CASES = [
    (b, alpha, a, n, u)
    for b, alpha in ((0.5, -0.5), (1.0, 0.0), (2.0, 0.5), (3.0, 0.0))
    for a in (1, 2)
    for n in (4097, 2**17)
    for u in (-5.0, 2.5, 50.0)
] + [(1.0, 0.0, 4, 2**17, u) for u in (-5.0, 2.5, 50.0)] + [
    (b, 0.0, a, n, u)
    for b in (0.5, 1.0, 2.0, 3.0)
    for a in (2, 6)
    for n in (300, 4097)
    for u in (-0.7, 0.0, 50.0)
]


def _outcome(params, n):
    """The bytes of the j-terms and their row sum, or the AccuracyError's
    message."""
    try:
        total, terms = _row_sum(params, n)
    except AccuracyError as exc:
        return str(exc)
    return terms.tobytes(), total


def _reference_log_terms(ctx, j):
    """The j-terms as the kernel would give them without its skips: P on
    every row and shift k at its shape (2j + k + 2 alpha)/(2b), all five
    Stirling terms in lgamma_diff (with _reference_kernel), and the plain
    double k-sum from k = 0 on."""
    p = ctx.params
    at0 = (j + p.alpha) / p.b
    gs = lgamma_diff(at0, ctx.shifts, ctx.n) if p.a else None
    ps = [
        reg_lower_gamma((2.0 * j + k + 2.0 * p.alpha) / (2.0 * p.b), ctx.z)
        for k in range(p.a + 1)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        total = ctx.coeffs[0] * (1.0 + ctx.cu * ps[0])
        for k in range(1, p.a + 1):
            total = total + ctx.coeffs[k] * np.exp(gs[k - 1]) * (1.0 + ctx.cu * ps[k])
    bad = np.flatnonzero(~np.isfinite(total) | (total <= 0.0))
    if bad.size:
        raise exact_mgf._row_error(int(j[bad[0]]), float(total[bad[0]]))
    return np.log(total)


def _reference_kernel(monkeypatch):
    """From here on ln_mgf_exact runs _reference_log_terms, and
    lgamma_diff every Stirling term."""
    monkeypatch.setattr(exact_mgf, "_log_terms", _reference_log_terms)
    monkeypatch.setattr(specfun, "_STIRLING_REACH", (math.inf,) * 5)


def _counting(monkeypatch, *names):
    """Counts of the elements that the exact kernel passes to each named
    function of exact_mgf, from here on."""
    seen = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(exact_mgf, name)

        def counted(*args, name=name, real=real):
            seen[name] += np.broadcast(*args).size
            return real(*args)

        monkeypatch.setattr(exact_mgf, name, counted)
    return seen


def _lattice_points(params, n):
    """The number of P values the kernel needs on the rows 1..n: per chunk
    of _CHUNK rows, the distinct integers m = 2j + k over its rows j and
    the shifts k = 0..a whose shape (m + 2 alpha)/(2b) lies inside the
    window, from saturation_window at E = 40 below and E = 40 + log1p(|cu|)
    above."""
    z = n * params.r ** (2.0 * params.b)
    cu = (-1.0 if params.a % 2 else 1.0) * math.exp(params.u) - 1.0
    a_lo = saturation_window(z, 40.0)[0]
    a_hi = saturation_window(z, 40.0 + math.log1p(abs(cu)))[1]
    count = 0
    for start in range(1, n + 1, _CHUNK):
        j = np.arange(start, min(start + _CHUNK - 1, n) + 1)
        m = np.unique(2 * j + np.arange(params.a + 1).reshape(-1, 1))
        shapes = (m + 2.0 * params.alpha) / (2.0 * params.b)
        count += int(np.count_nonzero((a_lo <= shapes) & (shapes <= a_hi)))
    return count


def _check_window_case(monkeypatch, b, alpha, a, n, u=0.7):
    params, boundary = _window_case(b, alpha, a, n, u)
    res = _outcome(params, n)
    with monkeypatch.context() as m:
        _reference_kernel(m)
        ref = _outcome(params, n)
    if isinstance(ref, str):  # the same nonpositive row, at the same j
        assert res == ref
    else:
        assert res[0] == ref[0]
        terms = np.frombuffer(ref[0])
        assert res[1] == math.fsum(terms.tolist())  # zero terms left out of fsum
    if boundary is not None:
        a_lo, a_hi = _TermContext(params, n).window
        assert a_lo < (boundary + alpha) / b < a_hi
        if n > 2 * _CHUNK:  # P saturates on both sides of the window
            assert LARGE_A_THRESHOLD < a_lo and a_hi < (n + alpha) / b


class TestLiveWindow:
    @pytest.mark.parametrize("b, alpha, a, n", WINDOW_CASES)
    def test_matches_p_on_every_row(self, monkeypatch, b, alpha, a, n):
        _check_window_case(monkeypatch, b, alpha, a, n)

    @pytest.mark.parametrize("b, alpha, a, n, u", U_WINDOW_CASES)
    def test_matches_p_at_other_u(self, monkeypatch, b, alpha, a, n, u):
        _check_window_case(monkeypatch, b, alpha, a, n, u)

    @pytest.mark.parametrize("u, a", [(0.7, 1), (-5.0, 2)])
    def test_matches_p_on_every_row_at_large_z(self, monkeypatch, u, a):
        # z = 9.8e5: moving a bound 1e-3 inward moves its exponent by about
        # 9, far enough for P to leave 1.0 on the rows it passes
        params, n = Params(0.25, 0.0, 14.0, u, a), 2**18
        a_lo, a_hi = _TermContext(params, n).window
        assert 9e5 < a_lo and a_hi < (n + params.alpha) / params.b
        res = _outcome(params, n)
        _reference_kernel(monkeypatch)
        assert res == _outcome(params, n)

    def test_work_counts_at_2_20(self, monkeypatch):
        # P once per lattice point of a chunk inside the window, whose
        # lower side is E = 40 and upper side E = 40 + log1p(|cu|) wide in
        # the exponent, and lgamma_diff on no row of the zero shift
        params, n = Params(1.0, 0.0, 0.5, 0.7, 4), 2**20
        seen = _counting(monkeypatch, "reg_lower_gamma", "lgamma_diff")
        _row_sum(params, n)
        assert seen["reg_lower_gamma"] == _lattice_points(params, n)
        assert seen["lgamma_diff"] == params.a * n

    @pytest.mark.parametrize("b, alpha, a", [(1.5, 0.3, 3), (0.75, -0.2, 0)])
    def test_work_counts_off_the_dyadic_grid(self, monkeypatch, b, alpha, a):
        # the same count where (j + alpha)/b + k/(2b) is not exact in
        # doubles; at a = 0 only the even points m = 2j
        params, n = Params(b, alpha, 0.5 * b ** (-1.0 / (2.0 * b)), 0.7, a), 2**17
        seen = _counting(monkeypatch, "reg_lower_gamma")
        _row_sum(params, n)
        assert seen["reg_lower_gamma"] == _lattice_points(params, n) > 0

    def test_stirling_terms_at_2_20(self, monkeypatch, stirling_terms):
        # Stirling terms 3-5 only on the chunks whose smallest shape lies
        # below their thresholds X_3..X_5 (about 1.5e4, 622 and 134); the
        # shapes here are j, so chunks 0-3 run term 3 and chunk 0 all five
        per_chunk = []
        real = exact_mgf.lgamma_diff

        def counted(x, delta, n):
            before = len(stirling_terms)
            out = real(x, delta, n)
            per_chunk.append((float(np.min(x)), len(stirling_terms) - before))
            return out

        monkeypatch.setattr(exact_mgf, "lgamma_diff", counted)
        _row_sum(Params(1.0, 0.0, 0.5, 0.7, 4), 2**20)
        assert len(per_chunk) == 2**20 // _CHUNK
        for x_min, terms in per_chunk:
            reach = max(x_min, 20.0)
            assert terms == sum(reach < limit for limit in specfun._STIRLING_REACH)
        runs = [terms for _, terms in per_chunk]
        assert runs[:4] == [5, 3, 3, 3] and set(runs[4:]) == {2}

    def test_no_p_above_the_window_below_1e3(self, monkeypatch):
        # z = 64: only the shapes inside the window, about 4.5 to 151, run
        # scipy, each distinct one once (the half-integers 5..151); those
        # below it get P = 1 and those above it P = 0, though all are below
        # 1e3
        params, n = Params(1.0, 0.0, 0.5, 0.7, 4), 256
        a_lo, a_hi = _TermContext(params, n).window
        assert 0.0 < a_lo and a_hi < 160.0
        seen = _counting(monkeypatch, "reg_lower_gamma")
        res = _outcome(params, n)
        shapes = np.arange(1, n + 1) + np.array([[0.0], [0.5], [1.0], [1.5], [2.0]])
        live = shapes[(a_lo <= shapes) & (shapes <= a_hi)]
        assert seen["reg_lower_gamma"] == np.unique(live).size == 293
        _reference_kernel(monkeypatch)
        assert res == _outcome(params, n)

    @pytest.mark.parametrize("u", [700.0, 708.0])
    def test_small_shapes_above_the_window_at_large_u(self, monkeypatch, u):
        # z = 10.24: the whole window, up to about 307, lies below 1e3, and
        # the shapes above it get P = 0 without scipy; at u = 708 the
        # exponent is 748, past 745, and the window takes it uncapped
        params, n = Params(1.0, 0.0, 0.05, u, 1), 4096
        ctx = _TermContext(params, n)
        exponent = 40.0 + math.log1p(abs(ctx.cu))
        assert ctx.window[1] == saturation_window(ctx.z, exponent)[1]
        assert ctx.window[1] < LARGE_A_THRESHOLD
        seen = _counting(monkeypatch, "reg_lower_gamma")
        res = _outcome(params, n)
        assert 0 < seen["reg_lower_gamma"] < n
        _reference_kernel(monkeypatch)
        assert res == _outcome(params, n)

    def test_lower_side_at_40_at_u_708(self, monkeypatch):
        # P = 1 needs only reg_lower_gamma's exact 1.0, which holds from
        # E = 40 whatever cu is: at z = 32768 the window reaches 1,606 below
        # z, not the 6,757 of E = 40 + log1p(|cu|) = 748
        params, n = Params(1.0, 0.0, 0.5, 708.0, 1), 2**17
        ctx = _TermContext(params, n)
        a_lo, a_hi = ctx.window
        assert a_lo == saturation_window(ctx.z, 40.0)[0]
        assert 1605 < ctx.z - a_lo < 1606 < 6756
        assert ctx.z - saturation_window(ctx.z, 748.0)[0] > 6756
        seen = _counting(monkeypatch, "reg_lower_gamma")
        res = _outcome(params, n)
        assert seen["reg_lower_gamma"] == _lattice_points(params, n)
        _reference_kernel(monkeypatch)
        assert res == _outcome(params, n)

    @pytest.mark.parametrize("b", [1.0, 1.5, 2.0, 3.0])
    def test_one_p_per_distinct_shape(self, monkeypatch, b):
        # one reg_lower_gamma call per chunk, on the lattice points
        # m = 2j + k of the chunk inside the window, each once; each shift
        # gets the values of P on its own shapes, bit for bit.  The shift
        # k = 2 of row j is the shift 0 of row j + 1
        params, _ = _window_case(b, 0.0, 4, 4097)
        ctx = _TermContext(params, 4097)
        j = np.arange(1.0, _CHUNK + 1)
        sizes = []
        real = exact_mgf.reg_lower_gamma

        def counted(a, z):
            sizes.append(a.size)
            return real(a, z)

        monkeypatch.setattr(exact_mgf, "reg_lower_gamma", counted)
        ps = exact_mgf._p_shifts(ctx, j)
        a_lo, a_hi = ctx.window
        shapes = [(2.0 * j + k + 2.0 * params.alpha) / (2.0 * params.b) for k in range(5)]
        live = np.concatenate([a[(a_lo <= a) & (a <= a_hi)] for a in shapes])
        assert sizes == [np.unique(live).size]
        assert 2 * sizes[0] < live.size
        for a, p in zip(shapes, ps):
            expected = np.where(a < a_lo, 1.0, np.where(a > a_hi, 0.0, real(a, ctx.z)))
            assert np.broadcast_to(p, a.shape).tobytes() == expected.tobytes()

    def test_nodes_never_index_the_lattice(self, monkeypatch):
        # Gregory's quadrature nodes lie outside the window, so P is one
        # constant per shift on each batch of them and no node reaches
        # reg_lower_gamma; a batch of nodes inside the window raises, which
        # sends the range back to its rows, bit for bit
        params, n = Params(1.0, 0.0, 0.5, 0.7, 4), 2**17
        in_nodes = []
        real_adaptive, real_p = exact_mgf.adaptive, exact_mgf.reg_lower_gamma

        def adaptive(f, edges, tol):
            def nodes(x):
                in_nodes.append(True)
                try:
                    return f(x)
                finally:
                    in_nodes.pop()

            return real_adaptive(nodes, edges, tol)

        def p(a, z):
            assert not in_nodes
            return real_p(a, z)

        with monkeypatch.context() as m:
            m.setattr(exact_mgf, "adaptive", adaptive)
            m.setattr(exact_mgf, "reg_lower_gamma", p)
            seen, value = TestGregoryRanges._work(m, ROUTES[0], params, n)
        assert seen["nodes"]
        ctx = _TermContext(params, n)
        j_c = params.b * ctx.z - params.alpha
        with pytest.raises(AccuracyError, match="quadrature node inside the P window"):
            _log_terms(ctx, np.array([j_c - 0.25, j_c + 0.5]))
        rows = _row_sum(params, n)[0]
        monkeypatch.setattr(exact_mgf, "_gregory_ranges", lambda ctx, lo, hi: [(200, hi)])
        assert value != rows == ln_mgf_exact(params, n).ln_mgf

    @pytest.mark.parametrize("a, n", [(2, 300), (2, 4097), (4, 2**17)])
    def test_no_p_when_cu_is_zero(self, monkeypatch, a, n):
        # u = 0 with a even: every factor 1 + cu*P is 1, on shapes below
        # 1e3 as well
        params = Params(1.0, 0.0, 0.5, 0.0, a)
        assert _TermContext(params, n).cu == 0.0
        seen = _counting(monkeypatch, "reg_lower_gamma")
        res = _outcome(params, n)
        assert seen["reg_lower_gamma"] == 0
        _reference_kernel(monkeypatch)
        assert res == _outcome(params, n)


def _cancelling_rows(ctx, j):
    """Indices of the rows of j whose inner k-sum is below 1e-3 of its
    largest term, recomputed term by term from lgamma_diff and P."""
    p = ctx.params
    at0 = (j + p.alpha) / p.b
    shifts = [k / (2.0 * p.b) for k in range(p.a + 1)]
    terms = [
        ctx.coeffs[k]
        * np.exp(lgamma_diff(at0, d, ctx.n))
        * (1.0 + ctx.cu * reg_lower_gamma(at0 + d, ctx.z))
        for k, d in enumerate(shifts)
    ]
    total = np.sum(terms, axis=0)
    return np.flatnonzero(total < 1e-3 * np.max(np.abs(terms), axis=0))


class TestOnePrecisionPath:
    def test_a4_rows_positive_at_2_14(self):
        # every inner sum at a = 4, n = 2**14 stays positive in the
        # plain double k-sum, which is the same on every platform
        res = ln_mgf_exact(Params(1.0, 0.0, 0.5, 0.7, 4), 2**14)
        assert math.isfinite(res.ln_mgf)

    def test_cancelling_rows_match_fifty_digits(self):
        # the plain double k-sum on the rows below 1e-3 of their
        # largest term, against the 50-digit j-term; an 80-bit re-sum of
        # the same g_k and P_k measured 3.66e-8 here
        params, n = Params(1.0, 0.0, 0.5, 0.7, 4), 1024
        ctx = _TermContext(params, n)
        rows = _cancelling_rows(ctx, np.arange(1, n + 1, dtype=float))
        assert rows.size == 293
        terms = _row_sum(params, n)[1]
        errs = [abs(terms[i] - log_term_mp(params, n, i + 1)) for i in rows.tolist()]
        assert math.fsum(errs) <= 5e-8


class TestHighPrecisionAgreement:
    def test_escalated_terms_match_mpmath(self):
        # config with strong inner cancellation around j ~ b n r^{2b}
        p = Params(1.0, 0.0, 0.5, 0.3, 3)
        n = 300
        ours = ln_mgf_exact(p, n).ln_mgf
        ref = math.fsum(log_term_mp(p, n, j) for j in range(1, n + 1))
        assert ours == pytest.approx(ref, abs=5e-8)


NONPOSITIVE_CASES = [
    (Params(3.0, 0.0, 0.7, 2.5, 6), 2**14),
    (Params(3.0, 0.0, 0.7, -3.0, 6), 2**14),
    (Params(1.0, 0.0, 0.5, 0.7, 6), 2**17),
    (Params(0.5, 0.5, 1.0, 0.0, 6), 2**17),
]


class TestNonpositiveRow:
    # rows whose double inner sum comes out nonpositive, where the rows
    # around them are already tens of nats off: an AccuracyError, not a value
    @pytest.mark.parametrize("params, n", NONPOSITIVE_CASES)
    def test_exact_raises_naming_j(self, params, n):
        with pytest.raises(AccuracyError, match=r"at j=\d+"):
            ln_mgf_exact(params, n)


class TestGregoryRanges:
    # the rows outside the head, the critical window and the ends of each
    # Gregory range are summed by Gregory's formula, in ln_mgf_exact and in
    # each range of split_sums

    GEOMETRIES = [(1.0, 0.0, 0.5), (2.0, -0.5, 0.6), (0.5, 0.5, 1.0)]

    @staticmethod
    def _work(monkeypatch, route, params, n):
        """Rows (integer j) and quadrature nodes that route(params, n)
        passes to the kernel, and the value it returns."""
        seen = {"rows": 0, "nodes": 0}
        real = exact_mgf._log_terms

        def counted(ctx, j):
            seen["rows" if np.all(j == np.floor(j)) else "nodes"] += j.size
            return real(ctx, j)

        with monkeypatch.context() as m:
            m.setattr(exact_mgf, "_log_terms", counted)
            value = route(params, n)
        return seen, value

    @staticmethod
    def _expected_rows(params, n, spans):
        """The rows summed one by one in the spans: the head j <= 128, the
        window around j_c, and eight rows at each end of each remaining
        range of at least 4096 rows.  At a = 1 the window is the larger of
        |j - j_c| <= 2b 1e-4 j_c and the rows with a shape inside the P
        window (E = 40 below, 40 + log1p(|cu|) above)."""
        z = n * params.r ** (2.0 * params.b)
        j_c = params.b * z - params.alpha
        width = 2.0 * params.b * 1e-4 * j_c
        cu = -math.exp(params.u) - 1.0
        a_lo = saturation_window(z, 40.0)[0]
        a_hi = saturation_window(z, 40.0 + math.log1p(abs(cu)))[1]
        below = min(j_c - width, params.b * a_lo - params.alpha - 0.5)
        above = max(j_c + width, params.b * a_hi - params.alpha)
        rows = 0
        for lo, hi in spans:
            rows += hi - lo + 1
            for A, B in (
                (max(lo, 129), min(hi, math.ceil(below) - 1)),
                (max(lo, 129, math.floor(above) + 1), hi),
            ):
                if B - A + 1 >= 4096:
                    rows -= B - A + 1 - 16
        return rows

    def test_work_grows_like_sqrt_n(self, monkeypatch):
        # b = 1, a = 1: the window is the P window, about 9 sqrt(j_c) to
        # each side; the head, the window, eight rows at each end of each
        # range, and 42 panels of 15 nodes per range.  split_sums' window
        # span j_minus..j_plus reaches past the P window, so its rows there
        # are summed one by one, and at 2**20 it holds two ranges more
        params = Params(1.0, 0.0, 0.5, 0.7, 1)
        for route in ROUTES:
            work = []
            for n in (2**18, 2**20):
                seen, _ = self._work(monkeypatch, route, params, n)
                if route is ROUTES[0]:
                    spans, ranges = [(1, n)], 2
                else:
                    split = split_sums(params, n, 0.05, 10)
                    spans = [
                        (1, 10), (11, split.j_minus - 1), (split.j_minus, split.j_plus),
                        (split.j_plus + 1, n),
                    ]
                    ranges = 2 if n == 2**18 else 4
                assert seen["rows"] == self._expected_rows(params, n, spans)
                assert seen["nodes"] == ranges * 42 * 15  # no panel bisected
                work.append(seen["rows"] + seen["nodes"])
            assert work[1] < 2.1 * work[0]  # x4 in n, about x2 in work
            assert work[1] < 0.05 * 2**20

    def test_peak_memory_independent_of_n(self):
        # nothing of size n: 2**24 doubles alone would take 134 MB, and the
        # n j-terms of split_sums at 2**22 took 67 MB
        params = Params(1.0, 0.0, 0.5, 0.7, 1)
        for route, n in zip(ROUTES, (2**24, 2**22)):
            tracemalloc.start()
            try:
                route(params, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6

    @pytest.mark.parametrize("a", [0, 1, 3, 4])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_matches_the_row_sum_at_2_17(self, monkeypatch, geometry, a):
        params, n = Params(*geometry, 1.0, a), 2**17
        assert _gregory_ranges(_TermContext(params, n), 1, n)
        rows = _row_sum(params, n)[0]
        gate = 1e-12 if a >= 4 else 1e-13
        for route in ROUTES:
            seen, value = self._work(monkeypatch, route, params, n)
            assert seen["nodes"]  # summed by Gregory's formula
            assert abs(value - rows) <= gate * abs(rows)

    def test_matches_the_row_sum_at_2_20(self):
        params, n = Params(0.5, 0.5, 1.0, 2.5, 3), 2**20
        rows = _row_sum(params, n)[0]
        assert abs(ln_mgf_exact(params, n).ln_mgf - rows) <= 1e-13 * abs(rows)

    def test_formula_on_a_smooth_sum(self, monkeypatch):
        # Gregory's formula and the quadrature alone, on f(j) = sqrt(j) + 1e4/j
        monkeypatch.setattr(exact_mgf, "_log_terms", lambda ctx, j: np.sqrt(j) + 1e4 / j)
        monkeypatch.setattr(exact_mgf, "_gregory_ranges", lambda ctx, lo, hi: [(3000, 900_000)])
        n = 10**6
        ctx = _TermContext(Params(1.0, 0.0, 0.5, 0.7, 1), n)
        got = math.fsum(chain.from_iterable(_summands(ctx, 1, n)))
        j = np.arange(1, n + 1, dtype=float)
        assert got == pytest.approx(math.fsum((np.sqrt(j) + 1e4 / j).tolist()), rel=1e-15)

    def test_chunk_feed_is_the_per_float_feed(self):
        # one fsum over the chained lists of _summands is the fsum of the
        # same floats handed over one at a time, in any order
        params, n = Params(1.0, 0.0, 0.5, 0.7, 1), 2**17
        ctx = _TermContext(params, n)
        floats = [x for part in _summands(ctx, 1, n) for x in part]
        total = ln_mgf_exact(params, n).ln_mgf
        assert total == math.fsum(iter(floats)) == math.fsum(reversed(floats))

    def test_head_boundary_at_b_5(self):
        # the lower range starts right after the head, at the shape
        # (129 - 0.95)/5 = 25.6; Gregory's remainder there is about
        # c_8 (a/2b) 7!/(128 + alpha)^8 = 1.8e-16 for a = 3
        params, n = Params(5.0, -0.95, 0.95 * 5.0**-0.1, 0.7, 3), 2**14
        assert _gregory_ranges(_TermContext(params, n), 1, n)[0][0] == exact_mgf._HEAD + 1
        rows = _row_sum(params, n)[0]
        assert abs(ln_mgf_exact(params, n).ln_mgf - rows) <= 1e-13 * abs(rows)

    @pytest.mark.parametrize("a", [3, 4])
    def test_window_edge_range_against_40_digits(self, a):
        # the 300 rows from the window edge up, where P is 0 on every shift,
        # at the default _QUAD_RTOL.  Each term C(a,k) (-r)^(a-k) e^(g_k) of
        # a row is within 2 eps relative of its value (r = 1 is exact) and
        # for g_k within lgamma_diff's 2e-15 absolute, which e^(g_k) turns
        # into relative error; its a additions add a eps sum_k |t_k|.  So
        # row j is within kappa_j ((a + 3) eps + 2e-15) + eps |f_j| of its
        # log, kappa_j = sum_k |t_k| / |sum_k t_k|, and the row sum within
        # the sum of those.  Gregory's sum adds its quadrature tolerance.
        # The rows read 2.8e-12 (a = 3) and 2.5e-11 (a = 4) off 40 digits,
        # Gregory's sum 2.9e-12 and 2.5e-10, against bounds of 2.0e-9 and
        # 2.9e-8
        params, n = Params(0.5, 0.5, 1.0, 2.5, a), 2**17
        ctx = _TermContext(params, n)
        lo = _gregory_ranges(ctx, 1, n)[1][0]
        hi = lo + 299
        assert (lo + params.alpha) / params.b > ctx.window[1]
        gregory = math.fsum(_gregory(ctx, lo, hi))
        rows = list(chain.from_iterable(_rows(ctx, lo, hi)))
        eps = 2.0**-53
        with mp.workdps(40):
            n_mp, b, r = mp.mpf(n), mp.mpf(params.b), mp.mpf(params.r)
            exact, bound = mp.mpf(0), 0.0
            for j in range(lo, hi + 1):
                at0 = (j + mp.mpf(params.alpha)) / b
                terms = [
                    mp.binomial(a, k) * (-r) ** (a - k)
                    * mp.exp(mp.loggamma(at0 + k / (2 * b)) - mp.loggamma(at0)
                             - k / (2 * b) * mp.log(n_mp))
                    for k in range(a + 1)
                ]
                f_j = mp.log(sum(terms))
                kappa = float(sum(map(abs, terms)) / abs(sum(terms)))
                exact += f_j
                bound += kappa * ((a + 3) * eps + 2e-15) + eps * abs(float(f_j))
            tol = exact_mgf._QUAD_RTOL * (hi - lo) * max(1.0, abs(rows[0]), abs(rows[-1]))
            assert abs(math.fsum(rows) - exact) <= bound
            assert abs(gregory - exact) <= bound + tol

    @pytest.mark.parametrize("params, n", NONPOSITIVE_CASES)
    def test_nonpositive_row_as_on_the_row_path(self, params, n):
        # the rows that cancel lie in the critical window, summed one by one;
        # at n = 2**14 no range is long enough for Gregory's formula
        assert bool(_gregory_ranges(_TermContext(params, n), 1, n)) == (n == 2**17)
        with pytest.raises(AccuracyError) as rows:
            _row_sum(params, n)
        for route in ROUTES:
            with pytest.raises(AccuracyError) as hybrid:
                route(params, n)
            assert str(hybrid.value) == str(rows.value)

    def test_overflowing_row_as_on_the_row_path(self):
        # e^708: the k-sum overflows from j = 8877 on, inside the lower
        # Gregory range; the first row the hybrid meets is later
        params, n = Params(0.5, 0.0, 1.4, 708.0, 4), 32771
        assert _gregory_ranges(_TermContext(params, n), 1, n)[0][0] < 8877
        for route in ROUTES:
            with pytest.raises(AccuracyError, match="not finite at j=8877:"):
                route(params, n)

    def test_stalled_quadrature_sums_every_row(self, monkeypatch):
        def stalled(f, edges, tol):
            raise AccuracyError("adaptive quadrature stalled")

        params, n = Params(1.0, 0.0, 0.5, 0.7, 1), 2**17
        rows = _row_sum(params, n)[0]
        monkeypatch.setattr(exact_mgf, "adaptive", stalled)
        assert ln_mgf_exact(params, n).ln_mgf == rows

    def test_stalled_range_stops_after_its_bisections(self, monkeypatch):
        # seeded noise of 1e-9 on the j-terms at the quadrature nodes, far
        # above the range's tolerance of 1e-13 per row, keeps the upper
        # range's quadrature from settling: it gives up after its initial
        # 42 panels and quadrature's 128 bisections (of 2 panels each), and
        # the value is the row sum, which the noise does not reach
        params, n = Params(2.0, -0.5, 0.6, -0.7, 6), 2**14
        assert _gregory_ranges(_TermContext(params, n), 1, n) == [(7908, n)]
        rng = np.random.default_rng(20261020)
        real = exact_mgf._log_terms

        def noisy(ctx, j):
            f = real(ctx, j)
            if np.all(j == np.floor(j)):
                return f
            return f + 1e-9 * rng.standard_normal(f.shape)

        monkeypatch.setattr(exact_mgf, "_log_terms", noisy)
        seen, value = self._work(monkeypatch, ROUTES[0], params, n)
        assert value == _row_sum(params, n)[0]
        assert seen["nodes"] == (42 + 2 * 128) * 15

    @staticmethod
    def _row_batches(monkeypatch):
        """The list that collects every batch of rows (integer j) the kernel
        is handed from now on."""
        batches = []
        real = exact_mgf._log_terms

        def counted(ctx, j):
            if np.all(j == np.floor(j)):
                batches.append(j)
            return real(ctx, j)

        monkeypatch.setattr(exact_mgf, "_log_terms", counted)
        return batches

    def test_stall_sends_only_its_range_to_rows(self, monkeypatch):
        # only the upper range's quadrature stalls: that range is summed
        # from its rows, and the lower range keeps its Gregory sum, with no
        # row inside it evaluated but its eight end rows at each side
        params, n = Params(1.0, 0.0, 0.5, 0.7, 1), 2**17
        ctx = _TermContext(params, n)
        (A, B), (upper, _) = _gregory_ranges(ctx, 1, n)
        assert (A, B, upper) == (129, 31161, 34429)
        terms = _row_sum(params, n)[1]
        expected = math.fsum(terms[:A - 1].tolist() + terms[B:].tolist() + _gregory(ctx, A, B))
        real = exact_mgf.adaptive

        def stalls_above(f, edges, tol):
            if edges[0] >= upper:
                raise AccuracyError("adaptive quadrature stalled")
            return real(f, edges, tol)

        monkeypatch.setattr(exact_mgf, "adaptive", stalls_above)
        batches = self._row_batches(monkeypatch)
        assert ln_mgf_exact(params, n).ln_mgf == expected
        j = np.concatenate(batches)
        assert not np.any((A + 7 < j) & (j < B - 7))

    @pytest.mark.parametrize("params, n", [c for c in NONPOSITIVE_CASES if c[1] == 2**17])
    def test_rows_evaluated_once_before_the_error(self, monkeypatch, params, n):
        # one pass per span: every row the kernel sees before the row sum's
        # error is evaluated once, on each route
        with pytest.raises(AccuracyError) as rows:
            _row_sum(params, n)
        for route in ROUTES:
            with monkeypatch.context() as m:
                batches = self._row_batches(m)
                with pytest.raises(AccuracyError) as hybrid:
                    route(params, n)
            assert str(hybrid.value) == str(rows.value)
            j = np.concatenate(batches)
            assert np.unique(j).size == j.size

    @pytest.mark.parametrize("n", [128, 256, 4096])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_small_n_sums_every_row(self, geometry, n):
        # no range long enough: the value is the row sum, bit for bit
        params = Params(*geometry, 1.0, 3)
        assert _gregory_ranges(_TermContext(params, n), 1, n) == []
        assert ln_mgf_exact(params, n).ln_mgf == _row_sum(params, n)[0]


class TestOverflowingRow:
    # e^u near the double limit: a term of the k-sum overflows, and the
    # row is an AccuracyError naming it, with no RuntimeWarning.  At a = 5
    # and 6 the plain k-sum of the overflowing row is -inf, not NaN
    @pytest.mark.parametrize("params, n, j", [
        pytest.param(Params(0.5, 0.0, 1.8, 708.0, 4), 1, 1, id="1"),
        pytest.param(Params(0.5, 0.0, 1.8, 708.0, 4), 64, 1, id="64"),
        pytest.param(
            Params(0.5, 0.7670786235069932, 1.1926716126509862, 708.0, 5), 1024, 301,
            id="a5-1024",
        ),
        pytest.param(
            Params(0.5, -0.5, 0.8765268329119971, 708.0, 6), 16384, 6238, id="a6-16384"
        ),
    ])
    def test_exact_raises_naming_j(self, params, n, j):
        with pytest.raises(AccuracyError, match=f"not finite at j={j}:"):
            ln_mgf_exact(params, n)


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
        # the total never depends on (eps, m_prime)
        p = Params(1.0, 0.3, 0.55, -0.4, 1)
        n = 400
        t1 = split_sums(p, n, 0.04, 5).total
        t2 = split_sums(p, n, 0.09, 17).total
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

    def test_bool_m_prime_is_refused(self):
        with pytest.raises(DomainError) as info:
            split_sums(Params(1.0, 0.0, 0.6, 0.5, 1), 100, 0.05, True)
        assert info.value.constraint == "m_prime"

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


class TestPinnedBits:
    # The values of the benchmark's configs, as doubles in hex: changes of
    # the kernel that claim to keep every bit must keep these

    @pytest.mark.parametrize("params, n, expected", [
        (Params(1.0, 0.0, 0.5, 0.7, 4), 2**17, "-0x1.a4890373be37ap+19"),
        (Params(2.0, -0.5, 0.6, -0.7, 1), 2**14, "-0x1.3b340896b6bbfp+15"),
        (Params(1.0, 0.0, 0.5, 1.0, 0), 2**18, "0x1.0047eae63022ap+16"),
    ])
    def test_exact_large(self, params, n, expected):
        assert ln_mgf_exact(params, n).ln_mgf.hex() == expected

    def test_a4_at_2_17_against_50_digits(self):
        # the first pinned value against perfbench/refs.json's 50-digit
        # reference, 8.1e-5 off: kappa_j rounding noise (ROADMAP item 1),
        # which moves with the last bits of erfc; with delta ln n
        # subtracted from lgamma_diff's result it reads 1.66e-2 off
        value = ln_mgf_exact(Params(1.0, 0.0, 0.5, 0.7, 4), 2**17).ln_mgf
        assert abs(value - -861256.1077977371) <= 1e-3

    def test_diagnostic_split(self):
        split = split_sums(Params(2.0, -0.5, 0.6, -0.7, 1), 2**14, 0.05, 10)
        assert [s.hex() for s in (split.S0, split.S1, split.S2, split.S3)] == [
            "-0x1.be1ce7a487fd3p+3", "-0x1.8acc79c8be031p+13",
            "-0x1.335627438509ap+11", "-0x1.8a5f4bc3a9442p+14",
        ]

    def test_compare_grid(self):
        # the 84 configs of `mlcp compare` in the benchmark, at n = 128, 256
        grid = product(
            ((1.0, 0.0, 0.5), (2.0, -0.5, 0.6), (0.5, 0.5, 1.0)),
            (-0.7, 0.0, 1.0, 2.5),
            range(7),
        )
        configs = [Params(*geometry, u, a) for geometry, u, a in grid]
        values = [ln_mgf_exact(p, n).ln_mgf.hex() for n in (128, 256) for p in configs]
        digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
        assert digest == "99044ceaa3455accbef13674c05908ae08cf5d7523bc43fdbb1fff7ae25f6d91"


class TestPerformance:
    def test_large_n_budget(self):
        p = Params(1.0, 0.0, 0.5, 0.7, 4)
        t0 = time.perf_counter()
        v = ln_mgf_exact(p, 100000).ln_mgf
        elapsed = time.perf_counter() - t0
        assert math.isfinite(v)
        assert elapsed < 10.0, f"n=1e5, a=4 took {elapsed:.1f}s (budget 10s)"
