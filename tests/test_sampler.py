"""Monte Carlo sampler: distributional laws, agreement, reproducibility."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mlcp import sampler
from mlcp.errors import DomainError
from mlcp.exact_mgf import ln_mgf_exact
from mlcp.params import Params
from mlcp.sampler import mc_ln_mgf, mc_ln_mgf_sizes, sample_moduli

GINIBRE = Params(1.0, 0.0, 0.5, 0.0, 0)


class TestModuliLaw:
    def test_second_moment_matches_gamma_mean(self):
        # (b,alpha)=(1,0): E[R_j^2] = j/n
        n, reps = 20, 20000
        acc = np.zeros(n)
        acc2 = np.zeros(n)
        for rep in range(reps):
            r2 = sample_moduli(GINIBRE, n, seed=9000 + rep) ** 2
            acc += r2
            acc2 += r2 * r2
        mean = acc / reps
        se = np.sqrt((acc2 / reps - mean**2) / reps)
        target = np.arange(1, n + 1) / n
        for j in (0, n // 2 - 1, n - 1):
            assert abs(mean[j] - target[j]) <= 5.0 * se[j]

    def test_bulk_mass_fraction(self):
        # fraction of radii below r approaches b r^{2b}; compare against
        # the exact finite-n mean (sum of gamma CDFs) at 5 sigma
        from mlcp.specfun import reg_lower_gamma

        n, reps = 1000, 200
        z = n * GINIBRE.r ** 2
        exact_mean = math.fsum(
            reg_lower_gamma(float(j), z) for j in range(1, n + 1)
        ) / n
        fracs = np.empty(reps)
        for rep in range(reps):
            radii = sample_moduli(GINIBRE, n, seed=5000 + rep)
            fracs[rep] = np.mean(radii < GINIBRE.r)
        se = float(np.std(fracs, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(fracs)) - exact_mean) <= 5.0 * se
        # and the macroscopic limit itself is within a few widths of r^2
        assert abs(exact_mean - GINIBRE.bulk_mass) < 0.02

    def test_max_radius_concentrates_at_edge(self):
        n, reps = 10000, 100
        edge = GINIBRE.edge_radius
        hits = 0
        for rep in range(reps):
            rmax = float(np.max(sample_moduli(GINIBRE, n, seed=777 + rep)))
            if edge - 0.1 <= rmax <= edge + 0.1:
                hits += 1
        assert hits >= 99


class TestGenerator:
    """The substream contract: SFC64 bit generators whose standard_gamma
    follows Gamma(s), one uncorrelated stream per spawn key.  The gamma CDF
    is scipy.special.gammainc, which scipy.stats.gamma(s).cdf evaluates, and
    the KS p-value is the limiting Kolmogorov law; importing scipy.stats
    alone would take longer than these tests."""

    N = 20000

    def test_bit_generator_is_sfc64(self):
        for j in (None, 1, 7):
            assert isinstance(sampler._generator(3, j).bit_generator, np.random.SFC64)

    @pytest.mark.parametrize("shape", [0.1, 1.0, 7.5, 100.0, 1e4])
    def test_gamma_law(self, shape):
        from scipy.special import gammainc, kolmogorov

        g = np.sort(sampler._generator(41, 3).standard_gamma(shape, self.N))
        cdf = gammainc(shape, g)
        k = np.arange(1, self.N + 1) / self.N
        d = max(float(np.max(k - cdf)), float(np.max(cdf - (k - 1.0 / self.N))))
        assert kolmogorov(math.sqrt(self.N) * d) > 1e-3

    def test_spawn_keys_uncorrelated(self):
        x = sampler._generator(41, 1).standard_gamma(1.0, self.N)
        y = sampler._generator(41, 2).standard_gamma(1.0, self.N)
        rho = float(np.corrcoef(x, y)[0, 1])
        assert abs(rho) < 5.0 / math.sqrt(self.N)


class TestMcLnMgf:
    def test_null_weight(self):
        res = mc_ln_mgf(GINIBRE, 10, 1000, seed=3)
        assert res.estimate_E == 1.0
        assert res.stderr_E == 0.0
        assert res.ln_estimate == 0.0
        assert res.ln_stderr == 0.0

    def test_result_invariants(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 2)
        res = mc_ln_mgf(p, 15, 20000, seed=11)
        assert res.ln_estimate == pytest.approx(math.log(res.estimate_E), rel=1e-12)
        assert res.ln_stderr == pytest.approx(res.stderr_E / res.estimate_E, rel=1e-9)
        assert res.samples == 20000 and res.seed == 11

    def test_agreement_with_exact(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 1)
        res = mc_ln_mgf(p, 20, 100000, seed=2024)
        exact = ln_mgf_exact(p, 20).ln_mgf
        assert abs(res.ln_estimate - exact) <= 4.0 * res.ln_stderr

    def test_root_n_scaling(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 0)
        lo = mc_ln_mgf(p, 15, 40000, seed=5)
        hi = mc_ln_mgf(p, 15, 160000, seed=6)
        ratio = hi.ln_stderr / lo.ln_stderr
        assert 0.5 * 0.8 <= ratio <= 0.5 * 1.2

    def test_bit_reproducible(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 2)
        a = mc_ln_mgf(p, 12, 5000, seed=98765)
        b = mc_ln_mgf(p, 12, 5000, seed=98765)
        assert a == b

    def test_seed_changes_stream(self):
        p = Params(1.0, 0.0, 0.6, 0.5, 2)
        a = mc_ln_mgf(p, 12, 5000, seed=1)
        b = mc_ln_mgf(p, 12, 5000, seed=2)
        assert a.ln_estimate != b.ln_estimate

    def test_weights_positive(self):
        p = Params(1.0, 0.0, 0.6, -3.0, 3)
        res = mc_ln_mgf(p, 25, 2000, seed=17)
        assert math.isfinite(res.ln_estimate)

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            mc_ln_mgf(GINIBRE, 10, 99, seed=1)


class TestShapeBelowOne:
    def test_alpha_near_minus_one(self):
        # j=1 with (1+alpha)/b < 1 exercises the sub-unit gamma shape
        p = Params(1.0, -0.9, 0.5, 0.0, 0)
        radii = sample_moduli(p, 5, seed=4)
        assert radii.shape == (5,)
        assert np.all(radii > 0)
        res = mc_ln_mgf(Params(1.0, -0.9, 0.5, 0.4, 0), 5, 50000, seed=21)
        exact = ln_mgf_exact(Params(1.0, -0.9, 0.5, 0.4, 0), 5).ln_mgf
        assert abs(res.ln_estimate - exact) <= 4.0 * res.ln_stderr


def serial_log_weights(params, n, samples, seed):
    """The one-stream-at-a-time loop over j whose log weights mc_ln_mgf
    must reproduce."""
    a, r, u = params.a, params.r, params.u
    root = 1.0 / (2.0 * params.b)
    shapes = (np.arange(1, n + 1, dtype=np.float64) + params.alpha) / params.b
    log_w = np.zeros(samples, dtype=np.float64)
    for j in range(1, n + 1):
        rng = sampler._generator(seed, j)
        radii = (rng.standard_gamma(shapes[j - 1], size=samples) / n) ** root
        if a:
            with np.errstate(divide="ignore"):
                log_w += a * np.log(np.abs(radii - r))
        if u:
            log_w += u * (radii < r)
    return log_w


def serial_reference(params, n, samples, seed):
    """The serial loop's log weights, folded round by round of 8192 into
    (largest log weight, sum w, sum w^2, sum of squared deviations) and the
    rounds combined in order: the MCResult fields mc_ln_mgf must give."""
    log_w = serial_log_weights(params, n, samples, seed)
    width = min(8192, samples)
    rounds = []
    for s0 in range(0, samples, width):
        lw = log_w[s0 : s0 + width]
        m = float(np.max(lw))
        if m == -math.inf:
            rounds.append((m, 0.0, 0.0, 0.0, lw.size))
            continue
        w = np.exp(lw - m)
        s1 = float(np.sum(w))
        m2 = float(np.sum((w - s1 / w.size) ** 2))
        rounds.append((m, s1, float(np.dot(w, w)), m2, lw.size))
    shift = max(m for m, *_ in rounds)
    scaled = [(math.exp(m - shift), s1, s2, m2, k) for m, s1, s2, m2, k in rounds]
    total = math.fsum(c * s1 for c, s1, _, _, _ in scaled)
    mean = total / samples
    sq = math.fsum(c * c * s2 for c, _, s2, _, _ in scaled)
    dev = math.fsum(
        c * c * m2 + k * (c * s1 / k - mean) ** 2 for c, s1, _, m2, k in scaled
    )
    std = math.sqrt(dev / (samples - 1)) / math.sqrt(samples)
    ln_estimate = shift + math.log(mean)
    return (math.exp(ln_estimate), math.exp(shift) * std, ln_estimate,
            std / mean, samples, seed, total * total / sq)


class TestThreadedRounds:
    @pytest.mark.parametrize("cores", [None, 1, 3])
    @pytest.mark.parametrize(
        "params, n, samples",
        [
            # more than one round of 8192 samples, the last one partial
            (Params(1.0, 0.0, 0.5, 1.0, 1), 10, 20001),
            (Params(1.0, 0.0, 0.5, 0.7, 0), 12, 5000),
            (Params(1.0, 0.0, 0.6, 0.0, 2), 12, 5000),
            # shape (1 + alpha) / b < 1 at j = 1
            (Params(1.0, -0.9, 0.5, 0.4, 1), 5, 3000),
            # fewer indices than workers
            (Params(2.0, -0.5, 0.6, -0.7, 2), 1, 3000),
            (Params(2.0, -0.5, 0.6, -0.7, 2), 2, 3000),
            (Params(0.5, 0.5, 1.0, 0.3, 1), 300, 7000),
            # a = 1 skips the multiply by a; u < 0 adds u only inside r
            (Params(1.0, 0.0, 0.5, -0.8, 1), 10, 9000),
            (Params(1.0, 0.0, 0.5, -1.2, 0), 12, 5000),
            # a = 3 keeps the multiply
            (Params(1.0, 0.0, 0.6, 0.0, 3), 12, 5000),
            # 17 rounds, the last one of 3 samples
            (Params(1.0, 0.0, 0.5, 1.0, 1), 4, 2**17 + 3),
        ],
    )
    def test_bit_identical_to_serial_loop(self, monkeypatch, cores, params, n, samples):
        if cores is not None:
            monkeypatch.setattr(sampler, "_usable_cores", lambda: cores)
        res = mc_ln_mgf(params, n, samples, seed=31)
        assert dataclasses.astuple(res) == serial_reference(params, n, samples, 31)

    def test_many_workers_fast_switching(self, monkeypatch):
        # more workers than cores, switching threads every microsecond: a
        # worker touching another's rows or streams would change the result
        monkeypatch.setattr(sampler, "_usable_cores", lambda: 8)
        params = Params(1.0, 0.0, 0.5, 1.0, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = mc_ln_mgf(params, 16, 20001, seed=5)
        finally:
            sys.setswitchinterval(interval)
        assert dataclasses.astuple(res) == serial_reference(params, 16, 20001, 5)

    @pytest.mark.parametrize("broken_j", [2, 8])
    def test_failing_stage_raises_without_hanging(self, monkeypatch, broken_j):
        class Broken:
            def standard_gamma(self, *args, **kwargs):
                raise FloatingPointError("injected")

        real = sampler._generator
        monkeypatch.setattr(
            sampler, "_generator",
            lambda seed, j=None: Broken() if j == broken_j else real(seed, j),
        )
        monkeypatch.setattr(sampler, "_usable_cores", lambda: 4)
        params = Params(1.0, 0.0, 0.5, 1.0, 1)
        # the second call has more rounds (20) than the pool has buffers (8),
        # so the first stage waits on the pool once a later stage has failed
        calls = [
            lambda: mc_ln_mgf(params, 8, 20001, seed=1),
            lambda: mc_ln_mgf_sizes(params, [3, 8], 20 * 8192, seed=1),
        ]
        for call in calls:
            raised = []

            def run():
                try:
                    call()
                except FloatingPointError as exc:
                    raised.append(exc)

            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert len(raised) == 1

    @pytest.mark.parametrize("hits", [range(8192, 16384), range(3 * 8192)])
    def test_vanished_rounds(self, monkeypatch, hits):
        # index 1 lands exactly on r (G = 1: (1/4)^(1/2) = 0.5) at the
        # samples of ``hits``: a round whose weights all vanish folds to
        # nothing, and a call whose weights all vanish is refused
        class Hits:
            def __init__(self, rng):
                self.rng, self.pos = rng, 0

            def standard_gamma(self, shape, size=None, out=None):
                g = self.rng.standard_gamma(shape, size=size, out=out)
                g[max(hits.start - self.pos, 0) : max(hits.stop - self.pos, 0)] = 1.0
                self.pos += g.size
                return g

        real = sampler._generator
        monkeypatch.setattr(
            sampler, "_generator",
            lambda seed, j=None: Hits(real(seed, j)) if j == 1 else real(seed, j),
        )
        params = Params(1.0, 0.0, 0.5, 1.0, 1)
        if len(hits) < 3 * 8192:
            res = mc_ln_mgf(params, 4, 3 * 8192, seed=2)
            assert dataclasses.astuple(res) == serial_reference(params, 4, 3 * 8192, 2)
        else:
            with pytest.raises(DomainError, match="vanished"):
                mc_ln_mgf(params, 4, 3 * 8192, seed=2)

    def test_null_weight_draws_nothing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("null weight constructed a generator")

        monkeypatch.setattr(sampler, "_generator", no_draws)
        res = mc_ln_mgf(GINIBRE, 10, 1000, seed=3)
        assert res == sampler.MCResult(1.0, 0.0, 0.0, 0.0, 1000, 3, 1000.0)


class TestStageGenerators:
    def test_stages_build_their_generators(self, monkeypatch):
        # every index's generator is built once, by a worker thread
        built_by = []
        real = sampler._generator

        def recorded(seed, j=None):
            built_by.append((j, threading.current_thread()))
            return real(seed, j)

        monkeypatch.setattr(sampler, "_generator", recorded)
        monkeypatch.setattr(sampler, "_usable_cores", lambda: 3)
        mc_ln_mgf(Params(1.0, 0.0, 0.5, 1.0, 1), 10, 1000, seed=2)
        assert sorted(j for j, _ in built_by) == list(range(1, 11))
        assert threading.main_thread() not in {t for _, t in built_by}
        # a list of sizes builds each index's generator once, not once a size
        built_by.clear()
        mc_ln_mgf_sizes(Params(1.0, 0.0, 0.5, 1.0, 1), [3, 10, 6], 1000, seed=2)
        assert sorted(j for j, _ in built_by) == list(range(1, 11))
        assert threading.main_thread() not in {t for _, t in built_by}


class TestMemory:
    def test_memory_independent_of_samples(self, monkeypatch):
        # the rounds' buffers are reused and each round leaves 32 bytes per
        # size of statistics: 16 times the samples, 8 MiB more log weights
        # if they were kept, must cost almost nothing more
        monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)

        def peak(samples):
            tracemalloc.start()
            try:
                mc_ln_mgf_sizes(Params(1.0, 0.0, 0.5, 1.0, 1), [2, 4], samples, seed=8)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # one-time set-up on a first call is not per call
        assert peak(2**20) <= 1.1 * peak(2**16)


class TestSizes:
    @pytest.mark.parametrize("cores", [None, 1, 3])
    @pytest.mark.parametrize(
        "params, samples",
        [
            (Params(1.0, 0.0, 0.5, 1.0, 1), 20001),
            (Params(1.0, 0.0, 0.5, -0.8, 0), 3000),
            (Params(2.0, -0.5, 0.6, 0.7, 2), 9000),
        ],
    )
    def test_rows_are_their_one_size_calls(self, monkeypatch, cores, params, samples):
        if cores is not None:
            monkeypatch.setattr(sampler, "_usable_cores", lambda: cores)
        sizes = (1, 4, 10, 31)
        rows = mc_ln_mgf_sizes(params, sizes, samples, seed=13)
        assert rows == [mc_ln_mgf(params, n, samples, seed=13) for n in sizes]
        # order and repeats follow the list
        assert mc_ln_mgf_sizes(params, [10, 1, 10], samples, seed=13) == [
            rows[2], rows[0], rows[2]
        ]

    def test_statistics_against_numpy(self):
        # the per-round partials against np.mean, np.std(ddof=1) and Kish's
        # (sum w)^2 / sum w^2 over all the same weights at once
        params, n, samples = Params(1.0, 0.0, 0.5, 1.0, 1), 4, 2**17 + 3
        log_w = serial_log_weights(params, n, samples, 31)
        shift = float(np.max(log_w))
        w = np.exp(log_w - shift)
        mean = float(np.mean(w))
        std = float(np.std(w, ddof=1)) / math.sqrt(samples)
        res = mc_ln_mgf(params, n, samples, seed=31)
        mc_mean = math.exp(res.ln_estimate - shift)
        assert mc_mean == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert res.ln_stderr * mc_mean == pytest.approx(std, rel=1e-14, abs=0.0)
        kish = (mean * samples) ** 2 / float(np.dot(w, w))
        assert res.ess == pytest.approx(kish, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("ns", [[4, 0, 10], (10, 2.5), [-1], [], 10, "4", [10, True]])
    def test_bad_size_raises_before_drawing(self, monkeypatch, ns):
        def no_draws(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(sampler, "_generator", no_draws)
        with pytest.raises(DomainError) as info:
            mc_ln_mgf_sizes(Params(1.0, 0.0, 0.5, 1.0, 1), ns, 1000, seed=3)
        assert info.value.constraint == "n"


class TestEffectiveSampleSize:
    # the null weight's ess == samples is pinned by test_null_weight_draws_nothing
    def test_ess_within_bounds(self):
        res = mc_ln_mgf(Params(1.0, 0.0, 0.6, 0.5, 2), 15, 20000, seed=11)
        assert 1.0 <= res.ess < 20000


class TestOverflowAndSeeds:
    def test_overflowing_estimate_is_inf(self):
        # ln E is about 1906 here, past the largest double's log (709.8)
        res = mc_ln_mgf(Params(0.5, 0.5, 1.0, 2.5, 0), 1500, 3000, seed=3)
        assert res.estimate_E == math.inf
        assert res.stderr_E == math.inf
        assert 709.8 < res.ln_estimate < 3000.0
        assert math.isfinite(res.ln_stderr)

    def test_scaled_exp_overflows_only_with_the_product(self):
        # e^710 overflows a double, e^710 * 1e-5 does not
        assert sampler._exp_times(710.0, 1e-5) == pytest.approx(math.exp(710.0 + math.log(1e-5)))
        assert sampler._exp_times(710.0, 0.0) == 0.0
        assert sampler._exp_times(2000.0, 1.0) == math.inf

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError) as info:
            mc_ln_mgf(Params(1.0, 0.0, 0.5, 1.0, 1), 10, 1000, seed=seed)
        assert info.value.constraint == "seed"
        with pytest.raises(DomainError):
            mc_ln_mgf(GINIBRE, 10, 1000, seed=seed)
        with pytest.raises(DomainError):
            sample_moduli(GINIBRE, 10, seed=seed)


def _ginibre_ln_mgf(moduli, r, u, a):
    """ln of the sample mean of e^{u #(R_j < r)} prod_j |R_j - r|^a over
    the rows of moduli, with its delta-method standard error: the
    log-mean-exp estimator of ln E_n, shifted by the largest log weight so
    that no weight overflows."""
    log_w = u * np.count_nonzero(moduli < r, axis=1)
    if a:
        log_w = log_w + a * np.log(np.abs(moduli - r)).sum(axis=1)
    w = np.exp(log_w - log_w.max())
    mean = w.mean()
    return log_w.max() + math.log(mean), w.std(ddof=1) / (math.sqrt(w.size) * mean)


class TestGinibreEigenvalues:
    # At b = 1, alpha = 0 the weight e^{-n|z|^2} is the Ginibre ensemble:
    # the eigenvalue moduli of n x n matrices with entries N_C(0, 1/n) give
    # an estimate of E_n that shares no code and no formula with either
    # route, and so checks the radial representation n R_j^2 ~ Gamma(j)
    # and the weight's conventions (the scale in n, the sign of u, the side
    # of r that gets e^u) on which both rest
    SAMPLES = 20_000

    @pytest.mark.parametrize("n", [4, 8])
    def test_against_the_exact_product(self, n):
        rng = np.random.default_rng(20261020 + n)
        shape = (self.SAMPLES, n, n)
        scale = math.sqrt(0.5 / n)  # real and imaginary parts, variance 1/n in all
        m = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        moduli = np.abs(np.linalg.eigvals(m))
        for a in (0, 1, 2):
            for u in (-0.7, 1.0):
                params = Params(1.0, 0.0, 0.5, u, a)
                est, se = _ginibre_ln_mgf(moduli, params.r, u, a)
                z = (est - ln_mgf_exact(params, n).ln_mgf) / se
                assert abs(z) <= 4.0, (n, a, u, est, se, z)
