"""Monte Carlo cross-validation via the independent-radii representation.

For a rotation-invariant weight the joint law of the moduli factorizes:
the j-th modulus satisfies n R_j^{2b} ~ Gamma((j+alpha)/b, 1) independently
across j = 1..n.  Sampling those gamma variates gives unbiased estimates of

    E_n = E[ e^{u #(R_j < r)} * prod_j |R_j - r|^a ],

accumulated in log space with a max shift so no weight overflows.

Streams are SFC64 substreams, one per modulus index j, all from the same
SeedSequence spawn keys (entropy seed, spawn key (j,)), so the estimate is
a pure function of (seed, samples, params, n).  Versions that drew Philox
substreams give other values for the same seed.  The draws run on every
usable core as a pipeline: each worker thread builds and owns the streams
of one contiguous group of indices j and walks the samples in rounds of
8192.  It adds its terms into a round's log weights once the group before
it has added theirs, while that group goes on to the next round.  Every
sample thus receives the same additions in the same order as in a serial
loop over j, and a stream drawn in pieces yields the same variates as one
draw, so the result is bit-identical for any core count.
"""

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import check_size

# Samples per round: long enough that each draw call outweighs its Python
# overhead, short enough that a stage's row stays in cache.
_ROUND_SAMPLES = 8192


@dataclass(frozen=True)
class MCResult:
    """A Monte Carlo estimate of E_n.

    ``estimate_E`` and ``stderr_E`` are ``math.inf`` where they overflow a
    double; the ln fields still carry the value.  ``ess`` is the Kish
    effective sample size (sum w)^2 / sum w^2 of the sample weights.
    """

    estimate_E: float
    stderr_E: float
    ln_estimate: float
    ln_stderr: float
    samples: int
    seed: int
    ess: float


def _generator(seed, j=None):
    """The SFC64 substream of index j (spawn key (j,)), or the unsplit
    seed stream for j = None, from SeedSequence(entropy=seed)."""
    key = (j,) if j is not None else ()
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))


def _shapes(params, n):
    j = np.arange(1, n + 1, dtype=np.float64)
    return (j + params.alpha) / params.b


def _check_args(params, n, seed):
    check_size(params, n)
    if not (isinstance(seed, int) and seed >= 0):
        raise DomainError("seed must be a nonnegative integer", constraint="seed")


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _exp_times(x, c):
    """e^x * c for c >= 0, or inf where that overflows a double."""
    try:
        return math.exp(x) * c
    except OverflowError:
        if c == 0.0:
            return 0.0
        try:
            return math.exp(x + math.log(c))
        except OverflowError:
            return math.inf


def sample_moduli(params, n, seed):
    """One joint draw of the n moduli, ascending index j.

    R_j = (G_j / n)^{1/(2b)} with G_j ~ Gamma((j+alpha)/b).  numpy's
    standard_gamma supplies the variates (squeeze/accept for shape >= 1,
    with the U^{1/s} boost below shape 1), which covers every alpha > -1.
    The draw comes from the unsplit SFC64 seed stream (same SeedSequence,
    no spawn key), not from the per-j SFC64 substreams of ``mc_ln_mgf``,
    so its moduli are unrelated to any sample of ``mc_ln_mgf`` with the
    same seed.
    """
    _check_args(params, n, seed)
    rng = _generator(seed)
    g = rng.standard_gamma(_shapes(params, n))
    return (g / n) ** (1.0 / (2.0 * params.b))


def _stage(seed, shapes, lo, hi, params, n, log_w, ready, done):
    """Add the terms of indices lo..hi-1 into log_w, one round at a time.

    A round starts once ``ready`` yields True: the stage before has added
    its terms into that round's samples.  The stage then signals ``done``.
    ``None`` stands for no neighbour; False passes a failure downstream.
    The stage builds the generators of its indices when its first round
    starts.  Building holds the interpreter lock, so stages that all built
    at once would only contend for it; this way a stage builds while the
    one before draws its second round.
    """
    a, r, u = params.a, params.r, params.u
    root = 1.0 / (2.0 * params.b)
    row = np.empty(min(_ROUND_SAMPLES, log_w.size))
    below = np.empty(row.size, dtype=bool)
    finished = False
    rngs = None
    try:
        # errstate is thread-local, so each worker sets its own
        with np.errstate(divide="ignore"):
            for s0 in range(0, log_w.size, row.size):
                if ready is not None and not ready.get():
                    return
                if rngs is None:
                    rngs = [_generator(seed, j + 1) for j in range(lo, hi)]
                chunk = log_w[s0 : s0 + row.size]
                radii, inside = row[: chunk.size], below[: chunk.size]
                for rng, shape in zip(rngs, shapes[lo:hi]):
                    rng.standard_gamma(shape, out=radii)
                    radii /= n
                    radii **= root
                    if u:
                        np.less(radii, r, out=inside)
                    if a:
                        # an exact hit R_j == r records log weight -inf (weight 0)
                        radii -= r
                        np.abs(radii, out=radii)
                        np.log(radii, out=radii)
                        if a != 1:  # x * 1.0 is x, bit for bit
                            radii *= a
                        chunk += radii
                    if u:
                        np.add(chunk, u, out=chunk, where=inside)
                if done is not None:
                    done.put(True)
        finished = True
    finally:
        if done is not None and not finished:
            done.put(False)


def mc_ln_mgf(params, n, samples, seed):
    """Monte Carlo estimate of E_n from ``samples`` independent draws.

    Per-sample log weights u*#(R_j<r) + a*sum_j ln|R_j - r| are summed
    over per-j substreams; the mean and its standard error are formed
    after subtracting the running maximum, and the log-scale uncertainty
    is the delta-method ratio stderr/estimate.  A draw landing exactly on
    r at double precision contributes weight zero (probability ~0); it is
    counted, not treated as an error.  With a = 0 and u = 0 every weight
    is 1 and nothing is drawn.

    Memory: one samples-sized array, the 8 bytes per sample of the log
    weights, plus one round's row of 8192 draws and its mask per worker.
    The weights, their mean, effective sample size and variance (two
    passes, Chan, Golub and LeVeque 1983) are formed in that same buffer,
    with the arithmetic of np.mean and np.std(ddof=1), bit for bit.
    """
    _check_args(params, n, seed)
    if not (isinstance(samples, int) and samples >= 100):
        raise DomainError("samples must be an integer >= 100", constraint="samples")
    a, u = params.a, params.u
    if not a and not u:
        return MCResult(1.0, 0.0, 0.0, 0.0, samples, seed, float(samples))
    shapes = _shapes(params, n)
    workers = min(_usable_cores(), n)
    bounds = [n * k // workers for k in range(workers + 1)]
    links = [None] + [queue.SimpleQueue() for _ in range(workers - 1)] + [None]
    log_w = np.zeros(samples, dtype=np.float64)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _stage, seed, shapes, bounds[k], bounds[k + 1], params, n, log_w,
                links[k], links[k + 1],
            )
            for k in range(workers)
        ]
        for future in futures:
            future.result()
    shift = float(np.max(log_w))
    if not math.isfinite(shift):
        raise DomainError("every Monte Carlo weight vanished", constraint="samples")
    # np.mean's and np.std(ddof=1)'s own arithmetic, in place: the same bits
    w = np.exp(np.subtract(log_w, shift, out=log_w), out=log_w)
    mean = float(np.add.reduce(w)) / samples
    ess = (mean * samples) ** 2 / float(np.dot(w, w))
    np.subtract(w, mean, out=w)
    np.square(w, out=w)
    std = math.sqrt(float(np.add.reduce(w)) / (samples - 1)) / math.sqrt(samples)
    ln_estimate = shift + math.log(mean)
    ln_stderr = std / mean
    return MCResult(
        estimate_E=_exp_times(ln_estimate, 1.0),
        stderr_E=_exp_times(shift, std),
        ln_estimate=ln_estimate,
        ln_stderr=ln_stderr,
        samples=samples,
        seed=seed,
        ess=ess,
    )
