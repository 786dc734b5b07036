"""Workload inputs shared by the benchmark (run.py) and its reference
script (make_refs.py).

Only the Monte Carlo seed and the order in which the compare grid is
visited depend on the workload seed; every other input is fixed here so
that the references in refs.json can be computed once and stored.
"""

import itertools

# The README's diagnostic block: adds the S0..S3 split to `mlcp exact`.
DIAGNOSTIC = {"eps": 0.05, "m_prime": 10}

# `mlcp exact`, one config per call.  Nearly all the work is in exact_mgf
# and specfun in the saturated and Temme regimes of P(a, z).  The two
# configs without a known accuracy defect are sized so that a pass takes
# about 5 s and a 30 s run holds about six: each config's median call time
# then stays steady on a noisy 2-core machine.
EXACT_CONFIGS = (
    # Ginibre at the a = 4 cancellation window (ROADMAP item 1): this size
    # shows the exact evaluator's known cancellation error.
    {"params": {"b": 1.0, "alpha": 0.0, "r": 0.5, "u": 0.7, "a": 4}, "n": 2**17},
    # With the diagnostic block, which makes `exact` evaluate n twice.
    {
        "params": {"b": 2.0, "alpha": -0.5, "r": 0.6, "u": -0.7, "a": 1},
        "n": 2**14,
        "diagnostic": DIAGNOSTIC,
    },
    # One P per term.  Called twice a pass: the median call time of the run
    # falls on this config, and a 30 s run holds only about six passes.
    {
        "params": {"b": 1.0, "alpha": 0.0, "r": 0.5, "u": 1.0, "a": 0},
        "n": 2**18,
        "calls_per_pass": 2,
    },
)

# `mlcp compare --format json`, one call per grid point.  The work is in
# asymp, quadrature and combo_poly; exact_mgf runs at small n, where P(a, z)
# takes its series and continued-fraction branches.
COMPARE_GEOMETRIES = ((1.0, 0.0, 0.5), (2.0, -0.5, 0.6), (0.5, 0.5, 1.0))
COMPARE_U = (-0.7, 0.0, 1.0, 2.5)
COMPARE_A = tuple(range(7))
COMPARE_N = (128, 256)
# The CLI default; at 1e-11 compute_coeffs cannot certify C1 for a >= 1.
COMPARE_TOL = 1e-9

# `mlcp mc`: all the work is gamma draws in the sampler.
MC_PARAMS = {"b": 1.0, "alpha": 0.0, "r": 0.5, "u": 1.0, "a": 1}
MC_N = (10, 30, 100)
MC_SAMPLES = 10**6


def compare_grid():
    """The 84 compare configs in a fixed order, as params dicts."""
    return [
        {"b": b, "alpha": alpha, "r": r, "u": u, "a": a}
        for (b, alpha, r), u, a in itertools.product(
            COMPARE_GEOMETRIES, COMPARE_U, COMPARE_A
        )
    ]


def params_key(params):
    """A stable string key for one params dict, used to index refs.json."""
    return "b={b!r},alpha={alpha!r},r={r!r},u={u!r},a={a!r}".format(**params)


def ref_key(params, n):
    """The refs.json key of ln E_n for one params dict at size n."""
    return f"{params_key(params)},n={n}"
