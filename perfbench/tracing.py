"""Per-layer tracing for the benchmark's --trace 1 run.

Public mlcp functions are wrapped under the module attribute their caller
looks up (exact_mgf calls ``mlcp.exact_mgf.reg_lower_gamma``, the CLI calls
``mlcp.cli.compute_coeffs``, ...), so nothing under src/ changes.  Each
wrapper records a span and counts; a layer's self time is its spans' time
minus the time of the wrapped calls nested inside them.  The wrappers'
own cost is charged to no layer: it shows as the tracing overhead, traced
minus untraced wall time.  install() and uninstall() may alternate, so that
traced and untraced passes can interleave.  A wrapped name that no longer
exists is reported as absent, not an error.
"""

import collections
import importlib
import time

REGIMES = (
    "saturated_zero",
    "saturated_one",
    "temme_uniform",
    "lower_series",
    "upper_continued_fraction",
)

# (name, unit) of every per-layer metric, in print order.  The
# accuracy, z and trace.* figures are filled in by run.py.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("exact_mgf.calls", "count"),
    ("exact_mgf.terms", "count"),
    ("exact_mgf.split_calls", "count"),
    ("exact_mgf.self_s", "s"),
    ("exact_mgf.max_abs_err", "nat"),
    ("exact_mgf.err_vs_baseline", "x"),
    ("specfun.p_calls", "count"),
    ("specfun.p_s", "s"),
    *((f"specfun.p_calls.{r}", "count") for r in REGIMES),
    ("specfun.lgamma_diff_calls", "count"),
    ("specfun.lgamma_diff_s", "s"),
    ("asymp.coeffs_calls", "count"),
    ("asymp.integrand_evals", "count"),
    ("asymp.integrand_s", "s"),
    ("asymp.self_s", "s"),
    ("asymp.max_coeff_err", "abs"),
    ("quadrature.adaptive_calls", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.self_s", "s"),
    ("combo_poly.calls", "count"),
    ("combo_poly.s", "s"),
    ("sampler.draws", "count"),
    ("sampler.s", "s"),
    ("sampler.z.n10", "sigma"),
    ("sampler.z.n30", "sigma"),
    ("sampler.z.n100", "sigma"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "%"),
    ("trace.absent_hooks", "count"),
)

# Metrics that are counts of work done; two traced passes must agree on them.
COUNTS = tuple(
    name
    for name, unit in PER_LAYER
    if unit == "count" and not name.startswith("trace.")
)

_COMBO_POLYS = ("p0", "q0", "p1", "q1")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs the wrappers and aggregates what they record."""

    def __init__(self):
        self.absent = []
        self._patches = []
        self._times = []  # child-time accumulator of each open span
        self._ids = []  # ids of the open recorded spans
        self._next_id = 0
        self._stats = {}  # span name -> [calls, total seconds, self seconds]
        self.counts = collections.Counter()
        self.spans = []  # (id, parent id, name, start, end) of recorded spans

    def reset(self):
        for stat in self._stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.spans.clear()

    def wrap(self, fn, name, record=False, before=None):
        """Return fn wrapped in a span called name.

        ``before(args, kwargs)`` runs ahead of the span, so its cost is
        overhead.  Only ``record`` spans are kept one by one; the rest are
        aggregated, because leaf calls such as P(a, z) run millions of times.
        """
        perf = time.perf_counter
        times, ids, spans = self._times, self._ids, self.spans
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            t_wrap = perf()
            if before is not None:
                before(args, kwargs)
            if record:
                span_id = self._next_id
                self._next_id += 1
                parent = ids[-1] if ids else None
                ids.append(span_id)
            times.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                child = times.pop()
                stat[0] += 1
                stat[1] += end - start
                stat[2] += end - start - child
                if record:
                    ids.pop()
                    spans.append((span_id, parent, name, start, end))
                if times:
                    times[-1] += perf() - t_wrap

        return wrapper

    def _lookup(self, module_name, attr):
        """(module, module.attr), or (None, None) once recorded as absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return None, None
        return module, original

    def _patch(self, module_name, attr, make):
        module, original = self._lookup(module_name, attr)
        if original is not None:
            setattr(module, attr, make(original))
            self._patches.append((module, attr, original))

    def install(self):
        self.absent = []
        _, gamma_regime = self._lookup("mlcp.specfun", "gamma_regime")

        def classify(args, kwargs):
            if gamma_regime is not None:
                regime = gamma_regime(args[0], args[1]).value
                self.counts[f"specfun.p_calls.{regime}"] += 1

        def count_terms(args, kwargs):
            self.counts["exact_mgf.terms"] += _arg(args, kwargs, 1, "n")

        def count_draws(args, kwargs):
            n = _arg(args, kwargs, 1, "n")
            self.counts["sampler.draws"] += n * _arg(args, kwargs, 2, "samples")

        def span(name, record=False, before=None):
            return lambda fn: self.wrap(fn, name, record, before)

        def traced_adaptive(original):
            outer = self.wrap(original, "quadrature.adaptive", record=True)

            def adaptive(f, *args, **kwargs):
                return outer(self.wrap(f, "asymp.integrand"), *args, **kwargs)

            return adaptive

        exact = span("exact_mgf.ln_mgf_exact", True, count_terms)
        self._patch("mlcp.cli", "main", span("cli.main", True))
        self._patch("mlcp.cli", "ln_mgf_exact", exact)
        self._patch("mlcp.exact_mgf", "ln_mgf_exact", exact)  # from split_sums
        self._patch("mlcp.cli", "split_sums", span("exact_mgf.split_sums", True))
        self._patch(
            "mlcp.exact_mgf", "reg_lower_gamma",
            span("specfun.reg_lower_gamma", before=classify),
        )
        self._patch("mlcp.exact_mgf", "lgamma_diff", span("specfun.lgamma_diff"))
        self._patch("mlcp.cli", "compute_coeffs", span("asymp.compute_coeffs", True))
        self._patch("mlcp.asymp", "adaptive", traced_adaptive)
        self._patch("mlcp.quadrature", "gk15", span("quadrature.gk15"))
        for poly in _COMBO_POLYS:
            self._patch("mlcp.combo_poly", poly, span(f"combo_poly.{poly}"))
        self._patch("mlcp.cli", "mc_ln_mgf", span("sampler.mc_ln_mgf", True, count_draws))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def layer_metrics(self):
        """Counts and times of one traced pass, keyed as in PER_LAYER."""
        c, tot, own = (
            collections.Counter({name: stat[i] for name, stat in self._stats.items()})
            for i in range(3)
        )
        polys = [f"combo_poly.{p}" for p in _COMBO_POLYS]
        out = {
            "cli.self_s": own["cli.main"],
            "exact_mgf.calls": c["exact_mgf.ln_mgf_exact"],
            "exact_mgf.terms": self.counts["exact_mgf.terms"],
            "exact_mgf.split_calls": c["exact_mgf.split_sums"],
            "exact_mgf.self_s": own["exact_mgf.ln_mgf_exact"]
            + own["exact_mgf.split_sums"],
            "specfun.p_calls": c["specfun.reg_lower_gamma"],
            "specfun.p_s": tot["specfun.reg_lower_gamma"],
            "specfun.lgamma_diff_calls": c["specfun.lgamma_diff"],
            "specfun.lgamma_diff_s": tot["specfun.lgamma_diff"],
            "asymp.coeffs_calls": c["asymp.compute_coeffs"],
            "asymp.integrand_evals": c["asymp.integrand"],
            "asymp.integrand_s": tot["asymp.integrand"],
            "asymp.self_s": own["asymp.compute_coeffs"],
            "quadrature.adaptive_calls": c["quadrature.adaptive"],
            "quadrature.panels": c["quadrature.gk15"],
            "quadrature.self_s": own["quadrature.adaptive"] + own["quadrature.gk15"],
            "combo_poly.calls": sum(c[p] for p in polys),
            "combo_poly.s": sum(own[p] for p in polys),
            "sampler.draws": self.counts["sampler.draws"],
            "sampler.s": tot["sampler.mc_ln_mgf"],
        }
        for regime in REGIMES:
            key = f"specfun.p_calls.{regime}"
            out[key] = self.counts[key]
        return out
