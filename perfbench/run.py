"""Benchmark of the mlcp command line.

    python3 perfbench/run.py --workload exact_large --seed 1 --seconds 30 --trace 0

Drives `mlcp exact`, `mlcp compare` and `mlcp mc` in-process through
mlcp.cli.main on generated config files, and checks every output against
perfbench/refs.json.  Run it from the root of a checkout: it imports mlcp
from ./src and exits with code 2, printing no result, when that is missing.

The load is a closed loop: one single-threaded process issues one CLI call
at a time.  One operation is one CLI call on one config.  It fails on a
nonzero exit, an escaped exception, an output outside its tolerance of the
reference, a diagnostic split whose S0..S3 do not add up to ln_mgf, or a
Monte Carlo z-score beyond 4 at n <= 30.  A run repeats whole passes over
the workload's configs for about --seconds: it stops at the pass boundary
nearest to that time.

--trace 0 prints the end-to-end metrics, the same on every workload;
work_per_s counts the workload's own unit of work.  On exact_large and
compare_scan their times are in seconds of a reference host speed (see
HostSpeed); the run record keeps them as measured too.  --trace 1 runs one
warm-up pass, then at least two pairs of an untraced and a traced pass
(see tracing.py), checks that the traced passes' counts agree exactly, and
prints the per-layer metrics and the tracing overhead: the median traced
pass minus the median untraced one.  A layer the workload does not run
reads 0.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the run record and a
readable table.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from typing import Callable, List

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS_PATH = os.path.join(HERE, "refs.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

EXIT_UNUSABLE = 2

# Tolerance of ln E_n against its 50-digit reference.  The exact
# evaluator's known cancellation error (ROADMAP item 1) grows with a and n:
# relative to |ln E_n| it is 2e-15 at a = 0, 6e-13 at a = 2, 1e-8 at a = 6,
# n = 256 and 1.9e-8 (1.66e-2 absolute) at a = 4, n = 2^17.  So each point
# may be ERR_HEADROOM times as far from its reference as the baseline value
# refs.json stores for it, and at least LN_MGF_RTOL_FLOOR * max(1, |ln E_n|)
# far, which admits a change of rounding.
ERR_HEADROOM = 10.0
LN_MGF_RTOL_FLOOR = 1e-13
# C1..C3 against the values compute_coeffs certified at tol 1e-9: ten times
# that tolerance, absolute.
COEFF_ATOL = 1e-8
# S0 + S1 + S2 + S3 against ln_mgf, relative to the largest |S_i|: each
# S_i is one correctly rounded sum, so a few ulps.
SPLIT_RTOL = 1e-13
MC_Z_GATE = 4.0
MC_Z_GATED_N = 30

# setup_s is the median over this many fresh processes.
SETUP_SAMPLES = 7
# compare_scan makes 84 calls a pass, so p88 has at least ten calls beyond
# it; exact_large (4 calls a pass) and mc_check (1) make few calls, and
# there it falls on the slowest config.
TAIL_PERCENTILE = 88

# A fixed pure-Python loop, timed between CLI calls, measures the speed of
# the host: a burst of HOST_LOOP_BURST loops before a call whenever
# HOST_LOOP_EVERY_S have passed since the last burst.  One loop takes about
# HOST_LOOP_REFERENCE_S on the 2-core Xeon VM the benchmark was defined on.
HOST_LOOP_ITERATIONS = 40_000
HOST_LOOP_BURST = 3
HOST_LOOP_EVERY_S = 0.5
HOST_LOOP_REFERENCE_S = 0.01


@dataclass
class Op:
    """One CLI call on one config."""

    argv: List[str]
    work: float  # units of the workload's work one call completes
    check: Callable[[dict], List[str]]  # output -> list of problems


class Accuracy:
    """The ln E_n references with their tolerances, and the worst distances
    to the references seen during the run."""

    def __init__(self, refs):
        self.ref = refs["ln_mgf"]
        self.baseline = refs["ln_mgf_baseline"]
        self.exact_err = 0.0
        self.err_growth = 0.0  # worst error / its baseline error (floored)
        self.coeff_err = 0.0
        self.z = {}

    def tol(self, key):
        ref = self.ref[key]
        return max(LN_MGF_RTOL_FLOOR * max(1.0, abs(ref)),
                   ERR_HEADROOM * abs(self.baseline[key] - ref))

    def check_ln_mgf(self, what, key, value):
        ref = self.ref[key]
        err = abs(value - ref)
        tol = self.tol(key)
        self.exact_err = max(self.exact_err, err)
        self.err_growth = max(self.err_growth, ERR_HEADROOM * err / tol)
        if not err <= tol:
            return [f"{what}: ln_mgf {value!r} is {err:.3e} from reference {ref!r}"]
        return []


def _write_config(path, body):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)


def exact_large(workdir, refs, seed, acc):
    """`mlcp exact` on the three large-n configs, in a fixed order."""
    ops = []
    for i, cfg in enumerate(wl.EXACT_CONFIGS):
        path = os.path.join(workdir, f"exact_{i}.json")
        body = {"params": cfg["params"], "n_list": [cfg["n"]]}
        if "diagnostic" in cfg:
            body["diagnostic"] = cfg["diagnostic"]
        _write_config(path, body)
        key = wl.ref_key(cfg["params"], cfg["n"])

        def check(out, cfg=cfg, key=key, what=f"exact[{i}]"):
            rows = out["rows"]
            if [row["n"] for row in rows] != [cfg["n"]]:
                return [f"{what}: rows for n={[row['n'] for row in rows]}"]
            value = rows[0]["ln_mgf"]
            problems = acc.check_ln_mgf(what, key, value)
            if "diagnostic" in cfg:
                split = out["diagnostics"][0]
                parts = [split[s] for s in ("S0", "S1", "S2", "S3")]
                gap = abs(math.fsum(parts) - value)
                if not gap <= SPLIT_RTOL * max(1.0, *map(abs, parts)):
                    problems.append(f"{what}: S0..S3 miss ln_mgf by {gap:.3e}")
            return problems

        op = Op(["exact", "--config", path, "--format", "json"], cfg["n"], check)
        ops += [op] * cfg.get("calls_per_pass", 1)
    return lambda rng: ops


def _expected_slope(ref_res, tol_res):
    """Slope of ln|residual| on ln n from the references, with its tolerance;
    None when a reference residual is too close to its tolerance to fix it."""
    if any(abs(r) <= 10.0 * t for r, t in zip(ref_res, tol_res)):
        return None
    (n1, n2), (r1, r2), (t1, t2) = wl.COMPARE_N, ref_res, tol_res
    span = math.log(n2 / n1)
    slope = math.log(abs(r2) / abs(r1)) / span
    return slope, 2.0 * (t1 / abs(r1) + t2 / abs(r2)) / span


def compare_scan(workdir, refs, seed, acc):
    """`mlcp compare` once per grid config, in a seed-dependent order."""
    ops = []
    for i, params in enumerate(wl.compare_grid()):
        path = os.path.join(workdir, f"compare_{i}.json")
        body = {"params": params, "n_list": list(wl.COMPARE_N), "tol": wl.COMPARE_TOL}
        _write_config(path, body)
        coeffs = refs["coeffs"][wl.params_key(params)]
        keys = [wl.ref_key(params, n) for n in wl.COMPARE_N]

        def check(out, coeffs=coeffs, keys=keys, what=f"compare[{i}]"):
            problems = []
            summary = out["summary"]
            for name in ("C1", "C2", "C3"):
                err = abs(summary[name] - coeffs[name])
                acc.coeff_err = max(acc.coeff_err, err)
                if not err <= COEFF_ATOL:
                    problems.append(f"{what}: {name} is {err:.3e} from reference")
            rows = out["rows"]
            if [row["n"] for row in rows] != list(wl.COMPARE_N):
                return problems + [f"{what}: rows for n={[row['n'] for row in rows]}"]
            ref_res, tol_res = [], []
            for row, key in zip(rows, keys):
                n = row["n"]
                problems += acc.check_ln_mgf(f"{what} n={n}", key, row["ln_mgf"])
                pred_ref = coeffs["C1"] * n + coeffs["C2"] * math.sqrt(n) + coeffs["C3"]
                pred_tol = COEFF_ATOL * (n + math.sqrt(n) + 1.0)
                if not abs(row["prediction"] - pred_ref) <= pred_tol:
                    problems.append(f"{what} n={n}: prediction {row['prediction']!r}")
                ref_res.append(acc.ref[key] - pred_ref)
                tol_res.append(acc.tol(key) + pred_tol)
                if not abs(row["residual"] - ref_res[-1]) <= tol_res[-1]:
                    problems.append(f"{what} n={n}: residual {row['residual']!r}")
            expected = _expected_slope(ref_res, tol_res)
            if expected is not None:
                slope, tol = expected
                if summary["slope"] is None or not abs(summary["slope"] - slope) <= tol:
                    problems.append(f"{what}: slope {summary['slope']!r}, expected {slope!r}")
            return problems

        ops.append(Op(["compare", "--config", path, "--format", "json"], 1.0, check))

    def visit(rng):
        order = list(ops)
        rng.shuffle(order)
        return order

    return visit


def mc_check(workdir, refs, seed, acc):
    """`mlcp mc` on one config at n = 10, 30, 100 with the workload seed."""
    path = os.path.join(workdir, "mc.json")
    body = {
        "params": wl.MC_PARAMS,
        "n_list": list(wl.MC_N),
        "seed": seed,
        "samples": wl.MC_SAMPLES,
    }
    _write_config(path, body)
    lns = {n: acc.ref[wl.ref_key(wl.MC_PARAMS, n)] for n in wl.MC_N}

    def check(out):
        rows = out["rows"]
        if [row["n"] for row in rows] != list(wl.MC_N):
            return [f"mc: rows for n={[row['n'] for row in rows]}"]
        problems = []
        for row in rows:
            n = row["n"]
            if row["samples"] != wl.MC_SAMPLES or row["seed"] != seed:
                problems.append(f"mc n={n}: ran samples={row['samples']} seed={row['seed']}")
            # n = 100 is reported, not gated: the joint estimator's
            # delta-method stderr carries no meaning there.
            z = (row["ln_estimate"] - lns[n]) / row["ln_stderr"]
            acc.z[n] = z
            if n <= MC_Z_GATED_N and not abs(z) <= MC_Z_GATE:
                problems.append(f"mc n={n}: z = {z:.2f} against ln_mgf_exact")
        return problems

    work = float(sum(wl.MC_N) * wl.MC_SAMPLES)
    op = Op(["mc", "--config", path, "--format", "json"], work, check)
    return lambda rng: [op]


# name -> (builder, unit of work_per_s, the names its metrics go by there,
# whether its times are scaled by HostSpeed).
WORKLOADS = {
    "exact_large": (
        exact_large, "exact j-terms requested", {"work_per_s": "exact_terms_per_s"}, True,
    ),
    "compare_scan": (
        compare_scan, "configs compared",
        {
            "work_per_s": "compare_per_s",
            "call_s.p50": "compare_call_s.p50",
            f"call_s.p{TAIL_PERCENTILE}": f"compare_call_s.p{TAIL_PERCENTILE}",
        },
        True,
    ),
    "mc_check": (
        mc_check, "gamma draws (n x samples)", {"work_per_s": "mc_draws_per_s"}, False,
    ),
}


def setup(workload, seed, workdir):
    """Everything a run does before its first CLI call; returns mlcp.cli,
    the pass generator and the accuracy record."""
    if not os.path.isfile(os.path.join(SRC, "mlcp", "cli.py")):
        raise FileNotFoundError(f"no mlcp sources under {SRC}")
    sys.path.insert(0, SRC)
    import mlcp.cli

    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        refs = json.load(fh)
    acc = Accuracy(refs)
    passes = WORKLOADS[workload][0](workdir, refs, seed, acc)
    return mlcp.cli, passes, acc


def measure_setup(workload, seed):
    """Median wall time, over fresh processes, from process start to the
    point where the first CLI call would be made."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return statistics.median(samples), samples


def _host_loop():
    total = 0.0
    for i in range(1, HOST_LOOP_ITERATIONS):
        total += math.lgamma(0.5 * i)
    return total


class HostSpeed:
    """Scales measured times to a reference host speed.

    On a shared VM the speed of this process swings by up to 2x within
    minutes, with no steal time reported, and a whole run can fall in a
    slow spell.  A fixed loop timed between calls slows down with it: over
    20 s windows of a 4-minute busy spell the median call time of an exact,
    a compare and an MC call spread by 20%, 20% and 14%, their ratio to
    the median loop time by 6%, 7% and 3%.  A time in reference seconds is
    the measured time times HOST_LOOP_REFERENCE_S over the median loop time
    of the run.  (Scaling each call by the bursts just before and after it
    spread more: a 20 ms burst is a poor sample of the speed during a 1 s
    call.)  The loop runs outside any call, so mlcp's own cost does not move
    it; work that mlcp left running between calls would.

    Only interpreted Python slows down with the loop.  mc_check's time is in
    numpy's gamma draws over arrays of 10^6: over ten seeds its work_per_s
    spread by 14% as measured and by 24% scaled, so it is not scaled.  Over
    the same ten seeds scaling took compare_scan from 27% to 7% and
    exact_large's call_s.p50 from 17% to 11%.
    """

    def __init__(self):
        self.loops = []
        self._last = -math.inf

    def sample(self, force=False):
        if not force and time.perf_counter() - self._last < HOST_LOOP_EVERY_S:
            return
        for _ in range(HOST_LOOP_BURST):
            start = time.perf_counter()
            _host_loop()
            self.loops.append(time.perf_counter() - start)
        self._last = time.perf_counter()

    def scale(self):
        """Reference seconds per measured second."""
        return HOST_LOOP_REFERENCE_S / statistics.median(self.loops)


def run_op(cli, op):
    """One operation: returns (seconds, problems)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)  # looked up per call so tracing sees it
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return time.perf_counter() - start, ["escaped exception:\n" + traceback.format_exc()]
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, [f"exit code {code}: {err.getvalue().strip()}"]
    try:
        return seconds, op.check(json.loads(out.getvalue()))
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return seconds, [f"unreadable output ({exc!r}): {out.getvalue()[:200]!r}"]


class Tally:
    """Operations attempted and failed, with the latency of every call and
    the host speed around them."""

    def __init__(self):
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.calls = []  # (argv, work of one call, seconds)

    def run_pass(self, cli, ops):
        start = time.perf_counter()
        for op in ops:
            self.speed.sample()
            seconds, problems = run_op(cli, op)
            self.attempted += 1
            self.calls.append((tuple(op.argv), op.work, seconds))
            if problems:
                self.failed += 1
                for line in problems:
                    print(f"FAILED {op.argv[0]}: {line}", file=sys.stderr)
        return time.perf_counter() - start


def call_metrics(calls):
    """work_per_s and the call-time percentiles of (argv, work, seconds).

    work_per_s is the work of one call of each config divided by the sum of
    each config's median call time: a burst of load on the machine then
    moves one call's time, not a whole pass's.
    """
    by_op = {}
    for argv, work, seconds in calls:
        by_op.setdefault(argv, (work, []))[1].append(seconds)
    work = math.fsum(w for w, _ in by_op.values())
    lat = [seconds for _, _, seconds in calls]
    cuts = statistics.quantiles(lat, n=100, method="inclusive") if len(lat) > 1 else lat * 99
    return {
        "work_per_s": work / math.fsum(statistics.median(t) for _, t in by_op.values()),
        "call_s.p50": cuts[49],
        f"call_s.p{TAIL_PERCENTILE}": cuts[TAIL_PERCENTILE - 1],
    }


def run_passes(run_one, seconds, minimum):
    """Run whole passes until the next one would end nearer past ``seconds``
    than the last one ended before it."""
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(run_one())
        elapsed = time.perf_counter() - start
        if len(walls) >= minimum and elapsed + 0.5 * statistics.fmean(walls) > seconds:
            return walls


def end_to_end(args, cli, passes, tally):
    speed = tally.speed
    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    rng = random.Random(args.seed)
    walls = run_passes(lambda: tally.run_pass(cli, passes(rng)), args.seconds, 1)
    speed.sample(force=True)  # after the last call
    measured = dict(call_metrics(tally.calls), setup_s=setup_s)
    scale = speed.scale() if WORKLOADS[args.workload][3] else 1.0
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (measured["work_per_s"] / scale, "1/s"),
        "call_s.p50": (measured["call_s.p50"] * scale, "s"),
        f"call_s.p{TAIL_PERCENTILE}": (measured[f"call_s.p{TAIL_PERCENTILE}"] * scale, "s"),
    }
    record = {
        "passes": len(walls),
        "pass_s": walls,
        "calls": len(tally.calls),
        "setup_samples_s": setup_samples,
        "host_loops": len(speed.loops),
        "host_loop_s": statistics.median(speed.loops),
        "reference_s_per_s": scale,
        "as_measured": measured,
        "work_unit": WORKLOADS[args.workload][1],
    }
    return metrics, True, record


def per_layer(args, cli, passes, tally, acc):
    rng = random.Random(args.seed)
    # Pays first-call costs and fills caches, so that the passes compared
    # below all run warm.
    warm_up = tally.run_pass(cli, passes(rng))
    tracer = tracing.Tracer()
    untraced, traced, snapshots = [], [], []

    def pair():
        untraced.append(tally.run_pass(cli, passes(rng)))
        tracer.reset()
        tracer.install()
        try:
            traced.append(tally.run_pass(cli, passes(rng)))
        finally:
            tracer.uninstall()
        snapshots.append(tracer.layer_metrics())
        return untraced[-1] + traced[-1]

    run_passes(pair, args.seconds - warm_up, 2)
    counts_repeat = all(
        snap[name] == snapshots[0][name] for snap in snapshots for name in tracing.COUNTS
    )
    if not counts_repeat:
        print("FAILED: counts differ between traced passes", file=sys.stderr)
    values = {
        name: snapshots[0][name] if name in tracing.COUNTS
        else statistics.median(snap[name] for snap in snapshots)
        for name in snapshots[0]
    }
    overhead = statistics.median(traced) - statistics.median(untraced)
    values.update({
        "exact_mgf.max_abs_err": acc.exact_err,
        "exact_mgf.err_vs_baseline": acc.err_growth,
        "asymp.max_coeff_err": acc.coeff_err,
        "trace.overhead_s": overhead,
        "trace.overhead_share": 100.0 * overhead / statistics.median(untraced),
        "trace.absent_hooks": len(tracer.absent),
    })
    for n in wl.MC_N:  # |z| against the reference
        values[f"sampler.z.n{n}"] = abs(acc.z.get(n, 0.0))
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
    record = {
        "warm_up_pass_s": warm_up,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "counts_repeat": counts_repeat,
        "absent_hooks": tracer.absent,
        "mc_z": {str(n): z for n, z in acc.z.items()},
    }
    _write_spans(args, tracer.spans)
    return metrics, counts_repeat, record


def _write_spans(args, spans):
    """Recorded spans of the last traced pass, as JSON lines."""
    path = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, start, end in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(args):
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def main():
    parser = argparse.ArgumentParser(description="Benchmark of the mlcp command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        try:
            cli, passes, acc = setup(args.workload, args.seed, workdir)
        except (OSError, ImportError) as exc:
            print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
            return EXIT_UNUSABLE
        if args.setup_only:
            print("ready", flush=True)
            return 0
        tally = Tally()
        if args.trace:
            metrics, checks_ok, record = per_layer(args, cli, passes, tally, acc)
        else:
            metrics, checks_ok, record = end_to_end(args, cli, passes, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(run_record(args), attempted=tally.attempted, failed=tally.failed)
    print("run_record " + json.dumps(record, sort_keys=True))
    aliases = WORKLOADS[args.workload][2] if not args.trace else {}
    for name, (value, unit) in metrics.items():
        label = f"{name} = {aliases[name]}" if name in aliases else name
        print(f"{label:42s} {value:>18.6g} {unit}")
    print(f"{'failed/attempted':42s} {tally.failed:>12d}/{tally.attempted} operations")
    result = {
        "correct": checks_ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
