"""Command-line front end.

    mlcp exact      --config cfg.json [--format csv|json] [--out FILE]
    mlcp compare    --config cfg.json [--tol T]
    mlcp mc         --config cfg.json [--seed S] [--samples N]
    mlcp identities
    mlcp dump-polys --a-max 4 --b 1

Configuration is a single JSON file; command-line flags win over config
values.  Exit codes: 0 success, 2 configuration/domain error, 3 accuracy
error or any other failed computation (overflow, an exception from scipy or
mpmath), 4 identity failure.  Exits 2 and 3 write one JSON error record to
standard error.  All floating-point output carries 17 significant digits so
values round-trip exactly; JSON writes a non-finite Monte Carlo estimate as
null.
"""

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import combo_poly as cp
from .asymp import compute_coeffs, predict
from .errors import AccuracyError, DomainError, MlcpError
from .exact_mgf import ln_mgf_exact, split_sums
from .identities import run_all
from .params import Params
from .sampler import mc_ln_mgf

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCURACY = 3
EXIT_IDENTITY = 4


@dataclass(frozen=True)
class RunConfig:
    params: Params
    n_list: Sequence[int]
    tol: float = 1e-9
    seed: int = 1
    samples: int = 100000
    output: str = "csv"
    diagnostic: Optional[dict] = None

    def __post_init__(self):
        if not self.n_list:
            raise DomainError("n_list must be nonempty", constraint="n_list")
        if any(
            not isinstance(n, int) or n < 1 for n in self.n_list
        ) or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise DomainError(
                "n_list must be strictly increasing positive integers",
                constraint="n_list",
            )
        if not (self.tol > 0):
            raise DomainError("tol must be positive", constraint="tol")
        if self.output not in ("csv", "json"):
            raise DomainError("output must be csv or json", constraint="output")
        if not (isinstance(self.samples, int) and self.samples >= 100):
            raise DomainError("samples must be >= 100", constraint="samples")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise DomainError("seed must be a nonnegative integer", constraint="seed")


def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "null"
        return format(x, ".17g")
    return str(x)


def _finite_or_none(x):
    return x if math.isfinite(x) else None


def _integer(value, name):
    """An integral JSON number as an int; a bool, a string or a number
    with a fractional part is a DomainError, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}", constraint=name)
    return value


def load_config(path, overrides):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}", constraint="config")
    if not isinstance(raw, dict) or "params" not in raw:
        raise DomainError("config missing 'params'", constraint="params")
    p = raw["params"]
    try:
        params = Params(
            b=float(p["b"]),
            alpha=float(p["alpha"]),
            r=float(p["r"]),
            u=float(p["u"]),
            a=_integer(p["a"], "a"),
        )
        merged = {
            "n_list": tuple(_integer(n, "n_list") for n in raw.get("n_list", ())),
            "tol": float(raw.get("tol", 1e-9)),
            "seed": _integer(raw.get("seed", 1), "seed"),
            "samples": _integer(raw.get("samples", 100000), "samples"),
            "output": raw.get("output", "csv"),
            "diagnostic": raw.get("diagnostic"),
        }
    except KeyError as exc:
        raise DomainError(f"config params missing field {exc}", constraint=str(exc))
    except (ValueError, TypeError) as exc:
        raise DomainError(f"bad config value: {exc}", constraint="config")
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return RunConfig(params=params, **merged)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_record(exc):
    rec = {"type": type(exc).__name__, "message": str(exc)}
    constraint = getattr(exc, "constraint", None)
    if constraint is not None:
        rec["constraint"] = constraint
    if not isinstance(exc, MlcpError):
        rec["traceback"] = traceback.format_exception(exc)
    return {"error": rec}


def cmd_exact(config, out_path):
    # With a diagnostic block, split_sums evaluates each n once and returns
    # ln_mgf along with the split.
    diag = config.diagnostic
    rows = []
    diagnostics = None if diag is None else []
    for n in config.n_list:
        t0 = time.perf_counter()
        if diag is None:
            value = ln_mgf_exact(config.params, n).ln_mgf
        else:
            split = split_sums(
                config.params, n, float(diag["eps"]), int(diag["m_prime"])
            )
            value = split.ln_mgf
            diagnostics.append(
                {
                    "n": n,
                    "S0": split.S0,
                    "S1": split.S1,
                    "S2": split.S2,
                    "S3": split.S3,
                    "j_minus": split.j_minus,
                    "j_plus": split.j_plus,
                    "g_minus": split.g_minus,
                    "g_plus": split.g_plus,
                    "M": split.M,
                    "theta_minus_eps": split.theta_minus_eps,
                    "theta_plus_eps": split.theta_plus_eps,
                    "theta_minus_M": split.theta_minus_M,
                    "theta_plus_M": split.theta_plus_M,
                }
            )
        rows.append((n, value, time.perf_counter() - t0))
    if config.output == "json":
        payload = {"rows": [{"n": n, "ln_mgf": v, "seconds": s} for n, v, s in rows]}
        if diagnostics is not None:
            payload["diagnostics"] = diagnostics
        _emit_json(payload, out_path)
    else:
        lines = ["n,ln_mgf,seconds"]
        lines += [f"{n},{_fmt(v)},{_fmt(s)}" for n, v, s in rows]
        _emit(lines, out_path)
    return EXIT_OK


def fit_slope(ns, residuals):
    """Least-squares slope of ln|residual| against ln n; None if degenerate."""
    pts = [
        (math.log(n), math.log(abs(res)))
        for n, res in zip(ns, residuals)
        if abs(res) >= 1e-13
    ]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    if den == 0.0:
        return None
    return sum((x - mx) * (y - my) for x, y in pts) / den


def cmd_compare(config, out_path):
    coeffs = compute_coeffs(config.params, config.tol)
    rows = []
    for n in config.n_list:
        value = ln_mgf_exact(config.params, n).ln_mgf
        pred = predict(config.params, n, coeffs)
        rows.append((n, value, pred, value - pred))
    slope = fit_slope([r[0] for r in rows], [r[3] for r in rows])
    summary = {
        "C1": coeffs.C1,
        "C2": coeffs.C2,
        "C3": coeffs.C3,
        "slope": slope,
    }
    if config.output == "json":
        _emit_json(
            {
                "rows": [
                    {"n": n, "ln_mgf": v, "prediction": p, "residual": res}
                    for n, v, p, res in rows
                ],
                "summary": summary,
            },
            out_path,
        )
    else:
        lines = ["n,ln_mgf,prediction,residual"]
        lines += [
            f"{n},{_fmt(v)},{_fmt(p)},{_fmt(res)}" for n, v, p, res in rows
        ]
        slope_txt = "null" if slope is None else _fmt(slope)
        lines.append(
            f"# C1={_fmt(coeffs.C1)} C2={_fmt(coeffs.C2)} C3={_fmt(coeffs.C3)} "
            f"slope={slope_txt}"
        )
        _emit(lines, out_path)
    return EXIT_OK


def cmd_mc(config, out_path):
    rows = []
    for n in config.n_list:
        res = mc_ln_mgf(config.params, n, config.samples, config.seed)
        rows.append(res)
    if config.output == "json":
        _emit_json(
            {
                "rows": [
                    {
                        "n": n,
                        # JSON has no inf: an overflowed estimate is null
                        "estimate_E": _finite_or_none(r.estimate_E),
                        "stderr_E": _finite_or_none(r.stderr_E),
                        "ln_estimate": r.ln_estimate,
                        "ln_stderr": r.ln_stderr,
                        "samples": r.samples,
                        "seed": r.seed,
                        "ess": r.ess,
                    }
                    for n, r in zip(config.n_list, rows)
                ]
            },
            out_path,
        )
    else:
        lines = ["n,estimate_E,stderr_E,ln_estimate,ln_stderr,ess,samples,seed"]
        lines += [
            f"{n},{_fmt(r.estimate_E)},{_fmt(r.stderr_E)},{_fmt(r.ln_estimate)},"
            f"{_fmt(r.ln_stderr)},{_fmt(r.ess)},{r.samples},{r.seed}"
            for n, r in zip(config.n_list, rows)
        ]
        _emit(lines, out_path)
    return EXIT_OK


def cmd_identities(fmt, out_path):
    results = run_all()
    failures = [r for r in results if not r.passed]
    if fmt == "json":
        _emit_json(
            {
                "rows": [
                    {
                        "name": r.name,
                        "status": "pass" if r.passed else "fail",
                        "worst_deviation": r.worst,
                        "detail": r.detail,
                    }
                    for r in results
                ],
                "failures": [r.name for r in failures],
            },
            out_path,
        )
    else:
        lines = ["name,status,worst_deviation,detail"]
        lines += [
            f"{r.name},{'pass' if r.passed else 'fail'},{_fmt(r.worst)},{r.detail}"
            for r in results
        ]
        _emit(lines, out_path)
    return EXIT_IDENTITY if failures else EXIT_OK


def cmd_dump_polys(a_max, b, fmt, out_path):
    if a_max < 0:
        raise DomainError("a_max must be >= 0", constraint="a_max")
    try:
        bq = Fraction(b)
    except ValueError:
        raise DomainError(f"b is not a rational literal: {b!r}", constraint="b")
    if bq <= 0:
        raise DomainError("b must be positive", constraint="b")
    families = (
        ("He", lambda a: cp.hermite(a)),
        ("He1", lambda a: cp.assoc_hermite(1, a)),
        ("p0", cp.p0),
        ("q0", cp.q0),
        ("p1", lambda a: cp.p1(a, bq)),
        ("q1", lambda a: cp.q1(a, bq)),
    )
    rows = []
    for name, fn in families:
        for a in range(a_max + 1):
            coeffs = [str(c) for c in fn(a).coeffs]
            rows.append((name, a, coeffs))
    if fmt == "json":
        _emit_json(
            {
                "b": str(bq),
                "rows": [
                    {"family": f, "index": a, "coeffs": cs} for f, a, cs in rows
                ],
            },
            out_path,
        )
    else:
        lines = ["family,index,coeffs"]
        lines += [f"{f},{a},{' '.join(cs) if cs else '0'}" for f, a, cs in rows]
        _emit(lines, out_path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mlcp",
        description="Exact, asymptotic and Monte Carlo evaluation of the "
        "moment generating function of the modulus characteristic polynomial.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("exact", "compare", "mc"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        p.add_argument("--out")
    p = sub.add_parser("identities")
    p.add_argument("--format", choices=("csv", "json"), dest="fmt", default="csv")
    p.add_argument("--out")
    p = sub.add_parser("dump-polys")
    p.add_argument("--a-max", type=int, default=4)
    p.add_argument("--b", default="1")
    p.add_argument("--format", choices=("csv", "json"), dest="fmt", default="csv")
    p.add_argument("--out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "identities":
            return cmd_identities(args.fmt, args.out)
        if args.command == "dump-polys":
            return cmd_dump_polys(args.a_max, args.b, args.fmt, args.out)
        overrides = {
            "seed": args.seed,
            "samples": args.samples,
            "tol": args.tol,
            "output": args.fmt,
        }
        config = load_config(args.config, overrides)
        if args.command == "exact":
            return cmd_exact(config, args.out)
        if args.command == "compare":
            return cmd_compare(config, args.out)
        if args.command == "mc":
            return cmd_mc(config, args.out)
        raise DomainError(f"unknown command {args.command}")
    except Exception as exc:
        # an exception from outside mlcp (scipy, mpmath, ArithmeticError) is
        # a failed computation; _error_record adds its traceback
        sys.stderr.write(json.dumps(_error_record(exc)) + "\n")
        if isinstance(exc, MlcpError) and not isinstance(exc, AccuracyError):
            return EXIT_CONFIG
        return EXIT_ACCURACY


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
