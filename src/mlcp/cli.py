"""Command-line front end.

    mlcp exact      --config cfg.json [--format csv|json] [--out FILE]
    mlcp compare    --config cfg.json [--tol T] [--format ...] [--out ...]
    mlcp mc         --config cfg.json [--seed S] [--samples N] [--format ...] [--out ...]
    mlcp identities [--format csv|json] [--out FILE]
    mlcp dump-polys [--a-max 4] [--b 1] [--format csv|json] [--out FILE]

Configuration is a single JSON file; command-line flags win over config
values.  The config's diagnostic block is written only by exact in JSON;
in exact CSV, compare and mc it is a configuration error.  Exit codes: 0
success, 2 configuration/domain error, 3 accuracy error (an uncertified
tolerance, an exact inner sum that comes out nonpositive) or any other
failed computation (overflow, an exception from scipy), 4 identity
failure.
Exits 2 and 3 write one JSON error record to standard error.  Every
command writes its rows through _write: CSV quotes a field holding a comma,
JSON writes every non-finite float as null, and all floating-point output
carries 17 significant digits so values round-trip exactly.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import combo_poly as cp
from .asymp import compute_coeffs, predict
from .errors import AccuracyError, DomainError, MlcpError
from .exact_mgf import ln_mgf_exact, split_sums
from .identities import run_all
from .params import Params, is_int
from .sampler import mc_ln_mgf_sizes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCURACY = 3
EXIT_IDENTITY = 4


@dataclass(frozen=True)
class RunConfig:
    params: Params
    n_list: Sequence[int]
    tol: float
    seed: int
    samples: int
    output: str
    diagnostic: Optional[dict]

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
        if not 0.0 < self.tol < math.inf:
            raise DomainError("tol must be positive and finite", constraint="tol")
        if self.output not in ("csv", "json"):
            raise DomainError("output must be csv or json", constraint="output")
        if not (isinstance(self.samples, int) and self.samples >= 100):
            raise DomainError("samples must be >= 100", constraint="samples")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise DomainError("seed must be a nonnegative integer", constraint="seed")


def _fmt(x):
    """One CSV field: floats with 17 significant digits, None and nan as
    null, a list as its items joined by spaces (0 if empty)."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "null"
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, list):
        return " ".join(map(str, x)) if x else "0"
    return str(x)


def _integer(value, name):
    """An integral JSON number as an int; a bool, a string or a number
    with a fractional part is a DomainError, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not is_int(value):
        raise DomainError(f"{name} must be an integer, got {value!r}", constraint=name)
    return value


def _number(value, name):
    """A JSON number as a float; a bool or a string is a DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a number, got {value!r}", constraint=name)
    return float(value)


def _diagnostic(block):
    """The diagnostic block as {"eps": float, "m_prime": int}, or None."""
    if block is None:
        return None
    if not isinstance(block, dict):
        raise DomainError(
            f"diagnostic must be an object, got {block!r}", constraint="diagnostic"
        )
    return {
        "eps": _number(block["eps"], "eps"),
        "m_prime": _integer(block["m_prime"], "m_prime"),
    }


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
            b=_number(p["b"], "b"),
            alpha=_number(p["alpha"], "alpha"),
            r=_number(p["r"], "r"),
            u=_number(p["u"], "u"),
            a=_integer(p["a"], "a"),
        )
        merged = {
            "n_list": tuple(_integer(n, "n_list") for n in raw.get("n_list", ())),
            "tol": _number(raw.get("tol", 1e-9), "tol"),
            "seed": _integer(raw.get("seed", 1), "seed"),
            "samples": _integer(raw.get("samples", 100000), "samples"),
            "output": raw.get("output", "csv"),
            "diagnostic": _diagnostic(raw.get("diagnostic")),
        }
    except KeyError as exc:
        raise DomainError(f"config missing field {exc}", constraint=exc.args[0])
    except (ValueError, TypeError) as exc:
        raise DomainError(f"bad config value: {exc}", constraint="config")
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return RunConfig(params=params, **merged)


def _null_nonfinite(obj):
    """obj with every non-finite float, at any depth, replaced by None:
    JSON has no inf or nan."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _null_nonfinite(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_null_nonfinite(value) for value in obj]
    return obj


def _write(fmt, out_path, columns, rows, extra=None, note=None):
    """Write rows, dicts keyed by columns, to out_path or standard output.

    CSV: the header, one line per row through csv.writer (a field holding
    a comma or a quote is quoted), then the note line if there is one.
    JSON: {"rows": rows, **extra}, sorted keys, every non-finite float as
    null.
    """
    if fmt == "json":
        payload = _null_nonfinite({"rows": rows, **(extra or {})})
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)
        if note is not None:
            buf.write(note + "\n")
        text = buf.getvalue()
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
    # With a diagnostic block, split_sums evaluates each n once, and ln_mgf
    # is the total of its split.
    diag = config.diagnostic
    columns = ("n", "ln_mgf", "seconds")
    rows = []
    diagnostics = []
    for n in config.n_list:
        t0 = time.perf_counter()
        if diag is None:
            value = ln_mgf_exact(config.params, n).ln_mgf
        else:
            split = split_sums(config.params, n, diag["eps"], diag["m_prime"])
            value = split.total
            diagnostics.append({"n": n, **asdict(split)})
        rows.append(dict(zip(columns, (n, value, time.perf_counter() - t0))))
    extra = None if diag is None else {"diagnostics": diagnostics}
    _write(config.output, out_path, columns, rows, extra)
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
    columns = ("n", "ln_mgf", "prediction", "residual")
    rows = []
    for n in config.n_list:
        value = ln_mgf_exact(config.params, n).ln_mgf
        pred = predict(config.params, n, coeffs)
        rows.append(dict(zip(columns, (n, value, pred, value - pred))))
    summary = {
        "C1": coeffs.C1,
        "C2": coeffs.C2,
        "C3": coeffs.C3,
        "slope": fit_slope([r["n"] for r in rows], [r["residual"] for r in rows]),
    }
    note = "# " + " ".join(f"{key}={_fmt(value)}" for key, value in summary.items())
    _write(config.output, out_path, columns, rows, {"summary": summary}, note)
    return EXIT_OK


def cmd_mc(config, out_path):
    columns = ("n", "estimate_E", "stderr_E", "ln_estimate", "ln_stderr", "ess",
               "samples", "seed")
    results = mc_ln_mgf_sizes(config.params, config.n_list, config.samples, config.seed)
    rows = [{"n": n, **asdict(res)} for n, res in zip(config.n_list, results)]
    _write(config.output, out_path, columns, rows)
    return EXIT_OK


def cmd_identities(fmt, out_path):
    results = run_all()
    failures = [r.name for r in results if not r.passed]
    columns = ("name", "status", "worst_deviation", "detail")
    rows = [
        dict(zip(columns, (r.name, "pass" if r.passed else "fail", r.worst, r.detail)))
        for r in results
    ]
    _write(fmt, out_path, columns, rows, {"failures": failures})
    return EXIT_IDENTITY if failures else EXIT_OK


def cmd_dump_polys(a_max, b, fmt, out_path):
    if a_max < 0:
        raise DomainError("a_max must be >= 0", constraint="a_max")
    try:
        bq = Fraction(b)
    except (ValueError, ZeroDivisionError):  # "inf", "1/0"
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
    columns = ("family", "index", "coeffs")
    rows = [
        dict(zip(columns, (name, a, [str(c) for c in fn(a).coeffs])))
        for name, fn in families
        for a in range(a_max + 1)
    ]
    _write(fmt, out_path, columns, rows, {"b": str(bq)})
    return EXIT_OK


@functools.cache  # built on first use; parse_args leaves the tree unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="mlcp",
        description="Exact, asymptotic and Monte Carlo evaluation of the "
        "moment generating function of the modulus characteristic polynomial.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each config-driven subcommand takes only the overrides it reads
    config_flags = {
        "exact": {},
        "compare": {"--tol": float},
        "mc": {"--seed": int, "--samples": int},
    }
    for name, flags in config_flags.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag, kind in flags.items():
            p.add_argument(flag, type=kind)
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
        overrides = {key: getattr(args, key, None) for key in ("tol", "seed", "samples")}
        overrides["output"] = args.fmt
        config = load_config(args.config, overrides)
        # only exact in JSON has a place for the split; refused before any
        # computation everywhere else
        if config.diagnostic is not None and (args.command, config.output) != ("exact", "json"):
            raise DomainError(
                f"{args.command} {config.output} output takes no diagnostic block",
                constraint="diagnostic",
            )
        if args.command == "exact":
            return cmd_exact(config, args.out)
        if args.command == "compare":
            return cmd_compare(config, args.out)
        if args.command == "mc":
            return cmd_mc(config, args.out)
        raise DomainError(f"unknown command {args.command}")
    except Exception as exc:
        # an exception from outside mlcp (scipy, ArithmeticError) is
        # a failed computation; _error_record adds its traceback
        sys.stderr.write(json.dumps(_error_record(exc)) + "\n")
        if isinstance(exc, MlcpError) and not isinstance(exc, AccuracyError):
            return EXIT_CONFIG
        return EXIT_ACCURACY


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
