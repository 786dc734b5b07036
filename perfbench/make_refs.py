"""Compute the stored references in perfbench/refs.json.

    python3 perfbench/make_refs.py

Run once, from the repository root, on one worker process per available
core; it takes about three minutes on two cores.  The benchmark only reads
the file it writes.

* ln E_n for every (params, n) a workload requests is summed term by term
  in 50-digit mpmath arithmetic, independently of the mlcp code.  P(a, z) is
  set to exactly 0 or 1 wherever the Chernoff bound
  exp(-a (lambda - 1 - ln lambda)), lambda = z / a, puts P or 1 - P below
  exp(-150) ~ 7e-66, beneath 50-digit resolution.  That covers every point
  where the double-precision dispatch saturates (exponent above 745), where
  mpmath's gammainc does not converge.  Elsewhere P comes from the lower
  incomplete gamma when z <= a and from 1 - Q when z > a, because mpmath's
  lower series stops converging for z > a at large a.
* C1, C2 and C3 for the compare grid are NOT independent references: they
  are the values mlcp.asymp.compute_coeffs certified at tol 1e-9 at the
  commit that defined the benchmark, with their error estimates.
* ln_mgf_baseline holds what mlcp.exact_mgf.ln_mgf_exact returned for every
  requested (params, n) at that commit.  Its distance to the 50-digit
  reference is the evaluator's known error there (it grows with a and n,
  ROADMAP item 1); the benchmark sizes each point's tolerance from it.
"""

import json
import math
import multiprocessing
import os
import sys

from mpmath import mp, mpf

import workloads as wl

DIGITS = 50
# P or 1 - P is below exp(-CUTOFF_EXPONENT) past this Chernoff exponent.
CUTOFF_EXPONENT = 150.0
CHUNK = 1024

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")


def _saturation(at, z):
    """0 or 1 where P(at, z) is that value to 50 digits, else None."""
    h = z / at - 1.0
    if at * (h - math.log1p(h)) > CUTOFF_EXPONENT:
        return 1 if h > 0 else 0
    return None


def _p_ref(at, z, at_f, z_f):
    sat = _saturation(at_f, z_f)
    if sat is not None:
        return mpf(sat)
    if z_f <= at_f:
        return mp.gammainc(at, 0, z, regularized=True)
    return 1 - mp.gammainc(at, z, mp.inf, regularized=True)


def _chunk_sum(args):
    """Sum of the log j-terms for j in [j_lo, j_hi), as a decimal string."""
    params, n, j_lo, j_hi = args
    mp.dps = DIGITS
    b, alpha, r = mpf(params["b"]), mpf(params["alpha"]), mpf(params["r"])
    u, a = mpf(params["u"]), params["a"]
    z = mpf(n) * r ** (2 * b)
    z_f = float(z)
    cu = (-1) ** a * mp.exp(u) - 1
    ln_n = mp.log(n)
    shifts = [mpf(k) / (2 * b) for k in range(a + 1)]
    coef = [mp.binomial(a, k) * (-r) ** (a - k) for k in range(a + 1)]
    total = mpf(0)
    for j in range(j_lo, j_hi):
        at0 = (j + alpha) / b
        lg0 = mp.loggamma(at0) if a else None
        inner = mpf(0)
        for k in range(a + 1):
            at = at0 + shifts[k]
            p = _p_ref(at, z, at_f=float(at), z_f=z_f)
            g = mp.loggamma(at) - lg0 - shifts[k] * ln_n if k else 0
            inner += coef[k] * mp.exp(g) * (1 + cu * p)
        if inner <= 0:
            raise ArithmeticError(f"nonpositive j-term at j={j} for {params}")
        total += mp.log(inner)
    return mp.nstr(total, DIGITS)


def ln_mgf_reference(pool, params, n):
    chunks = [
        (params, n, lo, min(lo + CHUNK, n + 1)) for lo in range(1, n + 1, CHUNK)
    ]
    mp.dps = DIGITS
    return float(mp.fsum(mpf(s) for s in pool.imap(_chunk_sum, chunks)))


def requested():
    """Every (params, n) whose ln E_n some workload checks."""
    out = [(c["params"], c["n"]) for c in wl.EXACT_CONFIGS]
    out += [(p, n) for p in wl.compare_grid() for n in wl.COMPARE_N]
    out += [(wl.MC_PARAMS, n) for n in wl.MC_N]
    return out


def _import_mlcp():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import mlcp

    return mlcp


def baseline_ln_mgf():
    mlcp = _import_mlcp()
    return {
        wl.ref_key(params, n): mlcp.ln_mgf_exact(mlcp.Params(**params), n).ln_mgf
        for params, n in requested()
    }


def certified_coeffs():
    mlcp = _import_mlcp()
    out = {}
    for p in wl.compare_grid():
        c = mlcp.compute_coeffs(mlcp.Params(**p), wl.COMPARE_TOL)
        out[wl.params_key(p)] = {
            "C1": c.C1, "C2": c.C2, "C3": c.C3,
            "err1": c.err1, "err2": c.err2, "err3": c.err3,
        }
    return out


def main():
    ln_mgf = {}
    jobs = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        for params, n in requested():
            key = wl.ref_key(params, n)
            ln_mgf[key] = ln_mgf_reference(pool, params, n)
            print(key, repr(ln_mgf[key]), flush=True)
    refs = {
        "ln_mgf_source": (
            f"{DIGITS}-digit mpmath sum of the log j-terms, P set to exactly 0 "
            f"or 1 where its Chernoff bound is below exp(-{CUTOFF_EXPONENT:g})"
        ),
        "ln_mgf": ln_mgf,
        "ln_mgf_baseline_source": (
            "what mlcp.exact_mgf.ln_mgf_exact returned at the commit that "
            "defined the benchmark; its distance to ln_mgf is the known error"
        ),
        "ln_mgf_baseline": baseline_ln_mgf(),
        "coeffs_source": (
            "the values mlcp.asymp.compute_coeffs certified at tol "
            f"{wl.COMPARE_TOL:g} at the commit that defined the benchmark; "
            "not independent references"
        ),
        "coeffs": certified_coeffs(),
    }
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
