"""Adaptive Gauss-Kronrod panel quadrature.

A 15-point Kronrod rule with embedded 7-point Gauss rule is applied on a
caller-supplied panel decomposition; the worst panel (by error estimate)
is bisected until the summed estimate meets the target; a call still
short of it after _MAX_BISECTIONS bisections stalls.  Panel order and
bisection order are deterministic, so results are bit-reproducible.

Integrands take arrays: f maps an array of nodes to the array of its
values, of the same shape, or to a stack of C component values, of shape
(C,) + the nodes' shape.  The components share every panel and every
call to f, and each has its own tolerance (Genz and Malik's vector
integrands).  Each call to f evaluates the 15 nodes of a whole batch of
panels: every initial panel in one call, then both halves of a bisected
panel in one call.

Kronrod nodes are strictly interior, so integrable endpoint singularities
(log or algebraic) never get evaluated exactly at the endpoint; callers
resolve them by grading panels geometrically toward the singular point.
"""

import functools
import heapq
import operator

import numpy as np

from .errors import AccuracyError

# Standard (G7, K15) abscissae/weights on [-1, 1], outermost node first.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

# The 15 nodes in ascending order and the K15 and G7 weight vectors on
# them; the G7 nodes are every other Kronrod node.
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_W_K15 = np.array(_WGK + _WGK[-2::-1])
_W_G7 = np.zeros(15)
_W_G7[1::2] = _WG + _WG[-2::-1]

# Bisections of one adaptive call past its initial panels, after which it
# stalls.  No converging call came near: at most 30 on 3,000 random
# compute_coeffs configs (|u| <= 700, a <= 6), 11 in the identity report
# and 15 in the exact route's Gregory ranges.
_MAX_BISECTIONS = 128


def gk15(f, lo, hi):
    """Apply the 15-point Kronrod rule on the panels [lo, hi].

    lo and hi are floats or arrays of one shape; f is called once, on the
    nodes of all panels (shape + (15,)).  Returns (integral,
    error_estimate) of that shape, with the usual QUADPACK-style error
    scaling from the |K15 - G7| difference.
    """
    center = 0.5 * (np.asarray(lo) + hi)
    half = 0.5 * (np.asarray(hi) - lo)
    fx = f(center[..., None] + half[..., None] * _NODES)
    res_k = fx @ _W_K15
    res_g = fx @ _W_G7
    res_abs = np.abs(fx) @ _W_K15 * np.abs(half)
    res_asc = np.abs(fx - 0.5 * res_k[..., None]) @ _W_K15 * np.abs(half)
    err = np.abs((res_k - res_g) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = res_asc * np.minimum(1.0, (200.0 * err / res_asc) ** 1.5)
    err = np.where((res_asc != 0.0) & (err != 0.0), scaled, err)
    roundoff = 50.0 * 2.220446049250313e-16 * res_abs
    err = np.where(res_abs > 1e-290, np.maximum(err, roundoff), err)
    return res_k * half, err


def _running_sums(x):
    """The sum of each row of the 2-d array x, adding one column at a time
    from the left, as a list (np.sum would add pairwise)."""
    return [functools.reduce(operator.add, row, 0.0) for row in x.tolist()]


def adaptive(f, edges, tol):
    """Integrate f over the union of [edges[i], edges[i+1]] panels.

    tol is the absolute tolerance: a float, or a sequence of one per
    component for an integrand with a component axis.  The panel with the
    largest weighted error, max_c err_c tol[0]/tol[c], is bisected until
    every component's summed estimate is within its tol; with one
    component the weight is 1, so the panels go in the order of their
    error.  Raises AccuracyError, naming the component furthest over its
    tol if f has a component axis (its index is the error's
    ``component``), when _MAX_BISECTIONS bisections leave a component
    over its tol.  f is called once for all initial panels and once per
    bisection.  Returns (integral, error_estimate): floats for an
    integrand without a component axis, arrays of shape (C,) for one with
    it.
    """
    edges = np.asarray(edges, dtype=float)
    distinct = edges[:-1] != edges[1:]
    lo, hi = edges[:-1][distinct], edges[1:][distinct]
    vals, errs = gk15(f, lo, hi)
    stacked = vals.ndim > 1
    vals, errs = np.atleast_2d(vals), np.atleast_2d(errs)  # (C, panels)
    tols = list(tol) if stacked else [tol]
    weights = np.array([1.0] + [tols[0] / t for t in tols[1:]])[:, None]

    def keys(errs):
        # heap keys of the panels: their largest weighted error, negated
        return (-(errs * weights).max(axis=0)).tolist()

    def over(errors):
        return any(map(operator.gt, errors, tols))

    total, total_err = _running_sums(vals), _running_sums(errs)
    heap = []  # built only when a panel must be split
    if over(total_err):
        heap = list(zip(
            keys(errs), range(len(lo)), lo.tolist(), hi.tolist(), vals.T.tolist(), errs.T.tolist()
        ))
        heapq.heapify(heap)
    counter = len(lo)
    for _ in range(_MAX_BISECTIONS):
        if not over(total_err):
            break
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        vals, errs = gk15(f, np.array([lo, mid]), np.array([mid, hi]))
        vals, errs = vals.reshape(-1, 2), errs.reshape(-1, 2)  # (C, 2)
        (k1, k2), (v1, v2), (e1, e2) = keys(errs), vals.T.tolist(), errs.T.tolist()
        total = [t + (p + q - v) for t, p, q, v in zip(total, v1, v2, val)]
        total_err = [t + (p + q - e) for t, p, q, e in zip(total_err, e1, e2, err)]
        heapq.heappush(heap, (k1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (k2, counter, mid, hi, v2, e2))
        counter += 1
    if over(total_err):
        c = max(range(len(tols)), key=lambda c: total_err[c] / tols[c])
        where = f" in component {c}" if stacked else ""
        raise AccuracyError(
            f"adaptive quadrature stalled at error {total_err[c]:.3e} > tol {tols[c]:.3e}{where}",
            component=c if stacked else None,
        )
    if stacked:
        return np.array(total), np.array(total_err)
    return total[0], total_err[0]


def graded_edges(hi):
    """Panel edges on [0, hi] graded geometrically toward the singular end 0.

    Successive panels shrink by a factor 2 toward 0, over 54 levels, which
    resolves integrable log and algebraic singularities at 0 under gk15.
    """
    return [0.0] + [hi * 0.5**k for k in range(54, -1, -1)]
