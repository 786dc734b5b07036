"""Special functions on scalars and numpy arrays.

The regularized lower incomplete gamma function P(a, z) = gamma(a, z)/Gamma(a)
takes one of two routes, chosen by the size of a:

* a < 1e3: ``scipy.special.gammainc``;
* a >= 1e3: the uniform large-parameter expansion

      P(a, z) = erfc(-eta*sqrt(a/2))/2 - R_a(eta),
      R_a(eta) ~ exp(-a*eta^2/2)/sqrt(2*pi*a) * sum_j c_j(eta)/a^j,

  valid as a -> infinity uniformly in lambda = z/a, where

      eta = sign(lambda-1) * sqrt(2*(lambda - 1 - ln(lambda))).

  scipy's P is not used there: it drifts past a = 2.6e5 (1.2e-12 absolute
  at a = 1e6, lambda = 0.995), and n up to 2^20 reaches a = 2e6; the
  expansion stays within ~1e-15 there.

``saturation_window`` gives, for one z, the shapes outside which the
expansion's P is exactly 0 or 1, so that a caller with many shapes can skip
them.  ``lgamma_diff`` gives ln Gamma(x + delta) - ln Gamma(x) with small
absolute error for large x.  Every array function here accepts scalars or
arrays, returns a scalar for scalar input, and is a pure function of its
arguments.
"""

import math

import numpy as np
from scipy import special

from .errors import DomainError, UnsupportedOrderError

# Below this a, scipy's gammainc; at and above it, the uniform expansion.
LARGE_A_THRESHOLD = 1.0e3

# Near lambda = 1 the closed forms of eta and c_j below cancel like
# 1/eta^(2j+1) - 1/(lambda-1)^(2j+1); inside this window Taylor polynomials
# in h = lambda - 1 are used instead.  0.05 keeps both routes' errors under
# ~1e-12 (the naive 1e-3 window leaves c_3 with only ~5 correct digits at
# its boundary).
NEAR_ONE_SWITCH = 0.05

# exp(-x) underflows to zero for x > ~745.13; beyond that P saturates hard.
SATURATION_EXPONENT = 745.0

# saturation_window widens the roots of its exponent equation by this
# relative amount.  Moving a root by it moves the exponent by about
# sqrt(2*745*z)*1e-6, far more than the ~1e-13 relative rounding of the
# exponent that _p_uniform compares with SATURATION_EXPONENT.
_WINDOW_MARGIN = 1e-6

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Taylor coefficients in h = lambda - 1, exact rational values.
# eta(1+h) = h - h^2/3 + 7h^3/36 - ...
_ETA_SERIES = (
    0.0,
    1.0,
    -1.0 / 3.0,
    7.0 / 36.0,
    -73.0 / 540.0,
    1331.0 / 12960.0,
    -22409.0 / 272160.0,
    372571.0 / 5443200.0,
    -953677.0 / 16329600.0,
    39833047.0 / 783820800.0,
    -17422499659.0 / 387991296000.0,
    261834237251.0 / 6518253772800.0,
    -369097712117.0 / 10168475885568.0,
)

# c_j(1+h), j = 0..3; c_0(1) = -1/3, c_1(1) = -1/540, c_2(1) = 25/6048,
# c_3(1) = 101/155520.
_C_SERIES = (
    (
        -1.0 / 3.0,
        1.0 / 12.0,
        -23.0 / 540.0,
        353.0 / 12960.0,
        -589.0 / 30240.0,
        81083.0 / 5443200.0,
        -7783.0 / 653184.0,
    ),
    (
        -1.0 / 540.0,
        -1.0 / 288.0,
        23.0 / 6048.0,
        -3733.0 / 1088640.0,
        3253.0 / 1088640.0,
        -135719.0 / 52254720.0,
        176215213.0 / 77598259200.0,
    ),
    (
        25.0 / 6048.0,
        -139.0 / 51840.0,
        259.0 / 155520.0,
        -7717.0 / 7464960.0,
        2360843.0 / 3695155200.0,
        -119841251.0 / 310393036800.0,
        2666241371.0 / 12105328435200.0,
    ),
    (
        101.0 / 155520.0,
        571.0 / 2488320.0,
        -2016373.0 / 3695155200.0,
        194036993.0 / 310393036800.0,
        -819066191.0 / 1345036492800.0,
        89940600899.0 / 161404379136000.0,
        -3692232287.0 / 7449432883200.0,
    ),
)

# Away from lambda = 1, c_j = _C_ETA[j] / eta^(2j+1) + (polynomial in 1/h
# with coefficients _C_INV_H[j], constant term first).
_C_ETA = (-1.0, 1.0, -3.0, 15.0)
_C_INV_H = (
    (0.0, 1.0),
    (0.0, -1.0 / 12.0, -1.0, -1.0),
    (0.0, 1.0 / 288.0, 1.0 / 12.0, 25.0 / 12.0, 5.0, 3.0),
    (0.0, 139.0 / 51840.0, -1.0 / 288.0, -49.0 / 288.0, -77.0 / 12.0, -105.0 / 4.0,
     -35.0, -15.0),
)


def horner(coeffs, x):
    """The polynomial with coefficients ``coeffs`` (constant term first) at
    x, a float or an array."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _flat(*args):
    """The arguments broadcast together as 1-d float arrays, and a function
    giving a 1-d result their broadcast shape (a float for scalars)."""
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in args))
    shape = arrays[0].shape
    if shape == ():
        restore = lambda out: float(out[0])
    else:
        restore = lambda out: out.reshape(shape)
    return [x.ravel() for x in arrays], restore


def _eta(h):
    # temme_eta on a 1-d array of h = lambda - 1 > -1
    out = np.empty_like(h)
    near = np.abs(h) < NEAR_ONE_SWITCH
    far = ~near
    out[near] = horner(_ETA_SERIES, h[near])
    hf = h[far]
    out[far] = np.copysign(np.sqrt(2.0 * (hf - np.log1p(hf))), hf)
    return out


def _temme_cs(h, eta):
    """c_0..c_3 as a (4, m) array, from 1-d arrays of h = lambda - 1 and eta."""
    cs = np.empty((4, h.size))
    near = np.abs(h) < NEAR_ONE_SWITCH
    far = ~near
    hn = h[near]
    inv_h = 1.0 / h[far]
    inv_eta = 1.0 / eta[far]
    inv_eta2 = inv_eta * inv_eta
    for j in range(4):
        cs[j, near] = horner(_C_SERIES[j], hn)
        cs[j, far] = _C_ETA[j] * inv_eta + horner(_C_INV_H[j], inv_h)
        inv_eta = inv_eta * inv_eta2
    return cs


def temme_eta(lam):
    """Signed eta with eta^2/2 = lambda - 1 - ln(lambda); sign(eta) = sign(lambda-1)."""
    (lam,), restore = _flat(lam)
    if not np.all(lam > 0):
        raise DomainError("temme_eta requires lambda > 0", constraint="lambda")
    return restore(_eta(lam - 1.0))


def temme_c(j, lam):
    """Coefficient c_j(eta) of the uniform expansion, j in 0..3.

    c_0 = 1/(lambda-1) - 1/eta and each later c_j adds one more pair of
    odd reciprocal powers; near lambda = 1 the pairs cancel and frozen
    Taylor polynomials take over.
    """
    if j not in (0, 1, 2, 3):
        raise UnsupportedOrderError("only c_0..c_3 are implemented")
    (lam,), restore = _flat(lam)
    if not np.all(lam > 0):
        raise DomainError("temme_c requires lambda > 0", constraint="lambda")
    h = lam - 1.0
    return restore(_temme_cs(h, _eta(h))[j])


def _p_uniform(a, z):
    # The uniform expansion on 1-d arrays with a >= LARGE_A_THRESHOLD, z > 0.
    h = z / a - 1.0
    eta = _eta(h)
    expo = 0.5 * a * eta * eta
    live = expo <= SATURATION_EXPONENT
    out = np.where(h > 0.0, 1.0, 0.0)
    a, h, eta, expo = a[live], h[live], eta[live], expo[live]
    half = 0.5 * special.erfc(-eta * np.sqrt(0.5 * a))
    cs = _temme_cs(h, eta)
    inv_a = 1.0 / a
    series = cs[0] + inv_a * (cs[1] + inv_a * (cs[2] + inv_a * cs[3]))
    out[live] = half - np.exp(-expo) / _SQRT_2PI / np.sqrt(a) * series
    return out


def saturation_window(z):
    """Shape bounds (a_lo, a_hi) of the live window of P(., z) for a >= 1e3.

    For every a >= LARGE_A_THRESHOLD outside [a_lo, a_hi], reg_lower_gamma
    returns exactly 1 (a < a_lo) or exactly 0 (a > a_hi): there the
    exponent a*eta^2/2 = a*(lambda - 1 - ln lambda), lambda = z/a, exceeds
    SATURATION_EXPONENT.  The bounds are the two roots of that equation in
    a, found by Newton's method and widened by a relative margin; a_lo is 0
    where the exponent never reaches the limit below z.  For z = 0 both are
    0: every P is 0.
    """
    if not (z >= 0.0 and math.isfinite(z)):
        raise DomainError("z must be nonnegative", constraint="z")
    if z == 0.0:
        return 0.0, 0.0
    width = math.sqrt(2.0 * SATURATION_EXPONENT * z)

    def root(a):
        # phi(a) = z - a + a ln(a/z) is convex with phi'(a) = ln(a/z), so
        # after one step the iterates approach the root from outside
        for _ in range(100):
            step = (z - a + a * math.log(a / z) - SATURATION_EXPONENT) / math.log(a / z)
            a -= step
            if abs(step) <= 1e-15 * a:
                break
        return a

    # phi(z(1-t)) > z t^2/2 > phi(z(1+t)): z - width lies below the lower
    # root; z + width lies below the upper one, and the first step passes it
    a_lo = root(max(z - width, 1e-300 * z)) if z > SATURATION_EXPONENT else 0.0
    a_hi = root(z + width)
    return a_lo * (1.0 - _WINDOW_MARGIN), a_hi * (1.0 + _WINDOW_MARGIN)


def reg_lower_gamma(a_tilde, z):
    """Regularized lower incomplete gamma P(a, z) = gamma(a, z)/Gamma(a).

    Scalars or broadcastable arrays; returns values in [0, 1].  Relative
    error <= ~1e-12 wherever P >= 1e-300: scipy's gammainc for a < 1e3, the
    uniform expansion with four correction coefficients for a >= 1e3, with
    P set to exactly 0 or 1 once a*eta^2/2 exceeds the double-precision
    exponent range.
    """
    (a, z), restore = _flat(a_tilde, z)
    if not np.all((a > 0) & np.isfinite(a)):
        raise DomainError("a_tilde must be positive", constraint="a_tilde")
    if not np.all((z >= 0) & np.isfinite(z)):
        raise DomainError("z must be nonnegative", constraint="z")
    out = np.empty_like(a)
    small = a < LARGE_A_THRESHOLD
    out[small] = special.gammainc(a[small], z[small])
    large = ~small & (z > 0.0)
    if np.any(large):
        out[large] = _p_uniform(a[large], z[large])
    out[~small & (z == 0.0)] = 0.0
    return restore(np.clip(out, 0.0, 1.0))


# Stirling-series coefficients B_{2m}/(2m(2m-1)) for the log-gamma tail.
_STIRLING_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)

_LGAMMA_DIFF_DIRECT_CUTOFF = 20.0


def lgamma_diff(x, delta):
    """ln Gamma(x + delta) - ln Gamma(x) with small absolute error.

    Scalars or broadcastable arrays.  For x >= 20 the difference of the two
    Stirling series is expanded analytically so the result carries ~1e-15
    absolute error even when lnGamma itself is ~1e6 (a naive lgamma
    difference then loses five digits); below 20, math.lgamma element by
    element.  Requires x > 0 and x + delta > 0.  Several shifts of the same
    x are cheapest as one call with delta a column against the row x: the
    powers of x are then taken once for all of them.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    xs, ds = np.broadcast_arrays(x, delta)
    if not np.all((xs > 0) & (xs + ds > 0)):
        raise DomainError("lgamma_diff requires positive arguments", constraint="x")
    # The expansion runs on every entry, with x clamped to the cutoff (the
    # entries below it are replaced next), and before x is broadcast
    # against delta: a column of shifts shares the powers of x.
    # (x+d-1/2)ln(x+d) - (x-1/2)ln(x) - d  ==  (x-1/2)log1p(d/x) + d(ln(x+d) - 1)
    x = np.maximum(x, _LGAMMA_DIFF_DIRECT_CUTOFF)
    log_ratio = np.log1p(delta / x)
    main = (x - 0.5) * log_ratio + delta * (np.log(x + delta) - 1.0)
    stirling = 0.0
    for m, coeff in enumerate(_STIRLING_TAIL, start=1):
        power = 1 - 2 * m
        stirling = stirling + coeff * x**power * np.expm1(power * log_ratio)
    out = np.asarray(main + stirling)
    direct = (xs < _LGAMMA_DIFF_DIRECT_CUTOFF) & (ds != 0.0)
    out[direct] = [
        math.lgamma(xi + di) - math.lgamma(xi)
        for xi, di in zip(xs[direct].tolist(), ds[direct].tolist())
    ]
    return float(out) if out.ndim == 0 else out
