"""Special functions on scalars and numpy arrays.

The regularized lower incomplete gamma function P(a, z) = gamma(a, z)/Gamma(a)
takes one of two routes, chosen by the size of a:

* a < 1e3: ``scipy.special.gammainc``;
* a >= 1e3: the uniform large-parameter expansion

      P(a, z) = erfc(-eta*sqrt(a/2))/2 - R_a(eta),
      R_a(eta) ~ exp(-a*eta^2/2)/sqrt(2*pi*a) * sum_j c_j(eta)/a^j,

  valid as a -> infinity uniformly in lambda = z/a, where

      eta = sign(lambda-1) * sqrt(2*(lambda - 1 - ln(lambda))).

  scipy's P is not used there: its lower-tail relative error grows with a
  (at z = a + x sqrt(a), |x| <= 12: 2.5e-7 at a = 7e5, 4.3e-6 at 1e6,
  2.4e-4 at 2e6), and it takes 2-14 times the expansion's time on 200 to
  2000 window shapes at z from 1.3e5 to 2e6.  n up to 2^20 reaches
  a = 2e6; the expansion stays within ~1e-16 absolute there.

Past a*eta^2/2 ~ 745.13 its erfc and exp underflow, and it gives exactly 1
or 0.  ``saturation_window`` gives, for one z and an exponent E, closed-form
shape bounds outside which a*(lambda - 1 - ln lambda) > E, so that a caller
with many shapes can skip them.  ``lgamma_diff`` gives ln Gamma(x + delta) -
ln Gamma(x) - delta ln n with small absolute error for large x; its Stirling
series stops at the first term that cannot change a bit of the result.
Every array function here accepts scalars or arrays, returns a scalar for
scalar input, and is a pure function of its arguments.  It names
``scipy.special.<fn>`` at the call, not at import: scipy imports that
submodule on first access, so a process that never calls one skips its cost.
"""

import math

import numpy as np
import scipy

from .errors import DomainError

# Below this a, scipy's gammainc; at and above it, the uniform expansion.
LARGE_A_THRESHOLD = 1.0e3

# Near lambda = 1 the closed forms of eta and c_j below cancel like
# 1/eta^(2j+1) - 1/(lambda-1)^(2j+1); inside this window Taylor polynomials
# in h = lambda - 1 are used instead.  0.05 keeps both routes' errors under
# ~1e-12 (the naive 1e-3 window leaves c_3 with only ~5 correct digits at
# its boundary).
NEAR_ONE_SWITCH = 0.05

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
        if isinstance(acc, np.ndarray):  # the same two roundings, in place
            acc *= x
            acc += c
        else:
            acc = acc * x + c
    return acc


def _piecewise(mask, on_true, on_false, *args):
    """on_true on the entries where the 1-d bool mask holds, on_false on the
    rest: each gets those entries of every 1-d array in args and a float
    arg whole, and returns their values as a 1-d array.  The functions are
    elementwise, so each value is the one a call on that entry alone gives,
    bit for bit; a mask that is all one way indexes nothing."""
    if mask.all():
        return on_true(*args)
    if not mask.any():
        return on_false(*args)
    out = np.empty(mask.shape)
    for part, fn in ((mask, on_true), (~mask, on_false)):
        out[part] = fn(*(x[part] if np.ndim(x) else x for x in args))
    return out


# eta and c_0..c_3 of the uniform expansion at 1-d h = lambda - 1 > -1: the
# Taylor polynomials near lambda = 1 (|h| < NEAR_ONE_SWITCH), the closed
# forms away from it.
def _eta_near(h):
    return horner(_ETA_SERIES, h)


def _eta_far(h):
    # h = -1 (lambda below 2^-53) gives eta = -inf, and P = 0, exactly
    with np.errstate(divide="ignore"):
        return np.copysign(np.sqrt(2.0 * (h - np.log1p(h))), h)


def _cs_near(h, eta):
    return [horner(c, h) for c in _C_SERIES]


def _cs_far(h, eta):
    inv_h = 1.0 / h
    inv_eta = 1.0 / eta
    inv_eta2 = inv_eta * inv_eta
    cs = []
    for j in range(4):
        cs.append(_C_ETA[j] * inv_eta + horner(_C_INV_H[j], inv_h))
        inv_eta = inv_eta * inv_eta2
    return cs


def _near(h):
    return np.abs(h) < NEAR_ONE_SWITCH


def temme_eta(lam):
    """Signed eta with eta^2/2 = lambda - 1 - ln(lambda); sign(eta) = sign(lambda-1).

    A scalar or an array; returns a float for scalar input."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise DomainError("temme_eta requires lambda > 0", constraint="lambda")
    h = lam.ravel() - 1.0
    out = _piecewise(_near(h), _eta_near, _eta_far, h)
    return float(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)


def _p_temme(a, h, eta_of, cs_of):
    # The uniform expansion on 1-d arrays of a and h = z/a - 1, all on the
    # side of lambda = 1 that eta_of and cs_of serve
    eta = eta_of(h)
    expo = 0.5 * a * eta * eta
    half = 0.5 * scipy.special.erfc(-eta * np.sqrt(0.5 * a))
    cs = cs_of(h, eta)
    inv_a = 1.0 / a
    series = cs[0] + inv_a * (cs[1] + inv_a * (cs[2] + inv_a * cs[3]))
    return half - np.exp(-expo) / _SQRT_2PI / np.sqrt(a) * series


def _p_uniform(a, z):
    # The uniform expansion on a 1-d array a >= LARGE_A_THRESHOLD and z >= 0,
    # a float or an array like a; saturated (exactly 1 or 0) by underflow
    # past expo ~ 745.13 (and at z = 0, see _eta_far).  h = (z - a)/a is one
    # rounding off for z/2 <= a <= 2z (Sterbenz); erfc's argument multiplies
    # the error of h by about sqrt(a/2), which z/a - 1 would raise to 2.7e-14
    # of P at a = 1e6.
    h = (z - a) / a
    return _piecewise(
        _near(h),
        lambda a, h: _p_temme(a, h, _eta_near, _cs_near),
        lambda a, h: _p_temme(a, h, _eta_far, _cs_far),
        a,
        h,
    )


def saturation_window(z, exponent):
    """Shape bounds (a_lo, a_hi) outside which a*(lambda - 1 - ln lambda),
    lambda = z/a, exceeds ``exponent`` E.

    With a = z(1 + x) the exponent is z*h(x), h(x) = (1+x) ln(1+x) - x >=
    x^2/(2(1 + x/3)) for x > -1 (Bennett's inequality), and that bound falls
    on (-1, 0) and rises after.  Its roots a = z + E/3 -+ sqrt(E^2/9 + 2Ez)
    thus enclose the exact ones; a_lo is clipped at 0, and z = 0 gives
    (0, 0).  Outside the window P lies within e^-E of 1 (a < a_lo) or 0
    (a > a_hi).  The exact kernel's exponents run from 40 to about 750.
    """
    if not (z >= 0.0 and math.isfinite(z)):
        raise DomainError("z must be nonnegative", constraint="z")
    if z == 0.0:
        return 0.0, 0.0
    center = z + exponent / 3.0
    half_width = math.sqrt(exponent * exponent / 9.0 + 2.0 * exponent * z)
    return max(center - half_width, 0.0), center + half_width


def reg_lower_gamma(a_tilde, z):
    """Regularized lower incomplete gamma P(a, z) = gamma(a, z)/Gamma(a).

    Scalars or broadcastable arrays; returns values in [0, 1].  Relative
    error <= ~1e-12 wherever P >= 1e-300: scipy's gammainc for a < 1e3, the
    uniform expansion with four correction coefficients for a >= 1e3, which
    is exactly 0 or 1 once its erfc and exp underflow (a*eta^2/2 > ~745.13).
    The shapes split once between the two routes, and the expansion's
    entries once between near and far from lambda = 1 (NEAR_ONE_SWITCH); a
    float z is not broadcast.  Each value is the one a call on that entry
    alone gives, bit for bit.
    """
    a = np.asarray(a_tilde, dtype=float)
    z = np.asarray(z, dtype=float)
    if not np.all((a > 0) & np.isfinite(a)):
        raise DomainError("a_tilde must be positive", constraint="a_tilde")
    if not np.all((z >= 0) & np.isfinite(z)):
        raise DomainError("z must be nonnegative", constraint="z")
    shape = np.broadcast_shapes(a.shape, z.shape)
    a = np.broadcast_to(a, shape).ravel()
    z = float(z) if z.ndim == 0 else np.broadcast_to(z, shape).ravel()
    out = _piecewise(a < LARGE_A_THRESHOLD, scipy.special.gammainc, _p_uniform, a, z)
    out = np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if shape == () else out.reshape(shape)


# Stirling-series coefficients B_{2m}/(2m(2m-1)) for the log-gamma tail.
_STIRLING_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)

_LGAMMA_DIFF_DIRECT_CUTOFF = 20.0

# X_m, m = 1..5: for x >= X_m and delta >= 0 the m-th Stirling term is below
# 2^-60 of the first (derivation in lgamma_diff).  The first term always runs.
_STIRLING_REACH = (math.inf,) + tuple(
    ((2 * m - 1) * abs(c / _STIRLING_TAIL[0]) * 2.0**60) ** (1.0 / (2 * m - 2))
    for m, c in enumerate(_STIRLING_TAIL[1:], start=2)
)


def lgamma_diff(x, delta, n):
    """ln Gamma(x + delta) - ln Gamma(x) - delta ln n with small absolute
    error.

    Scalars or broadcastable arrays, and a scale n > 0.  For x >= 20 the
    difference of the two Stirling series is expanded analytically, with
    main term (x - 1/2) log1p(delta/x) + delta (ln((x + delta)/n) - 1), so
    the result carries ~1e-15 absolute error even when lnGamma itself is
    ~1e6 (a naive lgamma difference then loses five digits), and delta ln n
    cancels against nothing (subtracted from the result at x ~ n it left
    up to 1.6e-14); below 20, math.lgamma element by element, less
    delta ln n.  Requires x > 0 and x + delta > 0.  Several shifts of the
    same x are cheapest as one call with delta a column against the row x:
    the powers of x are then taken once for all of them.

    The series stops at the first term m with min(x) >= X_m (x clamped to
    20), provided delta >= 0; the result is the five-term sum's, bit for
    bit.  With rho = log1p(delta/x) >= 0 the m-th term is

        t_m = c_m x^(1-2m) expm1(-(2m-1) rho),   c_m = B_2m/(2m(2m-1)),

    and 1 - e^(-k rho) = (1 - e^(-rho))(1 + e^(-rho) + ... + e^(-(k-1) rho))
    <= k (1 - e^(-rho)), so

        |t_m| <= (2m-1) |c_m/c_1| x^(2-2m) |t_1|.

    X_m = ((2m-1) |c_m/c_1| 2^60)^(1/(2m-2)) (about 3.4e8, 1.5e4, 622 and
    134 for m = 2..5) makes that factor 2^-60 at x = X_m; it falls with x,
    and X_m falls with m, so at min(x) >= X_m every term from m on is below
    2^-60 |t_1| on every entry.  At x >= 20, |t_2| <= 2.5e-4 |t_1|, so each
    partial sum s has |s| > |t_1|/2, and a term |t| < 2^-54 |s| leaves
    fl(s + t) = s.  The computed terms are within a few ulps of their exact
    values (or underflow to 0), far inside the margin between 2^-60 and
    2^-55.  A negative delta runs all five terms.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    xs, ds = np.broadcast_arrays(x, delta)
    # fl(x + d) is monotone in x and d, so the extrema pass only if every
    # pair does; the pairwise check runs only when they do not
    x_min = float(x.min(initial=math.inf))
    d_min = float(delta.min(initial=math.inf))
    if xs.size and not (x_min > 0.0 and x_min + d_min > 0.0):
        if not np.all((xs > 0) & (xs + ds > 0)):
            raise DomainError("lgamma_diff requires positive arguments", constraint="x")
    # The expansion runs on every entry, with x clamped to the cutoff (the
    # entries below it are replaced next), and before x is broadcast
    # against delta: a column of shifts shares the powers of x.
    # (x+d-1/2)ln(x+d) - (x-1/2)ln(x) - d - d ln(n)
    #     ==  (x-1/2)log1p(d/x) + d(ln((x+d)/n) - 1)
    x = np.maximum(x, _LGAMMA_DIFF_DIRECT_CUTOFF)
    log_ratio = np.log1p(delta / x)
    main = (x - 0.5) * log_ratio + delta * (np.log((x + delta) / n) - 1.0)
    reach = max(x_min, _LGAMMA_DIFF_DIRECT_CUTOFF) if d_min >= 0.0 else 0.0
    stirling = 0.0
    for m, (coeff, limit) in enumerate(zip(_STIRLING_TAIL, _STIRLING_REACH), start=1):
        if reach >= limit:
            break
        power = 1 - 2 * m
        stirling = stirling + coeff * x**power * np.expm1(power * log_ratio)
    out = np.asarray(main + stirling)
    if x_min < _LGAMMA_DIFF_DIRECT_CUTOFF:
        direct = (xs < _LGAMMA_DIFF_DIRECT_CUTOFF) & (ds != 0.0)
        ln_n = math.log(n)
        out[direct] = [
            math.lgamma(xi + di) - math.lgamma(xi) - di * ln_n
            for xi, di in zip(xs[direct].tolist(), ds[direct].tolist())
        ]
    return float(out) if out.ndim == 0 else out
