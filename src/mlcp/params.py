"""Model parameters (b, alpha, r, u, a) and their validity constraints."""

import math
from dataclasses import dataclass

from .errors import DomainError


def is_int(value):
    """Whether value is an int and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Params:
    """Parameter tuple of the radial two-dimensional ensemble.

    b      : potential exponent, > 0, with a finite edge b**(-1/(2b))
    alpha  : pointwise root-type charge at the origin, > -1
    r      : radius of the circular singularity, strictly inside the
             droplet: 0 < r < b**(-1/(2b))
    u      : jump strength (weight is multiplied by e^u inside radius r)
    a      : root-type exponent along |z| = r, a nonnegative integer
    """

    b: float
    alpha: float
    r: float
    u: float
    a: int

    def __post_init__(self):
        if not (self.b > 0 and math.isfinite(self.b)):
            raise DomainError("b must be positive and finite", constraint="b")
        if not (self.alpha > -1 and math.isfinite(self.alpha)):
            raise DomainError("alpha must be > -1", constraint="alpha")
        try:
            edge = self.edge_radius
        except OverflowError:
            edge = math.inf
        if edge == math.inf:
            raise DomainError(
                "b is too small: the edge b**(-1/(2b)) overflows a double",
                constraint="b",
            )
        if not (0.0 < self.r < edge):
            raise DomainError(
                f"r must lie strictly inside (0, {edge!r})", constraint="r"
            )
        if not math.isfinite(self.u):
            raise DomainError("u must be finite", constraint="u")
        if not (is_int(self.a) and self.a >= 0):
            raise DomainError("a must be a nonnegative integer", constraint="a")

    @property
    def edge_radius(self):
        """Right edge b**(-1/(2b)) of the support of the radial law."""
        return self.b ** (-1.0 / (2.0 * self.b))

    @property
    def bulk_mass(self):
        """Mass b*r^(2b) of the radial law on [0, r]."""
        return self.b * self.r ** (2.0 * self.b)


def check_size(params, n):
    """Raise DomainError unless params is a Params and n a positive int."""
    if not isinstance(params, Params):
        raise DomainError("params must be a Params instance")
    if not (is_int(n) and n >= 1):
        raise DomainError("n must be a positive integer", constraint="n")


def exp_u(u):
    """e**u; a u whose e**u overflows a double (u > 709.78) is a DomainError.
    The asymptotic profile also takes e**-u through it, so that a u below
    -709.78 is one there."""
    try:
        return math.exp(u)
    except OverflowError:
        raise DomainError(
            f"|u| is too large: e**{u!r} overflows a double", constraint="u"
        ) from None
