"""Point-process geometry: network constants in d dimensions, the k-th
nearest distance law, and the simulation window sized from the mean measures.

Two ordered processes drive every metric downstream.  For a receiver at
distance r with composite power gain g, the path-loss process collects the
values r^upsilon and the fading-weighted process collects xi = r^upsilon / g.
Both have power-law mean measures: rate * x^delta with delta = d / upsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import gammaincc, gammainccinv, gammaln, pdtri

from .fading import AlphaMuParams, hold_python_scalar
from .specfun import ConvergenceError

__all__ = [
    "NetworkGeometry",
    "min_count_mean",
    "pdf_kth_distance_pow",
    "window_radius",
]

SIDES = ("legitimate", "eavesdropper")

# Window sizing rules: a realization may lose at most this probability mass of
# the k first order statistics to points outside the sampling ball, and the
# chance of drawing fewer than k points must stay below the rejection budget.
_FAR_POINT_BUDGET = 1e-6
_REJECTION_BUDGET = 1e-9
_DEFAULT_MIN_RADIUS = 10.0


@dataclass(frozen=True)
class NetworkGeometry:
    """Network dimension, path loss, densities, and derived rate constants.

    The fading entries are the composite-gain (post branch-sum fit)
    parameters of each side.  d is held as a Python int, the other scalars
    as Python floats (:func:`fading.python_scalar`).  ``unit_ball_volume``,
    pi^(d/2) / Gamma(1 + d/2), is worked out once, at construction.
    """

    d: int
    upsilon: float
    lambda_b: float
    lambda_e: float
    fading_b: AlphaMuParams
    fading_e: AlphaMuParams
    unit_ball_volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The type is tested first, as in ScenarioConfig.__post_init__.
        if not (self.d if type(self.d) is int else hold_python_scalar(self, "d", int)) >= 1:
            raise ValueError(f"dimension must be a positive integer, got d={self.d}")
        upsilon = self.upsilon if type(self.upsilon) is float else hold_python_scalar(self, "upsilon")
        if not 0 < upsilon < math.inf:
            raise ValueError(f"path-loss exponent must be positive and finite, got upsilon={self.upsilon}")
        for name in ("lambda_b", "lambda_e"):
            value = getattr(self, name)
            if not 0 < (value if type(value) is float else hold_python_scalar(self, name)) < math.inf:
                raise ValueError(f"density {name} must be positive and finite, got {value}")
        object.__setattr__(self, "unit_ball_volume",
                           float(math.pi ** (self.d / 2.0) / _gamma(1.0 + self.d / 2.0)))

    @property
    def delta(self) -> float:
        return self.d / self.upsilon

    def density(self, side: str) -> float:
        _check_side(side)
        return self.lambda_b if side == "legitimate" else self.lambda_e

    def fading(self, side: str) -> AlphaMuParams:
        _check_side(side)
        return self.fading_b if side == "legitimate" else self.fading_e

    def pathloss_rate(self, side: str) -> float:
        """Mean-measure coefficient of {r^upsilon <= x}: density * c_d."""
        return self.density(side) * self.unit_ball_volume

    def composite_rate(self, side: str) -> float:
        """Mean-measure coefficient of {r^upsilon / g <= x}.

        Equals density * c_d * omega^delta * Gamma(mu + 2*delta/alpha) / Gamma(mu)
        for the side's composite fading, so that the mean number of receivers
        with fading-weighted path loss below x is composite_rate * x^delta.
        """
        fad = self.fading(side)
        boost = fad.omega**self.delta * math.exp(
            gammaln(fad.mu + 2.0 * self.delta / fad.alpha) - gammaln(fad.mu)
        )
        return self.pathloss_rate(side) * boost


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def pdf_kth_distance_pow(k: int, coeff: float, delta: float, y):
    """Density of the k-th smallest point of a process with mean measure coeff * x^delta.

    Specializing coeff to the path-loss rate gives the law of the k-th nearest
    distance raised to the path-loss exponent; it is a generalized gamma
    density exp(-coeff*y^delta) * delta * (coeff*y^delta)^k / (y * Gamma(k)).
    """
    if k < 1:
        raise ValueError(f"order index must be >= 1, got {k}")
    y = np.asarray(y, dtype=float)
    # one NaN-skipping reduction: no boolean temporary, and NaN is not rejected
    if np.fmin.reduce(y, axis=None, initial=np.inf) <= 0:
        raise ValueError("density is defined for y > 0 only")
    with np.errstate(over="ignore", divide="ignore"):
        # Where u overflows the density is exp(-u) = 0; the cap keeps
        # -u + k log u from becoming -inf + inf.  Where u underflows to 0 the
        # density is exp(-inf) = 0.
        # exp(-u + k log u - log Gamma(k)) * delta / y, formed in place on
        # two arrays: a large grid costs two allocations, not eleven
        u = np.asarray(y**delta)
        u *= coeff
        np.minimum(u, 1e300, out=u)
        out = np.log(u, out=np.empty_like(u))
        out *= k
        out -= u
        out -= gammaln(k)
        np.exp(out, out=out)
        out *= delta
        out /= y
    return out if out.ndim else float(out)


def min_count_mean(k: int) -> float:
    """Smallest Poisson mean at which fewer than k points occur with
    probability at most the rejection budget."""
    return float(pdtri(k - 1, _REJECTION_BUDGET))


def _far_cutoff(geometry: NetworkGeometry, side: str, k: int) -> float:
    """Fading-weighted loss that the k-th order statistic exceeds with
    probability one tenth of the far-point budget.

    Raises ConvergenceError where it underflows to 0 or overflows, as a
    density of the order of 1e300 or 1e-300 makes it at upsilon = 8: the
    window rule divides by it.
    """
    rate = geometry.composite_rate(side)
    with np.errstate(over="ignore"):
        xi = (gammainccinv(k, _FAR_POINT_BUDGET / 10.0) / rate) ** (1.0 / geometry.delta)
    if not 0.0 < xi < math.inf:
        raise ConvergenceError(f"far-point cutoff {xi:g} of the {side} window lies outside the float range")
    return xi


def _far_count(geometry: NetworkGeometry, side: str, xi: float, radius: float) -> float:
    """Expected number of points beyond ``radius`` whose fading-weighted
    loss r^upsilon / g is at most xi.

    That is the integral over r > R of lambda d c_d r^(d-1) Q(mu, T(r)),
    T(r) = (r^upsilon / (xi omega))^(alpha/2) and Q the regularized upper
    incomplete gamma function; integrated by parts, it is

        composite_rate xi^delta Q(mu + 2 delta/alpha, T(R)) - lambda c_d R^d Q(mu, T(R)).
    """
    fad = geometry.fading(side)
    t = (radius**geometry.upsilon / (xi * fad.omega)) ** (0.5 * fad.alpha)
    return (geometry.composite_rate(side) * xi**geometry.delta
            * gammaincc(fad.mu + 2.0 * geometry.delta / fad.alpha, t)
            - geometry.pathloss_rate(side) * radius**geometry.d * gammaincc(fad.mu, t))


def _far_point_radius(
    geometry: NetworkGeometry,
    side: str,
    k: int,
    start: float,
) -> float:
    """Grow the radius until points beyond it are unlikely to reach the k
    smallest fading-weighted path losses.

    The k-th order statistic exceeds the cutoff with probability budget/10,
    and the expected number of outside points below the cutoff, which
    bounds the probability that any of them enters the top k, is held under
    the remaining 9/10.
    """
    xi = _far_cutoff(geometry, side, k)
    radius = start
    while _far_count(geometry, side, xi, radius) > 0.9 * _FAR_POINT_BUDGET:
        radius *= 1.25
        if radius > 1e4:
            raise ConvergenceError("window radius rule diverged; fading tail too heavy")
    return radius


def window_radius(
    geometry: NetworkGeometry,
    side: str,
    k: int,
    orderings: tuple[str, ...] = ("nearest", "best"),
) -> float:
    """Simulation ball radius for order statistics up to index k on one side.

    At least 10, and always large enough that a realization has at least k
    points except with probability below the rejection budget: the ball's
    mean count is then at least ``min_count_mean(k)``.  When the best
    (fading-weighted) ordering is required, additionally large enough that
    the k first order statistics are insensitive to the truncation.
    """
    if k < 1:
        raise ValueError(f"order index must be >= 1, got {k}")
    count_radius = (min_count_mean(k) / geometry.pathloss_rate(side)) ** (1.0 / geometry.d)
    radius = max(count_radius, _DEFAULT_MIN_RADIUS)
    if "best" in orderings:
        radius = _far_point_radius(geometry, side, k, radius)
    return radius
