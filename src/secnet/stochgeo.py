"""Point-process geometry: network constants in d dimensions, the k-th
nearest distance law, and the simulation window sized from the mean measures.

Two ordered processes drive every metric downstream.  For a receiver at
distance r with composite power gain g, the path-loss process collects the
values r^upsilon and the fading-weighted process collects xi = r^upsilon / g.
Both have power-law mean measures: rate * x^delta with delta = d / upsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import gammaincc, gammainccinv, gammaln, pdtri

from .fading import AlphaMuParams
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
    parameters of each side.
    """

    d: int
    upsilon: float
    lambda_b: float
    lambda_e: float
    fading_b: AlphaMuParams
    fading_e: AlphaMuParams

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got d={self.d}")
        if not 0 < self.upsilon < math.inf:
            raise ValueError(f"path-loss exponent must be positive and finite, got upsilon={self.upsilon}")
        for name in ("lambda_b", "lambda_e"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"density {name} must be positive and finite, got {getattr(self, name)}")
        object.__setattr__(self, "_unit_ball_volume",
                           math.pi ** (self.d / 2.0) / _gamma(1.0 + self.d / 2.0))

    @property
    def delta(self) -> float:
        return self.d / self.upsilon

    @property
    def unit_ball_volume(self) -> float:
        """Volume coefficient of the d-ball: pi^(d/2) / Gamma(1 + d/2),
        worked out once, at construction."""
        return self._unit_ball_volume

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
    if np.any(y <= 0):
        raise ValueError("density is defined for y > 0 only")
    with np.errstate(over="ignore"):
        # Where u overflows the density is exp(-u) = 0; the cap keeps
        # -u + k log u from becoming -inf + inf.
        u = np.minimum(coeff * y**delta, 1e300)
    out = np.exp(-u + k * np.log(u) - gammaln(k)) * delta / y
    return out if out.ndim else float(out)


def min_count_mean(k: int) -> float:
    """Smallest Poisson mean at which fewer than k points occur with
    probability at most the rejection budget."""
    return float(pdtri(k - 1, _REJECTION_BUDGET))


def _far_cutoff(geometry: NetworkGeometry, side: str, k: int) -> float:
    """Fading-weighted loss that the k-th order statistic exceeds with
    probability one tenth of the far-point budget."""
    rate = geometry.composite_rate(side)
    return (gammainccinv(k, _FAR_POINT_BUDGET / 10.0) / rate) ** (1.0 / geometry.delta)


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
