"""Point-process geometry: homogeneous Poisson sampling in d dimensions, the
k-th nearest distance law, and the fading-weighted path-loss process.

Two ordered processes drive every metric downstream.  For a receiver at
distance r with composite power gain g, the path-loss process collects the
values r^upsilon and the fading-weighted process collects xi = r^upsilon / g.
Both have power-law mean measures: rate * x^delta with delta = d / upsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma
from scipy.special import gammaincc, gammainccinv, gammaln, pdtr

from .fading import AlphaMuParams

__all__ = [
    "NetworkGeometry",
    "ordered_path_gains",
    "pdf_kth_distance_pow",
    "sample_hppp",
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

    The optional fading entries are the composite-gain (post branch-sum fit)
    parameters of each side; they are required for the fading-weighted rate
    constants but not for plain distance geometry.
    """

    d: int
    upsilon: float
    lambda_b: float
    lambda_e: float
    fading_b: AlphaMuParams | None = None
    fading_e: AlphaMuParams | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if self.upsilon <= 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.upsilon}")
        if self.lambda_b <= 0 or self.lambda_e <= 0:
            raise ValueError(
                f"densities must be positive, got lambda_b={self.lambda_b}, lambda_e={self.lambda_e}"
            )

    @property
    def delta(self) -> float:
        return self.d / self.upsilon

    @property
    def unit_ball_volume(self) -> float:
        """Volume coefficient of the d-ball: pi^(d/2) / Gamma(1 + d/2)."""
        return math.pi ** (self.d / 2.0) / _gamma(1.0 + self.d / 2.0)

    def density(self, side: str) -> float:
        _check_side(side)
        return self.lambda_b if side == "legitimate" else self.lambda_e

    def fading(self, side: str) -> AlphaMuParams:
        _check_side(side)
        fad = self.fading_b if side == "legitimate" else self.fading_e
        if fad is None:
            raise ValueError(f"geometry carries no composite fading parameters for side {side!r}")
        return fad

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


def sample_hppp(
    density: float,
    geometry: NetworkGeometry,
    radius: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One realization of a homogeneous Poisson process inside a d-ball.

    Returns an (N, d) array of positions; N is Poisson with mean
    density * c_d * radius^d and the positions are uniform in the ball.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    mean_count = density * geometry.unit_ball_volume * radius**geometry.d
    count = int(rng.poisson(mean_count))
    if count == 0:
        return np.empty((0, geometry.d))
    radii = radius * rng.random(count) ** (1.0 / geometry.d)
    directions = rng.standard_normal((count, geometry.d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return radii[:, None] * directions


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
    u = coeff * y**delta
    out = np.exp(-u + k * np.log(u) - gammaln(k)) * delta / y
    return out if out.ndim else float(out)


def ordered_path_gains(
    points: np.ndarray,
    gains: np.ndarray,
    geometry: NetworkGeometry,
) -> np.ndarray:
    """Ascending fading-weighted path losses xi = r^upsilon / g.

    Each point must be paired with an independent composite-gain draw; index
    k-1 of the result belongs to the k-th best receiver (the k-th largest
    composite channel gain).
    """
    points = np.asarray(points, dtype=float)
    gains = np.asarray(gains, dtype=float)
    if points.shape[0] != gains.shape[0]:
        raise ValueError("each point needs exactly one gain draw")
    if points.shape[0] == 0:
        return np.empty(0)
    radii = np.linalg.norm(points, axis=1)
    return np.sort(radii**geometry.upsilon / gains)


def _min_count_radius(density: float, geometry: NetworkGeometry, k: int) -> float:
    """Smallest ball radius keeping P(fewer than k points) under the budget."""
    c_d = geometry.unit_ball_volume
    radius = 1.0
    while pdtr(k - 1, density * c_d * radius**geometry.d) > _REJECTION_BUDGET:
        radius *= 1.25
    return radius


def _far_point_radius(
    geometry: NetworkGeometry,
    side: str,
    k: int,
    start: float,
) -> float:
    """Grow the radius until points beyond it are unlikely to reach the k
    smallest fading-weighted path losses.

    The cutoff uses a high quantile of the k-th order statistic together
    with the stretched-exponential survival of the fading gain: the expected
    number of outside points falling below the cutoff bounds the probability
    that any of them enters the top k.
    """
    fad = geometry.fading(side)
    density = geometry.density(side)
    rate = geometry.composite_rate(side)
    d, ups = geometry.d, geometry.upsilon
    c_d = geometry.unit_ball_volume
    # budget split: the k-th order statistic exceeds the cutoff with
    # probability budget/10, and the expected number of outside points below
    # the cutoff is held under the remaining 9/10
    xi_hi = (gammainccinv(k, _FAR_POINT_BUDGET / 10.0) / rate) ** (1.0 / geometry.delta)

    def expected_far(radius: float) -> float:
        def integrand(r):
            return (
                density * d * c_d * r ** (d - 1)
                * gammaincc(fad.mu, (r**ups / (xi_hi * fad.omega)) ** (0.5 * fad.alpha))
            )

        val, _ = quad(integrand, radius, np.inf, epsabs=1e-12, epsrel=1e-8, limit=200)
        return val

    radius = start
    while expected_far(radius) > 0.9 * _FAR_POINT_BUDGET:
        radius *= 1.25
        if radius > 1e4:
            raise RuntimeError("window radius rule diverged; fading tail too heavy")
    return radius


def window_radius(
    geometry: NetworkGeometry,
    side: str,
    k: int,
    orderings: tuple[str, ...] = ("nearest", "best"),
    min_radius: float = _DEFAULT_MIN_RADIUS,
) -> float:
    """Simulation ball radius for order statistics up to index k on one side.

    Always large enough that a realization has at least k points except with
    probability below the rejection budget; when the best (fading-weighted)
    ordering is required, additionally large enough that the k first order
    statistics are insensitive to the truncation.
    """
    if k < 1:
        raise ValueError(f"order index must be >= 1, got {k}")
    radius = max(_min_count_radius(geometry.density(side), geometry, k), min_radius)
    if "best" in orderings:
        radius = _far_point_radius(geometry, side, k, radius)
    return radius
