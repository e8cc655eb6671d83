"""Defining-integral quadrature: the oracle that integrates each metric's
probability/expectation integral from gamma-family primitives only,
deliberately bypassing the Fox H route the closed forms take.

By the mapping theorem the k-th nearest receiver is the k-th point Y of
{r^upsilon}, with gain G / Y, and the k-th best one the k-th point Y of
{r^upsilon / g}, with gain 1 / Y; both processes have mean measure
rate * y^delta.  One law per side law (``_law``) gives the density, the
CDF and the expectations of that gain at each rule level, and each metric
is a functional of the two sides' laws (``cop``, ``pnz``, ``capacity``);
``pdf`` is the legitimate law's density, which the figures plot.  The
exp-sinh nodes whose weight underflows to exactly 0 are passed over before
any 2D primitive is evaluated on them, which changes a sum by rounding
alone; each level evaluates a 2D primitive on its full grid of kept nodes,
in one call.  The primitives are looked up as ``fading.*``/``stochgeo.*``
attributes at call time, never imported by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fading, stochgeo
from .metrics import ScenarioConfig
from .specfun import ConvergenceError

__all__ = ["capacity", "cop", "pdf", "pnz"]

# Successive exp-sinh levels must agree to _QUAD_REL.  Nodes lie within 150
# e-folds of their scale: no gain law here holds mass beyond, and powers of
# such nodes stay finite for delta < 2.3.
_QUAD_REL = 1e-9
_LEVELS = (3, 4, 5, 6, 7)
_T_MAX = math.asinh(150.0 / (0.5 * math.pi))


def _exp_sinh(level: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the exp-sinh rule for an integral over (0, inf).

    x = scale * exp(pi/2 sinh t) on t-steps of 2^-level, so that
    log(x / scale) spans [-150, 150]: mass decades away from ``scale`` is
    still sampled, and the trapezoid sum converges exponentially in the
    level for analytic integrands.
    """
    if not 0.0 < scale < math.inf:
        raise ConvergenceError(f"exp-sinh scale {scale:g} lies outside the float range")
    step = 2.0**-level
    n = int(_T_MAX / step)
    t = step * np.arange(-n, n + 1)
    x = scale * np.exp(0.5 * math.pi * np.sinh(t))
    return x, step * 0.5 * math.pi * np.cosh(t) * x


def _converged(integral) -> float:
    """integral(level) at increasing levels until two successive values
    agree.  A level that reads inf or nan raises at once: level L's nodes
    t = 2^-L j hold level L - 1's as the even j, so every finer level
    holds the same non-finite term."""
    # Far-tail powers overflow to inf where a density factor is 0, and a
    # gain that underflows to 0 divides by zero in V's lower limit.
    with np.errstate(over="ignore", divide="ignore"):
        previous = math.nan  # agrees with no level
        for level in _LEVELS:
            value = float(integral(level))
            if not math.isfinite(value):
                raise ConvergenceError(
                    f"defining-integral quadrature did not converge: step 2^-{level} reads {value}, "
                    "which lies outside the float range")
            if abs(value - previous) <= _QUAD_REL * abs(value):
                return value
            previous = value
    raise ConvergenceError(
        f"defining-integral quadrature did not converge: {previous:.12g} at step 2^-{_LEVELS[-1]}")


@dataclass(frozen=True)
class _NearestLaw:
    """Gain Z = G / Y of the k-th nearest receiver.

    Each sum passes over the nodes whose 1D weight (density times rule
    weight) is exactly 0, before the 2D primitive or ``h`` is called on
    them: such a node adds 0 times a finite value, an exact 0, so the sum
    changes only by the order in which the other terms are added.  The
    exp-sinh rule spans 150 e-folds, so about a third of the nodes of a
    typical law carry a density that underflows to 0.  Only exact zeros
    are passed over: a relative cutoff would lose values as small as the
    8x8 nearest COP (3e-40).
    """

    fad: fading.AlphaMuParams
    rate: float
    delta: float
    k: int

    @property
    def scale(self) -> float:
        """(k / rate)^(1/delta), the scale of Y; +inf where it passes the
        float range, a scale that ``_exp_sinh`` rejects."""
        try:
            return (self.k / self.rate) ** (1.0 / self.delta)
        except OverflowError:
            return math.inf

    def cdf(self, z, level: int):
        """P(Z <= z) by the conditioning integral over the distance law."""
        y, wy = _exp_sinh(level, self.scale)
        weight = stochgeo.pdf_kth_distance_pow(self.k, self.rate, self.delta, y) * wy
        keep = weight != 0.0
        return fading.cdf_power_gain(self.fad, np.multiply.outer(z, y[keep])) @ weight[keep]

    def pdf(self, z: float, level: int):
        """Density of Z at z by the conditioning integral of y f_G(z y) f_Y(y)."""
        y, wy = _exp_sinh(level, self.scale)
        weight = y * stochgeo.pdf_kth_distance_pow(self.k, self.rate, self.delta, y) * wy
        keep = weight != 0.0
        return fading.pdf_power_gain(self.fad, z * y[keep]) @ weight[keep]

    def expect(self, h, level: int):
        """E[h(Z)] over W = 1 / Z = Y / G, whose density is the integral
        over g of g f_G(g) f_Y(w g)."""
        mean_gain = self.fad.mean_power()
        w, ww = _exp_sinh(level, self.scale / mean_gain)
        g, wg = _exp_sinh(level, mean_gain)
        g_weight = g * fading.pdf_power_gain(self.fad, g) * wg
        g_keep = g_weight != 0.0
        pdf_y = stochgeo.pdf_kth_distance_pow(self.k, self.rate, self.delta, np.multiply.outer(w, g[g_keep]))
        weight = (pdf_y @ g_weight[g_keep]) * ww
        keep = weight != 0.0
        return np.sum(h(1.0 / w[keep]) * weight[keep])


@dataclass(frozen=True)
class _BestLaw:
    """Gain Z = 1 / Y of the k-th best receiver; V = rate * Y^delta is
    Gamma(k, 1) in every scenario.

    ``expect`` passes over the nodes whose weight is exactly 0, as
    ``_NearestLaw`` does.  ``cdf`` shifts one set of offsets x by a lower
    limit lo per z, and no rule weight is 0, so it sums over every offset.
    """

    rate: float
    delta: float
    k: int

    def cdf(self, z, level: int):
        """P(Z <= z) = P(V >= rate * z^-delta); at z = 0 the limit is inf, where the density is 0."""
        lo = self.rate * np.asarray(z, dtype=float) ** -self.delta
        x, wx = _exp_sinh(level, self.k)
        return stochgeo.pdf_kth_distance_pow(self.k, 1.0, 1.0, np.add.outer(lo, x)) @ wx

    def pdf(self, z: float, level: int):
        """Density of Z at z, f_Y(1 / z) / z^2: no rule, so every level
        agrees.  0 where f_Y(1 / z) is, also where z^2 leaves the float
        range; any other density there raises."""
        if (density := stochgeo.pdf_kth_distance_pow(self.k, self.rate, self.delta, 1.0 / z)) == 0.0:
            return 0.0
        try:
            square = z**2
        except OverflowError:
            square = math.inf
        if not 0.0 < square < math.inf:
            raise ConvergenceError(f"best-ordering density: z^2 at z = {z:g} lies outside the float range")
        return density / square

    def expect(self, h, level: int):
        v, wv = _exp_sinh(level, self.k)
        weight = stochgeo.pdf_kth_distance_pow(self.k, 1.0, 1.0, v) * wv
        keep = weight != 0.0
        return np.sum(h((self.rate / v[keep]) ** (1.0 / self.delta)) * weight[keep])


def _law(cfg: ScenarioConfig, side: str):
    """The composite-gain law of cfg's side law (the side, its order index
    and its ordering, with the geometry and fading they read), whose ``cdf``
    and ``expect`` take the rule level: one law serves every level of an
    integral."""
    geo, k = cfg.geometry, cfg.order_index(side)
    if cfg.ordering_of(side) == "nearest":
        return _NearestLaw(geo.fading(side), geo.pathloss_rate(side), geo.delta, k)
    return _BestLaw(geo.composite_rate(side), geo.delta, k)


def pdf(cfg: ScenarioConfig, z: float) -> float:
    """Density of the legitimate side law's composite gain at z > 0."""
    if not 0.0 < z < math.inf:
        raise ValueError(f"composite-gain density needs a finite z > 0, got {z}")
    return _converged(partial(_law(cfg, "legitimate").pdf, z))


def cop(cfg: ScenarioConfig) -> float:
    """P(Z_b <= outage threshold) of the legitimate side law."""
    return _converged(partial(_law(cfg, "legitimate").cdf, cfg.outage_threshold))


def pnz(cfg: ScenarioConfig) -> float:
    """P(varpi Z_b > Z_e) = E_b[F_e(varpi Z_b)]."""
    bob, eve = _law(cfg, "legitimate"), _law(cfg, "eavesdropper")
    return _converged(lambda level: bob.expect(lambda z: eve.cdf(cfg.varpi * z, level), level))


def capacity(cfg: ScenarioConfig, side: str) -> float:
    """Mean capacity E[log2(1 + eta Z)] of the side's ordered receiver."""
    eta = cfg.snr_scale(side)
    return _converged(partial(_law(cfg, side).expect, lambda z: np.log2(1.0 + eta * z)))
