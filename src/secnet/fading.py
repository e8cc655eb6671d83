"""The alpha-mu power-gain family: density, distribution, moments, sampling,
and the single alpha-mu law of a sum of independent branch gains.

A power gain g follows the alpha-mu law with parameters (alpha, mu, omega)
when (g / omega)^(alpha/2) is standard-gamma distributed with shape mu.  The
canonical single-link normalization picks omega so that E[g] = 1.

At alpha = 2 a gain is omega times a Gamma(mu) variable, so a sum of n
branches is exactly alpha-mu with shape n * mu and the same omega.  Only
alpha != 2 needs the three-moment fit, and only that path imports
scipy.optimize.  That import took about 0.33 s of a 0.8 s `import secnet`
on a 2-core Linux host; no alpha = 2 scenario, which includes every
multi-branch scenario of the paper's figures, pays it.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

__all__ = ["AlphaMuParams", "MomentFitError", "cdf_power_gain", "fit_sum_params",
           "moment_power_gain", "pdf_power_gain", "power_gain_of_shape", "sample_power_gain"]

_FIT_LOG_ALPHA_BOUNDS = (np.log(0.2), np.log(20.0))
_FIT_LOG_MU_BOUNDS = (np.log(0.1), np.log(1e4))
_FIT_RESIDUAL_TOL = 1e-10


class MomentFitError(RuntimeError):
    """Moment-matching solve did not converge; carries the final residuals."""

    def __init__(self, message: str, residuals: tuple[float, float]):
        super().__init__(f"{message} (residuals={residuals[0]:.3e}, {residuals[1]:.3e})")
        self.residuals = residuals


def python_scalar(value, kind: type = float):
    """``value`` as a Python ``kind``, float or int: the scalars the closed
    forms compute in, where a product past the float range reads inf with no
    numpy RuntimeWarning.  nan where ``kind`` cannot hold it (a non-number or
    an int past the float range; a non-integer for int), so that a range
    check on the result fails."""
    if type(value) is kind:
        return value
    try:
        if kind is int:
            return operator.index(value)
        return float(value) if isinstance(value, numbers.Real) else math.nan
    except (TypeError, OverflowError):
        return math.nan


def hold_python_scalar(obj, name: str, kind: type = float):
    """Field ``name`` of the frozen dataclass ``obj`` as :func:`python_scalar`
    reads it, stored in its place; a nan is returned, not stored, so that the
    range check that rejects it names the value given."""
    held = python_scalar(getattr(obj, name), kind)
    if held == held:
        object.__setattr__(obj, name, held)
    return held


@dataclass(frozen=True)
class AlphaMuParams:
    """Fading triple (alpha, mu, omega).

    alpha > 0 is the medium non-linearity exponent, mu > 0 the multipath
    cluster count, omega > 0 the gain scale.  Each is held as a Python
    float (:func:`python_scalar`).
    """

    alpha: float
    mu: float
    omega: float

    def __post_init__(self) -> None:
        if not all(0 < hold_python_scalar(self, name) < math.inf for name in ("alpha", "mu", "omega")):
            raise ValueError(
                f"alpha-mu parameters must be positive and finite, got "
                f"(alpha={self.alpha}, mu={self.mu}, omega={self.omega})"
            )

    @classmethod
    def canonical(cls, alpha: float, mu: float) -> "AlphaMuParams":
        """Unit-mean normalization: omega = Gamma(mu) / Gamma(mu + 2/alpha),
        in logs, so that it stays finite where both gammas overflow (mu > 171).

        The last 256 distinct pairs are kept: every scenario build asks for
        the same few links again.
        """
        if not (0 < python_scalar(alpha) < math.inf and 0 < python_scalar(mu) < math.inf):
            raise ValueError(f"alpha and mu must be positive and finite, got ({alpha}, {mu})")
        return _canonical(alpha, mu)

    def mean_power(self) -> float:
        """First moment of the power gain; 1 for canonical parameters."""
        return moment_power_gain(self, 1.0)


@functools.lru_cache(maxsize=256)
def _canonical(alpha: float, mu: float) -> AlphaMuParams:
    """:meth:`AlphaMuParams.canonical` past its check, memoised."""
    return AlphaMuParams(alpha, mu, np.exp(gammaln(mu) - gammaln(mu + 2.0 / alpha)))


def pdf_power_gain(p: AlphaMuParams, x):
    """Density of the alpha-mu power gain at x > 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    # one NaN-skipping reduction: no boolean temporary, and NaN is not rejected
    if np.fmin.reduce(x, axis=None, initial=np.inf) <= 0:
        raise ValueError("power-gain density is defined for x > 0 only")
    half_alpha = 0.5 * p.alpha
    # in logs, so that a power of a far-tail x cannot overflow before the
    # exponential factor takes it to zero
    out = np.exp(
        np.log(half_alpha) - gammaln(p.mu) + half_alpha * p.mu * np.log(x / p.omega)
        - np.log(x) - (x / p.omega) ** half_alpha
    )
    return out if out.ndim else float(out)


def cdf_power_gain(p: AlphaMuParams, x):
    """Distribution function of the power gain at x >= 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if np.fmin.reduce(x, axis=None, initial=np.inf) < 0:
        raise ValueError("power-gain distribution is defined for x >= 0 only")
    # (x / omega)^(alpha / 2) and its regularized gamma, formed in place on one array
    u = x / p.omega
    u **= 0.5 * p.alpha
    return gammainc(p.mu, u, out=u) if u.ndim else float(gammainc(p.mu, u))


def moment_power_gain(p: AlphaMuParams, order: float) -> float:
    """Moment E[g^order] = omega^order * Gamma(mu + 2*order/alpha) / Gamma(mu).

    Valid for order > -alpha*mu/2; below that the defining integral diverges.
    """
    if order <= -0.5 * p.alpha * p.mu:
        raise ValueError(
            f"moment of order {order} diverges (needs order > {-0.5 * p.alpha * p.mu})"
        )
    return p.omega**order * np.exp(gammaln(p.mu + 2.0 * order / p.alpha) - gammaln(p.mu))


def power_gain_of_shape(p: AlphaMuParams, shape):
    """The power gain omega * G^(2/alpha) of a standard-gamma shape draw G."""
    return p.omega * shape ** (2.0 / p.alpha)


def sample_power_gain(p: AlphaMuParams, rng: np.random.Generator, size=None):
    """Draw power-gain samples: g = omega * G^(2/alpha) with G ~ Gamma(mu, 1)."""
    return power_gain_of_shape(p, rng.standard_gamma(p.mu, size=size))


def _sum_moments(link: AlphaMuParams, count: int) -> tuple[float, float, float]:
    """Exact first three moments of a sum of `count` i.i.d. link gains."""
    m1 = moment_power_gain(link, 1.0)
    m2 = moment_power_gain(link, 2.0)
    m3 = moment_power_gain(link, 3.0)
    n = count
    s1 = n * m1
    s2 = n * m2 + n * (n - 1) * m1**2
    s3 = n * m3 + 3 * n * (n - 1) * m1 * m2 + n * (n - 1) * (n - 2) * m1**3
    return s1, s2, s3


def _log_moment_ratios(log_alpha: np.ndarray, log_mu: np.ndarray) -> tuple[float, float]:
    """log of E[g^2]/E[g]^2 and E[g^3]/E[g]^3, which depend on (alpha, mu) only."""
    alpha = np.exp(log_alpha)
    mu = np.exp(log_mu)
    g1 = gammaln(mu + 2.0 / alpha)
    r2 = gammaln(mu + 4.0 / alpha) + gammaln(mu) - 2.0 * g1
    r3 = gammaln(mu + 6.0 / alpha) + 2.0 * gammaln(mu) - 3.0 * g1
    return r2, r3


@functools.lru_cache(maxsize=256)
def fit_sum_params(link: AlphaMuParams, count: int) -> AlphaMuParams:
    """The alpha-mu law of a sum of `count` i.i.d. link gains.

    At alpha = 2 each gain is omega * Gamma(mu), so the sum is exactly
    (2, count * mu, omega): no solve runs and scipy.optimize is not imported.
    For alpha != 2 the sum is approximated by the alpha-mu variable whose
    first three moments equal the exact sum moments (da Costa, Yacoub &
    Santos Filho, IEEE TWC 2008).  The scale is eliminated through the first
    moment, which therefore matches exactly; the two moment-ratio equations
    are solved for (alpha, mu) by a bounded trust-region iteration.  Where
    that stalls above tolerance, a Levenberg-Marquardt polish from its end
    point is kept if it reaches tolerance inside the bounds; otherwise
    `MomentFitError` is raised.  The solver is imported on the first such
    fit (about 0.33 s, see the module docstring).  `count = 1` returns the link parameters
    unchanged.  Results are memoised on (link, count); a failed fit raises
    again on every call.
    """
    if count < 1:
        raise ValueError(f"branch count must be >= 1, got {count}")
    if count == 1:
        return link
    if link.alpha == 2.0:
        return AlphaMuParams(2.0, count * link.mu, link.omega)
    from scipy.optimize import least_squares

    s1, s2, s3 = _sum_moments(link, count)
    target = np.array([np.log(s2 / s1**2), np.log(s3 / s1**3)])

    def residuals(x):
        r2, r3 = _log_moment_ratios(x[0], x[1])
        return np.array([r2 - target[0], r3 - target[1]])

    def fits(x):
        return np.max(np.abs(residuals(x))) <= _FIT_RESIDUAL_TOL

    lower = np.array([_FIT_LOG_ALPHA_BOUNDS[0], _FIT_LOG_MU_BOUNDS[0]])
    upper = np.array([_FIT_LOG_ALPHA_BOUNDS[1], _FIT_LOG_MU_BOUNDS[1]])
    x0 = np.clip([np.log(link.alpha), np.log(link.mu * count)], lower, upper)
    tols = {"xtol": 1e-15, "ftol": 1e-15, "gtol": 1e-15}
    x = least_squares(residuals, x0, bounds=(lower, upper), **tols).x
    if not fits(x):
        # the bounded solve can stop short of an interior solution
        polished = least_squares(residuals, x, method="lm", **tols).x
        if not (np.all((lower <= polished) & (polished <= upper)) and fits(polished)):
            res = residuals(x)
            raise MomentFitError(
                f"moment fit for count={count} did not reach tolerance {_FIT_RESIDUAL_TOL}",
                (float(res[0]), float(res[1])),
            )
        x = polished
    alpha_hat = np.exp(x[0])
    mu_hat = np.exp(x[1])
    omega_hat = s1 * np.exp(gammaln(mu_hat) - gammaln(mu_hat + 2.0 / alpha_hat))
    return AlphaMuParams(alpha_hat, mu_hat, omega_hat)
