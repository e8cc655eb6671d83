"""Gamma-family special functions and a general Fox H-function evaluator.

The Fox H-function is computed directly from its Mellin-Barnes representation
by adaptive quadrature along a vertical contour.  For parameter lists
``upper = [(a_1, A_1), ..., (a_p, A_p)]`` and ``lower = [(b_1, B_1), ..., (b_q, B_q)]``
the value is

    H(z) = (1 / 2*pi*i) * integral over Re(s)=c of
           prod_{j<=m} Gamma(b_j + B_j*s) * prod_{j<=n} Gamma(1 - a_j - A_j*s)
           -----------------------------------------------------------------  * z^(-s) ds
           prod_{j>m} Gamma(1 - b_j - B_j*s) * prod_{j>n} Gamma(a_j + A_j*s)

where the contour abscissa c separates the ascending gamma poles from the
descending ones.  All gamma products are evaluated in log space so that large
imaginary parts cannot overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gamma as _gamma
from scipy.special import gammainc, gammaincc, loggamma

__all__ = [
    "ConvergenceError",
    "FoxHParams",
    "FoxHValue",
    "fox_h",
    "fox_h_detailed",
    "lower_incomplete_gamma",
    "upper_incomplete_gamma",
]

# Integrand tail must drop below this fraction of the peak before truncating
# the contour, and the truncated segment is integrated to this relative
# tolerance.
_TAIL_FRACTION = 1e-12
_QUAD_REL_TOL = 1e-9
_MAX_TRUNCATION_GROWTH = 40


class ConvergenceError(ArithmeticError):
    """A contour integral or iterative refinement failed to converge."""


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Unregularized lower incomplete gamma integral from 0 to x of t^(a-1) e^(-t)."""
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if np.any(np.asarray(x) < 0):
        raise ValueError("lower incomplete gamma requires x >= 0")
    return gammainc(a, x) * _gamma(a)


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Unregularized upper incomplete gamma, the complement of the lower one."""
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if np.any(np.asarray(x) < 0):
        raise ValueError("upper incomplete gamma requires x >= 0")
    return gammaincc(a, x) * _gamma(a)


@dataclass(frozen=True)
class FoxHParams:
    """Order and coefficient lists of one Fox H-function instance.

    ``upper_coeffs`` holds the p pairs (a_j, A_j) with the first n of them
    contributing ascending-type gammas; ``lower_coeffs`` holds the q pairs
    (b_j, B_j) with the first m contributing descending-type gammas.
    """

    m: int
    n: int
    upper_coeffs: tuple[tuple[float, float], ...]
    lower_coeffs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper_coeffs", tuple((float(a), float(A)) for a, A in self.upper_coeffs))
        object.__setattr__(self, "lower_coeffs", tuple((float(b), float(B)) for b, B in self.lower_coeffs))
        if not 0 <= self.n <= self.p:
            raise ValueError(f"need 0 <= n <= p, got n={self.n}, p={self.p}")
        if not 0 <= self.m <= self.q:
            raise ValueError(f"need 0 <= m <= q, got m={self.m}, q={self.q}")
        if any(A <= 0 for _, A in self.upper_coeffs) or any(B <= 0 for _, B in self.lower_coeffs):
            raise ValueError("all gamma argument slopes A_j, B_j must be positive")
        lo, hi = self.contour_interval()
        if not lo < hi:
            raise ValueError(
                "no admissible contour: pole groups overlap "
                f"(left poles reach {lo}, right poles start at {hi})"
            )

    @property
    def p(self) -> int:
        return len(self.upper_coeffs)

    @property
    def q(self) -> int:
        return len(self.lower_coeffs)

    def contour_interval(self) -> tuple[float, float]:
        """Open interval of abscissas separating the two pole families."""
        lo = max((-b / B for b, B in self.lower_coeffs[: self.m]), default=-math.inf)
        hi = min(((1.0 - a) / A for a, A in self.upper_coeffs[: self.n]), default=math.inf)
        return lo, hi

    def default_abscissa(self) -> float:
        lo, hi = self.contour_interval()
        if math.isfinite(lo) and math.isfinite(hi):
            return 0.5 * (lo + hi)
        if math.isfinite(lo):
            return lo + 1.0
        if math.isfinite(hi):
            return hi - 1.0
        return 0.0

    def convergence_exponent(self) -> float:
        """Decay-rate exponent of the contour integrand; positive means the
        vertical-line integral converges for positive real arguments."""
        a_up = sum(A for _, A in self.upper_coeffs[: self.n]) - sum(A for _, A in self.upper_coeffs[self.n :])
        b_low = sum(B for _, B in self.lower_coeffs[: self.m]) - sum(B for _, B in self.lower_coeffs[self.m :])
        return a_up + b_low


@dataclass(frozen=True)
class FoxHValue:
    """Evaluation result with numerical diagnostics."""

    value: float
    imag_ratio: float
    abscissa: float
    truncation_height: float
    quad_error: float


def _integrand_factory(params: FoxHParams, z: float, c: float):
    a = np.array([u[0] for u in params.upper_coeffs])
    big_a = np.array([u[1] for u in params.upper_coeffs])
    b = np.array([l[0] for l in params.lower_coeffs])
    big_b = np.array([l[1] for l in params.lower_coeffs])
    m, n = params.m, params.n
    ln_z = math.log(z)

    def integrand(t: float) -> complex:
        s = c + 1j * t
        total = 0.0 + 0.0j
        if m:
            total += loggamma(b[:m] + big_b[:m] * s).sum()
        if params.q > m:
            total -= loggamma(1.0 - b[m:] - big_b[m:] * s).sum()
        if n:
            total += loggamma(1.0 - a[:n] - big_a[:n] * s).sum()
        if params.p > n:
            total -= loggamma(a[n:] + big_a[n:] * s).sum()
        return np.exp(total - s * ln_z)

    return integrand


def fox_h_detailed(
    params: FoxHParams,
    z: float,
    abscissa: float | None = None,
    rel_tol: float = _QUAD_REL_TOL,
) -> FoxHValue:
    """Evaluate a Fox H-function and return the value plus diagnostics.

    Parameters
    ----------
    params : FoxHParams
        Instance definition; must pass the convergence screen.
    z : float
        Positive real argument.
    abscissa : float, optional
        Contour abscissa override.  Must lie strictly inside the admissible
        pole-separation interval; the default is the interval midpoint.
    rel_tol : float
        Relative tolerance of the adaptive quadrature on the truncated
        contour segment.

    Raises
    ------
    ConvergenceError
        If the instance fails the existence screen, the truncation height
        cannot be grown far enough, or the quadrature does not reach the
        requested tolerance.
    ValueError
        If z <= 0 or the abscissa lies outside the admissible interval.
    """
    if z <= 0:
        raise ValueError(f"Fox H argument must be positive, got z={z}")
    exponent = params.convergence_exponent()
    if exponent <= 0:
        raise ConvergenceError(
            f"contour integral does not converge: decay exponent {exponent:.6g} <= 0 "
            f"for orders (m,n,p,q)=({params.m},{params.n},{params.p},{params.q})"
        )
    lo, hi = params.contour_interval()
    c = params.default_abscissa() if abscissa is None else float(abscissa)
    if not lo < c < hi:
        raise ValueError(f"contour abscissa {c} outside admissible interval ({lo}, {hi})")

    integrand = _integrand_factory(params, z, c)

    # Initial truncation from the asymptotic decay exp(-pi/2 * exponent * |t|),
    # then grow until the actual tails are negligible next to the peak.
    height = max(4.0 / exponent * math.log(1.0 / _TAIL_FRACTION) / math.pi, 8.0)
    probe = np.linspace(0.0, height, 65)
    peak = max(abs(integrand(t)) for t in probe)
    if peak == 0.0 or not math.isfinite(peak):
        raise ConvergenceError(f"integrand peak not finite (peak={peak}) at abscissa {c}")
    for _ in range(_MAX_TRUNCATION_GROWTH):
        if max(abs(integrand(height)), abs(integrand(-height))) <= _TAIL_FRACTION * peak:
            break
        height *= 2.0
    else:
        raise ConvergenceError(f"contour tail still above {_TAIL_FRACTION} of peak at height {height}")

    with warnings.catch_warnings():
        # roundoff-limited convergence is adjudicated by the explicit
        # residual check below, not by the integrator's warning
        warnings.simplefilter("ignore", IntegrationWarning)
        raw, err = quad(
            integrand,
            -height,
            height,
            epsabs=peak * 1e-14,
            epsrel=rel_tol,
            limit=600,
            complex_func=True,
        )
    value = raw / (2.0 * math.pi)
    err = abs(err) / (2.0 * math.pi)
    scale = max(abs(value), peak * 1e-10)
    if err > 1e3 * max(rel_tol * abs(value), peak * 1e-14) and err > 1e-8 * scale:
        raise ConvergenceError(f"quadrature residual {err:.3g} too large for value {value:.6g}")
    imag_ratio = abs(value.imag) / max(abs(value.real), 1e-300)
    return FoxHValue(
        value=float(value.real),
        imag_ratio=float(imag_ratio),
        abscissa=c,
        truncation_height=float(height),
        quad_error=float(err),
    )


def fox_h(
    params: FoxHParams,
    z: float,
    abscissa: float | None = None,
    rel_tol: float = _QUAD_REL_TOL,
) -> float:
    """Real value of a Fox H-function at positive real argument z."""
    return fox_h_detailed(params, z, abscissa=abscissa, rel_tol=rel_tol).value
