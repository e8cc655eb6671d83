"""A general Fox H-function evaluator.

The Fox H-function is computed directly from its Mellin-Barnes representation
by a nested trapezoid rule along a vertical contour.  For parameter lists
``upper = [(a_1, A_1), ..., (a_p, A_p)]`` and ``lower = [(b_1, B_1), ..., (b_q, B_q)]``
the value is

    H(z) = (1 / 2*pi*i) * integral over Re(s)=c of
           prod_{j<=m} Gamma(b_j + B_j*s) * prod_{j<=n} Gamma(1 - a_j - A_j*s)
           -----------------------------------------------------------------  * z^(-s) ds
           prod_{j>m} Gamma(1 - b_j - B_j*s) * prod_{j>n} Gamma(a_j + A_j*s)

where the contour abscissa c separates the ascending gamma poles from the
descending ones.  All gamma products are evaluated in log space, as numpy
arrays over the nodes, so that large imaginary parts cannot overflow.

The integrand is analytic in a strip about the contour whose half-width is
the distance from c to the nearest pole, so the trapezoid rule on the
truncated contour converges exponentially (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56(3), 2014).  The
step starts at a fraction of that half-width and is halved, reusing every
earlier node, until two levels agree.  The returned error bound is their
difference plus the truncated tails and a rounding floor; levels that never
agree raise :class:`ConvergenceError`.

For real parameters and real z > 0 the integrand is conjugate-symmetric,
f(c - it) = conj f(c + it) (Mathai, Saxena & Haubold, *The H-Function*,
Springer 2010), so the evaluator works on the half contour t >= 0: a level
sums f(0) + 2 Re f(t) over t > 0, and its rounding bound takes the same
weights.  The first level (level 0) also gives the integrand peak and the
edge: while the integrand at its last node is not negligible next to the
peak, the truncation height doubles and level 0 takes the new nodes only.
Every lattice is checked against the node budget (``_MAX_NODES`` nodes
t >= 0) before it is built, so an abscissa next to a pole raises without
evaluating a node.  One mirrored node, -t* at the level-0 node t* > 0 of
largest modulus, measures the residue of the symmetry the half contour
rests on, reported as ``FoxHValue.imag_ratio``.  It takes the last slot of
the first halving's node array, so it costs no pass of its own, and that
level's sums leave it out.

The argument z enters the integrand only through the factor z^(-s); the
log-gamma sum, and the sum of its terms' magnitudes that scales the rounding
bound, depend only on the parameters and the contour node.  On the contour
|z^(-s)| = z^(-c) is the same at every node, so the truncation height and
the node lattice do not depend on z either, and one parameter set evaluated
at many arguments visits the same node sets (the mirror node too, as t*
does not depend on z).  Each node array takes one ``loggamma`` call, on the
(p + q, nodes) array of every gamma argument; the terms are signed and added
row by row in their order, so each sum is the one a term-by-term loop gives.
Those two sums are kept across calls, keyed on (parameters, abscissa, node
bytes), and -s ln z is added to them last, together with the log of any
prefactor the caller passes: a value read through the cache is
bit-identical to one computed afresh.  The cache is a least-recently-used map held to a fixed byte budget
(``_CACHE_BUDGET``, 256 KiB) under a lock; a node set larger than the whole
budget is never kept, so the largest lattice an evaluation may reach
(``_MAX_NODES``) lives only as long as that call.

A call that repeats an earlier one exactly, in parameters, argument,
abscissa and log prefactor, returns the earlier :class:`FoxHValue`: the
closed forms share instances (the four ergodic secrecy capacities of a
scenario share its legitimate and wiretap capacities).  The last
``_VALUE_CACHE_SIZE`` (64) distinct evaluations are kept, least recently
used first out, under the same lock; the bound is a count, small enough
that a value does not outlive the figure table that repeats it.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import loggamma

__all__ = [
    "ConvergenceError",
    "FoxHParams",
    "FoxHValue",
    "fox_h",
]

# Integrand tail must drop below this fraction of the peak before truncating
# the contour, and two trapezoid levels must agree to this relative
# tolerance or to this fraction of the integrand peak.
_TAIL_FRACTION = 1e-12
_REL_TOL = 1e-9
_ABS_TOL = 1e-14
# First trapezoid step as a fraction of the strip half-width (capped where
# no pole is near), and the budgets past which a level pair that still
# disagrees, or a lattice that has not reached the tail, is a failure.
_STEP_PER_HALF_WIDTH = 0.25
_MAX_HALF_WIDTH = 1.0
_MAX_HALVINGS = 8
# Nodes t >= 0 of one lattice, which stand for 2**18 - 1 on the whole contour.
_MAX_NODES = 2**17
# A log-gamma value is good to a few ulps of its own size.
_ROUNDING = 4.0 * float(np.finfo(float).eps)
# Byte budget of the log-gamma sums kept across calls, least recently used
# first out; a node set larger than the whole budget is never kept.  Each
# entry is charged its node bytes (key, sum, magnitude sum) plus a fixed
# allowance for the tuples, array headers and dictionary slot around them.
_CACHE_BUDGET = 256 * 1024
_ENTRY_OVERHEAD = 512
_CACHE: OrderedDict[tuple, tuple[np.ndarray, np.ndarray, int]] = OrderedDict()
_CACHE_LOCK = threading.Lock()
_cache_bytes = 0
# Fox H values kept across calls, keyed on (parameters, argument, abscissa,
# log prefactor), least recently used first out, under the same lock.  The
# bound is a count, kept small: a figure table repeats an instance within
# fewer distinct ones (fig11 at most 17), and a value is gone once that many
# others have been evaluated since its last use.
_VALUE_CACHE_SIZE = 64
_VALUES: OrderedDict[tuple, FoxHValue] = OrderedDict()


class ConvergenceError(ArithmeticError):
    """A contour integral or iterative rule failed to converge, or a
    simulation kept no valid realization to estimate from."""


@dataclass(frozen=True)
class FoxHParams:
    """Order and coefficient lists of one Fox H-function instance.

    ``upper_coeffs`` holds the p pairs (a_j, A_j) with the first n of them
    contributing ascending-type gammas; ``lower_coeffs`` holds the q pairs
    (b_j, B_j) with the first m contributing descending-type gammas.  The
    contour interval and the hash are worked out once, at construction, and
    the gamma terms' coefficient arrays at the first node set evaluated.
    """

    m: int
    n: int
    upper_coeffs: tuple[tuple[float, float], ...]
    lower_coeffs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        upper = tuple((float(a), float(A)) for a, A in self.upper_coeffs)
        lower = tuple((float(b), float(B)) for b, B in self.lower_coeffs)
        object.__setattr__(self, "upper_coeffs", upper)
        object.__setattr__(self, "lower_coeffs", lower)
        if not 0 <= self.n <= self.p:
            raise ValueError(f"need 0 <= n <= p, got n={self.n}, p={self.p}")
        if not 0 <= self.m <= self.q:
            raise ValueError(f"need 0 <= m <= q, got m={self.m}, q={self.q}")
        if any(A <= 0 for _, A in upper) or any(B <= 0 for _, B in lower):
            raise ValueError("all gamma argument slopes A_j, B_j must be positive")
        lo = max((-b / B for b, B in lower[: self.m]), default=-math.inf)
        hi = min(((1.0 - a) / A for a, A in upper[: self.n]), default=math.inf)
        if not lo < hi:
            raise ValueError(
                "no admissible contour: pole groups overlap "
                f"(left poles reach {lo}, right poles start at {hi})"
            )
        object.__setattr__(self, "_interval", (lo, hi))
        object.__setattr__(self, "_hash", hash((self.m, self.n, upper, lower)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _terms(self) -> np.ndarray:
        """The columns constant, slope and sign of the gamma terms, one row
        per term, lower pairs first: each term is
        sign * loggamma(constant + slope * s), and the log-gamma sums add
        them in this order."""
        terms = [(b, B, 1.0) if j < self.m else (1.0 - b, -B, -1.0)
                 for j, (b, B) in enumerate(self.lower_coeffs)]
        terms += [(1.0 - a, -A, 1.0) if j < self.n else (a, A, -1.0)
                  for j, (a, A) in enumerate(self.upper_coeffs)]
        return np.array(terms, dtype=float).reshape(-1, 3).T[..., None]

    @property
    def p(self) -> int:
        return len(self.upper_coeffs)

    @property
    def q(self) -> int:
        return len(self.lower_coeffs)

    def contour_interval(self) -> tuple[float, float]:
        """Open interval of abscissas separating the two pole families."""
        return self._interval

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
    """Value of one Fox H evaluation with its numerical diagnostics.

    ``error`` bounds |value - H(z)|: the difference of the last two
    trapezoid levels plus the truncated tails and a rounding floor.
    ``imag_ratio`` is |f(c - it*) - conj f(c + it*)| / |f(c + it*)| at the
    level-0 node t* > 0 of largest integrand modulus: the residue of the
    conjugate symmetry that lets the evaluator sum the half contour t >= 0
    only.  It vanishes for a real instance at real argument.
    """

    value: float
    error: float
    imag_ratio: float
    abscissa: float
    truncation_height: float


def _gamma_sums(params: FoxHParams, c: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed log-gamma terms at the contour points c + i t, and the sum of
    their magnitudes, read from the cache when this node set was seen.

    One ``loggamma`` call takes every term at every node; the terms are
    added row by row, in their order.
    """
    global _cache_bytes
    key = (params, c, t.tobytes())
    with _CACHE_LOCK:
        if key in _CACHE:
            _CACHE.move_to_end(key)
            return _CACHE[key][:2]
    constant, slope, sign = params._terms
    terms = loggamma(constant + slope * (c + 1j * t))
    terms *= sign
    total, size = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    nbytes = _ENTRY_OVERHEAD + len(key[2]) + total.nbytes + size.nbytes
    if nbytes <= _CACHE_BUDGET:
        total.flags.writeable = size.flags.writeable = False
        with _CACHE_LOCK:
            if key not in _CACHE:
                _CACHE[key] = (total, size, nbytes)
                _cache_bytes += nbytes
                while _cache_bytes > _CACHE_BUDGET:
                    _cache_bytes -= _CACHE.popitem(last=False)[1][2]
    return total, size


def _log_integrand(params: FoxHParams, c: float, t: np.ndarray, ln_z: float,
                   log_prefactor: float) -> tuple[np.ndarray, np.ndarray]:
    """Log of the Mellin-Barnes integrand at the contour points c + i t,
    times the prefactor, and the summed magnitude of its terms, which scales
    its rounding error.

    The argument and the prefactor enter only through the last term,
    log_prefactor - s ln z, so the sums of the other terms are shared by
    every argument and prefactor.
    """
    gamma_sum, gamma_size = _gamma_sums(params, c, t)
    last = log_prefactor - (c + 1j * t) * ln_z
    return gamma_sum + last, gamma_size + np.abs(last)


def _half_contour_sums(params: FoxHParams, c: float, t: np.ndarray, ln_z: float,
                       log_prefactor: float, level: int | None = None
                       ) -> tuple[np.ndarray, float, float]:
    """The integrand f at the contour points c + i t, with the sum of its
    real part over the first ``level`` of them (all by default), which lie
    at t >= 0, and that sum's rounding bound.

    Each summed node stands also for its mirror c - i t, where f takes the
    conjugate value, so it carries weight 2; the node t = 0 is its own mirror
    and carries weight 1.  A term of the log that is computed to a few ulps
    of its own size puts that much relative error, in modulus and phase, on
    the node's value.
    """
    log_f, size = _log_integrand(params, c, t, ln_z, log_prefactor)
    f = np.exp(log_f)
    summed, size = f[:level], size[:level]
    weight = np.where(t[:level] > 0.0, 2.0, 1.0)
    return f, float(weight @ summed.real), _ROUNDING * float(weight @ (np.abs(summed) * (1.0 + size)))


def fox_h(params: FoxHParams, z: float, abscissa: float | None = None,
          log_prefactor: float = 0.0) -> FoxHValue:
    """Evaluate exp(log_prefactor) * H(z) at positive real z, with its error.

    The integrand is analytic in the strip of half-width w about the
    contour, w being the distance from the abscissa to the nearest pole, so
    the trapezoid sum on the truncated contour converges exponentially in
    w / step.  The first step is a fixed fraction of w; the step is then
    halved, reusing every earlier node, until two successive levels agree
    to 1e-9 relative or 1e-14 of the integrand peak.  For real parameters
    and real z the integrand at c - i t is the conjugate of that at c + i t,
    so only the nodes t >= 0 are evaluated, plus the one mirrored node -t*
    that measures the symmetry's residue; it is evaluated with the first
    halving's nodes and left out of their sums.  Each node array takes one
    ``loggamma`` call for all of its gamma terms.

    The last ``_VALUE_CACHE_SIZE`` (64) distinct evaluations are kept,
    keyed on (params, z, abscissa, log_prefactor), and a repeated call
    returns the kept value, which is the one a fresh evaluation gives.

    Parameters
    ----------
    params : FoxHParams
        Instance definition; must pass the convergence screen.
    z : float
        Positive, finite real argument.
    abscissa : float, optional
        Contour abscissa override.  Must lie strictly inside the admissible
        pole-separation interval; the default is the interval midpoint.
    log_prefactor : float, optional
        Log of a constant factor, added to the log-integrand before it is
        exponentiated, so that a prefactor of gamma functions may overflow
        or underflow where the product does not.  Value and error bound
        both carry the factor.

    Raises
    ------
    ConvergenceError
        If the instance fails the existence screen, the integrand peak is
        zero or not finite, a lattice would pass the node budget before the
        contour tail is negligible (an abscissa next to a pole does so at
        once), or two levels do not agree within the halving and node
        budgets.
    ValueError
        If z is not positive and finite, or the abscissa lies outside the
        admissible interval.
    """
    if not 0.0 < z < math.inf:
        raise ValueError(f"Fox H argument must be positive and finite, got z={z}")
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
    key = (params, float(z), c, float(log_prefactor))
    with _CACHE_LOCK:
        if key in _VALUES:
            _VALUES.move_to_end(key)
            return _VALUES[key]
    value = _evaluate(*key, exponent)
    with _CACHE_LOCK:
        _VALUES[key] = value
        _VALUES.move_to_end(key)
        if len(_VALUES) > _VALUE_CACHE_SIZE:
            _VALUES.popitem(last=False)
    return value


def _evaluate(params: FoxHParams, z: float, c: float, log_prefactor: float,
              exponent: float) -> FoxHValue:
    """The contour integral of :func:`fox_h`, for arguments it has checked;
    ``exponent`` is the instance's convergence exponent."""
    lo, hi = params.contour_interval()
    ln_z = math.log(z)
    half_width = min(c - lo, hi - c)
    step = _STEP_PER_HALF_WIDTH * min(half_width, _MAX_HALF_WIDTH)
    # Initial truncation from the asymptotic decay exp(-pi/2 * exponent * |t|).
    height = max(4.0 / exponent * math.log(1.0 / _TAIL_FRACTION) / math.pi, 8.0)

    # Far-tail nodes underflow to 0, and a log that overflows means a peak
    # or level that is not finite, which the checks below reject.
    with np.errstate(over="ignore", under="ignore"):
        # Level 0 takes every multiple of its step from 0 to the truncation
        # height, and gives the peak; while the integrand at its last node is
        # not negligible next to that peak, the height doubles and level 0
        # takes the new nodes only.  Every lattice is checked against the
        # node budget before it is built.
        half, total, rounding, peak, t_star, f_star = -1, 0.0, 0.0, 0.0, 0.0, 0.0j
        while True:
            top = math.ceil(height / step)
            if top + 1 > _MAX_NODES:
                raise ConvergenceError(
                    f"contour lattice of {top + 1} nodes (step {step:.3g}, height {height:.3g}) "
                    f"passes the node budget of {_MAX_NODES} (abscissa {c}, "
                    f"strip half-width {half_width:.3g})")
            nodes = step * np.arange(half + 1, top + 1)
            f, level_sum, level_rounding = _half_contour_sums(params, c, nodes, ln_z, log_prefactor)
            half, total, rounding = top, total + step * level_sum, rounding + step * level_rounding
            modulus = np.abs(f)
            peak = float(modulus.max(initial=peak))
            if not 0.0 < peak < math.inf:
                raise ConvergenceError(f"integrand peak not finite (peak={peak}) at abscissa {c}")
            # The node t > 0 of largest modulus, whose mirror checks the
            # conjugate symmetry the half contour rests on.
            j = int(np.argmax(np.where(nodes > 0.0, modulus, -1.0)))
            if modulus[j] > abs(f_star):
                t_star, f_star = float(nodes[j]), complex(f[j])
            if modulus[-1] <= _TAIL_FRACTION * peak:
                break
            height *= 2.0
        # Past the cut the integrand decays at least like exp(-pi/2 * exponent * |t|),
        # on both halves of the contour.
        tail = 2.0 * float(modulus[-1]) / (0.5 * math.pi * exponent)

        f_mirror = None
        for _ in range(_MAX_HALVINGS):
            # Each later level adds only the odd multiples of its halved
            # step.  The first one's array has one more slot, for the mirror
            # -t*, which its level sums leave out.
            step, half = 0.5 * step, 2 * half
            if half + 1 > _MAX_NODES:
                break
            mirror = f_mirror is None
            nodes = step * np.arange(1, half + 1 + 2 * mirror, 2)
            if mirror:
                nodes[-1] = -t_star
            f, level_sum, level_rounding = _half_contour_sums(params, c, nodes, ln_z, log_prefactor,
                                                              half // 2)
            if mirror:
                f_mirror = complex(f[-1])
            previous = total
            total, rounding = 0.5 * total + step * level_sum, 0.5 * rounding + step * level_rounding
            change = abs(total - previous)
            if change <= max(_REL_TOL * abs(total), _ABS_TOL * peak):
                return FoxHValue(
                    value=total / (2.0 * math.pi),
                    error=(change + tail + rounding) / (2.0 * math.pi),
                    imag_ratio=abs(f_mirror - f_star.conjugate()) / abs(f_star),
                    abscissa=c,
                    truncation_height=half * step,
                )
    raise ConvergenceError(
        f"no two contour trapezoid levels agreed within {_MAX_HALVINGS} halvings and the "
        f"node budget of {_MAX_NODES} (abscissa {c}, strip half-width {half_width:.3g})")
