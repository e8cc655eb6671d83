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
evaluating a node.  The first level-0 set starts one step early, at the
node -step, and the level sums take only its nodes t >= 0:
|f(c - i step) - conj f(c + i step)| over the peak measures the residue of
the symmetry the half contour rests on, reported as
``FoxHValue.imag_ratio``.  Where every node of level 0 underflows while the
log of the integrand stays finite, the value is 0, with the smallest normal
float over the whole contour as its bound.

The argument z enters the integrand only through the factor z^(-s).  With G
the log-gamma sum at the node c + i t, log f = G + log_prefactor - c ln z
- i t ln z: on the contour |z^(-s)| = z^(-c) is the same at every node, so z
moves |f| by one real factor and the phase by -t ln z, and the truncation
height and the node lattice do not depend on z either.  Each node set is
therefore built once, keyed on (parameters, abscissa, step, first index,
stop, stride).  For its nodes of nonzero weight it holds t, the phase Im G
and the scaled weight w exp(Re G - top), where w is 0, 1 or 2 for t < 0,
t = 0 and t > 0 and top is the set's largest Re G.  Its scalars are top,
Re G at the last node, the symmetry residue of the set that starts at
-step, and the sum of scaled * (1 + magnitude sum of the terms), which
scales the rounding bound.  A level is then a
cosine-weighted sum, exp(top + shift) * (scaled @ cos(Im G - t ln z)) with
shift = log_prefactor - c ln z, and its rounding bound adds
scaled @ hypot(shift, t ln z) to that scalar.  The peak, the tail, the
finiteness and underflow checks and the residue are scalar arithmetic on
the level-0 sets.  The level sums are kept in units of the peak, which
multiplies them once at the end; a value or bound that is not finite
raises.  A ``functools.lru_cache`` keeps the last ``_CACHE_SIZE`` (64)
node sets of at most ``_CACHE_NODES`` (512) nodes: at 24 bytes a node (t,
phase and scaled weight) that is under 1 MiB.  A larger node set is
computed and not kept, so the largest lattice an evaluation may reach
(``_MAX_NODES``) lives only as long as that call.

Each gamma term is +-loggamma(b + B s) for a pair (b, B) of its own:
(b_j, B_j), (1 - b_j, -B_j), (1 - a_j, -A_j) or (a_j, A_j).  Over a set's
nodes it contributes one log-gamma row, loggamma(b + B (c + i t)), which
depends on the pair and the lattice (c, step, first index, stop, stride)
alone.  A figure curve over the user index k or an antenna count holds
the fading and the densities fixed, so its consecutive instances share
their abscissa, their lattices and all but one or two gamma terms: most
rows of a new instance's node sets were evaluated for the instance before.  A row store
keeps the rows of the last ``_CACHE_SIZE`` (64) distinct terms evaluated on
a lattice of at most ``_CACHE_NODES`` nodes, keyed on (b, B, c, step,
first, stop, stride), least recently used first out: at 16 bytes a node
that is at most 0.5 MiB.  A node set that misses reads the rows its terms
find there and makes one ``loggamma`` call, on the (rows, nodes) array of
the distinct terms that are not held; an instance's equal terms share a
row.  Its terms are then signed and added row by row in their order, so
each sum is the one a term-by-term loop gives, and since log-gamma is
elementwise, a set built from held rows equals a cold one bit for bit, as a
warm call equals a cold one.

A call that repeats an earlier one exactly, in parameters, argument,
abscissa and log prefactor, returns the earlier :class:`FoxHValue`: the
closed forms share instances (the four ergodic secrecy capacities of a
scenario share its legitimate and wiretap capacities).  The evaluation is a
second ``functools.lru_cache``, of the last ``_VALUE_CACHE_SIZE`` (64)
distinct evaluations; the bound is a count, small enough that a value does
not outlive the figure table that repeats it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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
# A log-gamma value is good to a few ulps of its own size; the smallest
# normal float bounds an integrand that underflows at every node.
_ROUNDING = 4.0 * float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# The last _CACHE_SIZE node sets of at most _CACHE_NODES nodes are kept
# across calls, least recently used first out.  At 24 bytes a node (t, phase
# and scaled weight) that is under 1 MiB in all.
_CACHE_SIZE = 64
_CACHE_NODES = 512
# The log-gamma rows of the last _CACHE_SIZE distinct gamma terms evaluated
# on a lattice of at most _CACHE_NODES nodes, least recently used first out:
# (constant, slope, c, step, first, stop, stride) -> loggamma row.  At 16
# bytes a node that is 0.5 MiB at most.
_ROWS: OrderedDict[tuple, np.ndarray] = OrderedDict()
# Fox H values kept across calls, least recently used first out.  The bound
# is a count, kept small: a figure table repeats an instance within fewer
# distinct ones (fig11 at most 17), and a value is gone once that many others
# have been evaluated since its last use.
_VALUE_CACHE_SIZE = 64


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
    def _terms(self) -> tuple[tuple[tuple[float, float], ...], np.ndarray, list[int], np.ndarray]:
        """The gamma terms, lower pairs first.  Each term is
        sign * loggamma(constant + slope * s), and the log-gamma sums add
        them in this order.  Given as the distinct pairs (constant, slope),
        which key the log-gamma rows, their columns constant and slope, the
        index of each term's pair and the column of the terms' signs."""
        terms = [(b, B, 1.0) if j < self.m else (1.0 - b, -B, -1.0)
                 for j, (b, B) in enumerate(self.lower_coeffs)]
        terms += [(1.0 - a, -A, 1.0) if j < self.n else (a, A, -1.0)
                  for j, (a, A) in enumerate(self.upper_coeffs)]
        pairs = tuple(dict.fromkeys(term[:2] for term in terms))
        return (pairs, np.array(pairs, dtype=float).reshape(-1, 2).T[..., None],
                [pairs.index(term[:2]) for term in terms],
                np.array([term[2] for term in terms], dtype=float).reshape(-1, 1))

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
    ``imag_ratio`` is |f(c - i step) - conj f(c + i step)| / peak at the
    first level-0 step, relative to the integrand peak: the residue of the
    conjugate symmetry that lets the evaluator sum the half contour t >= 0
    only.  It vanishes for a real instance at real argument.
    """

    value: float
    error: float
    imag_ratio: float
    abscissa: float
    truncation_height: float


class _NodeSet(NamedTuple):
    """What one node set of the contour contributes, with z left out.

    G is the log-gamma sum at the nodes c + i t, and w the half-contour
    weight, 0, 1 or 2 for t < 0, t = 0 and t > 0.  The arrays hold the nodes
    of nonzero weight; ``scaled`` is w exp(Re G - top), in units of the set's
    largest Re G, ``top``.
    """

    t: np.ndarray
    phase: np.ndarray  # Im G
    scaled: np.ndarray
    rounding: float  # sum of scaled * (1 + sum of the terms' magnitudes)
    top: float
    edge: float  # Re G at the last node
    residue: float  # |exp(G(-step) - top) - conj exp(G(step) - top)| if the set starts at -step


def _node_set(params: FoxHParams, c: float, step: float, first: int, stop: int,
              stride: int) -> _NodeSet:
    """The node set ``step * arange(first, stop, stride)`` on the contour
    Re s = c, read from the cache when it was seen; a set of more than
    ``_CACHE_NODES`` nodes is computed and not kept."""
    kept = len(range(first, stop, stride)) <= _CACHE_NODES
    build = _kept_node_set if kept else _kept_node_set.__wrapped__
    return build(params, c, step, first, stop, stride)


@lru_cache(maxsize=_CACHE_SIZE)
def _kept_node_set(params: FoxHParams, c: float, step: float, first: int, stop: int,
                   stride: int) -> _NodeSet:
    """The node set of :func:`_node_set`.  Each term's log-gamma row is read
    from the row store where it is held, and one ``loggamma`` call takes
    the rows that are not; the terms are signed and added row by row, in
    their order."""
    t = step * np.arange(first, stop, stride)
    pairs, (constant, slope), where, sign = params._terms
    keys = [pair + (c, step, first, stop, stride) for pair in pairs]
    rows = [_ROWS.pop(key, None) for key in keys]
    fresh = [j for j, row in enumerate(rows) if row is None]
    # A lattice of more than _CACHE_NODES nodes is kept nowhere, so none of
    # its rows was held, and none is kept.
    kept = t.size <= _CACHE_NODES
    if fresh:
        if len(fresh) < len(rows):
            constant, slope = constant[fresh], slope[fresh]
        for j, row in zip(fresh, loggamma(constant + slope * (c + 1j * t))):
            # A kept row holds its own nodes, not the whole call's.
            rows[j] = row.copy() if kept else row
    if kept:
        # Held rows and new ones go in as the most recently used.
        _ROWS.update(zip(keys, rows))
        while len(_ROWS) > _CACHE_SIZE:
            _ROWS.popitem(last=False)
    terms = np.array([rows[j] for j in where])
    terms *= sign
    log_gamma, size = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    top = float(log_gamma.real.max())
    scaled = (np.sign(t) + 1.0) * np.exp(log_gamma.real - top)
    residue = float(abs(np.exp(log_gamma[0] - top) - np.exp(log_gamma[2] - top).conjugate())
                    if first == -1 else 0.0)
    keep = scaled > 0.0
    rounding = float(scaled[keep] @ (1.0 + size[keep]))
    arrays = t[keep], log_gamma.imag[keep], scaled[keep]
    for array in arrays:
        array.flags.writeable = False
    return _NodeSet(*arrays, rounding, top, float(log_gamma.real[-1]), residue)


def _level_sums(nodes: _NodeSet, ln_z: float, shift: float, top: float) -> tuple[float, float]:
    """The sum of w Re f over one node set, and its rounding bound, in units
    of exp(top + shift), where log f = G + shift - i t ln z.

    A term of log f that is computed to a few ulps of its own size puts that
    much relative error, in modulus and phase, on the node's value.
    """
    x = nodes.t * ln_z
    unit = math.exp(nodes.top - top)
    return (unit * float(nodes.scaled @ np.cos(nodes.phase - x)),
            unit * _ROUNDING * (nodes.rounding + float(nodes.scaled @ np.hypot(shift, x))))


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
    so only the nodes t >= 0 are evaluated, plus the node -step of level 0
    that measures the symmetry's residue and is left out of its sums.  Each
    node set takes at most one ``loggamma`` call, on the gamma terms whose
    log-gamma rows the row store does not hold, and is kept apart from z,
    so that a level at another argument is one cosine-weighted sum over the
    kept arrays.

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
        not finite, or zero where the log of the integrand is not finite
        either, a lattice would pass the node budget before the contour
        tail is negligible (an abscissa next to a pole does so at once),
        two levels do not agree within the halving and node budgets, or
        the value or its bound is not finite.
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
    return _evaluate(params, float(z), c, float(log_prefactor), exponent)


@lru_cache(maxsize=_VALUE_CACHE_SIZE)
def _evaluate(params: FoxHParams, z: float, c: float, log_prefactor: float,
              exponent: float) -> FoxHValue:
    """The contour integral of :func:`fox_h`, for arguments it has checked;
    ``exponent`` is the instance's convergence exponent."""
    lo, hi = params.contour_interval()
    ln_z = math.log(z)
    # log f = G + shift - i t ln z at the node c + i t: z moves |f| by one
    # real factor, the same at every node, and its phase by -t ln z.
    shift = log_prefactor - c * ln_z
    half_width = min(c - lo, hi - c)
    step = _STEP_PER_HALF_WIDTH * min(half_width, _MAX_HALF_WIDTH)
    # Initial truncation from the asymptotic decay exp(-pi/2 * exponent * |t|).
    height = max(4.0 / exponent * math.log(1.0 / _TAIL_FRACTION) / math.pi, 8.0)

    # Far-tail nodes underflow to 0, and a log that overflows means a peak
    # or level that is not finite, which the checks below reject.
    with np.errstate(over="ignore", under="ignore"):
        # Level 0 takes every multiple of its step from 0 to the truncation
        # height, and gives the peak of f, exp(top + shift); while the
        # integrand at its last node is not negligible next to the peak, the
        # height doubles and level 0 takes the new nodes only.  Every lattice
        # is checked against the node budget before it is built.  The first
        # set starts one step early: f(-step) against conj f(step) checks
        # the conjugate symmetry the half contour rests on.
        sets, half, top = [], -2, -math.inf
        while True:
            last = math.ceil(height / step)
            if last + 1 > _MAX_NODES:
                raise ConvergenceError(
                    f"contour lattice of {last + 1} nodes (step {step:.3g}, height {height:.3g}) "
                    f"passes the node budget of {_MAX_NODES} (abscissa {c}, "
                    f"strip half-width {half_width:.3g})")
            sets.append(_node_set(params, c, step, half + 1, last + 1, 1))
            # The new set's top first: a NaN there stays, and raises below.
            half, top = last, max(sets[-1].top, top)
            peak = float(np.exp(top + shift))
            if not (0.0 < peak < math.inf or peak == 0.0 and math.isfinite(top + shift)):
                raise ConvergenceError(f"integrand peak not finite (peak={peak}) at abscissa {c}")
            if math.exp(sets[-1].edge + shift) <= _TAIL_FRACTION * peak:
                break
            height *= 2.0
        if peak == 0.0:
            # Every node underflowed from a finite log: |f| is below the
            # smallest normal float out to the edge, and decays past it.
            bound = _TINY * (2.0 * half * step + 2.0 / (0.5 * math.pi * exponent))
            return FoxHValue(value=0.0, error=bound / (2.0 * math.pi), imag_ratio=0.0,
                             abscissa=c, truncation_height=half * step)
        # The level sums are kept in units of the peak, which multiplies them
        # once at the end.  Past the cut the integrand decays at least like
        # exp(-pi/2 * exponent * |t|), on both halves of the contour.
        total = rounding = 0.0
        for nodes in sets:
            level_sum, level_rounding = _level_sums(nodes, ln_z, shift, top)
            total, rounding = total + step * level_sum, rounding + step * level_rounding
        tail = 2.0 * math.exp(sets[-1].edge - top) / (0.5 * math.pi * exponent)
        imag_ratio = sets[0].residue * math.exp(sets[0].top - top)

        for _ in range(_MAX_HALVINGS):
            # Each later level adds only the odd multiples of its halved step.
            step, half = 0.5 * step, 2 * half
            if half + 1 > _MAX_NODES:
                break
            level_sum, level_rounding = _level_sums(_node_set(params, c, step, 1, half + 1, 2),
                                                    ln_z, shift, top)
            previous = total
            total, rounding = 0.5 * total + step * level_sum, 0.5 * rounding + step * level_rounding
            change = abs(total - previous)
            if change <= max(_REL_TOL * abs(total), _ABS_TOL):
                scale = peak / (2.0 * math.pi)
                value, error = scale * total, scale * (change + tail + rounding)
                if not (math.isfinite(value) and math.isfinite(error)):
                    raise ConvergenceError(
                        f"Fox H value {value} or its bound {error} is not finite "
                        f"(integrand peak {peak:.3g}, abscissa {c})")
                return FoxHValue(value=value, error=error, imag_ratio=imag_ratio, abscissa=c,
                                 truncation_height=half * step)
    raise ConvergenceError(
        f"no two contour trapezoid levels agreed within {_MAX_HALVINGS} halvings and the "
        f"node budget of {_MAX_NODES} (abscissa {c}, strip half-width {half_width:.3g})")
