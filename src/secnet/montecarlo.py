"""Stochastic and quadrature oracles for every closed-form metric.

Two independent validation routes live here:

* **Network simulation** — Poisson realizations of both receiver
  populations inside an automatically sized window, reduced to the composite
  gains of the ordered users, with confidence intervals.  The k-th nearest
  receiver is drawn as one order statistic of the window's Poisson count:
  the k-th smallest of N uniforms is Beta(k, N + 1 - k).  For the k-th
  best one, each window is split into an inner ball, large enough to hold
  k points except with probability under the rejection budget, which is
  drawn in full, and a far ring, of which only the points that can still
  reach the top k are drawn: an exact Poisson thinning on the gamma shape,
  above a threshold set by the inner ball's k-th point.  A stream is one
  side's gains under the side's ordered law (``_side_law``): the k-th
  legitimate receiver at the scenario's ordering, the first eavesdropper at
  its eavesdropper policy (``ScenarioConfig.ordering_of``).  One
  ``_stream`` call draws one stream: it sizes the stream's window for its
  ordering, then draws every batch, each from its own PCG64 generator
  keyed by a SeedSequence on (master seed, batch, side, ordering).  So a
  gain does not depend on which other streams were requested, and results
  are bit-identical for a given master seed no matter how many workers
  execute the batches.

  For k = 1 (every eavesdropper draw) each part's best point is the row
  minimum of its keys, read without a padded array; the draws and the
  point selected are those of the padded selection k > 1 uses.

  Within a ``shared_draws`` scope, which ``simulate_pnz_all`` and
  ``validation.run_validation`` open, each distinct stream is drawn once
  and each distinct capacity integral evaluated once, through one store
  lookup (``_once``).  Both are stored under the side law they read: d,
  upsilon, the side's density and composite fading, the side, its order
  index and its ordering.  The law also sizes a stream's window, so a
  stream adds only the master seed and the trial count; a capacity integral
  adds its SNR scale.  Two calls that agree on a key draw the same PCG64
  generators through the same sampler, or sum the same nodes, so handing the
  first call's value to the second is bit-identical to computing it again.  Every
  row's eavesdropper law is the first eavesdropper (k = 1), whatever the
  user index, so check points of one figure that differ only in k share
  the eavesdropper entries.  One keep rule governs the store: the scope's
  owner keeps the entries of the side laws a later call reads
  (``Metric.side_laws``, ``_Shared.keep``), so dropping one can cost a
  recomputation but never changes a value, and nothing outlives the scope.

* **Defining-integral quadrature** — direct integration of each metric's
  probability/expectation integral over the side laws' composite-gain
  laws (``_law``), using only gamma-family building blocks, deliberately
  bypassing the Fox H route the closed forms take.  The exp-sinh nodes
  whose weight underflows to exactly 0 are passed over before any 2D
  primitive is evaluated on them, which changes a sum by rounding alone.
  The rule's levels are nested (level L's nodes hold level L - 1's, as the
  even ones), and each law ``_law`` builds for an integral keeps its 2D
  primitives' values from their last call (``_Table``).  So a finer level
  evaluates a 2D primitive only on the pairs of nodes the coarser one did
  not hold, about 3/4 of its grid; values are matched bit for bit and
  every sum is formed as on a fresh law, so each level value is
  unchanged.

``METRICS``, the metric registry at the end, holds each metric id's cases
and its three routes; the CLI, the validation matrix and the figures read it.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, TypeVar

import numpy as np
from scipy.special import gammaincc, gammainccinv, ndtri

from . import fading, metrics, stochgeo
from .metrics import CASES, ORDERINGS, QUAD_TOL_PROBABILITY, ScenarioConfig
from .specfun import ConvergenceError

__all__ = [
    "METRICS",
    "ErgodicSecrecyEstimate",
    "Metric",
    "MetricEstimate",
    "MonteCarloConfig",
    "integrate_defining",
    "shared_draws",
    "simulate_cop",
    "simulate_ergodic_capacity",
    "simulate_ergodic_secrecy",
    "simulate_pnz",
    "simulate_pnz_all",
]

_BATCH = 8192
_T = TypeVar("_T")
# Quadrature: successive exp-sinh levels must agree to _QUAD_REL.  Nodes lie
# within 150 e-folds of their scale: no gain law here holds mass beyond, and
# powers of such nodes stay finite for delta < 2.3.
_QUAD_REL = 1e-9
_LEVELS = (3, 4, 5, 6, 7)
_T_MAX = math.asinh(150.0 / (0.5 * math.pi))


@dataclass(frozen=True)
class MonteCarloConfig:
    """Simulation size, reproducibility, worker count and interval level.

    There is no window control: ``_stream`` sizes every stream's sampling
    ball from its side law, never below 10, so that a realization misses
    the requested order statistic only within stated budgets.
    """

    trials: int
    master_seed: int
    worker_hint: int = 1
    ci_level: float = 0.997

    def __post_init__(self) -> None:
        for name in ("trials", "master_seed", "worker_hint"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master_seed}")
        if self.worker_hint < 1:
            raise ValueError(f"worker hint must be >= 1, got {self.worker_hint}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must lie in (0, 1), got {self.ci_level}")

    @property
    def z_score(self) -> float:
        return float(ndtri(0.5 * (1.0 + self.ci_level)))


@dataclass(frozen=True)
class MetricEstimate:
    """Metric value with provenance; stochastic estimates carry an interval."""

    value: float
    half_width: float
    provenance: str
    trials_used: int
    rejection_rate: float = 0.0


@dataclass(frozen=True)
class ErgodicSecrecyEstimate:
    """Both secrecy-capacity estimators, reported separately.

    ``clipped_difference`` clips the difference of the two capacity means
    (the convention the closed forms follow); ``mean_clipped`` averages the
    per-realization clipped capacity difference.  They agree only when one
    link dominates almost surely.
    """

    clipped_difference: MetricEstimate
    mean_clipped: MetricEstimate


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------


def _far_ring(
    gen: np.random.Generator,
    mean: float,
    u0: float,
    q: np.ndarray,
    mu: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The far ring u0 < U <= 1 of one batch, thinned to the points whose
    gamma shape G exceeds a per-row threshold t.

    Row i holds Poisson(mean * q_i) survivors, where q_i = Q(mu, t_i) is the
    chance that a shape exceeds t_i.  Each survivor has U uniform on
    (u0, 1] and G = Q^-1(mu, q_i V) with V uniform on (0, 1], which is
    Gamma(mu) truncated to (t_i, inf); at q_i = 1 (t_i = 0) that is plain
    Gamma(mu), so rows that keep every point need no second path.
    Returns the survivor count of each row and the survivors' U and G,
    row after row.
    """
    counts = gen.poisson(mean * q)
    u = 1.0 - (1.0 - u0) * gen.random(int(counts.sum()))
    return counts, u, gammainccinv(mu, np.repeat(q, counts) * (1.0 - gen.random(u.size)))


def _smallest_per_row(counts: np.ndarray, key: np.ndarray, k: int) -> np.ndarray:
    """The k smallest keys of each row of keys stored row after row, as a
    (rows, k) array padded with +inf."""
    row = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((key, row))
    rank = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pick = rank < k
    padded = np.full((counts.size, k), np.inf)
    padded[row[pick], rank[pick]] = key[order[pick]]
    return padded


def _row_min(counts: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The smallest key of each row of keys stored row after row, +inf for a
    row with no keys.

    A NaN key (a point with U = 0 and G = 0) is passed over as np.partition
    passes it over in a +inf-padded row, and a row of NaN keys alone reads
    +inf.  The appended +inf is the start of a trailing empty row.
    """
    smallest = np.fmin.reduceat(np.append(key, np.inf), np.cumsum(counts) - counts)
    smallest[counts == 0] = np.inf
    return np.fmin(smallest, np.inf, out=smallest)


def _window_mean(geometry: stochgeo.NetworkGeometry, side: str, radius: float) -> float:
    return geometry.density(side) * geometry.unit_ball_volume * radius**geometry.d


def _sample_nearest_batch(
    gen: np.random.Generator,
    geometry: stochgeo.NetworkGeometry,
    side: str,
    k: int,
    radius: float,
    size: int,
) -> np.ndarray:
    """Composite gains of the k-th nearest receiver for one batch, NaN where
    a realization holds fewer than k points.

    A point at uniform draw U (its share of the window's volume) has path
    loss R^upsilon U^(upsilon/d), increasing in U.  Given the window's
    Poisson count N, the k-th smallest of N i.i.d. uniforms is exactly
    Beta(k, N + 1 - k) (David & Nagaraja, Order Statistics, 2003, section
    2.2), so each realization draws its count, that one order statistic
    (Beta(k, 1) stands in where N < k, and the row is NaN) and one gain:
    the gain attached to the k-th nearest point is independent of the
    distances.  Draw order: counts, order statistics, gain shapes.  A draw
    U = 0 is a point at the origin, of infinite gain.
    """
    counts = gen.poisson(_window_mean(geometry, side, radius), size)
    u_k = gen.beta(k, np.maximum(counts + 1 - k, 1))
    gains = fading.sample_power_gain(geometry.fading(side), gen, size)
    with np.errstate(divide="ignore"):
        z = gains / (radius**geometry.upsilon * u_k ** (geometry.upsilon / geometry.d))
    z[counts < k] = np.nan
    return z


def _sample_best_batch(
    gen: np.random.Generator,
    geometry: stochgeo.NetworkGeometry,
    side: str,
    k: int,
    radius: float,
    size: int,
) -> np.ndarray:
    """Composite gains of the k-th best receiver for one batch, NaN where a
    realization holds fewer than k points.

    A point at uniform draw U (its share of the window's volume) and
    standard-gamma shape G has fading-weighted loss
    (R^upsilon / omega) (U^c / G)^(2/alpha) with c = alpha upsilon / (2d),
    increasing in the key U^c / G.  So the k-th point is selected on the key
    of the raw draws, and only that point is mapped to its composite gain.

    The window is split into an inner ball U < u0 and a far ring.  The
    inner ball holds ``stochgeo.min_count_mean(k)`` points on average, so it
    holds fewer than k with probability under the rejection budget; u0 = 1
    when the window holds fewer.  The inner ball is drawn in full: counts,
    then one uniform (scaled by u0) and one shape per point, row after row,
    scattered into a +inf-padded array of keys.  With K_in its k-th key, a
    far point has key U^c / G > u0^c / G, so it can enter the top k only if
    G > t = u0^c / K_in.  The far ring is therefore drawn as one Poisson
    layer thinned to G > t (``_far_ring``), which is exact: the points of a
    Poisson process that pass an independent mark test form a Poisson
    process again (Kingman, Poisson Processes, 1993, section 5.1), and the
    ring is independent of K_in.  A row with fewer than k inner points has
    K_in = +inf, t = 0 and q = 1, and draws its far ring in full on the same
    path (the truncated law at t = 0 is Gamma(mu)).  Only the k smallest
    keys of each part can be among the k smallest of the union, so those
    are concatenated and selected; with u0 = 1 there is no far ring.  At
    k = 1 each part's smallest key is its row minimum (``_row_min``), and
    the smaller of the two is selected: the same value the padded
    selection reads, from the same draws in the same order, with no padded
    array, partition or concatenation.

    A point at U = 0 has infinite gain; one with G = 0 has key +inf and is
    never preferred to a point of positive gain.
    """
    fad = geometry.fading(side)
    c = 0.5 * fad.alpha * geometry.upsilon / geometry.d
    mean_count = _window_mean(geometry, side, radius)
    u0 = min(1.0, stochgeo.min_count_mean(k) / mean_count)
    counts = gen.poisson(mean_count * u0, size)
    n = int(counts.sum())
    u = gen.random(n)
    u *= u0
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = u**c / gen.standard_gamma(fad.mu, n)
        if k == 1:
            key_k = _row_min(counts, inner)
        else:
            width = max(int(counts.max(initial=0)), k)
            key = np.full((size, width), np.inf)
            # row-major boolean indexing fills each row's leading slots in turn
            key[np.arange(width) < counts[:, None]] = inner
            key.partition(k - 1, axis=1)
            key_k = key[:, k - 1]
        if u0 < 1.0:
            q = gammaincc(fad.mu, u0**c / key_k)
            far_counts, far_u, far_shapes = _far_ring(gen, mean_count * (1.0 - u0), u0, q, fad.mu)
            counts = counts + far_counts
            far = far_u**c / far_shapes
            if k == 1:
                key_k = np.fmin(key_k, _row_min(far_counts, far))
            else:
                key = np.concatenate((key[:, :k], _smallest_per_row(far_counts, far, k)), axis=1)
                key_k = np.partition(key, k - 1, axis=1)[:, k - 1]
        z = fading.power_gain_of_shape(fad, 1.0 / key_k) / radius**geometry.upsilon
    z[counts < k] = np.nan
    return z


_SAMPLERS = {"nearest": _sample_nearest_batch, "best": _sample_best_batch}


def _side_law(cfg: ScenarioConfig, side: str) -> tuple:
    """The side's ordered law, as what its draws and integrals read: d,
    upsilon, the side's density and composite fading, the side, its order
    index and its ordering."""
    geo = cfg.geometry
    return (geo.d, geo.upsilon, geo.density(side), geo.fading(side), side,
            cfg.order_index(side), cfg.ordering_of(side))


class _Shared(dict):
    """Store of one ``shared_draws`` scope, keyed on side laws: a stream's
    read-only gains at (side law, master seed, trials), a capacity
    E[log2(1 + eta Z)] at (side law, eta).  The
    owner keeps the side laws a later call reads (``Metric.side_laws``):
    dropping an entry can cost a recomputation, never change a value.  An
    empty store is falsy, so it is told from no store by ``is None``.
    """

    def keep(self, laws: set[tuple]) -> None:
        """Drop every entry whose side law is not in ``laws``."""
        for key in [key for key in self if key[0] not in laws]:
            del self[key]


# The scope's store; None outside one.  Only ``_once`` reads it.
_SHARED: contextvars.ContextVar[_Shared | None] = contextvars.ContextVar("secnet_shared_draws", default=None)


@contextlib.contextmanager
def shared_draws():
    """Within the block, draw each stream once and integrate each capacity
    once per side law.  Yields the store, from which the block drops the
    entries of side laws it no longer reads (``_Shared.keep``); nothing is
    kept after the block, also when it raises."""
    shared = _Shared()
    token = _SHARED.set(shared)
    try:
        yield shared
    finally:
        _SHARED.reset(token)
        shared.clear()


def _once(key: tuple, compute: Callable[[], _T]) -> _T:
    """compute(), or inside ``shared_draws`` the value stored under key.

    A miss stores compute()'s value once it returns, so a computation that
    raises leaves nothing behind.  The store is read in the caller's thread:
    executor threads do not inherit the caller's context.
    """
    shared = _SHARED.get()
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


def _stream(cfg: ScenarioConfig, mc: MonteCarloConfig, side: str) -> np.ndarray:
    """cfg's composite gains on one side for mc.trials realizations, as a
    read-only array.

    The side is drawn under its side law (``_side_law``); a gain is NaN
    where a realization holds fewer points than the side's order index.
    The stream has its own window, sized for its ordering alone, and each
    of its batches owns a PCG64 generator seeded by
    SeedSequence(master_seed, spawn_key=(batch, side, ordering)).  So a gain
    does not depend on which other side a call requests, and since batches
    write disjoint slices of one preallocated array, it does not depend on
    worker scheduling either.
    """
    ordering, k = cfg.ordering_of(side), cfg.order_index(side)
    radius = stochgeo.window_radius(cfg.geometry, side, k, orderings=(ordering,))
    # Positions in SIDES and ORDERINGS are stream keys: reordering either changes realizations.
    code = (stochgeo.SIDES.index(side), ORDERINGS.index(ordering))
    z = np.empty(mc.trials)

    def run_batch(j: int) -> None:
        lo, hi = j * _BATCH, min((j + 1) * _BATCH, mc.trials)
        gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=mc.master_seed, spawn_key=(j, *code))))
        z[lo:hi] = _SAMPLERS[ordering](gen, cfg.geometry, side, k, radius, hi - lo)

    n_batches = (mc.trials + _BATCH - 1) // _BATCH
    # More threads than batches or cores only add start-up cost.
    workers = min(mc.worker_hint, n_batches, os.cpu_count() or 1)
    if workers == 1:
        for j in range(n_batches):
            run_batch(j)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_batch, range(n_batches)))
    z.flags.writeable = False
    return z


def _gains(cfg: ScenarioConfig, mc: MonteCarloConfig, sides: tuple[str, ...]) -> list[np.ndarray]:
    """cfg's streams (``_stream``) on each of ``sides``; inside
    ``shared_draws`` a stream already drawn is returned as stored while its
    side law is kept (``_Shared.keep``)."""
    return [_once((_side_law(cfg, side), mc.master_seed, mc.trials),
                  partial(_stream, cfg, mc, side)) for side in sides]


def _case_gains(cfg: ScenarioConfig, mc: MonteCarloConfig) -> tuple[np.ndarray, np.ndarray]:
    """Legitimate and eavesdropper gains of cfg's case where both exist."""
    zb, ze = _gains(cfg, mc, stochgeo.SIDES)
    ok = ~(np.isnan(zb) | np.isnan(ze))
    return zb[ok], ze[ok]


def _binomial_estimate(hits: int, n: int, trials: int, mc: MonteCarloConfig) -> MetricEstimate:
    if n == 0:
        raise ConvergenceError("no valid realizations: none held as many points as the order index")
    p = hits / n
    z = mc.z_score
    half = z * math.sqrt(max(p * (1.0 - p), 0.0) / n)
    if p <= 5.0 * half or 1.0 - p <= 5.0 * half:
        # Wilson interval half-width: accurate next to the boundaries.
        half = (z / (1.0 + z * z / n)) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return MetricEstimate(
        value=p, half_width=half, provenance="monte-carlo",
        trials_used=n, rejection_rate=1.0 - n / trials,
    )


def _mean_estimate(samples: np.ndarray, trials: int, mc: MonteCarloConfig) -> MetricEstimate:
    n = samples.size
    if n == 0:
        raise ConvergenceError("no valid realizations: none held as many points as the order index")
    mean = float(samples.mean())
    half = mc.z_score * float(samples.std(ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    return MetricEstimate(
        value=mean, half_width=half,
        provenance="monte-carlo", trials_used=n, rejection_rate=1.0 - n / trials,
    )


def simulate_cop(cfg: ScenarioConfig, mc: MonteCarloConfig) -> MetricEstimate:
    """Connection outage frequency of the k-th receiver under cfg.ordering."""
    threshold = cfg.outage_threshold
    if threshold == 0.0:
        # Capacity log2(1 + eta*Z) is almost surely positive, so outage at
        # zero rate never occurs; the zero is exact, not sampled.
        return MetricEstimate(0.0, 0.0, "closed-form", 0)
    z, = _gains(cfg, mc, ("legitimate",))
    z = z[~np.isnan(z)]
    return _binomial_estimate(int(np.count_nonzero(z < threshold)), z.size, mc.trials, mc)


def _pnz_estimate(cfg: ScenarioConfig, mc: MonteCarloConfig) -> MetricEstimate:
    zb, ze = _case_gains(cfg, mc)
    return _binomial_estimate(int(np.count_nonzero(zb * cfg.varpi > ze)), zb.size, mc.trials, mc)


def simulate_pnz(cfg: ScenarioConfig, case: str | None, mc: MonteCarloConfig) -> MetricEstimate:
    """Frequency of the legitimate SNR exceeding the eavesdropper SNR, for ``case`` or else cfg's pairing."""
    return _pnz_estimate(cfg if case is None else cfg.with_case(case), mc)


def simulate_pnz_all(cfg: ScenarioConfig, mc: MonteCarloConfig) -> dict[str, MetricEstimate]:
    """All four receiver/eavesdropper pairings from one set of realizations."""
    with shared_draws():
        return {case: _pnz_estimate(cfg.with_case(case), mc) for case in CASES}


def simulate_ergodic_capacity(cfg: ScenarioConfig, mc: MonteCarloConfig) -> MetricEstimate:
    """Sample mean of the legitimate link capacity log2(1 + eta_k * Z) of
    the k-th receiver under cfg.ordering."""
    z, = _gains(cfg, mc, ("legitimate",))
    return _mean_estimate(np.log2(1.0 + cfg.eta_k * z[~np.isnan(z)]), mc.trials, mc)


def simulate_ergodic_secrecy(cfg: ScenarioConfig, mc: MonteCarloConfig) -> ErgodicSecrecyEstimate:
    """Both ergodic secrecy-capacity estimators for cfg's pairing.

    The clipped-difference variant (difference of capacity means, clipped at
    zero) is the one the closed forms are compared against; the
    mean-of-clipped variant averages per-realization clipped differences and
    is generally larger.
    """
    zb, ze = _case_gains(cfg, mc)
    diff = np.log2(1.0 + cfg.eta_k * zb) - np.log2(1.0 + cfg.eta_e * ze)
    diff_est = _mean_estimate(diff, mc.trials, mc)
    clipped_difference = replace(diff_est, value=max(diff_est.value, 0.0))
    mean_clipped = _mean_estimate(np.maximum(diff, 0.0), mc.trials, mc)
    return ErgodicSecrecyEstimate(clipped_difference=clipped_difference, mean_clipped=mean_clipped)


# ---------------------------------------------------------------------------
# Defining-integral quadrature, from gamma-family primitives only (never Fox
# H).  By the mapping theorem the k-th nearest receiver is the k-th point Y
# of {r^upsilon}, with gain G / Y, and the k-th best one the k-th point Y of
# {r^upsilon / g}, with gain 1 / Y; both processes have mean measure
# rate * y^delta.  One law per side law gives the CDF and the expectations
# of that gain at each rule level, and each metric is a functional of the
# two sides' laws.
# ---------------------------------------------------------------------------


def _exp_sinh(level: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the exp-sinh rule for an integral over (0, inf).

    x = scale * exp(pi/2 sinh t) on t-steps of 2^-level, so that
    log(x / scale) spans [-150, 150]: mass decades away from ``scale`` is
    still sampled, and the trapezoid sum converges exponentially in the
    level for analytic integrands.
    """
    step = 2.0**-level
    n = int(_T_MAX / step)
    t = step * np.arange(-n, n + 1)
    x = scale * np.exp(0.5 * math.pi * np.sinh(t))
    return x, step * 0.5 * math.pi * np.cosh(t) * x


def _converged(integral) -> float:
    """integral(level) at increasing levels until two successive values agree.

    The levels are nested: level L's nodes t = 2^-L j hold level L - 1's
    exactly, as the even j.  An integral whose laws come from ``_law``
    therefore evaluates each 2D primitive at level L only on the pairs of
    nodes level L - 1 did not hold (``_Table``), and every level value is
    the one a fresh law gives, bit for bit.
    """
    # Far-tail powers overflow to inf where a density factor is 0, and a
    # gain that underflows to 0 divides by zero in V's lower limit.
    with np.errstate(over="ignore", divide="ignore"):
        previous = integral(_LEVELS[0])
        for level in _LEVELS[1:]:
            value = float(integral(level))
            if abs(value - previous) <= _QUAD_REL * abs(value):
                return value
            previous = value
    raise ConvergenceError(
        f"defining-integral quadrature did not converge: {previous:.12g} at step 2^-{_LEVELS[-1]}")


def _bits(x) -> np.ndarray:
    """A flat copy of x, as the bit patterns of its floats: a key that the
    caller's later writes to x cannot change."""
    return np.array(x, dtype=float).reshape(-1).view(np.int64)


class _Table:
    """One elementwise primitive's values on the grid of its last call, so
    that the next call evaluates it only on the pairs the last did not.

    The argument at (i, j) is ``op(a_i, b_j)`` of a row key a_i and a
    column key b_j.  Keys are matched bit for bit, so a value taken over is
    the one the primitive would return again, whatever the levels or z of
    the two calls: a rule node recurs unchanged at every finer level, and
    so do the rows a caller derives from such nodes.  The fresh arguments
    go to the primitive in one call, and a first call, or one that shares
    no row or no column, passes the full grid as it is.  The table is
    replaced only after the primitive returns, and the values it returns
    are its own, read-only.

    1D primitives are called in full: a level holds at most 1,345 nodes,
    and halving such a call saves less than matching its nodes costs.
    """

    def __init__(self) -> None:
        self.keys: tuple[np.ndarray, ...] = ()
        self.values: np.ndarray | None = None

    def _held(self, axis: int, bits: np.ndarray):
        """The positions of ``bits`` the last call did not hold, those it
        held and where it held them; None where it held none."""
        if self.values is None or not self.keys[axis].size:
            return None
        last = self.keys[axis]
        order = last.argsort()
        at = order.take(last.searchsorted(bits, sorter=order), mode="clip")
        hit = last[at] == bits
        old = hit.nonzero()[0]
        return ((~hit).nonzero()[0], old, at[old]) if old.size else None

    def outer(self, fn, op: np.ufunc, a, b: np.ndarray) -> np.ndarray:
        """fn(op.outer(a, b)) for a key array a of any shape and 1D b; fn
        returns a new array.

        The grid is filled in three blocks: the rows not held, then the
        columns not held on the rows held, then the pairs held.
        """
        a_bits, b_bits = _bits(a), _bits(b)
        rows, cols = self._held(0, a_bits), self._held(1, b_bits)
        if rows is None or cols is None:
            out = fn(op.outer(a, b)).reshape(a_bits.size, b.size)
        else:
            a_flat = a_bits.view(float)
            a_new, a_old, a_at = map(_stepped, rows)
            b_new, b_old, b_at = map(_stepped, cols)
            fresh_rows, held_rows, fresh_cols = a_flat[a_new], a_flat[a_old], b[b_new]
            split = fresh_rows.size * b.size
            out = np.empty((a_flat.size, b.size))
            # the fresh arguments borrow the grid's leading memory until fn returns
            args = out.reshape(-1)[:split + held_rows.size * fresh_cols.size]
            op.outer(fresh_rows, b, out=args[:split].reshape(fresh_rows.size, b.size))
            op.outer(held_rows, fresh_cols, out=args[split:].reshape(held_rows.size, fresh_cols.size))
            fresh = fn(args)
            out[a_new] = fresh[:split].reshape(fresh_rows.size, b.size)
            out[_block(a_old, b_new)] = fresh[split:].reshape(held_rows.size, fresh_cols.size)
            out[_block(a_old, b_old)] = self.values[_block(a_at, b_at)]
        out.flags.writeable = False
        self.keys, self.values = (a_bits, b_bits), out
        return out.reshape(np.shape(a) + b.shape)


def _stepped(index: np.ndarray):
    """An index array as a slice where its positions step evenly, which
    numpy copies faster than an index array; else the array.  Nested
    levels hold every second node, so the positions a ``_Table`` copies
    almost always step evenly."""
    if index.size > 1:
        start, step = index[0], index[1] - index[0]
        stop = start + step * index.size
        if step > 0 and (index == np.arange(start, stop, step)).all():
            return slice(start, stop, step)
    return index


def _block(rows, cols):
    """The index of the block rows x cols, each a slice or an index array."""
    return np.ix_(rows, cols) if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray) else (rows, cols)


@dataclass(frozen=True)
class _Tabled:
    """A law's ``_Table`` per primitive call site, made on first use.  The
    tables live as long as the law, and ``_law`` builds a law per integral,
    so nothing outlives ``integrate_defining``."""

    tables: defaultdict[str, _Table] = field(
        default_factory=lambda: defaultdict(_Table), init=False, repr=False, compare=False)


@dataclass(frozen=True)
class _NearestLaw(_Tabled):
    """Gain Z = G / Y of the k-th nearest receiver.

    Each sum passes over the nodes whose 1D weight (density times rule
    weight) is exactly 0, before the 2D primitive or ``h`` is called on
    them: such a node adds 0 times a finite value, an exact 0, so the sum
    changes only by the order in which the other terms are added.  The
    exp-sinh rule spans 150 e-folds, so about a third of the nodes of a
    typical law carry a density that underflows to 0.  Only exact zeros
    are passed over: a relative cutoff would lose values as small as the
    8x8 nearest COP (3e-40).

    ``tables`` keeps the 2D primitive's values from the law's last call of
    ``cdf`` and of ``expect`` (``_Table``): its columns are the rule nodes,
    its rows the caller's z or the rule nodes w.  So at a finer level it
    is evaluated on about 3/4 of its grid, and each sum is formed from the
    same values in the same order as on a fresh law.
    """

    fad: fading.AlphaMuParams
    rate: float
    delta: float
    k: int

    def cdf(self, z, level: int):
        """P(Z <= z) by the conditioning integral over the distance law."""
        y, wy = _exp_sinh(level, (self.k / self.rate) ** (1.0 / self.delta))
        weight = stochgeo.pdf_kth_distance_pow(self.k, self.rate, self.delta, y) * wy
        keep = weight != 0.0
        return self.tables["cdf"].outer(
            partial(fading.cdf_power_gain, self.fad), np.multiply, z, y[keep]) @ weight[keep]

    def expect(self, h, level: int):
        """E[h(Z)] over W = 1 / Z = Y / G, whose density is the integral
        over g of g f_G(g) f_Y(w g)."""
        mean_gain = self.fad.mean_power()
        w, ww = _exp_sinh(level, (self.k / self.rate) ** (1.0 / self.delta) / mean_gain)
        g, wg = _exp_sinh(level, mean_gain)
        g_weight = g * fading.pdf_power_gain(self.fad, g) * wg
        g_keep = g_weight != 0.0
        pdf_y = self.tables["expect"].outer(
            partial(stochgeo.pdf_kth_distance_pow, self.k, self.rate, self.delta), np.multiply, w, g[g_keep])
        weight = (pdf_y @ g_weight[g_keep]) * ww
        keep = weight != 0.0
        return np.sum(h(1.0 / w[keep]) * weight[keep])


@dataclass(frozen=True)
class _BestLaw(_Tabled):
    """Gain Z = 1 / Y of the k-th best receiver; V = rate * Y^delta is
    Gamma(k, 1) in every scenario.

    ``expect`` passes over the nodes whose weight is exactly 0, as
    ``_NearestLaw`` does.  ``cdf`` shifts one set of offsets x by a lower
    limit lo per z, so it drops an offset only where the Gamma(k) density
    is exactly 0 at min(lo) + x and min(lo) + x lies past the mode k - 1:
    the density falls past its mode, so it is 0 at every lo + x as well.
    ``tables`` keeps ``cdf``'s 2D density values as ``_NearestLaw``'s
    does: the grid's rows are the limits lo, its columns the offsets x.
    """

    rate: float
    delta: float
    k: int

    def cdf(self, z, level: int):
        """P(Z <= z) = P(V >= rate * z^-delta); the limit is capped where z underflowed to 0."""
        lo = np.minimum(self.rate * np.asarray(z, dtype=float) ** -self.delta, 1e300)
        x, wx = _exp_sinh(level, self.k)
        v_min = np.min(lo, initial=np.inf) + x
        keep = (v_min <= self.k - 1) | (stochgeo.pdf_kth_distance_pow(self.k, 1.0, 1.0, v_min) != 0.0)
        pdf_v = partial(stochgeo.pdf_kth_distance_pow, self.k, 1.0, 1.0)
        return np.sum(self.tables["cdf"].outer(pdf_v, np.add, lo, x[keep]) * wx[keep], axis=-1)

    def expect(self, h, level: int):
        v, wv = _exp_sinh(level, self.k)
        weight = stochgeo.pdf_kth_distance_pow(self.k, 1.0, 1.0, v) * wv
        keep = weight != 0.0
        return np.sum(h((self.rate / v[keep]) ** (1.0 / self.delta)) * weight[keep])


def _law(cfg: ScenarioConfig, side: str):
    """The composite-gain law of cfg's side law (``_side_law``), whose
    ``cdf`` and ``expect`` take the rule level: one law serves every level
    of an integral, and keeps its 2D primitives' values between levels
    (``_Tabled``)."""
    geo, k = cfg.geometry, cfg.order_index(side)
    if cfg.ordering_of(side) == "nearest":
        return _NearestLaw(geo.fading(side), geo.pathloss_rate(side), geo.delta, k)
    return _BestLaw(geo.composite_rate(side), geo.delta, k)


def _quad_capacity(cfg: ScenarioConfig, side: str) -> float:
    """Mean capacity E[log2(1 + eta Z)] of the side's ordered receiver,
    evaluated once per (side law, eta) inside ``shared_draws``."""
    eta = cfg.snr_scale(side)
    return _once((_side_law(cfg, side), eta), lambda: _converged(
        partial(_law(cfg, side).expect, lambda z: np.log2(1.0 + eta * z))))


def _pnz(cfg: ScenarioConfig) -> float:
    """P(varpi Z_b > Z_e) = E_b[F_e(varpi Z_b)]."""
    bob, eve = _law(cfg, "legitimate"), _law(cfg, "eavesdropper")
    return _converged(lambda level: bob.expect(lambda z: eve.cdf(cfg.varpi * z, level), level))


def integrate_defining(metric: str, cfg: ScenarioConfig) -> MetricEstimate:
    """Evaluate one ``METRICS`` id by direct quadrature of its defining
    integral, at the case cfg selects (``Metric.case_of``)."""
    entry = METRICS.get(metric)
    if entry is None:
        raise ValueError(f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}")
    return MetricEstimate(value=float(entry.defining(cfg)), half_width=0.0,
                          provenance="quadrature", trials_used=0)


# ---------------------------------------------------------------------------
# The metric registry
# ---------------------------------------------------------------------------

QUAD_TOL_CAPACITY = 1e-4


@dataclass(frozen=True)
class Metric:
    """One secrecy metric and its routes.

    ``cases`` are the orderings (COP, capacity) or the four receiver/
    eavesdropper pairings (PNZ, ergodic secrecy capacity), and ``at`` is
    the one place a case label sets a scenario.  ``probability`` picks the
    quadrature tolerance and the simulation trial count.  Every route takes
    one scenario ``at`` has set and returns one value (``closed_form``,
    ``defining``) or ``MetricEstimate`` (``simulate``).
    """

    cases: tuple[str, ...]
    probability: bool
    closed_form: Callable[[ScenarioConfig], float]
    simulate: Callable[[ScenarioConfig, MonteCarloConfig], MetricEstimate]
    defining: Callable[[ScenarioConfig], float]

    @property
    def quad_tol(self) -> float:
        return QUAD_TOL_PROBABILITY if self.probability else QUAD_TOL_CAPACITY

    def at(self, cfg: ScenarioConfig, case: str) -> ScenarioConfig:
        """cfg with the ordering and eavesdropper policy a case selects; cfg itself if it does."""
        if self.case_of(cfg) == case:
            return cfg
        return replace(cfg, ordering=case) if self.cases == ORDERINGS else cfg.with_case(case)

    def case_of(self, cfg: ScenarioConfig) -> str:
        """The case a scenario selects through its ordering and eavesdropper policy."""
        return cfg.ordering if self.cases == ORDERINGS else cfg.case

    def side_laws(self, cfg: ScenarioConfig) -> set[tuple]:
        """The side laws (``_side_law``) whose stored streams and capacity
        integrals ``simulate`` and ``defining`` read at cfg: the legitimate
        one for an ordering, both sides' for a pairing."""
        sides = ("legitimate",) if self.cases == ORDERINGS else stochgeo.SIDES
        return {_side_law(cfg, side) for side in sides}


# Entries resolve ``metrics.*`` and this module's simulators at call time,
# so a wrapper installed on those module attributes sees every call.
METRICS: dict[str, Metric] = {
    "cop": Metric(
        cases=ORDERINGS, probability=True,
        closed_form=lambda cfg: metrics.cop(cfg),
        simulate=lambda cfg, mc: simulate_cop(cfg, mc),
        defining=lambda cfg: _converged(partial(_law(cfg, "legitimate").cdf, cfg.outage_threshold)),
    ),
    "pnz": Metric(
        cases=CASES, probability=True,
        closed_form=lambda cfg: metrics.pnz(cfg),
        simulate=lambda cfg, mc: simulate_pnz(cfg, None, mc),
        defining=lambda cfg: _pnz(cfg),
    ),
    "capacity": Metric(
        cases=ORDERINGS, probability=False,
        closed_form=lambda cfg: getattr(metrics, f"ergodic_capacity_{cfg.ordering}")(cfg),
        simulate=lambda cfg, mc: simulate_ergodic_capacity(cfg, mc),
        defining=lambda cfg: _quad_capacity(cfg, "legitimate"),
    ),
    "esc": Metric(
        cases=CASES, probability=False,
        closed_form=lambda cfg: metrics.ergodic_secrecy_capacity(cfg),
        simulate=lambda cfg, mc: simulate_ergodic_secrecy(cfg, mc).clipped_difference,
        defining=lambda cfg: max(_quad_capacity(cfg, "legitimate") - _quad_capacity(cfg, "eavesdropper"), 0.0),
    ),
}
