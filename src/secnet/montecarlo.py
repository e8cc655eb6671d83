"""The network-simulation oracle, its shared store and the metric registry.

Each closed-form metric is checked against two independent oracles: the
defining-integral quadrature of ``secnet.quadrature`` and the network
simulation here; ``tests/test_independence.py`` checks what each may read.

The simulation draws Poisson realizations of both receiver populations
inside an automatically sized window, reduced to the composite gains of the
ordered users, with confidence intervals.  The k-th nearest receiver is
drawn as one order statistic of the window's Poisson count: the k-th
smallest of N uniforms is Beta(k, N + 1 - k).  For the k-th best one, each
window is split into an inner ball, large enough to hold k points except
with probability under the rejection budget, which is drawn in full, and a
far ring, of which only the points that can still reach the top k are drawn:
an exact Poisson thinning on the gamma shape, above a threshold set by the
inner ball's k-th point.  A stream is one side's gains under the side's
ordered law (``_side_law``): the k-th legitimate receiver at the scenario's
ordering, the first eavesdropper at its eavesdropper policy
(``ScenarioConfig.ordering_of``).  One ``_stream`` call draws one stream: it
sizes the stream's window for its ordering, then draws every batch, each
from its own PCG64 generator keyed by a SeedSequence on (master seed, batch,
side, ordering).  So a gain does not depend on which other streams were
requested, and results are bit-identical for a given master seed no matter
how many workers execute the batches.

For k = 1 (every eavesdropper draw) each part's best point is the row
minimum of its keys, read without a padded array; the draws and the point
selected are those of the padded selection k > 1 uses.

Within a ``shared_draws`` scope, which ``simulate_pnz_all`` and
``validation.run_validation`` open, each distinct stream is drawn once and
each distinct capacity integral evaluated once, through one store lookup
(``_once``).  Both are stored under the side law they read: d, upsilon, the
side's density and composite fading, the side, its order index and its
ordering.  The law also sizes a stream's window, so a stream adds only the
master seed and the trial count; a capacity integral adds its SNR scale.
Two calls that agree on a key draw the same PCG64 generators through the
same sampler, or sum the same nodes, so handing the first call's value to
the second is bit-identical to computing it again.  Every row's eavesdropper
law is the first eavesdropper (k = 1), whatever the user index, so check
points of one figure that differ only in k share the eavesdropper entries.
One keep rule governs the store: the scope's owner keeps the entries of the
side laws a later call reads (``Metric.side_laws``, ``_Shared.keep``), so
dropping one can cost a recomputation but never changes a value, and nothing
outlives the scope.

``METRICS``, the metric registry at the end, holds each metric id's cases
and its three routes; the CLI, the validation matrix and the figures read it.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, TypeVar

import numpy as np
from scipy.special import gammaincc, gammainccinv, ndtri

from . import fading, metrics, quadrature, stochgeo
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
# The largest mean numpy's Poisson sampler draws from (its POISSON_LAM_MAX).
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
_T = TypeVar("_T")


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
    if not _window_mean(cfg.geometry, side, radius) <= _POISSON_MAX:
        raise ConvergenceError(f"the window of radius {radius:g} holds more points than a Poisson draw can count")
    # Both samplers divide by R^upsilon, a Python float power that raises
    # OverflowError past the float range: raise the typed error before drawing.
    try:
        radius**cfg.geometry.upsilon
    except OverflowError:
        raise ConvergenceError(f"R^upsilon of the window of radius {radius:g} at upsilon = "
                               f"{cfg.geometry.upsilon:g} lies outside the float range") from None
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
    if not math.isfinite(mean):
        raise ConvergenceError(f"sample mean {mean} is not finite: a realization passes the float range")
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
    with np.errstate(over="ignore"):  # a product past the float range is inf, and compares right
        hits = int(np.count_nonzero(zb * cfg.varpi > ze))
    return _binomial_estimate(hits, zb.size, mc.trials, mc)


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
    with np.errstate(over="ignore"):  # an infinite capacity makes the mean raise
        capacity = np.log2(1.0 + cfg.eta_k * z[~np.isnan(z)])
    return _mean_estimate(capacity, mc.trials, mc)


def simulate_ergodic_secrecy(cfg: ScenarioConfig, mc: MonteCarloConfig) -> ErgodicSecrecyEstimate:
    """Both ergodic secrecy-capacity estimators for cfg's pairing.

    The clipped-difference variant (difference of capacity means, clipped at
    zero) is the one the closed forms are compared against; the
    mean-of-clipped variant averages per-realization clipped differences and
    is generally larger.
    """
    zb, ze = _case_gains(cfg, mc)
    # an infinite capacity makes the mean inf or nan (inf - inf), and raise
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.log2(1.0 + cfg.eta_k * zb) - np.log2(1.0 + cfg.eta_e * ze)
        diff_est = _mean_estimate(diff, mc.trials, mc)
    clipped_difference = replace(diff_est, value=max(diff_est.value, 0.0))
    mean_clipped = _mean_estimate(np.maximum(diff, 0.0), mc.trials, mc)
    return ErgodicSecrecyEstimate(clipped_difference=clipped_difference, mean_clipped=mean_clipped)


# ---------------------------------------------------------------------------
# The metric registry
# ---------------------------------------------------------------------------

def _quad_capacity(cfg: ScenarioConfig, side: str) -> float:
    """``quadrature.capacity``, evaluated once per (side law, eta) inside ``shared_draws``."""
    return _once((_side_law(cfg, side), cfg.snr_scale(side)), partial(quadrature.capacity, cfg, side))


def integrate_defining(metric: str, cfg: ScenarioConfig) -> MetricEstimate:
    """Evaluate one ``METRICS`` id by direct quadrature of its defining
    integral, at the case cfg selects (``Metric.case_of``)."""
    entry = METRICS.get(metric)
    if entry is None:
        raise ValueError(f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}")
    return MetricEstimate(value=float(entry.defining(cfg)), half_width=0.0,
                          provenance="quadrature", trials_used=0)


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


# Entries resolve ``metrics.*``, ``quadrature.*`` and this module's simulators at call time,
# so a wrapper installed on those module attributes sees every call.
METRICS: dict[str, Metric] = {
    "cop": Metric(
        cases=ORDERINGS, probability=True,
        closed_form=lambda cfg: metrics.cop(cfg),
        simulate=lambda cfg, mc: simulate_cop(cfg, mc),
        defining=lambda cfg: quadrature.cop(cfg),
    ),
    "pnz": Metric(
        cases=CASES, probability=True,
        closed_form=lambda cfg: metrics.pnz(cfg),
        simulate=lambda cfg, mc: simulate_pnz(cfg, None, mc),
        defining=lambda cfg: quadrature.pnz(cfg),
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
