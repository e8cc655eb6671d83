"""Stochastic and quadrature oracles for every closed-form metric.

Two independent validation routes live here:

* **Network simulation** — full Poisson realizations of both receiver
  populations inside an automatically sized window, reduced to the composite
  gains of the ordered users, with confidence intervals.  Random streams are
  counter-based per batch, so results are bit-identical for a given master
  seed no matter how many workers execute the batches.

* **Defining-integral quadrature** — direct adaptive integration of each
  metric's probability/expectation integral using only gamma-family
  building blocks, deliberately bypassing the Fox H route the closed forms
  take.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaln, ndtri

from . import fading, stochgeo
from .metrics import CASES, ORDERINGS, ScenarioConfig
from .specfun import ConvergenceError

__all__ = [
    "ErgodicSecrecyEstimate",
    "MetricEstimate",
    "MonteCarloConfig",
    "integrate_defining",
    "simulate_cop",
    "simulate_ergodic_capacity",
    "simulate_ergodic_secrecy",
    "simulate_pnz",
    "simulate_pnz_all",
]

_BATCH = 8192
_QUAD_REL = 1e-9
_QUAD_REL_INNER = 1e-10


@dataclass(frozen=True)
class MonteCarloConfig:
    """Simulation size, reproducibility, and window controls.

    ``window_radius=None`` sizes the sampling ball per side from the order
    statistics actually requested (never below 10); an explicit value is
    applied to both sides verbatim, which is the hook for truncation
    sensitivity checks.
    """

    trials: int
    master_seed: int
    window_radius: float | None = None
    worker_hint: int = 1
    ci_level: float = 0.997

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master_seed}")
        if self.window_radius is not None and self.window_radius <= 0:
            raise ValueError(f"window radius must be positive, got {self.window_radius}")
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


def _sample_side_batch(
    gen: np.random.Generator,
    geometry: stochgeo.NetworkGeometry,
    side: str,
    k: int,
    radius: float,
    size: int,
    orderings: tuple[str, ...],
) -> dict[str, np.ndarray]:
    """Composite gains of the k-th nearest and/or k-th best receiver for one batch.

    Returns one array per requested ordering, NaN where a realization holds
    fewer than k points.  Draw order (counts, radii, gains) is fixed, so for
    a given requested ordering set identical streams yield identical draws.
    When only the distance ordering is needed, a single gain per realization
    suffices: the gain attached to the k-th nearest point is independent of
    the distances.
    """
    fad = geometry.fading(side)
    d, ups = geometry.d, geometry.upsilon
    mean_count = geometry.density(side) * geometry.unit_ball_volume * radius**d
    counts = gen.poisson(mean_count, size)
    width = max(int(counts.max(initial=0)), k)
    radii = radius * gen.random((size, width)) ** (1.0 / d)
    occupied = np.arange(width)[None, :] < counts[:, None]
    loss = np.where(occupied, radii**ups, np.inf)
    out = {}
    if "best" in orderings:
        gains = fading.sample_power_gain(fad, gen, (size, width))
        weighted = np.where(occupied, loss / gains, np.inf)
        out["best"] = 1.0 / np.partition(weighted, k - 1, axis=1)[:, k - 1]
        if "nearest" in orderings:
            rows = np.arange(size)
            order = np.argpartition(loss, k - 1, axis=1)[:, k - 1]
            with np.errstate(invalid="ignore"):
                out["nearest"] = gains[rows, order] / loss[rows, order]
    elif "nearest" in orderings:
        kth_loss = np.partition(loss, k - 1, axis=1)[:, k - 1]
        gains = fading.sample_power_gain(fad, gen, size)
        with np.errstate(invalid="ignore"):
            out["nearest"] = gains / kth_loss
    for z in out.values():
        z[counts < k] = np.nan
    return out


def _run_simulation(
    cfg: ScenarioConfig,
    mc: MonteCarloConfig,
    need_legit: tuple[str, ...],
    need_eave: tuple[str, ...],
) -> dict[tuple[str, str], np.ndarray]:
    """Sample all requested composite gains for mc.trials realizations.

    Returns one array per requested (side, ordering), NaN where a
    realization holds fewer points than the side's order index.  Each
    (batch, side) pair owns a counter-keyed generator, and batches write
    disjoint slices of preallocated arrays, so the result is independent of
    worker scheduling.
    """
    trials = mc.trials
    sides = []
    # A side's position in SIDES is its stream key: reordering SIDES changes realizations.
    for code, (side, need) in enumerate(zip(stochgeo.SIDES, (need_legit, need_eave))):
        if need:
            k = cfg.order_index(side)
            radius = (mc.window_radius if mc.window_radius is not None
                      else stochgeo.window_radius(cfg.geometry, side, k, orderings=need))
            sides.append((side, code, k, radius, need))
    out = {(side, ordering): np.empty(trials)
           for side, _, _, _, need in sides for ordering in need}
    n_batches = (trials + _BATCH - 1) // _BATCH

    def run_batch(j: int) -> None:
        lo = j * _BATCH
        hi = min(lo + _BATCH, trials)
        for side, code, k, radius, need in sides:
            seq = np.random.SeedSequence(entropy=mc.master_seed, spawn_key=(j, code))
            gen = np.random.Generator(np.random.Philox(seq))
            draws = _sample_side_batch(gen, cfg.geometry, side, k, radius, hi - lo, need)
            for ordering, z in draws.items():
                out[side, ordering][lo:hi] = z

    if mc.worker_hint == 1 or n_batches == 1:
        for j in range(n_batches):
            run_batch(j)
    else:
        with ThreadPoolExecutor(max_workers=mc.worker_hint) as pool:
            list(pool.map(run_batch, range(n_batches)))
    return out


def _case_gains(cfg: ScenarioConfig, draws: dict) -> tuple[np.ndarray, np.ndarray]:
    """Legitimate and eavesdropper gains of cfg's case where both exist."""
    zb = draws["legitimate", cfg.ordering]
    ze = draws["eavesdropper", cfg.eavesdropper_policy]
    ok = ~(np.isnan(zb) | np.isnan(ze))
    return zb[ok], ze[ok]


def _binomial_estimate(hits: int, n: int, trials: int, mc: MonteCarloConfig) -> MetricEstimate:
    if n == 0:
        raise RuntimeError("no valid realizations; window radius too small for the order index")
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
        raise RuntimeError("no valid realizations; window radius too small for the order index")
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
    z = _run_simulation(cfg, mc, (cfg.ordering,), ())["legitimate", cfg.ordering]
    z = z[~np.isnan(z)]
    return _binomial_estimate(int(np.count_nonzero(z < threshold)), z.size, mc.trials, mc)


def _pnz_estimate(cfg: ScenarioConfig, draws: dict, mc: MonteCarloConfig) -> MetricEstimate:
    zb, ze = _case_gains(cfg, draws)
    return _binomial_estimate(int(np.count_nonzero(zb * cfg.varpi > ze)), zb.size, mc.trials, mc)


def simulate_pnz(cfg: ScenarioConfig, case: str | None, mc: MonteCarloConfig) -> MetricEstimate:
    """Frequency of the legitimate SNR exceeding the eavesdropper SNR."""
    cfg = cfg.with_case(cfg.case if case is None else case)
    draws = _run_simulation(cfg, mc, (cfg.ordering,), (cfg.eavesdropper_policy,))
    return _pnz_estimate(cfg, draws, mc)


def simulate_pnz_all(cfg: ScenarioConfig, mc: MonteCarloConfig) -> dict[str, MetricEstimate]:
    """All four receiver/eavesdropper pairings from one set of realizations."""
    draws = _run_simulation(cfg, mc, ORDERINGS, ORDERINGS)
    return {case: _pnz_estimate(cfg.with_case(case), draws, mc) for case in CASES}


def simulate_ergodic_capacity(
    cfg: ScenarioConfig,
    mc: MonteCarloConfig,
    side: str = "legitimate",
    ordering: str | None = None,
    k: int | None = None,
) -> MetricEstimate:
    """Sample mean of the link capacity log2(1 + eta * Z) on one side.

    The eavesdropper side defaults to the strongest receiver (k = 1) under
    the scenario's eavesdropper policy.
    """
    if side not in stochgeo.SIDES:
        raise ValueError(f"side must be one of {stochgeo.SIDES}, got {side!r}")
    if side == "legitimate":
        ordering = cfg.ordering if ordering is None else ordering
        cfg = replace(cfg, ordering=ordering, user_index=cfg.user_index if k is None else k)
        need = ((ordering,), ())
    elif k in (None, 1):
        ordering = cfg.eavesdropper_policy if ordering is None else ordering
        cfg = replace(cfg, eavesdropper_policy=ordering)
        need = ((), (ordering,))
    else:
        # the engine keys eavesdropper order statistics to the strongest one
        raise ValueError("eavesdropper capacities are simulated for the strongest receiver only")
    z = _run_simulation(cfg, mc, *need)[side, ordering]
    return _mean_estimate(np.log2(1.0 + cfg.snr_scale(side) * z[~np.isnan(z)]), mc.trials, mc)


def simulate_ergodic_secrecy(
    cfg: ScenarioConfig,
    case: str | None,
    mc: MonteCarloConfig,
) -> ErgodicSecrecyEstimate:
    """Both ergodic secrecy-capacity estimators for one pairing.

    The clipped-difference variant (difference of capacity means, clipped at
    zero) is the one the closed forms are compared against; the
    mean-of-clipped variant averages per-realization clipped differences and
    is generally larger.
    """
    cfg = cfg.with_case(cfg.case if case is None else case)
    zb, ze = _case_gains(cfg, _run_simulation(cfg, mc, (cfg.ordering,), (cfg.eavesdropper_policy,)))
    diff = np.log2(1.0 + cfg.eta_k * zb) - np.log2(1.0 + cfg.eta_e * ze)
    diff_est = _mean_estimate(diff, mc.trials, mc)
    clipped_difference = replace(diff_est, value=max(diff_est.value, 0.0))
    mean_clipped = _mean_estimate(np.maximum(diff, 0.0), mc.trials, mc)
    return ErgodicSecrecyEstimate(clipped_difference=clipped_difference, mean_clipped=mean_clipped)


# ---------------------------------------------------------------------------
# Defining-integral quadrature.  These oracles use only gamma-family
# primitives and adaptive quadrature; they never call the Fox H evaluator.
# ---------------------------------------------------------------------------


def _quad_guarded(f, lo: float, hi: float, epsrel: float, check: bool = False) -> float:
    """Adaptive quadrature that tolerates roundoff-limited convergence.

    The innermost integrals of the nested oracles are driven to near machine
    precision, where the integrator may flag roundoff; the residual check on
    the outermost level is what guards the oracle contract.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, lo, hi, epsabs=1e-13, epsrel=epsrel, limit=300)
    if check and err > max(1e-6 * abs(val), 1e-9):
        raise ConvergenceError(
            f"defining-integral quadrature residual {err:.3g} too large for value {val:.6g}"
        )
    return val


def _semi_infinite(f, epsrel: float = _QUAD_REL, check: bool = False) -> float:
    """Integrate f over (0, inf) through the map x = t / (1 - t)."""
    return _quad_guarded(
        lambda t: f(t / (1.0 - t)) / (1.0 - t) ** 2, 0.0, 1.0, epsrel, check=check
    )


def _dist_pow_pdf(rate: float, delta: float, k: int, y: float) -> float:
    return stochgeo.pdf_kth_distance_pow(k, rate, delta, y)


def _cdf_composite_nearest_quad(fad, rate, delta, k, z, epsrel=_QUAD_REL_INNER, check=False) -> float:
    """Distribution of the k-th nearest composite gain, straight from the
    conditioning integral over the distance law."""
    if z <= 0:
        return 0.0
    return _semi_infinite(
        lambda y: fading.cdf_power_gain(fad, y * z) * _dist_pow_pdf(rate, delta, k, y),
        epsrel=epsrel, check=check,
    )


def _pdf_composite_nearest_quad(fad, rate, delta, k, z, epsrel=_QUAD_REL_INNER, check=False) -> float:
    return _semi_infinite(
        lambda y: y * fading.pdf_power_gain(fad, y * z) * _dist_pow_pdf(rate, delta, k, y),
        epsrel=epsrel, check=check,
    )


def _xi_pdf(rate: float, delta: float, k: int, x: float) -> float:
    u = rate * x**delta
    return math.exp(-u + k * math.log(u) - gammaln(k)) * delta / x


def _xi_cdf_first(rate: float, delta: float, x: float) -> float:
    return -math.expm1(-rate * x**delta)


def _quad_cop(cfg: ScenarioConfig) -> float:
    geo = cfg.geometry
    threshold = cfg.outage_threshold
    if cfg.ordering == "nearest":
        return _cdf_composite_nearest_quad(
            cfg.fading_b, geo.pathloss_rate("legitimate"), geo.delta,
            cfg.user_index, threshold, epsrel=_QUAD_REL, check=True,
        )
    if threshold == 0.0:
        return 0.0
    rate = geo.composite_rate("legitimate")
    inside = _quad_guarded(
        lambda x: _xi_pdf(rate, geo.delta, cfg.user_index, x),
        0.0, 1.0 / threshold, _QUAD_REL, check=True,
    )
    return 1.0 - inside


def _quad_pnz(cfg: ScenarioConfig, case: str) -> float:
    geo = cfg.geometry
    delta = geo.delta
    k = cfg.user_index
    varpi = cfg.varpi
    fb, fe = cfg.fading_b, cfg.fading_e
    rb, re = geo.pathloss_rate("legitimate"), geo.pathloss_rate("eavesdropper")
    cb, ce = geo.composite_rate("legitimate"), geo.composite_rate("eavesdropper")
    if case == "NN":
        return _semi_infinite(
            lambda y: _cdf_composite_nearest_quad(fe, re, delta, 1, varpi * y)
            * _pdf_composite_nearest_quad(fb, rb, delta, k, y),
            epsrel=1e-8, check=True,
        )
    if case == "BB":
        return 1.0 - _semi_infinite(
            lambda y: _xi_cdf_first(ce, delta, y / varpi) * _xi_pdf(cb, delta, k, y),
            check=True,
        )
    if case == "NB":
        return 1.0 - _semi_infinite(
            lambda y: _cdf_composite_nearest_quad(fb, rb, delta, k, 1.0 / (varpi * y))
            * _xi_pdf(ce, delta, 1, y),
            epsrel=1e-8, check=True,
        )
    if case == "BN":
        return _semi_infinite(
            lambda y: _cdf_composite_nearest_quad(fe, re, delta, 1, varpi / y)
            * _xi_pdf(cb, delta, k, y),
            epsrel=1e-8, check=True,
        )
    raise ValueError(f"case must be one of {CASES}, got {case!r}")


def _quad_capacity(cfg: ScenarioConfig, side: str, ordering: str) -> float:
    geo = cfg.geometry
    delta, k, eta = geo.delta, cfg.order_index(side), cfg.snr_scale(side)
    fad, rate, comp = geo.fading(side), geo.pathloss_rate(side), geo.composite_rate(side)
    if ordering == "nearest":
        return _semi_infinite(
            lambda z: math.log2(1.0 + eta * z) * _pdf_composite_nearest_quad(fad, rate, delta, k, z),
            epsrel=1e-8, check=True,
        )
    return _semi_infinite(
        lambda x: math.log2(1.0 + eta / x) * _xi_pdf(comp, delta, k, x), check=True
    )


_METRIC_ALIASES = {
    "cop": "cop",
    "pnz-nn": "pnz-NN", "pnz-bb": "pnz-BB", "pnz-nb": "pnz-NB", "pnz-bn": "pnz-BN",
    "capacity-nearest": "capacity-nearest", "capacity-best": "capacity-best",
    "esc-nn": "esc-NN", "esc-bb": "esc-BB", "esc-nb": "esc-NB", "esc-bn": "esc-BN",
}


def integrate_defining(metric: str, cfg: ScenarioConfig) -> MetricEstimate:
    """Evaluate one metric by direct quadrature of its defining integral.

    ``metric`` is one of ``cop`` (honoring cfg.ordering), ``pnz-XY``,
    ``capacity-nearest``/``capacity-best`` or ``esc-XY`` with XY in
    {NN, BB, NB, BN}.
    """
    key = _METRIC_ALIASES.get(metric.strip().lower().replace("_", "-"))
    if key is None:
        raise ValueError(f"unknown metric {metric!r}")
    if key == "cop":
        value = _quad_cop(cfg)
    elif key.startswith("pnz-"):
        value = _quad_pnz(cfg, key[4:])
    elif key.startswith("capacity-"):
        value = _quad_capacity(cfg, "legitimate", key[9:])
    else:
        cfg = cfg.with_case(key[4:])
        main = _quad_capacity(cfg, "legitimate", cfg.ordering)
        value = max(main - _quad_capacity(cfg, "eavesdropper", cfg.eavesdropper_policy), 0.0)
    return MetricEstimate(value=float(value), half_width=0.0, provenance="quadrature", trials_used=0)
