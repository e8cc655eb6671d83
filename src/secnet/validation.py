"""Cross-validation suite: closed form vs defining-integral quadrature vs
network simulation on the captioned figure configurations.

Every closed-form metric is checked two ways: agreement with its defining
integral to a fixed relative tolerance, and agreement with the simulation
estimate.  The suite is the engine behind the ``secrecy validate`` command
and the acceptance gate.

The simulation gate is family-wise.  Each row reports the 99.7% half-width
of its own estimate (``mc_half_width``, i.e. ``CI_Z`` = 2.968 standard
errors), but a run gates all of its m rows together: a row passes when its
deviation from the closed form is at most

    z_gate(m) = ndtri(0.5 * (1 + GATE_LEVEL ** (1 / m)))

standard errors (2.968 for m = 1, 3.174 for m = 2, 3.934 for the full
36-row matrix).  By Sidak's inequality for jointly normal deviations, a
correct program then fails any row of the run with probability at most
1 - GATE_LEVEL = 0.3%, however the rows are correlated.  That matters
because rows drawn from one set of realizations move together.  With
per-row 99.7% intervals, a correct program would fail a 36-row matrix of
independent rows with probability 1 - 0.997**36, about 10%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from scipy.special import ndtri

from . import figures, metrics, montecarlo
from .metrics import CASES, ORDERINGS, ScenarioConfig
from .montecarlo import MetricEstimate, MonteCarloConfig

__all__ = ["METRICS", "Metric", "ValidationRow", "run_validation", "family_gate_z", "VALIDATION_FIGURES"]

QUAD_TOL_PROBABILITY = 1e-5
QUAD_TOL_CAPACITY = 1e-4
# Confidence level of each row's reported half-width, and family-wise level
# of the simulation gate over all rows of one run.
CI_LEVEL = 0.997
GATE_LEVEL = 0.997
CI_Z = float(ndtri(0.5 * (1.0 + CI_LEVEL)))


def family_gate_z(m: int) -> float:
    """Per-row threshold, in standard errors, of a family of ``m`` two-sided
    normal checks held at family-wise level ``GATE_LEVEL`` (Sidak)."""
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    return float(ndtri(0.5 * (1.0 + GATE_LEVEL ** (1.0 / m))))


@dataclass(frozen=True)
class ValidationRow:
    """One closed-form/quadrature/simulation triple with its two gates.

    ``mc_half_width`` is the estimate's own ``CI_LEVEL`` half-width;
    ``mc_family_size`` is the number of simulation-gated rows the row was
    run with, which sets its gate ``mc_gate_z``.
    """

    figure: str
    metric: str
    case: str
    k: int
    closed_form: float
    quadrature: float
    quad_tol: float
    mc_value: float
    mc_half_width: float
    mc_family_size: int = 1

    @property
    def quad_rel_err(self) -> float:
        return abs(self.closed_form - self.quadrature) / max(abs(self.quadrature), 1e-300)

    @property
    def quad_ok(self) -> bool:
        return self.quad_rel_err <= self.quad_tol

    @property
    def mc_gate_z(self) -> float:
        return family_gate_z(self.mc_family_size)

    @property
    def mc_z(self) -> float:
        """Signed deviation of the estimate from the closed form, in standard errors."""
        diff = self.mc_value - self.closed_form
        if self.mc_half_width > 0.0:
            return diff * CI_Z / self.mc_half_width
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)

    @property
    def mc_ok(self) -> bool:
        return abs(self.mc_value - self.closed_form) * CI_Z <= self.mc_half_width * self.mc_gate_z

    @property
    def passed(self) -> bool:
        return self.quad_ok and self.mc_ok


@dataclass(frozen=True)
class Metric:
    """One secrecy metric and its three routes.

    ``cases`` are the orderings (COP, capacity) or the four receiver/
    eavesdropper pairings (PNZ, ergodic secrecy capacity).  ``probability``
    picks the quadrature tolerance and the simulation trial count.  The
    closed form and the defining integral take ``(cfg, case)``; the
    simulator takes ``(cfg, cases, mc)`` and returns one estimate per case.
    """

    cases: tuple[str, ...]
    probability: bool
    closed_form: Callable[[ScenarioConfig, str], float]
    quadrature: Callable[[ScenarioConfig, str], MetricEstimate]
    simulate: Callable[[ScenarioConfig, tuple[str, ...], MonteCarloConfig], dict[str, MetricEstimate]]

    @property
    def quad_tol(self) -> float:
        return QUAD_TOL_PROBABILITY if self.probability else QUAD_TOL_CAPACITY

    def case_of(self, cfg: ScenarioConfig) -> str:
        """The case a scenario selects through its ordering and eavesdropper policy."""
        return cfg.ordering if self.cases == ORDERINGS else cfg.case


# Entries resolve ``metrics.*`` and ``montecarlo.*`` at call time, so a
# wrapper installed on those module attributes sees every call.
METRICS: dict[str, Metric] = {
    "cop": Metric(
        cases=ORDERINGS, probability=True,
        closed_form=lambda cfg, case: metrics.cop(replace(cfg, ordering=case)),
        quadrature=lambda cfg, case: montecarlo.integrate_defining("cop", replace(cfg, ordering=case)),
        simulate=lambda cfg, cases, mc: {
            case: montecarlo.simulate_cop(replace(cfg, ordering=case), mc) for case in cases},
    ),
    "pnz": Metric(
        cases=CASES, probability=True,
        closed_form=lambda cfg, case: metrics.pnz(cfg, case),
        quadrature=lambda cfg, case: montecarlo.integrate_defining(f"pnz-{case}", cfg),
        # All four pairings come from one set of realizations.
        simulate=lambda cfg, cases, mc: (
            montecarlo.simulate_pnz_all(cfg, mc) if set(cases) == set(CASES)
            else {case: montecarlo.simulate_pnz(cfg, case, mc) for case in cases}),
    ),
    "capacity": Metric(
        cases=ORDERINGS, probability=False,
        closed_form=lambda cfg, case: getattr(metrics, f"ergodic_capacity_{case}")(cfg),
        quadrature=lambda cfg, case: montecarlo.integrate_defining(f"capacity-{case}", cfg),
        simulate=lambda cfg, cases, mc: {
            case: montecarlo.simulate_ergodic_capacity(cfg, mc, ordering=case) for case in cases},
    ),
    "esc": Metric(
        cases=CASES, probability=False,
        closed_form=lambda cfg, case: metrics.ergodic_secrecy_capacity(cfg, case),
        quadrature=lambda cfg, case: montecarlo.integrate_defining(f"esc-{case}", cfg),
        simulate=lambda cfg, cases, mc: {
            case: montecarlo.simulate_ergodic_secrecy(cfg, case, mc).clipped_difference
            for case in cases},
    ),
}

# The validation matrix: per figure, (scenario overrides, [(metric, cases)]).
# Each scenario is built once and carries every metric listed with it.
_PLAN: dict[str, list[tuple[dict, list[tuple[str, tuple[str, ...]]]]]] = {
    "fig3": [({"k": k, "alpha": 2.0, "mu": 2.0}, [("cop", ("nearest",))]) for k in (1, 3)],
    "fig4": [({"k": k, "lambda_b": 1.0}, [("cop", ORDERINGS)]) for k in (2, 4)],
    "fig5": [({"k": k}, [("pnz", ("NN",))]) for k in (1, 2)],
    "fig6": [({"k": k}, [("pnz", CASES)]) for k in (1, 4)],
    "fig7": [({"k": 2, "upsilon": u}, [("pnz", CASES)]) for u in (2.0, 3.0, 4.0)],
    "fig11": [({"k": 1}, [("capacity", ORDERINGS), ("esc", CASES)]),
              ({"k": 2}, [("capacity", ORDERINGS)])],
}
VALIDATION_FIGURES = tuple(_PLAN)


def run_validation(
    trials: int = 10**6,
    capacity_trials: int = 10**5,
    seed: int = 20260810,
    workers: int = 1,
    figure_ids: tuple[str, ...] | None = None,
    window_radius: float | None = None,
) -> list[ValidationRow]:
    """Run the full cross-validation matrix and return one row per check.

    Every row is simulation-gated, so the family size of each returned row
    is the number of rows of the run.  An empty ``figure_ids`` is an error,
    not a run of zero checks.
    """
    selected = VALIDATION_FIGURES if figure_ids is None else tuple(figure_ids)
    if not selected or not set(selected) <= set(_PLAN):
        raise ValueError(f"figure_ids must name one or more of {VALIDATION_FIGURES}, got {selected}")
    mc_prob = MonteCarloConfig(trials=trials, master_seed=seed, worker_hint=workers,
                               window_radius=window_radius, ci_level=CI_LEVEL)
    mc_cap = replace(mc_prob, trials=capacity_trials)
    rows: list[ValidationRow] = []
    for fig in selected:
        for overrides, blocks in _PLAN[fig]:
            cfg = figures.scenario(fig, **overrides)
            for name, cases in blocks:
                metric = METRICS[name]
                ests = metric.simulate(cfg, cases, mc_prob if metric.probability else mc_cap)
                rows.extend(
                    ValidationRow(
                        figure=fig, metric=name, case=case, k=cfg.user_index,
                        closed_form=metric.closed_form(cfg, case),
                        quadrature=metric.quadrature(cfg, case).value, quad_tol=metric.quad_tol,
                        mc_value=ests[case].value, mc_half_width=ests[case].half_width,
                    )
                    for case in cases
                )
    return [replace(row, mc_family_size=len(rows)) for row in rows]
