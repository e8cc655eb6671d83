"""Cross-validation suite: closed form vs defining-integral quadrature vs
network simulation on the captioned figure configurations.

Every closed-form metric is checked two ways: agreement with its defining
integral to a fixed relative tolerance, and agreement with the simulation
estimate.  The suite is the engine behind the ``secrecy validate`` command
and the acceptance gate.

The matrix is the ``checks`` of the figures (``VALIDATION_FIGURES``), run
through the routes of ``montecarlo.METRICS``.

A run draws each simulation stream and integrates each capacity once
(``montecarlo.shared_draws``).  Every row's eavesdropper law is the first
eavesdropper, whatever the user index, so fig5's k = 1 and k = 2 points
share the eavesdropper nearest stream and fig6's k = 1 and k = 4 points
both eavesdropper streams; the four pairings of a point share its four
streams, and fig11's k = 1 capacity and ``esc`` rows need four capacity
integrals, not ten.  Both are keyed on the side law they read, so the
shared values are those a second call would give, bit for bit, and every
row equals the row the routes give one at a time.

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

from scipy.special import ndtri

from . import figures, montecarlo
from .metrics import QUAD_TOL_PROBABILITY
from .montecarlo import METRICS, QUAD_TOL_CAPACITY, MonteCarloConfig

__all__ = ["QUAD_TOL_CAPACITY", "QUAD_TOL_PROBABILITY", "ValidationRow", "run_validation", "family_gate_z",
           "VALIDATION_FIGURES"]

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

    ``mc_half_width`` is the estimate's own ``CI_LEVEL`` half-width and
    ``mc_rejection_rate`` its share of rejected realizations;
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
    mc_rejection_rate: float = 0.0

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


VALIDATION_FIGURES = tuple(fig_id for fig_id, fig in figures._FIGURES.items() if fig.checks)


def run_validation(
    trials: int = 10**6,
    capacity_trials: int = 10**5,
    seed: int = 20260810,
    workers: int = 1,
    figure_ids: tuple[str, ...] | None = None,
) -> list[ValidationRow]:
    """Run the full cross-validation matrix and return one row per check.

    Every row is simulation-gated, so the family size of each returned row
    is the number of rows of the run.  An empty ``figure_ids`` is an error,
    not a run of zero checks, and so is a repeated id, whose rows would run
    twice and widen every row's gate.

    The run is one ``montecarlo.shared_draws`` scope over a flat plan of
    (figure, metric, case, scenario) rows; each row calls the three routes
    of its metric on the one scenario ``metric.at(cfg, case)``.  After each
    row only the streams and capacity integrals of the side laws a later row
    reads are kept (``Metric.side_laws``): dropping one can cost a
    recomputation but never change a value.  Nothing outlives the call, also
    when it raises.
    """
    selected = VALIDATION_FIGURES if figure_ids is None else tuple(figure_ids)
    if not selected or not set(selected) <= set(VALIDATION_FIGURES) or len(set(selected)) < len(selected):
        raise ValueError(f"figure_ids must name one or more of {VALIDATION_FIGURES}, each once, got {selected}")
    mc_prob = MonteCarloConfig(trials=trials, master_seed=seed, worker_hint=workers, ci_level=CI_LEVEL)
    mc_cap = replace(mc_prob, trials=capacity_trials)
    plan = [(fig, name, case, METRICS[name].at(cfg, case))
            for fig in selected
            for overrides, blocks in figures._FIGURES[fig].checks
            for cfg in (figures.scenario(fig, **overrides),)
            for name, cases in blocks for case in cases]
    # after[i]: the side laws the rows after row i read
    after = [set()]
    for _, name, _, at in reversed(plan[1:]):
        after.insert(0, after[0] | METRICS[name].side_laws(at))
    rows: list[ValidationRow] = []
    with montecarlo.shared_draws() as shared:
        for (fig, name, case, at), keep in zip(plan, after):
            metric = METRICS[name]
            est = metric.simulate(at, mc_prob if metric.probability else mc_cap)
            rows.append(ValidationRow(
                figure=fig, metric=name, case=case, k=at.user_index,
                closed_form=metric.closed_form(at),
                quadrature=montecarlo.integrate_defining(name, at).value, quad_tol=metric.quad_tol,
                mc_value=est.value, mc_half_width=est.half_width, mc_family_size=len(plan),
                mc_rejection_rate=est.rejection_rate,
            ))
            shared.keep(keep)
    return rows
