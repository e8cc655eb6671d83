"""Desk-scale reproduction of the study figures as data tables.

Each figure id maps to a fully resolved parameter set and a data table of
its x-grid and curves; one loop emits every curve as long-format rows (one
row per curve point).  Outputs are numbers only; plotting is left to
external tools.

Where a figure caption leaves a choice open it is resolved here and recorded
in the table metadata: fig3's representative fading pairs, fig5's legitimate/
wiretap cluster parameters (the caption labels them ambiguously; they are
taken as the two sides' mu values), and fig8's secrecy levels and density
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import metrics
from .metrics import CASES, ScenarioConfig

__all__ = ["FIGURE_IDS", "describe_scenario", "figure_table", "scenario"]


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


def _fig2_scenario(k: int = 1, ordering: str = "nearest") -> ScenarioConfig:
    return ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=2.0, lambda_e=1.0,
        alpha_b=2.0, mu_b=3.0, eta_k=_db(0.0), user_index=k, ordering=ordering,
    )


def _fig3_scenario(k: int = 1, alpha: float = 2.0, mu: float = 2.0) -> ScenarioConfig:
    return ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0,
        alpha_b=alpha, mu_b=mu, eta_k=_db(5.0), rate=1.0, user_index=k,
    )


def _fig4_scenario(k: int = 2, lambda_b: float = 1.0, ordering: str = "nearest") -> ScenarioConfig:
    return ScenarioConfig.build(
        d=2, upsilon=4.0, lambda_b=lambda_b, lambda_e=1.0,
        alpha_b=2.0, mu_b=3.0, eta_k=_db(0.0), rate=1.0,
        user_index=k, ordering=ordering,
    )


def _fig5_scenario(k: int = 1, alpha: float = 2.0, mu_m: float = 1.0, mu_w: float = 1.0) -> ScenarioConfig:
    return ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1,
        alpha_b=alpha, mu_b=mu_m, alpha_e=alpha, mu_e=mu_w,
        eta_k=_db(0.0), eta_e=1.0, user_index=k,
        ordering="nearest", eavesdropper_policy="nearest",
    )


def _fig6_scenario(k: int = 1, case: str = "NN") -> ScenarioConfig:
    return ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1,
        alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=4.0,
        n_a=2, n_b=1, n_e=2,
        eta_k=_db(0.0), eta_e=1.0, user_index=k,
    ).with_case(case)


def _fig7_scenario(k: int = 1, upsilon: float = 2.0, case: str = "NN") -> ScenarioConfig:
    return ScenarioConfig.build(
        d=3, upsilon=upsilon, lambda_b=0.2, lambda_e=0.1,
        alpha_b=2.0, mu_b=2.0, alpha_e=2.0, mu_e=3.0,
        n_a=2, n_b=1, n_e=2,
        eta_k=_db(0.0), eta_e=1.0, user_index=k,
    ).with_case(case)


def _fig8_scenario(varpi_db: float = 0.0, ratio: float = 2.0,
                   alpha: float = 2.0, mu: float = 3.0) -> ScenarioConfig:
    lambda_e = 0.1
    return ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=ratio * lambda_e, lambda_e=lambda_e,
        alpha_b=alpha, mu_b=mu, alpha_e=alpha, mu_e=mu,
        eta_k=_db(varpi_db), eta_e=1.0,
        ordering="best", eavesdropper_policy="best",
    )


def _fig9_scenario(varpi_db: float = 0.0, case: str = "NN") -> ScenarioConfig:
    return ScenarioConfig.build(
        d=3, upsilon=2.0, lambda_b=0.2, lambda_e=0.1,
        alpha_b=2.0, mu_b=2.0, alpha_e=2.0, mu_e=3.0,
        n_a=2, n_b=2, n_e=2,
        eta_k=_db(varpi_db), eta_e=1.0, user_index=1,
    ).with_case(case)


def _fig10_scenario(n_b: int = 1, case: str = "NN") -> ScenarioConfig:
    return ScenarioConfig.build(
        d=3, upsilon=2.0, lambda_b=0.2, lambda_e=0.1,
        alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=3.0,
        n_a=2, n_b=n_b, n_e=2,
        eta_k=_db(10.0), eta_e=1.0, user_index=1,
    ).with_case(case)


def _fig11_scenario(k: int = 1, case: str = "NN") -> ScenarioConfig:
    return ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0,
        alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=1.0,
        eta_k=_db(15.0), eta_e=_db(0.0), user_index=k,
    ).with_case(case)


_SCENARIOS: dict[str, Callable[..., ScenarioConfig]] = {
    "fig2": _fig2_scenario, "fig3": _fig3_scenario, "fig4": _fig4_scenario,
    "fig5": _fig5_scenario, "fig6": _fig6_scenario, "fig7": _fig7_scenario,
    "fig8": _fig8_scenario, "fig9": _fig9_scenario, "fig10": _fig10_scenario,
    "fig11": _fig11_scenario,
}

FIGURE_IDS = tuple(sorted(_SCENARIOS, key=lambda s: int(s[3:])))


def scenario(fig_id: str, **overrides) -> ScenarioConfig:
    """The captioned scenario of one figure, with free axes as overrides."""
    if fig_id not in _SCENARIOS:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {fig_id!r}")
    return _SCENARIOS[fig_id](**overrides)


@dataclass(frozen=True)
class _Figure:
    """One figure as data.

    ``groups`` holds (scenario overrides, curves); a curve is (metric,
    label, value) with ``value(cfg, x)``.  Rows come out group by group,
    then point by point along ``grid``, then curve by curve.  The scenario
    is built once per group and point with ``axis`` set to the point, or
    once per group when the axis is not a scenario field (``per_point``
    false).  An integer value is a user count and fills the ``k`` column.
    """

    axis: str
    grid: tuple
    groups: tuple
    meta: dict = field(default_factory=dict)
    per_point: bool = True


# Values look up ``metrics.*`` at call time, so a wrapper installed on those
# module attributes sees every call.
_FIG3_FADINGS = ((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (3.0, 2.0))
_FIG5_TRIPLES = ((2.0, 1.0, 1.0), (2.0, 2.0, 3.0), (3.0, 2.0, 3.0))
_FIG8_TAUS, _FIG8_RATIOS = (0.1, 0.3), (1.0, 2.0, 4.0)
_K8 = tuple(range(1, 9))


def _by_case(metric: str, value) -> tuple:
    """One group per receiver/eavesdropper pairing, labelled by the pairing."""
    return tuple(({"case": case}, ((metric, case, value),)) for case in CASES)


_PNZ_BY_CASE = _by_case("pnz", lambda cfg, x: metrics.pnz(cfg))

_FIGURES: dict[str, _Figure] = {
    # z is the densities' argument, not a scenario field, and neither density
    # reads the ordering: one scenario per k serves both curves.
    "fig2": _Figure(
        "z", tuple([0.02 * i for i in range(1, 13)] + [0.3, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0, 4.0]),
        tuple(({"k": k}, (("pdf", f"nearest|k={k}", lambda cfg, z: metrics.pdf_composite_nearest(cfg, z)),
                          ("pdf", f"best|k={k}", lambda cfg, z: metrics.pdf_composite_best(cfg, z))))
              for k in (1, 2, 3)),
        per_point=False,
    ),
    "fig3": _Figure(
        "k", tuple(range(1, 11)),
        tuple(({"alpha": a, "mu": m},
               (("cop", f"nearest|alpha={a}|mu={m}", lambda cfg, x: metrics.cop_nearest(cfg)),))
              for a, m in _FIG3_FADINGS),
        {"fading_pairs": [f"alpha={a}|mu={m}" for a, m in _FIG3_FADINGS]},
    ),
    "fig4": _Figure(
        "lambda_b", (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
        tuple(({"k": k}, (("cop", f"nearest|k={k}", lambda cfg, x: metrics.cop_nearest(cfg)),
                          ("cop", f"best|k={k}", lambda cfg, x: metrics.cop_best(cfg))))
              for k in (2, 4)),
    ),
    "fig5": _Figure(
        "k", _K8,
        tuple(({"alpha": a, "mu_m": mm, "mu_w": mw},
               (("pnz", f"NN|alpha={a}|mu_m={mm}|mu_w={mw}", lambda cfg, x: metrics.pnz_nn(cfg)),))
              for a, mm, mw in _FIG5_TRIPLES),
        {"fading_triples": [f"alpha={a}|mu_m={mm}|mu_w={mw}" for a, mm, mw in _FIG5_TRIPLES],
         "note": ("cluster parameters labelled mu_m/mu_w are interpreted as the "
                  "legitimate and wiretap side mu values")},
    ),
    "fig6": _Figure("k", _K8, _PNZ_BY_CASE),
    "fig7": _Figure(
        "k", _K8,
        tuple(({"upsilon": u, "case": case},
               (("pnz", f"{case}|upsilon={u}", lambda cfg, x: metrics.pnz(cfg)),))
              for u in (2.0, 3.0, 4.0) for case in ("NN", "BB")),
    ),
    "fig8": _Figure(
        "varpi_db", tuple(-5.0 + i for i in range(21)),
        tuple(({"ratio": ratio}, (("k_star", f"tau={tau}|ratio={ratio}",
                                   lambda cfg, x, tau=tau: metrics.max_secure_best_users(cfg, tau)),))
              for tau in _FIG8_TAUS for ratio in _FIG8_RATIOS),
        {"secrecy_levels": list(_FIG8_TAUS), "density_ratios": list(_FIG8_RATIOS)},
    ),
    "fig9": _Figure("varpi_db", tuple(-10.0 + 2.0 * i for i in range(16)), _PNZ_BY_CASE),
    "fig10": _Figure("n_b", _K8, _PNZ_BY_CASE),
    "fig11": _Figure("k", _K8, _by_case("esc", lambda cfg, x: metrics.ergodic_secrecy_capacity(cfg))),
}


def figure_table(fig_id: str) -> tuple[dict, list[str], list[tuple]]:
    """Generate one figure's data: (metadata, column names, rows).

    Rows are long-format: metric, curve label, user index, value, half-width
    (zero for closed forms), provenance, and the swept x value.
    """
    if fig_id not in _FIGURES:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {fig_id!r}")
    fig = _FIGURES[fig_id]
    rows: list[tuple] = []
    for overrides, curves in fig.groups:
        shared = None if fig.per_point else scenario(fig_id, **overrides)
        for x in fig.grid:
            cfg = shared or scenario(fig_id, **overrides, **{fig.axis: x})
            for metric, label, value in curves:
                v = value(cfg, x)
                k, v = (v, float(v)) if isinstance(v, int) else (cfg.user_index, v)
                rows.append((metric, label, k, v, 0.0, "closed-form", x))
    meta = {"figure": fig_id, "x": fig.axis, **fig.meta,
            "scenario": describe_scenario(scenario(fig_id))}
    return meta, ["metric", "case", "k", "value", "half_width", "provenance", fig.axis], rows


def describe_scenario(cfg: ScenarioConfig) -> dict:
    geo = cfg.geometry
    return {
        "d": geo.d, "upsilon": geo.upsilon,
        "lambda_b": geo.lambda_b, "lambda_e": geo.lambda_e,
        "fading_b": {"alpha": cfg.fading_b.alpha, "mu": cfg.fading_b.mu, "omega": cfg.fading_b.omega},
        "fading_e": {"alpha": cfg.fading_e.alpha, "mu": cfg.fading_e.mu, "omega": cfg.fading_e.omega},
        "n_a": cfg.n_a, "n_b": cfg.n_b, "n_e": cfg.n_e,
        "eta_k": cfg.eta_k, "eta_e": cfg.eta_e, "rate": cfg.rate,
        "user_index": cfg.user_index, "ordering": cfg.ordering,
        "eavesdropper_policy": cfg.eavesdropper_policy,
    }
