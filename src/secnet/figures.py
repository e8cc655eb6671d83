"""Desk-scale reproduction of the study figures as data tables.

Each figure is declared once, as data: its caption (the fixed build
keywords), its free axes with their defaults, the swept axis and its grid,
the curve groups, the (metric, case) curves and the table metadata.  One
loop turns a declaration into long-format rows (one row per curve point).
Outputs are numbers only; plotting is left to external tools.

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
from .metrics import CASES, ORDERINGS, ScenarioConfig
from .montecarlo import METRICS

__all__ = ["FIGURE_IDS", "describe_scenario", "figure_table", "scenario"]


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


@dataclass(frozen=True)
class _Figure:
    """One figure as data.

    ``caption`` holds the fixed build keywords and ``axes`` the free
    parameters with their defaults; an axis sets the build keyword of its
    name unless ``links`` (this figure's) or ``_AXES`` (every figure's) map
    it elsewhere.  Rows come out group by group, then point by point along
    ``grid``, then curve by curve.  A group's entries that are axes set the
    scenario, the others are arguments of the metric.  The scenario is
    built per point with axis ``x`` set to it, or once per group when ``x``
    is not an axis.  A curve is a (metric, case) name whose case, if None,
    is the group's; a ``METRICS`` id is evaluated by its closed form.  An
    integer value is a user count and fills the ``k`` column.  ``checks``
    are the figure's validation points: (axis overrides, ((metric id,
    cases), ...)) per scenario.
    """

    caption: dict
    axes: dict
    x: str
    grid: tuple
    groups: tuple
    curves: tuple
    meta: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)
    checks: tuple = ()


# The build keywords an axis sets, from the caption and its value, when it
# is not a build keyword itself; ``case`` applies ``with_case`` after the build.
_AXES: dict[str, Callable[[dict, object], dict]] = {
    "k": lambda caption, v: {"user_index": v},
    "varpi_db": lambda caption, v: {"eta_k": _db(v)},
    "ratio": lambda caption, v: {"lambda_b": v * caption["lambda_e"]},
    "case": lambda caption, v: {},
}

# The curves that are not ``METRICS`` ids.  Values look up ``metrics.*`` at
# call time, so a wrapper installed on those module attributes sees every call.
_METRICS: dict[str, Callable[..., float]] = {
    "pdf": lambda cfg, z, case: (metrics.pdf_composite_nearest if case == "nearest"
                                 else metrics.pdf_composite_best)(cfg, z),
    "k_star": lambda cfg, x, case, tau: metrics.max_secure_best_users(cfg, tau),
}


def _label(case: str | None, group: dict) -> str:
    """The case, then the group's other entries as key=value."""
    return "|".join(([case] if case else []) + [f"{k}={v}" for k, v in group.items() if k != "case"])


_BY_CASE = tuple({"case": case} for case in CASES)
_K8 = tuple(range(1, 9))
_FIG3_FADINGS = tuple({"alpha": a, "mu": m} for a, m in ((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (3.0, 2.0)))
_FIG5_FADINGS = tuple({"alpha": a, "mu_m": mm, "mu_w": mw}
                      for a, mm, mw in ((2.0, 1.0, 1.0), (2.0, 2.0, 3.0), (3.0, 2.0, 3.0)))
_FIG8_TAUS, _FIG8_RATIOS = (0.1, 0.3), (1.0, 2.0, 4.0)

_FIGURES: dict[str, _Figure] = {
    # z is the densities' argument, not an axis, and neither density reads
    # the ordering: one scenario per k serves both curves.
    "fig2": _Figure(
        dict(d=2, upsilon=2.0, lambda_b=2.0, lambda_e=1.0, alpha_b=2.0, mu_b=3.0, eta_k=_db(0.0)),
        {"k": 1, "ordering": "nearest"},
        "z", tuple([0.02 * i for i in range(1, 13)] + [0.3, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0, 4.0]),
        tuple({"k": k} for k in (1, 2, 3)), (("pdf", "nearest"), ("pdf", "best")),
    ),
    "fig3": _Figure(
        dict(d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0, eta_k=_db(5.0), rate=1.0),
        {"k": 1, "alpha": 2.0, "mu": 2.0},
        "k", tuple(range(1, 11)), _FIG3_FADINGS, (("cop", "nearest"),),
        {"fading_pairs": [_label(None, g) for g in _FIG3_FADINGS]},
        links={"alpha": ("alpha_b",), "mu": ("mu_b",)},
        checks=tuple(({"k": k, "alpha": 2.0, "mu": 2.0}, (("cop", ("nearest",)),)) for k in (1, 3)),
    ),
    "fig4": _Figure(
        dict(d=2, upsilon=4.0, lambda_e=1.0, alpha_b=2.0, mu_b=3.0, eta_k=_db(0.0), rate=1.0),
        {"k": 2, "lambda_b": 1.0, "ordering": "nearest"},
        "lambda_b", (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
        tuple({"k": k} for k in (2, 4)), (("cop", "nearest"), ("cop", "best")),
        checks=tuple(({"k": k, "lambda_b": 1.0}, (("cop", ORDERINGS),)) for k in (2, 4)),
    ),
    "fig5": _Figure(
        dict(d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, eta_k=_db(0.0), eta_e=1.0,
             ordering="nearest", eavesdropper_policy="nearest"),
        {"k": 1, "alpha": 2.0, "mu_m": 1.0, "mu_w": 1.0},
        "k", _K8, _FIG5_FADINGS, (("pnz", "NN"),),
        {"fading_triples": [_label(None, g) for g in _FIG5_FADINGS],
         "note": ("cluster parameters labelled mu_m/mu_w are interpreted as the "
                  "legitimate and wiretap side mu values")},
        links={"alpha": ("alpha_b", "alpha_e"), "mu_m": ("mu_b",), "mu_w": ("mu_e",)},
        checks=tuple(({"k": k}, (("pnz", ("NN",)),)) for k in (1, 2)),
    ),
    "fig6": _Figure(
        dict(d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=4.0,
             n_a=2, n_b=1, n_e=2, eta_k=_db(0.0), eta_e=1.0),
        {"k": 1, "case": "NN"}, "k", _K8, _BY_CASE, (("pnz", None),),
        checks=tuple(({"k": k}, (("pnz", CASES),)) for k in (1, 4)),
    ),
    "fig7": _Figure(
        dict(d=3, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=2.0, alpha_e=2.0, mu_e=3.0,
             n_a=2, n_b=1, n_e=2, eta_k=_db(0.0), eta_e=1.0),
        {"k": 1, "upsilon": 2.0, "case": "NN"}, "k", _K8,
        tuple({"upsilon": u, "case": case} for u in (2.0, 3.0, 4.0) for case in ("NN", "BB")),
        (("pnz", None),),
        checks=tuple(({"k": 2, "upsilon": u}, (("pnz", CASES),)) for u in (2.0, 3.0, 4.0)),
    ),
    "fig8": _Figure(
        dict(d=2, upsilon=2.0, lambda_e=0.1, eta_e=1.0, ordering="best", eavesdropper_policy="best"),
        {"varpi_db": 0.0, "ratio": 2.0, "alpha": 2.0, "mu": 3.0},
        "varpi_db", tuple(-5.0 + i for i in range(21)),
        tuple({"tau": tau, "ratio": ratio} for tau in _FIG8_TAUS for ratio in _FIG8_RATIOS),
        (("k_star", None),),
        {"secrecy_levels": list(_FIG8_TAUS), "density_ratios": list(_FIG8_RATIOS)},
        links={"alpha": ("alpha_b", "alpha_e"), "mu": ("mu_b", "mu_e")},
    ),
    "fig9": _Figure(
        dict(d=3, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=2.0, alpha_e=2.0, mu_e=3.0,
             n_a=2, n_b=2, n_e=2, eta_e=1.0, user_index=1),
        {"varpi_db": 0.0, "case": "NN"}, "varpi_db", tuple(-10.0 + 2.0 * i for i in range(16)),
        _BY_CASE, (("pnz", None),),
    ),
    "fig10": _Figure(
        dict(d=3, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=3.0,
             n_a=2, n_e=2, eta_k=_db(10.0), eta_e=1.0, user_index=1),
        {"n_b": 1, "case": "NN"}, "n_b", _K8, _BY_CASE, (("pnz", None),),
    ),
    "fig11": _Figure(
        dict(d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0, alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=1.0,
             eta_k=_db(15.0), eta_e=_db(0.0)),
        {"k": 1, "case": "NN"}, "k", _K8, _BY_CASE, (("esc", None),),
        checks=(({"k": 1}, (("capacity", ORDERINGS), ("esc", CASES))),
                ({"k": 2}, (("capacity", ORDERINGS),))),
    ),
}

FIGURE_IDS = tuple(_FIGURES)


def _figure(fig_id: str) -> _Figure:
    if fig_id not in _FIGURES:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {fig_id!r}")
    return _FIGURES[fig_id]


def _axis(fig: _Figure, axis: str, value) -> dict:
    """The build keywords one axis value sets."""
    if axis in fig.links:
        return dict.fromkeys(fig.links[axis], value)
    return _AXES[axis](fig.caption, value) if axis in _AXES else {axis: value}


def _resolve(fig: _Figure, axes: dict) -> tuple[dict, str | None]:
    """Build keywords and case of the caption with every axis set: its
    default, unless ``axes`` gives it."""
    values = {**fig.axes, **axes}
    kw = dict(fig.caption)
    for axis, value in values.items():
        kw.update(_axis(fig, axis, value))
    return kw, values.get("case")


def _build(kw: dict, case: str | None) -> ScenarioConfig:
    cfg = ScenarioConfig.build(**kw)
    return cfg if case is None else cfg.with_case(case)


def scenario(fig_id: str, **overrides) -> ScenarioConfig:
    """The captioned scenario of one figure, with free axes as overrides."""
    fig = _figure(fig_id)
    unknown = overrides.keys() - fig.axes.keys()
    if unknown:
        raise TypeError(f"{fig_id} has no axis {sorted(unknown)}; its axes are {tuple(fig.axes)}")
    return _build(*_resolve(fig, overrides))


def figure_table(fig_id: str) -> tuple[dict, list[str], list[tuple]]:
    """Generate one figure's data: (metadata, column names, rows).

    Rows are long-format: metric, curve label, user index, value, half-width
    (zero for closed forms), provenance, and the swept x value.
    """
    fig = _figure(fig_id)
    rows: list[tuple] = []
    for group in fig.groups:
        base, case = _resolve(fig, {a: v for a, v in group.items() if a in fig.axes})
        args = {a: v for a, v in group.items() if a not in fig.axes}
        shared = None if fig.x in fig.axes else _build(base, case)
        curves = [(metric, _label(c or case, group), c or case) for metric, c in fig.curves]
        for x in fig.grid:
            cfg = shared or _build({**base, **_axis(fig, fig.x, x)}, case)
            for metric, label, c in curves:
                v = (_METRICS[metric](cfg, x, c, **args) if metric in _METRICS
                     else METRICS[metric].closed_form(METRICS[metric].at(cfg, c)))
                k, v = (v, float(v)) if isinstance(v, int) else (cfg.user_index, v)
                rows.append((metric, label, k, v, 0.0, "closed-form", x))
    meta = {"figure": fig_id, "x": fig.x, **fig.meta,
            "scenario": describe_scenario(scenario(fig_id))}
    return meta, ["metric", "case", "k", "value", "half_width", "provenance", fig.x], rows


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
