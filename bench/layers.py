"""The traced layers: where wrappers go and how spans become per-layer metrics.

Wrappers sit at the attribute each caller resolves: ``metrics`` calls the
``fox_h`` and ``fit_sum_params`` it imported into its own namespace, so
those are wrapped on ``secnet.metrics``; ``figures``, ``validation`` and
``montecarlo`` call through ``metrics.``, ``montecarlo.``, ``stochgeo.``
and ``fading.`` attribute lookups.  The gamma-family primitives are called
far too often for spans and only count calls.
"""

from __future__ import annotations

import statistics
from collections import Counter

from secnet import fading, figures, metrics, montecarlo, stochgeo, validation
from secnet.montecarlo import MonteCarloConfig

from tracing import Span, Tracer, self_times

CLOSED_FORMS = (
    "pdf_composite_nearest", "pdf_composite_best", "cdf_composite_nearest", "cdf_composite_best",
    "cop", "cop_nearest", "cop_best", "pnz", "pnz_nn", "pnz_bb", "pnz_nb", "pnz_bn",
    "max_secure_best_users", "ergodic_capacity_nearest", "ergodic_capacity_best",
    "wiretap_capacity", "ergodic_secrecy_capacity",
)
SIMULATORS = ("simulate_cop", "simulate_pnz", "simulate_pnz_all",
              "simulate_ergodic_capacity", "simulate_ergodic_secrecy")
PRIMITIVES = ((fading, "cdf_power_gain"), (fading, "pdf_power_gain"),
              (stochgeo, "pdf_kth_distance_pow"))
PRIMITIVE_COUNT = "montecarlo.integrate_defining.primitive_evals"

SIDES = ("legitimate", "eavesdropper")
GROUPS = ("nearest", "best")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("specfun.fox_h.calls", "count"),
    ("specfun.fox_h.self_s", "s"),
    ("specfun.fox_h.p50_ms", "ms"),
    ("specfun.fox_h.p90_ms", "ms"),
    ("specfun.fox_h.calls_per_param_set", "count"),
    ("specfun.fox_h.distinct_arg_ratio", "ratio"),
    ("fading.fit_sum_params.calls", "count"),
    ("fading.fit_sum_params.self_s", "s"),
    ("fading.fit_sum_params.distinct_ratio", "ratio"),
    ("metrics.closed_form.calls", "count"),
    ("metrics.closed_form.self_s", "s"),
    ("figures.figure_table.self_s", "s"),
    ("stochgeo.window_radius.calls", "count"),
    ("stochgeo.window_radius.self_s", "s"),
    *((f"stochgeo.points_per_trial_computed.{side}.{group}", "count")
      for side in SIDES for group in GROUPS),
    ("montecarlo.simulate.calls", "count"),
    ("montecarlo.simulate.self_s", "s"),
    ("montecarlo.simulate.trials", "count"),
    ("montecarlo.simulate.accepted_ratio", "ratio"),
    ("montecarlo.integrate_defining.calls", "count"),
    ("montecarlo.integrate_defining.self_s", "s"),
    ("montecarlo.integrate_defining.p50_ms", "ms"),
    (PRIMITIVE_COUNT, "count"),
    ("validation.run_validation.self_s", "s"),
    ("trace.untraced_cycle_s", "s"),
    ("trace.traced_cycle_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_time_sum_s", "s"),
)


def _fox_attrs(args, kwargs, result):
    return {"params": repr(args[0]), "z": float(args[1])}


def _fit_attrs(args, kwargs, result):
    link, count = args[0], args[1]
    return {"link": [link.alpha, link.mu, link.omega], "count": int(count)}


def _window_attrs(args, kwargs, result):
    geometry, side, k = args[0], args[1], args[2]
    orderings = kwargs.get("orderings", args[3] if len(args) > 3 else ("nearest", "best"))
    points = geometry.density(side) * geometry.unit_ball_volume * result**geometry.d
    return {"side": side, "k": int(k), "orderings": list(orderings),
            "group": "best" if "best" in orderings else "nearest",
            "radius": float(result), "points_computed": float(points)}


def _trials_used(result) -> int:
    if isinstance(result, dict):
        result = next(iter(result.values()))
    if isinstance(result, montecarlo.ErgodicSecrecyEstimate):
        result = result.clipped_difference
    return int(result.trials_used)


def _simulate_attrs(args, kwargs, result):
    mc = next(a for a in (*args, *kwargs.values()) if isinstance(a, MonteCarloConfig))
    return {"trials": mc.trials, "trials_used": _trials_used(result)}


def _first_arg(key):
    return lambda args, kwargs, result: {key: args[0]}


def targets(tracer: Tracer) -> list:
    """(module, attribute, wrapper factory) for every traced boundary."""

    def span(name, describe=None):
        return lambda fn: tracer.span(name, fn, describe)

    out = [
        (metrics, "fox_h", span("specfun.fox_h", _fox_attrs)),
        (metrics, "fit_sum_params", span("fading.fit_sum_params", _fit_attrs)),
        (figures, "figure_table", span("figures.figure_table", _first_arg("figure"))),
        (stochgeo, "window_radius", span("stochgeo.window_radius", _window_attrs)),
        (montecarlo, "integrate_defining",
         span("montecarlo.integrate_defining", _first_arg("metric"))),
        (validation, "run_validation", span("validation.run_validation")),
    ]
    out += [(metrics, name, span("metrics.closed_form")) for name in CLOSED_FORMS]
    out += [(montecarlo, name, span("montecarlo.simulate", _simulate_attrs)) for name in SIMULATORS]
    out += [(module, name, lambda fn: tracer.counter(PRIMITIVE_COUNT, fn))
            for module, name in PRIMITIVES]
    return out


def _pct_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def _completed(spans: list[Span]) -> dict[str, list[Span]]:
    """Spans of calls that returned, by name; a call that raised has no attributes."""
    named: dict[str, list[Span]] = {}
    for s in spans:
        if not s.error:
            named.setdefault(s.name, []).append(s)
    return named


def exact_counts(spans: list[Span], primitive_evals: int) -> dict:
    """Counts that repeat exactly from run to run, for one set of spans."""
    by_id = {s.sid: s for s in spans}
    named = _completed(spans)
    fox = named.get("specfun.fox_h", [])
    fit = named.get("fading.fit_sum_params", [])
    win = named.get("stochgeo.window_radius", [])
    sim = named.get("montecarlo.simulate", [])
    closed_outer = [s for s in named.get("metrics.closed_form", [])
                    if s.parent not in by_id or by_id[s.parent].name != "metrics.closed_form"]
    radii = Counter((s.attrs["side"], s.attrs["k"], s.attrs["group"], s.attrs["radius"],
                     s.attrs["points_computed"]) for s in win)
    return {
        "fox_h_calls": len(fox),
        "fox_h_param_sets": len({s.attrs["params"] for s in fox}),
        "fox_h_distinct_args": len({(s.attrs["params"], s.attrs["z"]) for s in fox}),
        "fit_calls": len(fit),
        "fit_distinct": len({(tuple(s.attrs["link"]), s.attrs["count"]) for s in fit}),
        "closed_form_calls": len(closed_outer),
        "integrate_defining_calls": len(named.get("montecarlo.integrate_defining", [])),
        "primitive_evals": primitive_evals,
        "simulate_calls": len(sim),
        "simulate_trials": sum(s.attrs["trials"] for s in sim),
        "window_radius_calls": len(win),
        "window_radii": sorted([side, k, group, radius, points, n]
                               for (side, k, group, radius, points), n in radii.items()),
    }


def per_layer_metrics(cycles: list[tuple[list[Span], int]], untraced_cycle_s: float,
                      traced_cycle_s: float) -> dict[str, float]:
    """Every per-layer metric, per benchmark cycle; zero where a layer did no work.

    ``cycles`` holds each traced cycle's spans and primitive-call count.
    Counts come from the first cycle (they repeat exactly); times and
    percentiles pool all cycles.
    """
    n_cycles = len(cycles)
    spans = [s for cycle_spans, _ in cycles for s in cycle_spans]
    selfs = self_times(spans)
    named = _completed(spans)

    def self_s(name: str) -> float:
        return sum(selfs[s.sid] for s in spans if s.name == name) / n_cycles

    exact = exact_counts(*cycles[0])
    fox = named.get("specfun.fox_h", [])
    sim = named.get("montecarlo.simulate", [])
    trials = sum(s.attrs["trials"] for s in sim)
    points: dict[tuple[str, str], list[float]] = {}
    for s in _completed(cycles[0][0]).get("stochgeo.window_radius", []):
        points.setdefault((s.attrs["side"], s.attrs["group"]), []).append(s.attrs["points_computed"])
    out = {
        "specfun.fox_h.calls": exact["fox_h_calls"],
        "specfun.fox_h.self_s": self_s("specfun.fox_h"),
        "specfun.fox_h.p50_ms": _pct_ms([s.duration for s in fox], 50),
        "specfun.fox_h.p90_ms": _pct_ms([s.duration for s in fox], 90),
        "specfun.fox_h.calls_per_param_set":
            exact["fox_h_calls"] / exact["fox_h_param_sets"] if fox else 0.0,
        "specfun.fox_h.distinct_arg_ratio":
            exact["fox_h_distinct_args"] / exact["fox_h_calls"] if fox else 0.0,
        "fading.fit_sum_params.calls": exact["fit_calls"],
        "fading.fit_sum_params.self_s": self_s("fading.fit_sum_params"),
        "fading.fit_sum_params.distinct_ratio":
            exact["fit_distinct"] / exact["fit_calls"] if exact["fit_calls"] else 0.0,
        "metrics.closed_form.calls": exact["closed_form_calls"],
        "metrics.closed_form.self_s": self_s("metrics.closed_form"),
        "figures.figure_table.self_s": self_s("figures.figure_table"),
        "stochgeo.window_radius.calls": exact["window_radius_calls"],
        "stochgeo.window_radius.self_s": self_s("stochgeo.window_radius"),
        "montecarlo.simulate.calls": exact["simulate_calls"],
        "montecarlo.simulate.self_s": self_s("montecarlo.simulate"),
        "montecarlo.simulate.trials": exact["simulate_trials"],
        "montecarlo.simulate.accepted_ratio":
            sum(s.attrs["trials_used"] for s in sim) / trials if trials else 0.0,
        "montecarlo.integrate_defining.calls": exact["integrate_defining_calls"],
        "montecarlo.integrate_defining.self_s": self_s("montecarlo.integrate_defining"),
        "montecarlo.integrate_defining.p50_ms":
            _pct_ms([s.duration for s in named.get("montecarlo.integrate_defining", [])], 50),
        PRIMITIVE_COUNT: exact["primitive_evals"],
        "validation.run_validation.self_s": self_s("validation.run_validation"),
        "trace.untraced_cycle_s": untraced_cycle_s,
        "trace.traced_cycle_s": traced_cycle_s,
        "trace.overhead_s": traced_cycle_s - untraced_cycle_s,
        "trace.self_time_sum_s": sum(selfs.values()) / n_cycles,
    }
    for side in SIDES:
        for group in GROUPS:
            vals = points.get((side, group), [])
            out[f"stochgeo.points_per_trial_computed.{side}.{group}"] = (
                statistics.fmean(vals) if vals else 0.0)
    return out
