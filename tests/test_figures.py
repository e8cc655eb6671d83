"""Figure tables against the checked-in snapshot in bench/reference.json.

Every non-value column must match exactly (row order, metric, curve label,
user index, half-width, provenance, x value); the value column must match
at the validation suite's closed-form tolerances.  Every ``METRICS`` row
also matches the quadrature oracle at its metric's tolerance, each of
fig8's k* rows is the index at which the oracle's BB PNZ crosses its level,
and each of fig2's density rows matches the oracle's density.
"""

import json
import os
from dataclasses import replace

import pytest

from secnet import figures, montecarlo, quadrature
from secnet.metrics import ScenarioConfig
from secnet.montecarlo import METRICS
from secnet.validation import QUAD_TOL_CAPACITY, QUAD_TOL_PROBABILITY

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference.json")


@pytest.fixture(scope="module")
def reference_rows():
    with open(REFERENCE) as handle:
        return json.load(handle)["figures"]


@pytest.mark.parametrize("fig_id", figures.FIGURE_IDS)
def test_figure_table_matches_snapshot(fig_id, reference_rows):
    meta, header, rows = figures.figure_table(fig_id)
    ref_rows = reference_rows[fig_id]
    assert meta["figure"] == fig_id
    assert header == ["metric", "case", "k", "value", "half_width", "provenance", meta["x"]]
    assert len(rows) == len(ref_rows)
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        row = list(row)
        assert row[:3] + row[4:] == ref[:3] + ref[4:], f"{fig_id} row {i}"
        tol = QUAD_TOL_CAPACITY if row[0] == "esc" else QUAD_TOL_PROBABILITY
        assert row[3] == pytest.approx(ref[3], rel=tol, abs=0.0), f"{fig_id} row {i}"


@pytest.mark.parametrize("fig_id", figures.FIGURE_IDS)
def test_curves_and_checks_name_registered_metrics_and_cases(fig_id):
    fig = figures._FIGURES[fig_id]
    for metric, case in fig.curves:
        if metric not in METRICS:
            assert metric in figures._METRICS
            continue
        # A curve without a case takes its group's, else the figure's default.
        cases = {case} if case else {group.get("case", fig.axes.get("case")) for group in fig.groups}
        assert cases <= set(METRICS[metric].cases), (metric, cases)
    for overrides, blocks in fig.checks:
        assert overrides.keys() <= fig.axes.keys(), overrides
        for metric, cases in blocks:
            assert metric in METRICS and cases and set(cases) <= set(METRICS[metric].cases), (metric, cases)


def _metric_points(fig_id):
    """(metric, label, k, x, scenario at the row's case) of each ``METRICS``
    row of one figure, walked as ``figure_table`` walks its declaration."""
    fig = figures._FIGURES[fig_id]
    for group in fig.groups:
        base, case = figures._resolve(fig, {a: v for a, v in group.items() if a in fig.axes})
        for x in fig.grid:
            cfg = figures._build({**base, **figures._axis(fig, fig.x, x)} if fig.x in fig.axes else base, case)
            for metric, c in fig.curves:
                if metric in METRICS:
                    yield (metric, figures._label(c or case, group), cfg.user_index, x,
                           METRICS[metric].at(cfg, c or case))


def test_every_metric_row_matches_the_quadrature_oracle():
    walked, worst, misses = 0, {}, []
    for fig_id in figures.FIGURE_IDS:
        rows = [row for row in figures.figure_table(fig_id)[2] if row[0] in METRICS]
        points = list(_metric_points(fig_id))
        assert [p[:4] for p in points] == [(r[0], r[1], r[2], r[6]) for r in rows], fig_id
        walked += len(rows)
        for (metric, label, k, x, at), row in zip(points, rows):
            oracle = montecarlo.integrate_defining(metric, at).value
            gap = abs(row[3] - oracle) / max(abs(oracle), 1e-300)
            worst[fig_id] = max(worst.get(fig_id, 0.0), gap)
            if gap > METRICS[metric].quad_tol:
                misses.append(f"{fig_id} {metric} {label} k={k} x={x}: {row[3]!r} vs {oracle!r}")
    assert walked == 312
    assert not misses, (misses, {fig_id: f"{gap:.2g}" for fig_id, gap in worst.items()})


def test_fig8_k_star_rows_match_the_quadrature_oracle():
    # k* is the largest best-user index whose BB PNZ still meets tau: the
    # oracle's PNZ is >= tau at k* (when k* >= 1) and < tau at k* + 1
    fig = figures._FIGURES["fig8"]
    rows = iter(figures.figure_table("fig8")[2])
    misses, walked = [], 0
    for group in fig.groups:
        base, case = figures._resolve(fig, {a: v for a, v in group.items() if a in fig.axes})
        for x in fig.grid:
            metric, label, k_star, *_, row_x = next(rows)
            assert (metric, row_x) == ("k_star", x)
            at = METRICS["pnz"].at(figures._build({**base, **figures._axis(fig, fig.x, x)}, case), "BB")
            for k, meets in ((k_star, True), (k_star + 1, False)):
                if k >= 1 and (montecarlo.integrate_defining("pnz", replace(at, user_index=k)).value
                               >= group["tau"]) != meets:
                    misses.append(f"{label} x={x}: k*={k_star}, PNZ at k={k}")
            walked += 1
    assert walked == 126 and next(rows, None) is None
    assert not misses, misses


def test_fig2_density_rows_match_the_quadrature_oracle():
    # both orderings' densities of the legitimate gain, at every k and z
    fig = figures._FIGURES["fig2"]
    rows = iter(figures.figure_table("fig2")[2])
    misses, walked = [], 0
    for group in fig.groups:
        cfg = figures._build(*figures._resolve(fig, group))
        for x in fig.grid:
            for _, ordering in fig.curves:
                metric, label, k, value, *_, row_x = next(rows)
                assert (metric, label, k, row_x) == ("pdf", figures._label(ordering, group), group["k"], x)
                oracle = quadrature.pdf(replace(cfg, ordering=ordering), x)
                if abs(value - oracle) > QUAD_TOL_PROBABILITY * oracle:
                    misses.append(f"{label} z={x}: {value!r} vs {oracle!r}")
                walked += 1
    assert walked == 126 and next(rows, None) is None
    assert not misses, misses


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


# Each figure's captioned scenario, written out as build keywords.
_CAPTIONS = {
    "fig2": dict(d=2, upsilon=2.0, lambda_b=2.0, lambda_e=1.0, alpha_b=2.0, mu_b=3.0,
                 eta_k=_db(0.0), user_index=1, ordering="nearest"),
    "fig3": dict(d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0, alpha_b=2.0, mu_b=2.0,
                 eta_k=_db(5.0), rate=1.0, user_index=1),
    "fig4": dict(d=2, upsilon=4.0, lambda_b=1.0, lambda_e=1.0, alpha_b=2.0, mu_b=3.0,
                 eta_k=_db(0.0), rate=1.0, user_index=2, ordering="nearest"),
    "fig5": dict(d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=1.0,
                 alpha_e=2.0, mu_e=1.0, eta_k=_db(0.0), eta_e=1.0, user_index=1,
                 ordering="nearest", eavesdropper_policy="nearest"),
    "fig6": dict(d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=1.0,
                 alpha_e=2.0, mu_e=4.0, n_a=2, n_b=1, n_e=2, eta_k=_db(0.0), eta_e=1.0,
                 user_index=1),
    "fig7": dict(d=3, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=2.0,
                 alpha_e=2.0, mu_e=3.0, n_a=2, n_b=1, n_e=2, eta_k=_db(0.0), eta_e=1.0,
                 user_index=1),
    "fig8": dict(d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=3.0,
                 alpha_e=2.0, mu_e=3.0, eta_k=_db(0.0), eta_e=1.0,
                 ordering="best", eavesdropper_policy="best"),
    "fig9": dict(d=3, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=2.0,
                 alpha_e=2.0, mu_e=3.0, n_a=2, n_b=2, n_e=2, eta_k=_db(0.0), eta_e=1.0,
                 user_index=1),
    "fig10": dict(d=3, upsilon=2.0, lambda_b=0.2, lambda_e=0.1, alpha_b=2.0, mu_b=1.0,
                  alpha_e=2.0, mu_e=3.0, n_a=2, n_b=1, n_e=2, eta_k=_db(10.0), eta_e=1.0,
                  user_index=1),
    "fig11": dict(d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0, alpha_b=2.0, mu_b=1.0,
                  alpha_e=2.0, mu_e=1.0, eta_k=_db(15.0), eta_e=_db(0.0), user_index=1),
}

# (figure, axis overrides, the build keywords they change, case or None).
# Between them they move every axis of every figure off its default.
_OVERRIDES = (
    ("fig2", {"k": 3, "ordering": "best"}, {"user_index": 3, "ordering": "best"}, None),
    ("fig3", {"k": 4, "alpha": 1.0, "mu": 3.0}, {"user_index": 4, "alpha_b": 1.0, "mu_b": 3.0}, None),
    ("fig4", {"k": 4, "lambda_b": 0.6, "ordering": "best"},
     {"user_index": 4, "lambda_b": 0.6, "ordering": "best"}, None),
    ("fig5", {"k": 3, "alpha": 3.0, "mu_m": 2.0, "mu_w": 3.0},
     {"user_index": 3, "alpha_b": 3.0, "alpha_e": 3.0, "mu_b": 2.0, "mu_e": 3.0}, None),
    ("fig6", {"k": 4, "case": "NB"}, {"user_index": 4}, "NB"),
    ("fig7", {"k": 2, "upsilon": 4.0, "case": "BB"}, {"user_index": 2, "upsilon": 4.0}, "BB"),
    ("fig8", {"varpi_db": 3.0, "ratio": 4.0, "alpha": 1.0, "mu": 2.0},
     {"eta_k": _db(3.0), "lambda_b": 0.4, "alpha_b": 1.0, "alpha_e": 1.0, "mu_b": 2.0, "mu_e": 2.0},
     None),
    ("fig9", {"varpi_db": -4.0, "case": "BN"}, {"eta_k": _db(-4.0)}, "BN"),
    ("fig10", {"n_b": 3, "case": "BB"}, {"n_b": 3}, "BB"),
    ("fig11", {"k": 5, "case": "NB"}, {"user_index": 5}, "NB"),
)


@pytest.mark.parametrize("fig_id", figures.FIGURE_IDS)
def test_default_scenario_is_the_caption(fig_id):
    assert figures.scenario(fig_id) == ScenarioConfig.build(**_CAPTIONS[fig_id])


@pytest.mark.parametrize("fig_id, overrides, changed, case", _OVERRIDES,
                         ids=[row[0] for row in _OVERRIDES])
def test_axis_overrides_set_their_build_keywords(fig_id, overrides, changed, case):
    expected = ScenarioConfig.build(**{**_CAPTIONS[fig_id], **changed})
    if case is not None:
        expected = expected.with_case(case)
    assert figures.scenario(fig_id, **overrides) == expected


@pytest.mark.parametrize("fig_id, axis", [("fig6", "alpha"), ("fig2", "case"), ("fig8", "k"),
                                          ("fig3", "mu_m"), ("fig11", "z")])
def test_axis_the_figure_lacks_is_a_type_error(fig_id, axis):
    with pytest.raises(TypeError):
        figures.scenario(fig_id, **{axis: 1.0})


def test_bad_case_is_a_value_error():
    with pytest.raises(ValueError, match="case"):
        figures.scenario("fig6", case="XX")


@pytest.mark.parametrize("call", [figures.scenario, figures.figure_table])
def test_unknown_figure_id_is_a_value_error(call):
    with pytest.raises(ValueError, match="figure id"):
        call("fig1")


# Keys each table's metadata carries besides figure, x and scenario, verbatim.
_META = {
    "fig2": ("z", {}),
    "fig3": ("k", {"fading_pairs": ["alpha=1.0|mu=2.0", "alpha=2.0|mu=2.0",
                                    "alpha=2.0|mu=3.0", "alpha=3.0|mu=2.0"]}),
    "fig4": ("lambda_b", {}),
    "fig5": ("k", {"fading_triples": ["alpha=2.0|mu_m=1.0|mu_w=1.0", "alpha=2.0|mu_m=2.0|mu_w=3.0",
                                      "alpha=3.0|mu_m=2.0|mu_w=3.0"],
                   "note": ("cluster parameters labelled mu_m/mu_w are interpreted as the "
                            "legitimate and wiretap side mu values")}),
    "fig6": ("k", {}),
    "fig7": ("k", {}),
    "fig8": ("varpi_db", {"secrecy_levels": [0.1, 0.3], "density_ratios": [1.0, 2.0, 4.0]}),
    "fig9": ("varpi_db", {}),
    "fig10": ("n_b", {}),
    "fig11": ("k", {}),
}


@pytest.mark.parametrize("fig_id", figures.FIGURE_IDS)
def test_figure_metadata_is_pinned(fig_id):
    meta, _, _ = figures.figure_table(fig_id)
    x, extra = _META[fig_id]
    assert list(meta) == ["figure", "x", *extra, "scenario"]
    assert meta["x"] == x
    assert {key: meta[key] for key in extra} == extra
    assert meta["scenario"] == figures.describe_scenario(figures.scenario(fig_id))
