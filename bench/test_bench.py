"""Self-tests of the benchmark's checks and tracing.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from secnet import figures, metrics, montecarlo, specfun, validation  # noqa: E402
from secnet.montecarlo import MonteCarloConfig  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from checks import Verdict, check_closed_form, check_estimate, check_figure_rows  # noqa: E402
from tracing import Span, Tracer, installed, self_times  # noqa: E402
from workloads import Op  # noqa: E402

TOLS = (validation.QUAD_TOL_PROBABILITY, validation.QUAD_TOL_CAPACITY)


@pytest.mark.parametrize("metric, ref", [("pnz", 0.4525954688719164), ("cop", 0.0280831),
                                         ("pdf", 5.7e-133), ("esc", 4.2791986409851575)])
def test_closed_form_perturbed_by_1e_3_fails(metric, ref):
    ok, bad = Verdict(), Verdict()
    check_closed_form(ok, "row", metric, ref, ref, *TOLS)
    check_closed_form(bad, "row", metric, ref * (1.0 + 1e-3), ref, *TOLS)
    assert not ok.failures
    assert len(bad.failures) == 1


def test_k_star_needs_exact_equality():
    bad = Verdict()
    check_closed_form(bad, "row", "k_star", 3.0 + 1e-12, 3.0, *TOLS)
    assert bad.failures


def test_figure_rows_perturbed_or_relabelled_fail():
    rows = [tuple(r) for r in [["pnz", "NN", 1, 0.25, 0.0, "closed-form", 1],
                               ["pnz", "NN", 2, 0.125, 0.0, "closed-form", 2]]]
    ref = [list(r) for r in rows]
    ok, perturbed, relabelled = Verdict(), Verdict(), Verdict()
    check_figure_rows(ok, "fig", rows, ref, *TOLS)
    check_figure_rows(perturbed, "fig", [rows[0], rows[1][:3] + (0.125 * 1.001,) + rows[1][4:]],
                      ref, *TOLS)
    check_figure_rows(relabelled, "fig", [rows[0], rows[1][:6] + (3,)], ref, *TOLS)
    assert (len(ok.failures), len(perturbed.failures), len(relabelled.failures)) == (0, 1, 1)


def test_raised_convergence_error_counts_as_failed():
    def run(seed):
        raise specfun.ConvergenceError("contour did not converge")

    tally = worker.Tally()
    worker.run_op(Op("broken", 1, run, lambda out: Verdict()), 0, tally)
    worker.run_op(Op("fine", 1, lambda seed: 1.0, lambda out: Verdict(checks=1)), 0, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "ConvergenceError" in tally.messages[0]


@pytest.mark.parametrize("p, n", [(0.5, 8192), (0.08, 32768), (0.01, 20000), (1e-4, 20000)])
def test_binomial_estimate_shifted_by_20_half_widths_fails(p, n):
    mc = MonteCarloConfig(trials=n, master_seed=1)
    est = montecarlo._binomial_estimate(round(p * n), n, n, mc)
    centred, shifted = Verdict(), Verdict()
    check_estimate(centred, "est", "pnz", est.value, est.half_width, n, p)
    check_estimate(shifted, "est", "pnz", est.value + 20 * est.half_width, est.half_width, n, p)
    assert not centred.failures
    assert shifted.failures and shifted.excursions == 1


def test_mean_estimate_shifted_by_20_half_widths_fails():
    ok, bad = Verdict(), Verdict()
    check_estimate(ok, "est", "esc", 4.30, 0.05, 2000, 4.28)
    check_estimate(bad, "est", "esc", 4.28 + 20 * 0.05, 0.05, 2000, 4.28)
    assert not ok.failures and bad.failures


def test_correct_binomial_sampler_does_not_trip_the_bound():
    rng = np.random.default_rng(7)
    for p, n in [(0.45, 8192), (0.03, 32768), (0.0625, 8192)]:
        verdict = Verdict()
        for hits in rng.binomial(n, p, size=2000):
            check_estimate(verdict, "est", "cop", hits / n, 0.0, n, p)
        assert not verdict.failures


def test_self_time_on_nested_span_tree():
    spans = [
        Span(0, "a", 0.0, 10.0, None, 0),
        Span(1, "b", 1.0, 4.0, 0, 0),
        Span(2, "c", 3.0, 6.0, 0, 0),    # overlaps its sibling b
        Span(3, "d", 8.0, 12.0, 0, 0),   # runs past its parent's end
        Span(4, "e", 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: (inner(), inner()))
    outer()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (o,) = by_name["outer"]
    assert [s.parent for s in by_name["inner"]] == [o.sid, o.sid]
    assert o.duration == 5.0 and self_times(tracer.spans)[o.sid] == 3.0


def test_per_layer_metrics_survive_a_call_that_raised():
    tracer = Tracer()

    def broken(params, z):
        raise specfun.ConvergenceError("no convergence")

    with pytest.raises(specfun.ConvergenceError):
        tracer.span("specfun.fox_h", broken, layers._fox_attrs)(None, 1.0)
    values = layers.per_layer_metrics([(tracer.spans, 0)], 1.0, 1.0)
    assert tracer.spans[0].error and values["specfun.fox_h.calls"] == 0
    assert set(values) == {name for name, _ in layers.PER_LAYER}


def test_wrappers_restore_module_attributes():
    tracer = Tracer()
    targets = layers.targets(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    cfg = figures.scenario("fig6", k=1)
    with pytest.raises(RuntimeError):
        with installed(targets):
            assert metrics.fox_h is not originals[0][2]
            metrics.pnz(cfg, "NN")
            raise RuntimeError("leave the block early")
    assert all(getattr(module, attr) is original for module, attr, original in originals)
    names = {s.sid: s.name for s in tracer.spans}
    fox = [s for s in tracer.spans if s.name == "specfun.fox_h"]
    assert len(fox) == 1 and names[fox[0].parent] == "metrics.closed_form"
    metrics.pnz(cfg, "NN")
    assert len(tracer.spans) == len(names)


def test_speed_meter_samples_during_a_block_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with calibration.SpeedMeter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        elapsed = time.perf_counter() - start
    assert len(meter.inside) >= 2 and 0.0 < meter.overhead_s < elapsed
    assert len(meter.samples) == 2 * calibration.BRACKET_RUNS and meter.speed > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
