"""The family-wise simulation gate of the validation suite, exercised on
hand-built rows, the registry's case resolution, and the draws and
capacity integrals a validation run shares between its rows."""

import sys
from dataclasses import replace

import pytest

from secnet import figures, montecarlo, quadrature, validation
from secnet.metrics import ScenarioConfig
from secnet.montecarlo import METRICS, MonteCarloConfig
from secnet.specfun import ConvergenceError
from secnet.validation import CI_Z, ValidationRow, family_gate_z

CLOSED = 0.25
SIGMA = 1e-4


def _row(z: float, family_size: int) -> ValidationRow:
    """A row whose estimate lies z standard errors from the closed form."""
    return ValidationRow(
        figure="fig6", metric="pnz", case="BB", k=1,
        closed_form=CLOSED, quadrature=CLOSED, quad_tol=1e-5,
        mc_value=CLOSED + z * SIGMA, mc_half_width=CI_Z * SIGMA,
        mc_family_size=family_size,
    )


def test_gate_thresholds():
    assert family_gate_z(1) == pytest.approx(2.9677, abs=1e-4)
    assert family_gate_z(1) == pytest.approx(CI_Z, rel=1e-12)
    assert family_gate_z(2) == pytest.approx(3.174, abs=1e-3)
    assert family_gate_z(36) == pytest.approx(3.934, abs=1e-3)


def test_gate_grows_with_family_size():
    gates = [family_gate_z(m) for m in (1, 2, 4, 8, 16, 36, 100)]
    assert all(b > a for a, b in zip(gates, gates[1:]))


def test_family_size_must_be_positive():
    with pytest.raises(ValueError, match="family size"):
        family_gate_z(0)


def test_row_reports_its_deviation_in_standard_errors():
    assert _row(-3.1, 36).mc_z == pytest.approx(-3.1, rel=1e-9)
    assert _row(0.0, 1).mc_z == 0.0


@pytest.mark.parametrize("z", [3.1, -3.1])
def test_three_point_one_sigma_passes_in_36_rows_and_fails_alone(z):
    assert _row(z, 36).mc_ok and _row(z, 36).passed
    assert not _row(z, 1).mc_ok and not _row(z, 1).passed


@pytest.mark.parametrize("family_size", [1, 36])
@pytest.mark.parametrize("z", [5.0, -5.0])
def test_five_sigma_fails_in_any_family(z, family_size):
    assert not _row(z, family_size).mc_ok


def test_zero_half_width_needs_exact_agreement():
    exact = ValidationRow("fig3", "cop", "nearest", 1, CLOSED, CLOSED, 1e-5, CLOSED, 0.0, 36)
    off = ValidationRow("fig3", "cop", "nearest", 1, CLOSED, CLOSED, 1e-5, CLOSED + 1e-9, 0.0, 36)
    assert exact.mc_ok and exact.mc_z == 0.0
    assert not off.mc_ok and off.mc_z == float("inf")


REGISTERED = [(name, case) for name, metric in METRICS.items() for case in metric.cases]


@pytest.mark.parametrize("name, case", REGISTERED, ids=["-".join(key) for key in REGISTERED])
def test_a_case_sets_only_the_ordering_and_eavesdropper_policy(name, case):
    metric = METRICS[name]
    cfg = ScenarioConfig.build(user_index=3, eta_k=7.0, rate=2.0, eavesdropper_policy="best")
    at = metric.at(cfg, case)
    assert metric.case_of(at) == case
    assert metric.at(at, case) is at
    assert replace(at, ordering=cfg.ordering, eavesdropper_policy=cfg.eavesdropper_policy) == cfg


class _Counts:
    """Counts the stream batches drawn and the quadratures converged, and
    records every store a draw was made under."""

    def __init__(self, monkeypatch):
        self.draws = 0
        self.converged = 0
        self.stores = []
        for ordering, sampler in list(montecarlo._SAMPLERS.items()):
            monkeypatch.setitem(montecarlo._SAMPLERS, ordering, self._draw(sampler))
        converged = quadrature._converged

        def count_converged(integral):
            self.converged += 1
            return converged(integral)

        monkeypatch.setattr(quadrature, "_converged", count_converged)

    def _draw(self, sampler):
        def draw(*args):
            self.draws += 1
            self.stores.append(montecarlo._SHARED.get())
            return sampler(*args)
        return draw


@pytest.fixture
def counts(monkeypatch):
    return _Counts(monkeypatch)


def _rows_one_at_a_time(trials, capacity_trials, seed):
    """The matrix with each row's three routes called on their own, outside
    any validation run: the unshared reference."""
    mc_prob = MonteCarloConfig(trials=trials, master_seed=seed, ci_level=validation.CI_LEVEL)
    mc_cap = replace(mc_prob, trials=capacity_trials)
    rows = []
    for fig in validation.VALIDATION_FIGURES:
        for overrides, blocks in figures._FIGURES[fig].checks:
            cfg = figures.scenario(fig, **overrides)
            for name, cases in blocks:
                metric = METRICS[name]
                for case in cases:
                    at = metric.at(cfg, case)
                    est = metric.simulate(at, mc_prob if metric.probability else mc_cap)
                    rows.append(ValidationRow(
                        figure=fig, metric=name, case=case, k=cfg.user_index,
                        closed_form=metric.closed_form(at),
                        quadrature=montecarlo.integrate_defining(name, at).value, quad_tol=metric.quad_tol,
                        mc_value=est.value, mc_half_width=est.half_width,
                    ))
    return [replace(row, mc_family_size=len(rows)) for row in rows]


class TestSharedDraws:
    """A run draws each stream and integrates each capacity law once,
    with rows bit-identical to the unshared routes, and keeps nothing."""

    def test_rows_equal_the_routes_called_one_at_a_time(self):
        shared = validation.run_validation(trials=4096, capacity_trials=1024, seed=5)
        assert montecarlo._SHARED.get() is None
        reference = _rows_one_at_a_time(4096, 1024, 5)
        assert len(shared) == len(reference) == 36
        assert [repr(row) for row in shared] == [repr(row) for row in reference]

    @pytest.mark.parametrize("figure_ids, draws, converged", [
        (("fig6",), 12, None), (("fig11",), 6, 6), (None, 60, 34)])
    def test_each_stream_batch_and_capacity_once(self, counts, figure_ids, draws, converged):
        validation.run_validation(trials=16384, capacity_trials=1638, seed=5, figure_ids=figure_ids)
        assert counts.draws == draws
        if converged is not None:
            assert counts.converged == converged

    def test_a_draw_outlives_its_row_only_for_a_later_row_that_reads_it(self, monkeypatch):
        held = []
        for name in ("simulate_cop", "simulate_pnz"):
            def record(*args, _simulate=getattr(montecarlo, name)):
                # each stream's side law as side, ordering and order index: "LN2" is the legitimate 2nd nearest
                held.append({f"{law[4][0].upper()}{law[6][0].upper()}{law[5]}"
                             for law, *_ in montecarlo._SHARED.get()})
                return _simulate(*args)
            monkeypatch.setattr(montecarlo, name, record)
        validation.run_validation(trials=4096, capacity_trials=1024, seed=5, figure_ids=("fig4", "fig5", "fig6"))
        every = {"LN1", "LB1", "EN1", "EB1"}
        assert held == [
            # fig4 k = 2, 4: no row reads another's stream
            set(), set(), set(), set(),
            # fig5 k = 1, 2 (NN only)
            set(), {"EN1"},
            # fig6 k = 1, then k = 4, each in the order NN, BB, NB, BN
            set(), {"LN1", "EN1"}, every, every - {"LN1"},
            {"EN1", "EB1"}, {"LN4", "EN1", "EB1"}, {"LN4", "LB4", "EN1", "EB1"}, {"LB4", "EN1"},
        ]

    def _assert_nothing_kept(self, counts):
        assert montecarlo._SHARED.get() is None
        stores = {id(store): store for store in counts.stores if store is not None}
        assert stores
        assert all(not store for store in stores.values())
        cfg = figures.scenario("fig6", k=1)
        before = counts.draws
        montecarlo.simulate_pnz_all(cfg, MonteCarloConfig(trials=4096, master_seed=5))
        assert counts.draws - before == 4
        # simulate_pnz_all draws in a scope of its own, which keeps nothing either
        inner = counts.stores[-1]
        assert id(inner) not in stores
        assert not inner
        assert montecarlo._SHARED.get() is None

    def test_nothing_outlives_a_run(self, counts):
        validation.run_validation(trials=4096, capacity_trials=1024, seed=5, figure_ids=("fig6",))
        self._assert_nothing_kept(counts)

    def test_nothing_outlives_a_run_that_raises(self, counts, monkeypatch):
        integrate = montecarlo.integrate_defining

        def fail_second_point(metric, cfg):
            if cfg.user_index == 4:
                raise ConvergenceError("planted failure")
            return integrate(metric, cfg)

        monkeypatch.setattr(montecarlo, "integrate_defining", fail_second_point)
        with pytest.raises(ConvergenceError, match="planted"):
            validation.run_validation(trials=4096, capacity_trials=1024, seed=5, figure_ids=("fig6",))
        # the second point's first row drew its legitimate stream before its quadrature raised
        assert counts.draws == 5
        self._assert_nothing_kept(counts)

    def test_workers_do_not_change_rows_or_draws(self, counts, monkeypatch):
        # More threads than cores, switching often: the batch threads read
        # the store the caller opened, or they would draw every batch again.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = {}
            for workers in (1, 2, 8):
                before = counts.draws
                rows = validation.run_validation(trials=9 * 8192, capacity_trials=2 * 8192, seed=5,
                                                 workers=workers, figure_ids=("fig6", "fig11"))
                runs[workers] = ([repr(row) for row in rows], counts.draws - before)
        finally:
            sys.setswitchinterval(interval)
        # fig6: 4 streams, then the 2 legitimate ones, in 9 batches; fig11: 4, then 2, in 2
        assert runs[1][1] == 6 * 9 + 6 * 2
        assert runs[1] == runs[2] == runs[8]
