"""The family-wise simulation gate of the validation suite, exercised on
hand-built rows (no simulation runs), and the registry's case resolution."""

from dataclasses import replace

import pytest

from secnet.metrics import ScenarioConfig
from secnet.montecarlo import METRICS
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
