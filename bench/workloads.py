"""Benchmark workloads: the public calls each one makes and how outputs are checked.

Each workload is a fixed cycle of operations.  An operation is one public
call into ``secnet`` (``figures.figure_table``, a ``montecarlo.simulate_*``
call or ``validation.run_validation``), resolved through the module
attribute at call time so the traced run sees it.  The closed-form
workloads take no randomness; the simulation workloads derive every master
seed from the benchmark seed, the cycle number and the operation index.
See WORKLOADS.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from secnet import figures, metrics, montecarlo, validation
from secnet.montecarlo import MonteCarloConfig

from checks import Verdict, check_closed_form, check_estimate, check_figure_rows

GRID_FIGURES = ("fig2", "fig4", "fig8", "fig9")
SCAN_FIGURES = ("fig3", "fig5", "fig6", "fig7", "fig10", "fig11")

NEAREST_TRIALS = 32768
BEST_TRIALS = 4096
VALIDATE_FIGURES = ("fig4", "fig6", "fig11")
# Two full simulator batches; capacity trials are a tenth, the ratio
# ``secrecy validate`` uses.
VALIDATE_TRIALS = 16384
VALIDATE_CAPACITY_TRIALS = 1638
# One worker, the ``secrecy validate`` default: with two, the peak RSS
# depended on whether the two batch threads' allocations overlapped.
VALIDATE_WORKERS = 1


@dataclass(frozen=True)
class SimCall:
    """One simulator call of the validation matrix at worker_hint=1."""

    kind: str  # "cop", "pnz_nn" or "pnz_all"
    figure: str
    params: tuple[tuple[str, float], ...]
    ordering: str = "nearest"

    @property
    def label(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in self.params)
        kind = f"cop-{self.ordering}" if self.kind == "cop" else self.kind
        return f"{kind} {self.figure} {args}"

    def scenario(self):
        cfg = figures.scenario(self.figure, **dict(self.params))
        return replace(cfg, ordering=self.ordering) if self.kind == "cop" else cfg

    def closed_forms(self) -> dict[str, float]:
        cfg = self.scenario()
        if self.kind == "cop":
            return {"cop": metrics.cop(cfg)}
        cases = ("NN",) if self.kind == "pnz_nn" else metrics.CASES
        return {case: metrics.pnz(cfg, case) for case in cases}


NEAREST_CALLS = (
    SimCall("cop", "fig3", (("k", 1), ("alpha", 2.0), ("mu", 2.0))),
    SimCall("cop", "fig3", (("k", 3), ("alpha", 2.0), ("mu", 2.0))),
    SimCall("cop", "fig4", (("k", 2), ("lambda_b", 1.0))),
    SimCall("cop", "fig4", (("k", 4), ("lambda_b", 1.0))),
    SimCall("pnz_nn", "fig6", (("k", 1),)),
    SimCall("pnz_nn", "fig6", (("k", 4),)),
)
BEST_CALLS = (
    SimCall("cop", "fig4", (("k", 2), ("lambda_b", 1.0)), "best"),
    SimCall("cop", "fig4", (("k", 4), ("lambda_b", 1.0)), "best"),
    SimCall("pnz_all", "fig6", (("k", 1),)),
    SimCall("pnz_all", "fig6", (("k", 4),)),
    SimCall("pnz_all", "fig7", (("k", 2), ("upsilon", 2.0))),
    SimCall("pnz_all", "fig7", (("k", 2), ("upsilon", 3.0))),
    SimCall("pnz_all", "fig7", (("k", 2), ("upsilon", 4.0))),
)


@dataclass(frozen=True)
class Op:
    """One timed public call: ``run(seed)`` makes it, ``check(output)`` judges it."""

    label: str
    work: int
    run: Callable[[int], Any]
    check: Callable[[Any], Verdict]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warmup: int  # index of the op made once during set-up


def _figure_op(fig: str, reference: dict) -> Op:
    ref_rows = reference["figures"][fig]

    def check(output) -> Verdict:
        verdict = Verdict()
        check_figure_rows(verdict, fig, output[2], ref_rows,
                          validation.QUAD_TOL_PROBABILITY, validation.QUAD_TOL_CAPACITY)
        return verdict

    return Op(fig, len(ref_rows), lambda seed: figures.figure_table(fig), check)


def _sim_op(call: SimCall, trials: int, reference: dict) -> Op:
    refs = reference["simulate"][call.label]
    cfg = call.scenario()

    def run(seed: int):
        mc = MonteCarloConfig(trials=trials, master_seed=seed, worker_hint=1)
        if call.kind == "cop":
            return {"cop": montecarlo.simulate_cop(cfg, mc)}
        if call.kind == "pnz_nn":
            return {"NN": montecarlo.simulate_pnz(cfg, "NN", mc)}
        return montecarlo.simulate_pnz_all(cfg, mc)

    def check(output) -> Verdict:
        verdict = Verdict()
        if set(output) != set(refs):
            verdict.checks += 1
            verdict.fail(f"{call.label}: estimates for {sorted(output)}, expected {sorted(refs)}")
            return verdict
        for case, est in output.items():
            check_estimate(verdict, f"{call.label} {case}", "cop" if case == "cop" else "pnz",
                           est.value, est.half_width, est.trials_used, refs[case])
        return verdict

    return Op(call.label, trials, run, check)


def _validate_op(fig: str, workers: int, reference: dict) -> Op:
    ref_rows = reference["validation"][fig]

    def run(seed: int):
        return validation.run_validation(
            trials=VALIDATE_TRIALS, capacity_trials=VALIDATE_CAPACITY_TRIALS,
            seed=seed, workers=workers, figure_ids=(fig,))

    def check(rows) -> Verdict:
        verdict = Verdict()
        if len(rows) != len(ref_rows):
            verdict.checks += 1
            verdict.fail(f"{fig}: {len(rows)} validation rows, reference has {len(ref_rows)}")
            return verdict
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            label = f"{fig} {row.metric} {row.case} k={row.k} (row {i})"
            if (row.figure, row.metric, row.case, row.k) != (ref["figure"], ref["metric"], ref["case"], ref["k"]):
                verdict.checks += 1
                verdict.fail(f"{label}: does not match reference row {ref}")
                continue
            check_closed_form(verdict, label, row.metric, row.closed_form, ref["closed_form"],
                              validation.QUAD_TOL_PROBABILITY, validation.QUAD_TOL_CAPACITY)
            verdict.checks += 1
            if not row.quad_ok:
                verdict.fail(f"{label}: quadrature {row.quadrature!r} misses closed form "
                             f"{row.closed_form!r} (relative error {row.quad_rel_err:.3g})")
            n = VALIDATE_CAPACITY_TRIALS if row.metric in ("capacity", "esc") else VALIDATE_TRIALS
            check_estimate(verdict, label, row.metric, row.mc_value, row.mc_half_width,
                           n, ref["closed_form"])
        return verdict

    return Op(fig, len(ref_rows), run, check)


def build(name: str, reference: dict) -> Workload:
    """Construct one workload's operations (its inputs) from the reference snapshot."""
    if name == "figures_grid":
        return Workload(name, tuple(_figure_op(f, reference) for f in GRID_FIGURES),
                        warmup=1)
    if name == "figures_scan":
        return Workload(name, tuple(_figure_op(f, reference) for f in SCAN_FIGURES),
                        warmup=2)
    if name == "simulate_nearest":
        return Workload(name,
                        tuple(_sim_op(c, NEAREST_TRIALS, reference) for c in NEAREST_CALLS),
                        warmup=4)
    if name == "simulate_best":
        return Workload(name,
                        tuple(_sim_op(c, BEST_TRIALS, reference) for c in BEST_CALLS),
                        warmup=0)
    if name == "validate":
        return Workload(name,
                        tuple(_validate_op(f, VALIDATE_WORKERS, reference) for f in VALIDATE_FIGURES),
                        warmup=0)
    raise ValueError(f"unknown workload {name!r}")
