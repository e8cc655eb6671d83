"""Correctness checks that decide whether a benchmark operation failed.

Closed-form values are compared with the reference snapshot at the
library's own validation gates (``QUAD_TOL_PROBABILITY`` for probabilities
and densities, ``QUAD_TOL_CAPACITY`` for capacities, exact equality for
``k_star``).  Simulation estimates are compared with the snapshot's closed
form under a bound wide enough that a correct sampler trips it with
probability at most ``FALSE_ALARM`` per estimate, so a change that
legitimately alters realizations does not count as a failure.  The
library's own 3-sigma gate (``|closed - mc| <= half_width``) is reported
beside it as information only.

Only the standard library is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

# Per-estimate false-alarm budget of the wide simulation bound.
FALSE_ALARM = 1e-9
# Standard deviations allowed for a sample-mean estimate (capacities); the
# two-sided normal tail beyond 7 sigma is 2.6e-12.
MEAN_SIGMAS = 7.0
# Normal quantile behind the library's default 99.7% half-widths.
CI_Z = NormalDist().inv_cdf(0.5 * (1.0 + 0.997))

CAPACITY_METRICS = ("esc", "capacity")


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)
    # estimates outside the library's 3-sigma interval (information only)
    excursions: int = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)


def rel_err(value: float, ref: float) -> float:
    """Relative error with the same floor as ``ValidationRow.quad_rel_err``."""
    return abs(value - ref) / max(abs(ref), 1e-300)


def closed_form_tol(metric: str, tol_probability: float, tol_capacity: float) -> float | None:
    """Relative tolerance for one closed-form metric; None means exact equality."""
    if metric == "k_star":
        return None
    return tol_capacity if metric in CAPACITY_METRICS else tol_probability


def check_closed_form(verdict: Verdict, label: str, metric: str, value: float, ref: float,
                      tol_probability: float, tol_capacity: float) -> None:
    verdict.checks += 1
    tol = closed_form_tol(metric, tol_probability, tol_capacity)
    if tol is None:
        if value != ref:
            verdict.fail(f"{label}: {metric}={value!r}, reference {ref!r}")
    elif not rel_err(value, ref) <= tol:
        verdict.fail(f"{label}: {metric}={value!r}, reference {ref!r}, "
                     f"relative error {rel_err(value, ref):.3g} > {tol:g}")


def check_figure_rows(verdict: Verdict, label: str, rows, ref_rows,
                      tol_probability: float, tol_capacity: float) -> None:
    """Compare a figure table with its snapshot: every non-value column exactly,
    the value column at the closed-form gates."""
    if len(rows) != len(ref_rows):
        verdict.checks += 1
        verdict.fail(f"{label}: {len(rows)} rows, reference has {len(ref_rows)}")
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        row, ref = list(row), list(ref)
        if row[:3] + row[4:] != ref[:3] + ref[4:]:
            verdict.checks += 1
            verdict.fail(f"{label} row {i}: labels {row[:3] + row[4:]} != reference {ref[:3] + ref[4:]}")
            continue
        check_closed_form(verdict, f"{label} row {i}", row[0], row[3], ref[3],
                          tol_probability, tol_capacity)


def binomial_bound(p: float, n: int, alpha: float = FALSE_ALARM) -> float:
    """Deviation t with P(|p_hat - p| >= t) <= alpha for a mean of n Bernoulli(p).

    Bernstein's inequality for variables bounded by 1:
    P(|p_hat - p| >= t) <= 2 exp(-n t^2 / (2 (p (1 - p) + t / 3))),
    solved for t.
    """
    log_term = math.log(2.0 / alpha)
    a = log_term / (3.0 * n)
    return a + math.sqrt(a * a + 2.0 * log_term * p * (1.0 - p) / n)


def mean_bound(half_width: float) -> float:
    """Deviation allowed for a sample-mean estimate reported with a 99.7% half-width."""
    return MEAN_SIGMAS * half_width / CI_Z


def check_estimate(verdict: Verdict, label: str, metric: str, estimate: float,
                   half_width: float, n: int, ref: float) -> None:
    """Wide-bound check of one simulation estimate against the reference closed form."""
    verdict.checks += 1
    if abs(ref - estimate) > half_width:
        verdict.excursions += 1
    if metric in CAPACITY_METRICS:
        bound = mean_bound(half_width)
    else:
        bound = binomial_bound(min(max(ref, 0.0), 1.0), n)
    if not abs(estimate - ref) <= bound:
        verdict.fail(f"{label}: estimate {estimate:.6g} (n={n}) is {abs(estimate - ref):.3g} "
                     f"from reference {ref:.6g}, beyond the bound {bound:.3g}")
