"""Regenerate bench/reference.json, the snapshot the benchmark checks against.

The snapshot holds every figure-table row, every closed-form and quadrature
value of the full validation matrix, and the closed forms behind each
simulator call of the simulate workloads, labelled with the commit and
source digest they were taken from.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from secnet import figures, validation  # noqa: E402

import workloads  # noqa: E402
from run import source_digest  # noqa: E402


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    ref: dict = {
        "provenance": {
            "commit": git_commit(),
            "src_sha256": source_digest(ROOT),
            "generated_by": "python3 bench/make_reference.py",
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "note": "validation rows ran with trials=capacity_trials=1024, seed=1; "
                    "only their closed-form and quadrature values are kept",
        },
        "figures": {},
        "validation": {},
        "simulate": {},
    }
    for fig in figures.FIGURE_IDS:
        ref["figures"][fig] = [list(r) for r in figures.figure_table(fig)[2]]
    for fig in validation.VALIDATION_FIGURES:
        rows = validation.run_validation(trials=1024, capacity_trials=1024, seed=1,
                                         workers=1, figure_ids=(fig,))
        ref["validation"][fig] = [
            {"figure": r.figure, "metric": r.metric, "case": r.case, "k": r.k,
             "closed_form": float(r.closed_form), "quadrature": float(r.quadrature),
             "quad_tol": r.quad_tol, "quad_ok": bool(r.quad_ok)}
            for r in rows
        ]
    for call in workloads.NEAREST_CALLS + workloads.BEST_CALLS:
        ref["simulate"][call.label] = call.closed_forms()
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
