"""Figure tables against the checked-in snapshot in bench/reference.json.

Every non-value column must match exactly (row order, metric, curve label,
user index, half-width, provenance, x value); the value column must match
at the validation suite's closed-form tolerances.
"""

import json
import os

import pytest

from secnet import figures
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
