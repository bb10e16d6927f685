"""``pinned_reports.py``: CI runs it, it holds every pin, and its q-grid
and streamed non-polynomial rows reproduce their pins."""

import importlib.util
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _row(name: str):
    """The one row of the table whose name contains ``name``."""
    spec = importlib.util.spec_from_file_location("pinned_reports", TESTS / "pinned_reports.py")
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    (row,) = [row for row in table.ROWS if name in row.name]
    return row


def test_q_grid_row_reproduces_its_pin():
    row = _row("--q-grid")
    assert row.producer()[:2] == (row.code, row.sha256)


def test_streamed_non_polynomial_row_reproduces_its_pin():
    # expx and bump on sub-intervals of [0, 1]: cells confirmed on refined
    # panels, whose enveloped rows read the envelope their caller passes
    row = _row("non-polynomial CSV, streamed")
    assert row.producer()[:2] == (row.code, row.sha256)


def test_the_workflow_runs_the_table_and_pins_nothing_itself():
    text = (TESTS.parent / ".github" / "workflows" / "tests.yml").read_text()
    assert "python tests/pinned_reports.py" in text
    assert re.search(r"\b[0-9a-f]{64}\b", text) is None
