"""``pinned_reports.py``: CI runs it, it holds every pin, and its q-grid row reproduces its pin."""

import importlib.util
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_q_grid_row_reproduces_its_pin():
    spec = importlib.util.spec_from_file_location("pinned_reports", TESTS / "pinned_reports.py")
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    (row,) = [row for row in table.ROWS if "--q-grid" in row.name]
    assert row.producer()[:2] == (row.code, row.sha256)


def test_the_workflow_runs_the_table_and_pins_nothing_itself():
    text = (TESTS.parent / ".github" / "workflows" / "tests.yml").read_text()
    assert "python tests/pinned_reports.py" in text
    assert re.search(r"\b[0-9a-f]{64}\b", text) is None
