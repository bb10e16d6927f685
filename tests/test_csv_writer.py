"""The CSV report writer against an independent rule for its cells.

``cli.to_csv`` formats the claim, function, a, b cells once per block and
the lambda, q cells once per pair of objects, and writes float sides
itself.  The reference converts every cell of every row itself (None to an
empty cell, a bool to ``true``/``false``, a float to its ``repr``, anything
else to ``str``) before ``csv.writer`` quotes it.
"""

import csv
import io
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds import cli
from hhbounds.records import STATUSES, VerificationRecord

HEADER = ("claim", "function", "a", "b", "lambda", "q", "lhs", "rhs", "margin", "status", "exact")


def csv_cell(v) -> str:
    """One cell of a CSV report."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def reference_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for r in records:
        values = (r.claim, r.function, r.a, r.b, r.lam, r.q, r.lhs, r.rhs, r.margin, r.status, r.exact)
        writer.writerow([csv_cell(v) for v in values])
    return buf.getvalue()


def assert_same_rows(actual: str, expected: str) -> None:
    """Equal texts; on a difference, the first differing rows are compared
    (a diff of the whole of a long report takes minutes)."""
    if actual != expected:
        got, want = actual.splitlines(True), expected.splitlines(True)
        first_difference = next(((g, w) for g, w in zip(got, want) if g != w), None)
        assert first_difference is None
        assert len(got) == len(want)


def assert_writes_reference(records):
    reference = reference_csv(records)
    assert_same_rows(cli.to_csv(records), reference)
    buf = io.StringIO()
    assert cli.to_csv(iter(records), buf) is None
    assert_same_rows(buf.getvalue(), reference)


# A registry may use any id: commas, quotes, line breaks and spaces included.
ID = st.text(max_size=8) | st.sampled_from(
    ['thm6-"stated"', "a,b", "line\nbreak", "cr\rlf\r\n", " lead", "", '"', "é,λ"]
)
FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1e-300, 0.1]
)
OPTIONAL = st.none() | FLOAT
RECORD = st.builds(
    VerificationRecord,
    claim=ID,
    function=ID,
    a=FLOAT,
    b=FLOAT,
    lam=OPTIONAL,
    q=OPTIONAL,
    lhs=OPTIONAL,
    rhs=OPTIONAL,
    margin=OPTIONAL,
    status=st.sampled_from(STATUSES),
    exact=st.booleans(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(RECORD, max_size=6))
def test_writer_equals_reference_cells(records):
    assert_writes_reference(records)


def fresh(x: float) -> float:
    """A float object equal to ``x`` and not identical to any other."""
    return float(repr(x))


def test_more_grid_pairs_than_the_cache_holds():
    # 5000 distinct (lambda, q) object pairs clear the cache mid-report;
    # the first pairs come back after it was cleared.
    pairs = [(fresh(i / 5000), fresh(1.0 + i % 7)) for i in range(5000)]
    records = [
        VerificationRecord("thm6-stated", "expx", 0.0, 1.0, lam, q, 0.5, 0.75, 0.25, "holds", True)
        for lam, q in pairs + pairs[:100]
    ]
    assert_writes_reference(records)


def test_fresh_grid_values_streamed_one_record_at_a_time():
    # Each record is dropped once written, so the ids of its lam and q may
    # be reused by the next record's different values.
    def stream():
        for i in range(6000):
            lam, q = fresh(i / 6000), fresh(1.0 + i / 3)
            yield VerificationRecord("cor1-stated", "poly3", 1.0, 2.0, lam, q, None, None, None, "hypothesis_failed", False)

    buf = io.StringIO()
    cli.to_csv(stream(), buf)
    assert_same_rows(buf.getvalue(), reference_csv(list(stream())))


def test_equal_but_not_identical_block_values():
    # Consecutive blocks whose prefix values are equal but not the same
    # objects, signed zeros included, and grid values likewise.
    zero, neg_zero = fresh(0.0), fresh(-0.0)
    blocks = [
        (zero, fresh(1.0), zero),
        (neg_zero, fresh(1.0), neg_zero),
        (fresh(0.0), fresh(1.0), fresh(-0.0)),
        (fresh(-0.0), fresh(-0.0), fresh(0.0)),
    ]
    records = [
        VerificationRecord(claim, "poly3", a, b, lam, q, -0.0, 0.0, 0.0, "equality", False)
        for claim in ("hh", "".join(["h", "h"]), "cor1-stated")
        for a, b, lam in blocks
        for q in (fresh(1.0), fresh(2.0))
    ]
    assert_writes_reference(records)


class Status(str):
    """A status equal to a plain one but not of type ``str``."""


def test_non_float_cells_go_through_csv_writer():
    records = [
        VerificationRecord("c", "f", 1, 2, None, None, 1, Fraction(1, 3), None, Status("holds"), True),
        VerificationRecord("c", "f", 1, 2, Fraction(1, 2), 3, Fraction(-7, 2), 0, 7, "violated", False),
    ]
    assert_writes_reference(records)
