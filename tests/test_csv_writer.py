"""The CSV report writer against an independent rule for its cells.

``cli.to_csv`` hands a record's values to ``csv.writer`` and maps only
``exact`` to ``true``/``false``.  The reference converts every cell itself
(None to an empty cell, a bool to ``true``/``false``, a float to its
``repr``, anything else to ``str``) before ``csv.writer`` quotes it.
"""

import csv
import io
import math

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
    reference = reference_csv(records)
    assert cli.to_csv(records) == reference
    buf = io.StringIO()
    assert cli.to_csv(iter(records), buf) is None
    assert buf.getvalue() == reference
