"""The report writer equals ``json.dumps`` byte for byte.

A report's records are :class:`VerificationRecord` objects.  ``cli.to_json``
lets ``json.dumps`` write everything but a report's top-level ``records``
list, and writes each record through one record loop.  The reference is one
``json.dumps(doc, indent=2)`` call on the whole document with each record
as its ``as_dict()``.
"""

import io
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhbounds import cli
from hhbounds.harness import CampaignConfig, run_campaign
from hhbounds.records import STATUSES, VerificationRecord

TEXT = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12
) | st.sampled_from(['thm6-"stated"', "λ-family", "poly\\2", "tab\there", "é", ""])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 1.0, 0.1]
)
NUMBER = st.none() | FLOATS | st.integers(-(2**70), 2**70)
SCALAR = st.none() | st.booleans() | NUMBER | TEXT
NESTED = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)
# A nonempty container, whose text spans lines.
CONTAINER = st.lists(NESTED, min_size=1, max_size=3) | st.dictionaries(
    TEXT, NESTED, min_size=1, max_size=3
)
ANY = NUMBER | TEXT | NESTED | CONTAINER


class Status(str):
    """A status equal to a plain one but not of type ``str``."""


RECORD = st.builds(
    VerificationRecord,
    claim=TEXT | ANY,
    function=TEXT | ANY,
    a=FLOATS | ANY,
    b=FLOATS | ANY,
    lam=NUMBER | ANY,
    q=NUMBER | ANY,
    lhs=NUMBER | ANY,
    rhs=NUMBER | ANY,
    margin=NUMBER | ANY,
    status=st.sampled_from(STATUSES) | st.sampled_from(STATUSES).map(Status),
    # a non-bool exact that equals True or False must not share its text
    exact=st.booleans() | st.sampled_from([0, 1, 0.0, 1.0, None, "true"]) | ANY,
)
DOC = st.fixed_dictionaries(
    {
        "version": TEXT,
        "config": st.dictionaries(TEXT, NESTED, max_size=4),
        "records": st.lists(RECORD, max_size=5),
        "summary": st.dictionaries(TEXT, NESTED, max_size=4),
    }
)


def reference(doc) -> str:
    """``json.dumps`` of ``doc`` with each record as its ``as_dict()``."""
    return json.dumps({**doc, "records": [r.as_dict() for r in doc["records"]]}, indent=2)


def _written(doc) -> str:
    buf = io.StringIO()
    assert cli.to_json(doc, buf) is None
    return buf.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(DOC)
def test_writer_equals_json_dumps(doc):
    expected = reference(doc)
    assert cli.to_json(doc) == expected
    assert _written(doc) == expected + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(NESTED)
def test_any_value_equals_json_dumps(value):
    # a document without a records list is json.dumps's alone
    assume(not (isinstance(value, dict) and isinstance(value.get("records"), list)))
    assert cli.to_json(value) == json.dumps(value, indent=2)


def test_records_that_are_no_list_are_json_dumps():
    for records in ("none", {"a": [1, None]}, None, 3.5):
        doc = {"version": "0.1.0", "records": records, "summary": {}}
        assert _written(doc) == json.dumps(doc, indent=2) + "\n"


def test_empty_records_and_containers():
    doc = {"version": "0.1.0", "config": {}, "records": [], "summary": {"x": []}}
    assert _written(doc) == json.dumps(doc, indent=2) + "\n"
    assert _written({**doc, "records": iter([])}) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(DOC)
def test_records_read_from_an_iterator(doc):
    # a value after the records is written once the records have been read
    doc = {"version": doc["version"], "records": doc["records"], "summary": doc["summary"]}
    summary = {}

    def records():
        yield from doc["records"]
        summary.update(doc["summary"])

    streamed = {**doc, "records": records(), "summary": summary}
    assert _written(streamed) == reference(doc) + "\n"


def test_exact_equal_to_a_bool_is_written_as_itself():
    # True == 1 and False == 0, and they hash alike, but json.dumps writes
    # them apart, so a record's text may not be taken from one with the other
    head = ("thm5", "poly3", 1.0, 2.0, 0.5, None, 0.25, 0.5, 0.25, "holds")
    for first, second in ((True, 1), (False, 0), (1, True), (0, False)):
        records = [VerificationRecord(*head, first), VerificationRecord(*head, second)]
        doc = {"version": "0.1.0", "records": records, "summary": {}}
        assert _written(doc) == reference(doc) + "\n"


@pytest.mark.parametrize(
    "item",
    [
        VerificationRecord("thm5", "poly3", 1.0, 2.0, 0.5, None, 0.25, 0.5, 0.25, "holds", False).as_dict(),
        ("thm5", "poly3", 1.0, 2.0, 0.5, None, 0.25, 0.5, 0.25, "holds", False),
        [1.5, None],
    ],
    ids=["dict", "tuple", "list"],
)
def test_a_record_that_is_no_verification_record_raises(item):
    record = VerificationRecord("hh", "poly2", 1.0, 2.0, None, None, 0.0, 0.5, 0.5, "holds", True)
    for records in ([item], [record, item]):
        with pytest.raises(TypeError):
            cli.to_json({"version": "0.1.0", "records": records, "summary": {}})


def test_campaign_report_equals_json_dumps():
    cfg = CampaignConfig(claims=("all",), functions=("all",), trials=1, seed=2)
    doc = cli.report_document(run_campaign(cfg))
    assert all(type(r) is VerificationRecord for r in doc["records"])
    assert _written(doc) == reference(doc) + "\n"
