"""The report writer equals ``json.dumps(doc, indent=2)`` byte for byte.

``cli.to_json`` lets ``json.dumps`` write everything but a report's
top-level ``records`` list, and writes each record through one record
encoder.  The reference is one ``json.dumps`` call on the whole document.
"""

import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds import cli
from hhbounds.harness import CampaignConfig, run_campaign

TEXT = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12
) | st.sampled_from(['thm6-"stated"', "λ-family", "poly\\2", "tab\there", "é", ""])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 1.0, 0.1]
)
NUMBER = st.none() | FLOATS | st.integers(-(2**70), 2**70)

RECORD = st.fixed_dictionaries(
    {
        "claim": TEXT,
        "function": TEXT,
        "a": FLOATS | st.integers(-5, 5),
        "b": FLOATS | st.integers(-5, 5),
        "lambda": NUMBER,
        "q": NUMBER,
        "lhs": NUMBER,
        "rhs": NUMBER,
        "margin": NUMBER,
        "status": TEXT,
        "exact": st.booleans(),
    }
)
# Record-like dicts the template must not take: other key orders or keys.
OTHER_RECORD = RECORD.map(lambda r: dict(reversed(list(r.items())))) | RECORD.map(
    lambda r: {**r, "extra": [1.5, None, {"k": "v"}]}
)
SCALAR = st.none() | st.booleans() | NUMBER | TEXT
NESTED = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)
# Template records whose field holds a nonempty container.
CONTAINER = st.lists(NESTED, min_size=1, max_size=3) | st.dictionaries(
    TEXT, NESTED, min_size=1, max_size=3
)
NESTED_FIELD_RECORD = st.tuples(RECORD, CONTAINER, NESTED).map(
    lambda t: {**t[0], "lambda": t[1], "status": t[2]}
)
DOC = st.fixed_dictionaries(
    {
        "version": TEXT,
        "config": st.dictionaries(TEXT, NESTED, max_size=4),
        "records": st.lists(RECORD | OTHER_RECORD | NESTED_FIELD_RECORD, max_size=5),
        "summary": st.dictionaries(TEXT, NESTED, max_size=4),
    }
)


def _written(doc) -> str:
    buf = io.StringIO()
    assert cli.to_json(doc, buf) is None
    return buf.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(DOC)
def test_writer_equals_json_dumps(doc):
    reference = json.dumps(doc, indent=2)
    assert cli.to_json(doc) == reference
    assert _written(doc) == reference + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(NESTED)
def test_any_value_equals_json_dumps(value):
    assert cli.to_json(value) == json.dumps(value, indent=2)


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
    assert _written(streamed) == json.dumps(doc, indent=2) + "\n"


def test_campaign_report_equals_json_dumps():
    cfg = CampaignConfig(claims=("all",), functions=("all",), trials=1, seed=2)
    doc = cli.report_document(run_campaign(cfg))
    assert _written(doc) == json.dumps(doc, indent=2) + "\n"
