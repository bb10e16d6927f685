"""The verification record: an immutable tuple of a report's field values.

A record is built by position or by keyword, read by field name, and
hashable; its ``values()`` follow :data:`~hhbounds.records.FIELDS`.  Every
record, however it is built, passes through ``__post_init__`` exactly once.
"""

import copy
import pickle
import timeit
from dataclasses import dataclass
from typing import Optional

import pytest

from hhbounds import harness
from hhbounds.records import FIELDS, STATUSES, VerificationRecord

# The attribute name of each report field, in field order.
NAMES = ("claim", "function", "a", "b", "lam", "q", "lhs", "rhs", "margin", "status", "exact")
VALUES = ("cor1-stated", "poly3", 1.0, 2.0, 0.0, 2.0, 0.375, 0.2795, -0.0955, "violated", True)


def make(**changes) -> VerificationRecord:
    return VerificationRecord(**{**dict(zip(NAMES, VALUES)), **changes})


def test_positional_and_keyword_construction_agree():
    by_position = VerificationRecord(*VALUES)
    by_keyword = make()
    assert by_position == by_keyword
    assert tuple(by_position) == VALUES
    assert [getattr(by_keyword, n) for n in NAMES] == list(VALUES)
    with pytest.raises(TypeError):
        VerificationRecord(*VALUES[:-1])
    with pytest.raises(TypeError):
        make(extra=1)


@pytest.mark.parametrize("name", NAMES + ("extra",))
def test_fields_cannot_be_assigned(name):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert tuple(record) == VALUES


def test_record_is_hashable():
    a, b = make(), VerificationRecord(*VALUES)
    assert a is not b and hash(a) == hash(b)
    assert len({a, b, make(status="holds")}) == 2


@pytest.mark.parametrize("status", ["broken", "", None, "Holds"])
def test_unknown_status_raises(status):
    with pytest.raises(ValueError, match="unknown status"):
        make(status=status)
    with pytest.raises(ValueError, match="unknown status"):
        VerificationRecord(*VALUES[:9], status, True)


@pytest.mark.parametrize("status", STATUSES)
def test_values_follow_fields(status):
    record = make(status=status, lam=None)
    assert record.values() == tuple(getattr(record, n) for n in NAMES)
    assert list(record.as_dict()) == list(FIELDS)
    assert tuple(record.as_dict().values()) == record.values()


def test_copies_are_equal_records():
    record = make(lhs=None, rhs=None, margin=None, status="hypothesis_failed")
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is VerificationRecord and clone == record


def test_post_init_runs_once_per_campaign_record(monkeypatch):
    seen = []
    original = VerificationRecord.__post_init__

    def counting(record):
        original(record)
        seen.append(record)

    monkeypatch.setattr(VerificationRecord, "__post_init__", counting)
    config = harness.CampaignConfig(
        claims=("cor1-stated", "hh", "prop1-stated"),
        functions=("poly3", "expx"),
        intervals=((1.0, 2.0), (0.0, 1.0)),
        lambda_grid=(0.0, 0.5),
        q_grid=(1.0, 2.0),
    )
    result = harness.run_campaign(config)
    assert len(result.records) > 0
    assert len(seen) == len(result.records)
    assert sorted(map(id, seen)) == sorted(map(id, result.records))


@dataclass(frozen=True)
class FrozenRecord:
    """A record as a frozen dataclass with the same fields and check."""

    claim: str
    function: str
    a: float
    b: float
    lam: Optional[float]
    q: Optional[float]
    lhs: Optional[float]
    rhs: Optional[float]
    margin: Optional[float]
    status: str
    exact: bool

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


def test_construction_costs_under_half_a_frozen_dataclass():
    # The host's speed drifts by tens of percent within a second, so the
    # two are timed in short alternating rounds and the best round of each
    # is compared.
    record = frozen = float("inf")
    for _ in range(40):
        record = min(record, timeit.timeit(lambda: VerificationRecord(*VALUES), number=500))
        frozen = min(frozen, timeit.timeit(lambda: FrozenRecord(*VALUES), number=500))
    assert record < 0.5 * frozen
