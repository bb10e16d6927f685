"""The verification record: an immutable tuple of a report's field values.

A record is built by position or by keyword, read by field name, and
hashable; its ``values()`` follow :data:`~hhbounds.records.FIELDS`.  Every
record, however it is built, passes through ``__post_init__`` exactly once.
A row of inequalities that share their left-hand side is classified cell
for cell as :func:`~hhbounds.records.classify` classifies each one.
"""

import copy
import math
import pickle
import struct
import timeit
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhbounds import harness
from hhbounds.oracle import to_mpf
from hhbounds.records import FIELDS, STATUSES, VerificationRecord, classify, classify_row

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


# -- one status rule for a row and for a cell --------------------------------


def _bits(verdicts) -> list:
    """Each verdict's status and the bit patterns of its three floats."""
    return [(v[0], *(struct.pack("<d", x) for x in v[1:])) for v in verdicts]


def assert_row_is_cellwise(lhs, rhss, tol, eq_tol, lhs_mp=None):
    row = classify_row(lhs, rhss, tol, eq_tol, lhs_mp)
    assert _bits(row) == _bits([classify(lhs, rhs, tol, eq_tol) for rhs in rhss])
    return row


# the campaign defaults, powers of two (so tol * scale is exact) and zero
TOLERANCES = st.sampled_from([(1e-9, 1e-12), (2.0**-30, 2.0**-40), (0.0, 0.0)])
SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 3 * 5e-324,
    2.2250738585072014e-308, 1.0, -1.0,
)
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))


@st.composite
def float_rows(draw):
    """(lhs, rhss, tol, eq_tol), some rhs at or next to a threshold."""
    tol, eq_tol = draw(TOLERANCES)
    lhs = draw(FLOATS)
    scale = max(1.0, abs(lhs))
    near = (lhs, lhs - tol * scale, lhs + eq_tol * scale, lhs - eq_tol * scale)
    rhss = draw(st.lists(st.one_of(FLOATS, st.sampled_from(near)), min_size=1, max_size=6))
    return lhs, rhss, tol, eq_tol


@settings(max_examples=300, deadline=None)
@given(float_rows())
@example((-0.0, [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324], 1e-9, 1e-12))
@example((4.0, [4.0 - 2.0**-28, 4.0 - 2.0**-38, 4.0 + 2.0**-38], 2.0**-30, 2.0**-40))
def test_float_row_is_classified_cell_for_cell(row):
    assert_row_is_cellwise(*row)


def test_row_margins_at_the_thresholds():
    # lhs 0: scale 1, so the margins are exactly -tol and +-eq_tol
    row = assert_row_is_cellwise(0.0, [-1e-9, 1e-12, -1e-12, -1.5e-9], 1e-9, 1e-12)
    assert [v[0] for v in row] == ["holds", "equality", "equality", "violated"]
    # lhs 4 with power-of-two tolerances: exactly -tol * 4 and -eq_tol * 4
    row = assert_row_is_cellwise(
        4.0, [4.0 - 2.0**-28, 4.0 - 2.0**-38, 4.0 - 2.0**-27], 2.0**-30, 2.0**-40
    )
    assert [v[0] for v in row] == ["holds", "equality", "violated"]


FRACTIONS = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)


@st.composite
def fraction_rows(draw):
    """(lhs, rhss): Fractions, with the lhs itself (a zero margin) and
    values a tiny distance from it."""
    lhs = draw(FRACTIONS)
    tiny = st.integers(1, 10**30).map(lambda d: lhs + Fraction(1, d))
    rhss = draw(
        st.lists(st.one_of(FRACTIONS, st.just(lhs), tiny), min_size=1, max_size=6)
    )
    return lhs, rhss


@settings(max_examples=150, deadline=None)
@given(fraction_rows(), TOLERANCES)
@example((Fraction(0), [Fraction(0), Fraction(1, 10**30)]), (1e-9, 1e-12))
def test_fraction_row_is_classified_cell_for_cell(row, tolerances):
    row = assert_row_is_cellwise(*row, *tolerances)
    assert all(type(x) is float for v in row for x in v[1:])


@settings(max_examples=150, deadline=None)
@given(
    fraction_rows(),
    st.lists(st.booleans(), min_size=6, max_size=6),
    TOLERANCES,
)
def test_mpf_row_is_classified_cell_for_cell(row, as_mpf, tolerances):
    # the 50-digit confirmation: Fraction and mpf bounds in one row, the
    # lhs given as a Fraction (converted once), with its mpf, or as an mpf,
    # against mpf bounds alone or mixed with Fractions
    lhs, exact_rhss = row
    with mpmath.workdps(50):
        rhss = [to_mpf(r) if m else r for r, m in zip(exact_rhss, as_mpf)]
        lhs_mp = to_mpf(lhs)
        assert_row_is_cellwise(lhs, rhss, *tolerances)
        assert_row_is_cellwise(lhs, rhss, *tolerances, lhs_mp=lhs_mp)
        assert_row_is_cellwise(lhs_mp, [to_mpf(r) for r in exact_rhss], *tolerances)
        assert_row_is_cellwise(lhs_mp, rhss, *tolerances)  # mpf against Fractions
        # an mpf bound equal to the lhs: a zero mpf margin
        assert_row_is_cellwise(lhs, [lhs_mp, lhs], *tolerances)


def test_mpf_and_fraction_sides_mix():
    # an mpf on one side and a Fraction on the other, either way round: the
    # Fraction is taken to mpf, so the margin is an inexact mpf
    third, half = Fraction(1, 3), Fraction(1, 2)
    with mpmath.workdps(50):
        third_mp, two_thirds_mp = to_mpf(third), to_mpf(Fraction(2, 3))
        sixth = float(to_mpf(half) - third_mp)
        assert classify(third_mp, third, 1e-9, 1e-12) == ("equality", 1 / 3, 1 / 3, 0.0)
        assert classify(third_mp, half, 1e-9, 1e-12) == ("holds", 1 / 3, 0.5, sixth)
        assert classify(half, third_mp, 1e-9, 1e-12) == ("violated", 0.5, 1 / 3, -sixth)
        row = classify_row(third_mp, [half, third, 0.25, two_thirds_mp], 1e-9, 1e-12)
        assert [v[0] for v in row] == ["holds", "equality", "violated", "holds"]
        assert_row_is_cellwise(third_mp, [half, third, 0.25, two_thirds_mp], 1e-9, 1e-12)
        row = classify_row(half, [third_mp, Fraction(1, 4), to_mpf(half)], 1e-9, 1e-12)
        assert [v[0] for v in row] == ["violated", "violated", "equality"]
