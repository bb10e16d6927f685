"""Verification record type and status classifier shared by the means
checks and the harness.

This module owns the record format: :data:`FIELDS` names the eleven report
keys in order, and :meth:`VerificationRecord.values` gives a record's
values in that order, for the JSON, CSV and table writers of :mod:`cli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter
from typing import Optional

import mpmath

from .oracle import to_mpf

__all__ = ["STATUSES", "VerificationRecord"]

STATUSES = ("holds", "equality", "violated", "hypothesis_failed", "undefined")

# The report key of each field of a record, in field order.
FIELDS = (
    "claim", "function", "a", "b", "lambda", "q", "lhs", "rhs", "margin", "status",
    "exact",
)


@dataclass(frozen=True)
class VerificationRecord:
    """One evaluated inequality instance: lhs <= rhs with margin = rhs - lhs.

    ``lam`` and ``q`` are None for claims without that parameter; lhs, rhs
    and margin are None when the hypothesis failed or evaluation was
    undefined.  ``exact`` is True when the status was decided in rational
    arithmetic or at 50-digit precision rather than in doubles.
    """

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

    def values(self) -> tuple:
        """The field values, in the order of :data:`FIELDS`."""
        return _values(self)

    def as_dict(self) -> dict:
        """The record as a report writes it, keyed by :data:`FIELDS`."""
        return dict(zip(FIELDS, _values(self)))


_values = attrgetter(*(f.name for f in fields(VerificationRecord)))


def classify(lhs, rhs, tol: float, eq_tol: float) -> tuple[str, float, float, float]:
    """The status of ``lhs <= rhs`` and the floats a record carries.

    The sides may be floats, Fractions or mpfs; an exact lhs is converted
    to mpf when rhs is an mpf, so call this inside the working precision
    the mpf was computed at.  With margin = rhs - lhs and
    scale = max(1, |lhs|, |rhs|), the status is 'violated' when the margin
    is below -tol * scale, 'equality' when an exact margin is zero or an
    inexact one lies within eq_tol * scale, 'undefined' when it is NaN,
    and 'holds' otherwise.

    Returns (status, lhs, rhs, margin) with the three values as floats.
    """
    if isinstance(rhs, mpmath.mpf) and not isinstance(lhs, mpmath.mpf):
        lhs = to_mpf(lhs)
    margin = rhs - lhs
    lhs_f, rhs_f, margin_f = float(lhs), float(rhs), float(margin)
    scale = max(1.0, abs(lhs_f), abs(rhs_f))
    if margin_f < -tol * scale:
        status = "violated"
    elif margin == 0 if type(margin) is Fraction else abs(margin_f) <= eq_tol * scale:
        status = "equality"
    elif math.isnan(margin_f):
        status = "undefined"
    else:
        status = "holds"
    return status, lhs_f, rhs_f, margin_f
