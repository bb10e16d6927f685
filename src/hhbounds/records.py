"""Verification record type and status classifier shared by the means
checks and the harness.

This module owns the record format: :data:`FIELDS` names the eleven report
keys in order, the order of a record's values, which the JSON, CSV and
table writers of :mod:`cli` unpack.
It also owns the one status rule: :func:`classify_row` decides a row of
inequalities that share their left-hand side, and :func:`classify` is its
one-cell form.  :data:`TOL` and :data:`EQ_TOL` are the band every campaign
record and special-means check is decided with.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

import mpmath

from .bounds import _Root
from .oracle import to_mpf

__all__ = ["STATUSES", "VerificationRecord"]

STATUSES = ("holds", "equality", "violated", "hypothesis_failed", "undefined")

# The status band: a margin below -TOL * scale is 'violated', one within
# EQ_TOL * scale is 'equality' (see classify).
TOL = 1e-9
EQ_TOL = 1e-12

# The report key of each field of a record, in field order.
FIELDS = (
    "claim", "function", "a", "b", "lambda", "q", "lhs", "rhs", "margin", "status",
    "exact",
)


class VerificationRecord(tuple):
    """One evaluated inequality instance: lhs <= rhs with margin = rhs - lhs.

    ``lam`` and ``q`` are None for claims without that parameter; lhs, rhs
    and margin are None when the hypothesis failed or evaluation was
    undefined.  ``exact`` is True when the status was decided in rational
    arithmetic, on an exact root, or at 50-digit precision rather than in
    doubles.

    A record is an immutable tuple of its values in the order of
    :data:`FIELDS`, built by position or by keyword and read by field
    name; equality, hashing and iteration are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, claim, function, a, b, lam, q, lhs, rhs, margin, status, exact):
        self = tuple.__new__(
            cls, (claim, function, a, b, lam, q, lhs, rhs, margin, status, exact)
        )
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self[9] not in STATUSES:  # the status
            raise ValueError(f"unknown status {self[9]!r}")

    claim = property(itemgetter(0))
    function = property(itemgetter(1))
    a = property(itemgetter(2))
    b = property(itemgetter(3))
    lam = property(itemgetter(4))
    q = property(itemgetter(5))
    lhs = property(itemgetter(6))
    rhs = property(itemgetter(7))
    margin = property(itemgetter(8))
    status = property(itemgetter(9))
    exact = property(itemgetter(10))

    def __getnewargs__(self) -> tuple:  # for copy and pickle
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(_NAMES, self))
        return f"VerificationRecord({fields})"

    def as_dict(self) -> dict:
        """The record as a report writes it, keyed by :data:`FIELDS`."""
        return dict(zip(FIELDS, self))


# The attribute name of each field, in field order.
_NAMES = tuple("lam" if f == "lambda" else f for f in FIELDS)


def classify(lhs, rhs, tol: float, eq_tol: float) -> tuple[str, float, float, float]:
    """The status of ``lhs <= rhs`` and the floats a record carries.

    The sides may be floats, Fractions or mpfs, or an exact root of
    :mod:`bounds` on the right of an exact lhs; an exact side is converted
    to mpf when the other is an mpf, so call this inside the working
    precision the mpf was computed at.  With margin = rhs - lhs and
    scale = max(1, |lhs|, |rhs|), the status is 'violated' when the margin
    is below -tol * scale, 'equality' when a rational margin is zero or
    any other lies within eq_tol * scale, 'undefined' when it is NaN, and
    'holds' otherwise.  Campaigns and the special-means checks pass
    tol = :data:`TOL` and eq_tol = :data:`EQ_TOL`.

    Returns (status, lhs, rhs, margin) with the three values as floats;
    against an exact root, rhs and margin are the floats nearest to their
    exact values.
    """
    return classify_row(lhs, (rhs,), tol, eq_tol)[0]


def classify_row(lhs, rhss, tol: float, eq_tol: float) -> list[tuple]:
    """:func:`classify` of ``lhs <= rhs`` for each rhs of ``rhss``: the
    verdicts of a row of inequalities that share their left-hand side,
    which is converted once, to a float and, for the cells whose rhs is an
    mpf, to an mpf at the working precision.  An exact root rhs and its
    margin are rounded from the integer enclosures of the root
    (:meth:`bounds._Root.rounded`), so every margin's sign is exact.
    """
    lhs_is_mp = isinstance(lhs, mpmath.mpf)
    lhs_f = lhs_mp = lhs_mp_f = lhs_ratio = None
    out = []
    for rhs in rhss:
        if type(rhs) is _Root:
            if lhs_ratio is None:
                lhs_ratio = lhs.as_integer_ratio()
                lhs_f = float(lhs)
            side_f = lhs_f
            rhs_f, margin_f = rhs.rounded(*lhs_ratio)
            margin = margin_f
        else:
            if isinstance(rhs, mpmath.mpf) and not lhs_is_mp:
                if lhs_mp is None:
                    lhs_mp = to_mpf(lhs)
                    lhs_mp_f = float(lhs_mp)
                side, side_f = lhs_mp, lhs_mp_f
            else:
                if lhs_f is None:
                    lhs_f = float(lhs)
                if lhs_is_mp and type(rhs) is Fraction:
                    rhs = to_mpf(rhs)
                side, side_f = lhs, lhs_f
            margin = rhs - side
            rhs_f, margin_f = float(rhs), float(margin)
        scale = max(1.0, abs(side_f), abs(rhs_f))
        if margin_f < -tol * scale:
            status = "violated"
        elif margin == 0 if type(margin) is Fraction else abs(margin_f) <= eq_tol * scale:
            status = "equality"
        elif math.isnan(margin_f):
            status = "undefined"
        else:
            status = "holds"
        out.append((status, side_f, rhs_f, margin_f))
    return out
