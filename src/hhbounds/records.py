"""Verification record type and status classifier shared by the means
checks and the harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .oracle import to_mpf

__all__ = ["STATUSES", "VerificationRecord"]

STATUSES = ("holds", "equality", "violated", "hypothesis_failed", "undefined")


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

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "function": self.function,
            "a": self.a,
            "b": self.b,
            "lambda": self.lam,
            "q": self.q,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "status": self.status,
            "exact": self.exact,
        }


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
