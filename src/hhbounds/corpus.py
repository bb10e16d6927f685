"""Test-function corpus and numerical P-convexity checking.

A P-convex function (P-function) is nonnegative and satisfies
``f(lam*x + (1-lam)*y) <= f(x) + f(y)`` for all x, y in the interval and
lam in [0, 1].  The class contains every nonnegative monotone, convex and
quasi-convex function, which is why all corpus members except the narrow
Gaussian bump qualify on positive domains.

:func:`check_p_convex` decides the condition on a lattice of n equally
spaced points, which holds every x, y and lam*x + (1-lam)*y point of the
(x, y, lam) grid named by :class:`GridSpec`.  For z between x and y the
worst choice of x and y is the smallest value on each side of z, so one
pass with a running minimum from each end decides every lattice triple,
with g evaluated only n times, through the oracle's array sampler, so a
point where g raises is non-finite and makes the check 'undefined'.

The corpus is compiled in; functions are referenced by short id from the
CLI (``poly3``, ``expx``, ``bump``, ...).  A polynomial member is written
once, as its coefficients, from which its float f, f'' and f'''' derive;
the others carry analytic derivatives and, where one exists in closed form,
an exact antiderivative difference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .oracle import _poly_terms, _sample, poly_derivative_coeffs

__all__ = [
    "Interval",
    "TestFunction",
    "GridSpec",
    "PViolation",
    "PConvexityReport",
    "check_p_convex",
    "corpus_standard",
    "get_function",
    "function_ids",
]


@dataclass(frozen=True)
class Interval:
    """Integration domain [lo, hi] with lo < hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class TestFunction:
    """A corpus member with analytic derivatives.

    ``poly_coeffs`` (ascending, exact rationals) enables the exact
    integration path; it is present exactly for the polynomial members,
    whose float f, d2 and d4 the corpus derives from it.
    Search screens need their f, f'' and f'''' (on a float or an array) within
    (n + 1) 2^-52 sum |c_k| |x|^k of p's at x, over the derivative's c_k.
    ``exact_integral(a, b)``, the antiderivative difference where a closed
    form exists, is given only for non-polynomials.

    Instances are immutable, and every run in a process reads the standard
    registry's instances (:func:`get_function`), so the cached ``_terms``,
    ``_d2_terms`` and ``_horner`` table are built once per process.
    """

    __test__ = False  # not a pytest class, despite the name

    id: str
    f: Callable[[float], float]
    d2: Callable[[float], float]
    domain: Interval
    d4: Optional[Callable[[float], float]] = None
    exact_integral: Optional[Callable[[float, float], float]] = None
    poly_coeffs: Optional[tuple[Fraction, ...]] = None

    def __repr__(self) -> str:  # keep campaign reprs small
        return f"TestFunction({self.id!r})"

    @functools.cached_property
    def _terms(self) -> Optional[tuple[tuple[int, Fraction], ...]]:
        """The nonzero terms (k, c_k) of ``poly_coeffs``, computed once."""
        return None if self.poly_coeffs is None else _poly_terms(self.poly_coeffs)

    @functools.cached_property
    def _d2_terms(self) -> Optional[tuple[tuple[int, Fraction], ...]]:
        """The nonzero terms of f'' for a polynomial, computed once."""
        if self.poly_coeffs is None:
            return None
        return _poly_terms(poly_derivative_coeffs(self.poly_coeffs, 2))

    @functools.cached_property
    def _horner(self) -> dict[int, tuple[tuple[int, float], ...]]:
        """Per derivative order 0, 2 and 4 of a polynomial, the pairs
        (k - order, float(|c_k| k!/(k - order)!)) over ``_terms``, k >= order."""
        return {
            order: tuple((k - order, float(abs(c) * math.perm(k, order)))
                         for k, c in self._terms if k >= order)
            for order in (0, 2, 4)
        }


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the P-convexity check: nx x-points, ny y-points and
    nlam lam-points, each equally spaced.

    :func:`check_p_convex` samples g on ``n = (nlam - 1) * lcm(nx - 1,
    ny - 1) + 1`` equally spaced points (801 by default).  The i-th x point
    sits at lattice index ``i * L / (nx - 1) * (nlam - 1)`` with
    ``L = lcm(nx - 1, ny - 1)``, likewise every y point, and the mix
    ``lam_k * x_i + (1 - lam_k) * y_j`` sits at index
    ``(k * i * L / (nx - 1) + (nlam - 1 - k) * j * L / (ny - 1))``, so every
    triple of the grid is a lattice triple.  n never exceeds the
    nx * ny * nlam points of the grid, and a grid whose n exceeds
    ``_MAX_LATTICE`` (10^7 points, 80 MB of float64) is rejected before
    anything is allocated.
    """

    nx: int = 41
    ny: int = 41
    nlam: int = 21

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nlam) < 3:
            raise ValueError("grid needs at least 3 points per axis")
        n = _lattice_size(self)
        if n > _MAX_LATTICE:
            raise ValueError(
                f"grid lattice of {n} points exceeds the cap of {_MAX_LATTICE}"
            )


_MAX_LATTICE = 10**7


def _lattice_size(grid: GridSpec) -> int:
    return (grid.nlam - 1) * math.lcm(grid.nx - 1, grid.ny - 1) + 1


@dataclass(frozen=True)
class PViolation:
    """A sampled triple violating the P-inequality: lhs > rhs + _TOL_ABS,
    with lhs = g(lam*x + (1-lam)*y) and rhs = g(x) + g(y)."""

    x: float
    y: float
    lam: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class PConvexityReport:
    status: str  # "passed" | "failed" | "undefined"
    samples_checked: int
    witness: Optional[PViolation] = None
    undefined_at: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.status == "passed"


# The absolute slack of the P-inequality on the lattice samples.
_TOL_ABS = 1e-12


def check_p_convex(
    g: Callable[[float], float],
    domain: Interval,
    grid: GridSpec = GridSpec(),
) -> PConvexityReport:
    """Lattice check of the P-function condition on ``domain``.

    Evaluates g once at each of the n equally spaced points ``zs`` of the
    grid's lattice (see :class:`GridSpec`), so ``samples_checked`` is n.
    A nonnegative g satisfies ``g(z) <= g(x) + g(y)`` for every lattice
    triple x <= z <= y exactly when each ``g(z)`` is at most the smallest
    sample at or left of z plus the smallest at or right of z; two running
    minima decide that in one pass.  The witness of a failure is the
    worst lattice triple: the z of largest excess, with x and y its two
    one-sided minimizers and lam = (y - z) / (y - x).

    A sample excess above :data:`_TOL_ABS` (1e-12) is a violation.  A
    negative sample below ``-_TOL_ABS`` is its own witness (x == y,
    lam = 0.5), since g(x) <= 2 g(x) fails exactly when g(x) < 0.  A
    non-finite sample yields the distinct "undefined" status, at the first
    such lattice point, rather than a violation.

    Deterministic for a fixed grid spec.
    """
    n = _lattice_size(grid)
    zs = np.linspace(domain.lo, domain.hi, n)
    gz = _sample(g, zs)

    bad = ~np.isfinite(gz)
    if np.any(bad):
        return PConvexityReport("undefined", n, undefined_at=float(zs[np.argmax(bad)]))

    negative = gz < -_TOL_ABS
    if np.any(negative):
        k = int(np.argmax(negative))
        w = PViolation(
            x=float(zs[k]), y=float(zs[k]), lam=0.5,
            lhs=float(gz[k]), rhs=float(2 * gz[k]),
        )
        return PConvexityReport("failed", n, witness=w)

    rhs = np.minimum.accumulate(gz) + np.minimum.accumulate(gz[::-1])[::-1]
    if not np.any(gz > rhs + _TOL_ABS):
        return PConvexityReport("passed", n)

    k = int(np.argmax(gz - rhs))
    i = int(np.argmin(gz[: k + 1]))
    j = k + int(np.argmin(gz[k:]))
    x, y, z = float(zs[i]), float(zs[j]), float(zs[k])
    w = PViolation(
        x=x, y=y, lam=(y - z) / (y - x), lhs=float(gz[k]), rhs=float(gz[i] + gz[j])
    )
    return PConvexityReport("failed", n, witness=w)


# ---------------------------------------------------------------------------
# Standard corpus
# ---------------------------------------------------------------------------

_BUMP_CENTER = 0.5
_BUMP_WIDTH = 1e-3  # denominator of the squared distance in the exponent


def _power_derivative(n: int, k: int) -> Callable[[float], float]:
    """The k-th derivative of x^n, n!/(n - k)! x^(n - k), on a float or an
    array: a constant c is ``c + 0.0 * x`` and a vanished derivative
    ``0.0 * x``, so that either keeps the shape of an array x."""
    if k > n:
        return lambda x: 0.0 * x
    if k == n:
        c = float(math.factorial(n))
        return lambda x: c + 0.0 * x
    c = math.perm(n, k)
    return lambda x: c * x ** (n - k)


def _monomial(n: int) -> TestFunction:
    """x^n on [0, 10], written once as its coefficients, with f, f'' and
    f'''' derived from them."""
    f, d2, d4 = (_power_derivative(n, k) for k in (0, 2, 4))
    return TestFunction(
        id=f"poly{n}", f=f, d2=d2, d4=d4, domain=Interval(0.0, 10.0),
        poly_coeffs=(Fraction(0),) * n + (Fraction(1),),
    )


def _exponential() -> TestFunction:
    def exact(a, b):
        return math.exp(b) - math.exp(a)

    return TestFunction(
        id="expx",
        f=np.exp,
        d2=np.exp,
        d4=np.exp,
        exact_integral=exact,
        domain=Interval(-20.0, 20.0),
    )


def _bump() -> TestFunction:
    c, w = _BUMP_CENTER, _BUMP_WIDTH

    def f(x):
        u = x - c
        return np.exp(-(u * u) / w)

    def d2(x):
        u = x - c
        return (4.0 * u * u / (w * w) - 2.0 / w) * np.exp(-(u * u) / w)

    def exact(a, b):
        s = math.sqrt(w)
        return 0.5 * math.sqrt(math.pi * w) * (
            math.erf((b - c) / s) - math.erf((a - c) / s)
        )

    # Narrow validity window: the fourth derivative peaks near 1.2e7, so the
    # relative finite-difference contract on d2 needs a small step size.
    return TestFunction(
        id="bump",
        f=f,
        d2=d2,
        exact_integral=exact,
        domain=Interval(0.0, 1.0),
    )


def corpus_standard() -> tuple[TestFunction, ...]:
    """The compiled-in corpus: x^n for n in 2..5, the constant x^0, exp, and a
    narrow Gaussian bump that is not P-convex around its peak."""
    return (
        *map(_monomial, range(2, 6)),
        replace(_monomial(0), id="const1", domain=Interval(-100.0, 100.0)),
        _exponential(),
        _bump(),
    )


_REGISTRY = {fn.id: fn for fn in corpus_standard()}


def function_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def get_function(fid: str) -> TestFunction:
    try:
        return _REGISTRY[fid]
    except KeyError:
        raise KeyError(
            f"unknown function id {fid!r}; known ids: {', '.join(_REGISTRY)}"
        ) from None
