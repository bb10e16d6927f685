"""High-precision reference integration.

Two independent integration routes are provided:

* :func:`integrate` -- adaptive Gauss-Kronrod quadrature (7-point Gauss rule
  embedded in a 15-point Kronrod rule) with a QUADPACK-style per-panel error
  model.  This is the numerical ground truth used to judge inequality claims.
* :func:`integrate_exact_poly` -- exact antiderivative evaluation for
  polynomials in rational arithmetic.  No rounding occurs, which is what the
  equality-case checks rely on.

Both routes are pure functions of their inputs and safe to call concurrently.

Every array evaluation of a function in the package goes through
:func:`_sample`: one call on the whole array, else one call per point with
NaN where the function raises.  :func:`integrate` turns any non-finite
sample into :class:`EvaluationError`, the P-convexity check into its
'undefined' status, and the campaign's derivative envelope into an
'undefined' record.  The point values the float sides read, f(a), f(m),
f(b), f''(a) and f''(b), go through :func:`_value_at`, which turns an
exception the function raises into :class:`EvaluationError`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

__all__ = [
    "QuadratureResult",
    "OracleError",
    "EvaluationError",
    "ConvergenceError",
    "integrate",
    "integrate_exact_poly",
    "poly_eval_exact",
    "poly_derivative_coeffs",
    "to_mpf",
]

_EPS = np.finfo(float).eps

# 15-point Kronrod abscissae (positive half, descending) with the embedded
# 7-point Gauss rule on the odd-indexed nodes.  Standard published values.
_XGK_HALF = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
    ]
)
_WGK_HALF = np.array(
    [
        0.02293532201052922,
        0.06309209262997855,
        0.10479001032225018,
        0.14065325971552592,
        0.16900472663926790,
        0.19035057806478559,
        0.20443294007529889,
    ]
)
_WGK_CENTER = 0.20948214108472783
_WG_HALF = np.array(
    [
        0.12948496616886969,
        0.27970539148927664,
        0.38183005050511894,
    ]
)
_WG_CENTER = 0.41795918367346939

# Full 15-node layout in ascending order of abscissa.
_NODES = np.concatenate((-_XGK_HALF, [0.0], _XGK_HALF[::-1]))
_WGK = np.concatenate((_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]))
_WG = np.zeros(15)
_WG[[1, 3, 5]] = _WG_HALF
_WG[7] = _WG_CENTER
_WG[[9, 11, 13]] = _WG_HALF[::-1]


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with a rigorous (conservative) error estimate.

    ``subdivisions`` counts the panel splits performed by the adaptive loop;
    0 means the initial partition already met the tolerance.
    """

    value: float
    err_estimate: float
    subdivisions: int

    def __post_init__(self) -> None:
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be nonnegative")


class OracleError(Exception):
    """Base class for integration failures."""


class EvaluationError(OracleError):
    """The integrand produced a non-finite value or raised."""


class ConvergenceError(OracleError):
    """The subdivision budget was exhausted before reaching tolerance.

    Carries the best available partial result in ``partial``.
    """

    def __init__(self, message: str, partial: QuadratureResult):
        super().__init__(message)
        self.partial = partial


def _bounds_of(domain) -> tuple[float, float]:
    if hasattr(domain, "lo"):
        return float(domain.lo), float(domain.hi)
    lo, hi = domain
    return float(lo), float(hi)


def _sample(g: Callable, x: np.ndarray) -> np.ndarray:
    """g at every point of the array ``x``, as floats of its shape.

    g is called once on the whole array.  If that raises or gives another
    shape, it is called at one point at a time, and a point where g raises
    gets NaN, so a caller decides what a non-finite sample means.
    """
    try:
        y = np.asarray(g(x), dtype=float)
        if y.shape == x.shape:
            return y
    except Exception:  # noqa: BLE001 - retried point by point below
        pass
    flat = np.empty(x.size)
    for i, xi in enumerate(x.ravel()):
        try:
            flat[i] = float(g(float(xi)))
        except Exception:  # noqa: BLE001 - a failing point is NaN
            flat[i] = math.nan
    return flat.reshape(x.shape)


def _value_at(g: Callable, x) -> float:
    """float(g(x)) at one point; an exception raised by g becomes
    :class:`EvaluationError`."""
    try:
        return float(g(x))
    except Exception as exc:  # noqa: BLE001 - report as oracle failure
        raise EvaluationError(f"function raised {exc!r} at x={x!r}") from exc


def _panel_estimates(
    g: Callable[[float], float], edges: Sequence[tuple[float, float]]
) -> list[tuple[float, float, float]]:
    """Return (kronrod, err, resabs) for each panel in ``edges``.

    The error model follows QUADPACK: the raw |K15 - G7| difference is
    rescaled by the variation of the integrand on the panel and floored at
    the rounding level of the absolute integral.
    """
    a = np.array([e[0] for e in edges])
    b = np.array([e[1] for e in edges])
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[:, None] + h[:, None] * _NODES[None, :]
    vals = _sample(g, x.ravel()).reshape(x.shape)
    if not np.all(np.isfinite(vals)):
        bad = x[~np.isfinite(vals)][0]
        raise EvaluationError(f"integrand non-finite or raised at x={bad!r}")

    k15 = h * (vals @ _WGK)
    g7 = h * (vals @ _WG)
    resabs = h * (np.abs(vals) @ _WGK)
    mean = k15 / (b - a)
    resasc = h * (np.abs(vals - mean[:, None]) @ _WGK)

    raw = np.abs(k15 - g7)
    err = raw.copy()
    mask = (resasc > 0.0) & (raw > 0.0)
    err[mask] = resasc[mask] * np.minimum(
        1.0, (200.0 * raw[mask] / resasc[mask]) ** 1.5
    )
    err = np.maximum(err, 50.0 * _EPS * resabs)
    err[resabs == 0.0] = raw[resabs == 0.0]
    return list(zip(k15.tolist(), err.tolist(), resabs.tolist()))


def integrate(
    g: Callable[[float], float],
    domain,
    tol: float = 1e-12,
    *,
    max_subdivisions: int = 1_000_000,
    initial_panels: int = 8,
) -> QuadratureResult:
    """Adaptively integrate ``g`` over ``domain`` to absolute tolerance ``tol``.

    ``domain`` may be an :class:`~hhbounds.corpus.Interval` or an (lo, hi)
    pair.  The routine starts from a uniform partition (so narrow features
    inside a wide domain are still noticed), then repeatedly bisects the
    panel with the largest error estimate.  Refinement stops once the summed
    estimate drops below ``tol`` or below the rounding floor of the integral,
    whichever is larger; the reported estimate stays honest either way.

    Raises :class:`EvaluationError` for non-finite integrand values and
    :class:`ConvergenceError` (carrying the partial result) if the
    subdivision budget is exhausted.
    """
    lo, hi = _bounds_of(domain)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid integration domain [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError("tol must be positive")

    edges = np.linspace(lo, hi, initial_panels + 1)
    panels = _panel_estimates(g, list(zip(edges[:-1], edges[1:])))

    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    total_err = 0.0
    total_resabs = 0.0
    for (k, err, resabs), (pa, pb) in zip(panels, zip(edges[:-1], edges[1:])):
        heapq.heappush(heap, (-err, seq, pa, pb, k, resabs))
        seq += 1
        total_err += err
        total_resabs += resabs

    # The rounding floor must sit above the sum of per-panel floors
    # (50 eps resabs each), or refinement could never terminate once the
    # achievable accuracy is rounding-limited.
    splits = 0
    while total_err > max(tol, 200.0 * _EPS * total_resabs):
        if splits >= max_subdivisions:
            partial = _collect(heap, splits)
            raise ConvergenceError(
                f"no convergence within {max_subdivisions} subdivisions "
                f"(err={partial.err_estimate:.3e}, tol={tol:.3e})",
                partial,
            )
        neg_err, _, pa, pb, k, resabs = heapq.heappop(heap)
        total_err += neg_err  # neg_err is -err
        total_resabs -= resabs
        mid = 0.5 * (pa + pb)
        for (ck, cerr, cresabs), (ca, cb) in zip(
            _panel_estimates(g, [(pa, mid), (mid, pb)]), [(pa, mid), (mid, pb)]
        ):
            heapq.heappush(heap, (-cerr, seq, ca, cb, ck, cresabs))
            seq += 1
            total_err += cerr
            total_resabs += cresabs
        splits += 1

    return _collect(heap, splits)


def _collect(heap, splits: int) -> QuadratureResult:
    # Sum panels in positional order for a reproducible, accurate total.
    ordered = sorted(heap, key=lambda item: item[2])
    value = math.fsum(item[4] for item in ordered)
    err = math.fsum(-item[0] for item in ordered)
    return QuadratureResult(value=value, err_estimate=err, subdivisions=splits)


# ---------------------------------------------------------------------------
# Exact rational arithmetic for polynomials
# ---------------------------------------------------------------------------


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _integer_ratio(x) -> tuple[int, int]:
    """``x`` as (numerator, denominator); a float without a Fraction."""
    return x.as_integer_ratio() if type(x) is float else _as_fraction(x).as_integer_ratio()


def to_mpf(x):
    """An exact rational (or float/int) as the mpf nearest to it at the
    working precision: one correctly rounded division."""
    n, d = _integer_ratio(x)
    return mp.make_mpf(from_rational(n, d, mp.prec, round_nearest))


def poly_eval_exact(coeffs: Sequence, x) -> Fraction:
    """Evaluate a polynomial (ascending coefficients) at a rational point."""
    return _terms_at(_poly_terms(coeffs), x)


def _poly_terms(coeffs: Sequence) -> tuple[tuple[int, Fraction], ...]:
    """The nonzero terms (k, c_k) of a polynomial given by ascending
    coefficients, each c_k exact: an int where it is integral, else a
    Fraction.  Evaluated term by term, x^n takes one power where Horner's
    rule takes n steps."""
    cs = ((k, _as_fraction(c)) for k, c in enumerate(coeffs) if c)
    return tuple((k, c.numerator if c.denominator == 1 else c) for k, c in cs)


def _terms_at(terms, x) -> Fraction:
    """The polynomial with nonzero ``terms`` (see :func:`_poly_terms`) at a
    rational point."""
    xf = _as_fraction(x)
    return _sum([xf**k if c == 1 else c * xf**k for k, c in terms])


def _sum(values: list) -> Fraction:
    """The sum of Fraction ``values``, without first adding them to 0."""
    return sum(values[1:], values[0]) if values else Fraction(0)


def poly_derivative_coeffs(coeffs: Sequence, order: int = 1) -> tuple[Fraction, ...]:
    """Ascending coefficients of the ``order``-th derivative."""
    cs = [_as_fraction(c) for c in coeffs]
    for _ in range(order):
        cs = [k * c for k, c in enumerate(cs)][1:]
        if not cs:
            cs = [Fraction(0)]
    return tuple(cs)


def integrate_exact_poly(coeffs: Sequence, domain) -> Fraction:
    """Exact integral of a polynomial over ``domain`` in rational arithmetic.

    ``coeffs`` are ascending (constant term first) and may be ints, Fractions
    or floats (floats convert exactly to their binary rational value).
    """
    cs = list(coeffs)
    if not cs:
        raise ValueError("coefficient list must be nonempty")
    lo, hi = (domain.lo, domain.hi) if hasattr(domain, "lo") else (domain[0], domain[1])
    return _terms_integral(_poly_terms(cs), lo, hi)


def _terms_integral(terms, lo, hi, average: bool = False) -> Fraction:
    """Exact integral over [lo, hi] of the polynomial with nonzero
    ``terms`` (see :func:`_poly_terms`); with ``average``, that integral
    over hi - lo."""
    return Fraction(*_terms_integral_ratio(terms, lo, hi, average))


def _terms_integral_ratio(terms, lo, hi, average: bool = False) -> tuple[int, int]:
    """:func:`_terms_integral` as one integer ratio (numerator,
    denominator), not reduced; ``n / d`` is its correctly rounded float."""
    if not terms:
        return 0, 1
    # Over a common denominator d, lo = a/d and hi = b/d, and the term
    # c x^k = (p/q) x^k integrates to p (b^(k+1) - a^(k+1)) / (q (k+1) d^(k+1)).
    # All terms go over w d^top L, with w = b - a for an average (else d),
    # top the highest power and L the lcm of the q (k+1).
    (a, lo_den), (b, hi_den) = _integer_ratio(lo), _integer_ratio(hi)
    d = math.lcm(lo_den, hi_den)
    a, b = a * (d // lo_den), b * (d // hi_den)
    top = terms[-1][0]
    dens = [(k + 1) * (c.denominator if type(c) is Fraction else 1) for k, c in terms]
    lcm = math.lcm(*dens)
    num = 0
    for (k, c), den in zip(terms, dens):
        p = c.numerator if type(c) is Fraction else c
        num += p * (b ** (k + 1) - a ** (k + 1)) * d ** (top - k) * (lcm // den)
    return num, (b - a if average else d) * d**top * lcm
