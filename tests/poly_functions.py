"""Test functions for the search screen's error bounds: polynomials whose
f, f', f'' and f'''' are evaluated by Horner's rule, as the contract of
:class:`~hhbounds.corpus.TestFunction` asks of a function with
``poly_coeffs``, and functions whose array evaluation rounds differently."""

import dataclasses
from fractions import Fraction

import numpy as np

from hhbounds.corpus import Interval, TestFunction
from hhbounds.oracle import poly_derivative_coeffs


def horner_function(fid: str, coeffs, domain: Interval) -> TestFunction:
    """The polynomial with ascending ``coeffs``: each derivative is Horner's
    rule on the floats of its coefficients, on a float or an array."""

    def horner(order):
        cs = [float(c) for c in reversed(poly_derivative_coeffs(coeffs, order))]
        return lambda x: np.polyval(cs, x)

    return TestFunction(
        id=fid, f=horner(0), d1=horner(1), d2=horner(2), d4=horner(4),
        domain=domain, poly_coeffs=tuple(map(Fraction, coeffs)),
    )


def array_shifted(fn: TestFunction) -> TestFunction:
    """``fn`` with f'' and f'''' scaled by 1 - 4 ulps where they are called
    on an array, as a vectorized evaluation may round differently."""

    def shift(g):
        def h(x):
            y = g(x)
            return y * (1.0 - 2.0**-50) if np.ndim(x) else y

        return h

    return dataclasses.replace(
        fn, id=f"{fn.id}-shifted", d2=shift(fn.d2), d4=fn.d4 and shift(fn.d4)
    )


def at_contract_edge(fn: TestFunction) -> TestFunction:
    """The polynomial ``fn`` with f, f'' and f'''' moved by 0.9 of the
    rounding that the contract of :class:`~hhbounds.corpus.TestFunction`
    allows, (n + 1) 2^-52 |p^(k)|(|x|) with |p^(k)| the k-th derivative's
    coefficients taken absolutely: up at a float, down on an array."""
    scale = 0.9 * len(fn.poly_coeffs) * 2.0**-52

    def moved(g, order):
        cs = [abs(float(c)) for c in reversed(poly_derivative_coeffs(fn.poly_coeffs, order))]

        def h(x):
            slack = scale * np.polyval(cs, np.abs(x))
            return g(x) - slack if np.ndim(x) else float(g(x) + slack)

        return h

    return dataclasses.replace(
        fn, id=f"{fn.id}-edge", f=moved(fn.f, 0), d2=moved(fn.d2, 2), d4=moved(fn.d4, 4)
    )


# f = x^2/2 + 2x^3/3 - x^4/3: on [0, 1], f'' = 1 + 4x(1 - x) takes values in
# [1, 2], so |f''| is a P-function there, and the stated constants of
# theorem 6 and corollaries 1 and 2 fail at q = 1.
QUARTIC = horner_function(
    "quartic", (0, 0, Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3)), Interval(-10.0, 10.0)
)

# (x - 3)^5 in expanded form: near x = 3 every derivative up to f'''' is a
# sum of large terms that cancel.
SHIFTED_QUINTIC = horner_function(
    "quintic3", (-243, 405, -270, 90, -15, 1), Interval(-10.0, 10.0)
)
