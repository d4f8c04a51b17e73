"""Formal power-series machinery for candidate solution families.

A candidate family X(t) = Y0 + Y1 t + ... + Yq t^q is held as its
coefficient list. The products B(Yl, Y(p-l)) and images C Yp come from
the operators' memos, scaled (common, ints), and each sum of them is one
`ratlinalg._combine`: the recurrence C Yp = -sum_{l=1}^{p-1} B(Yl, Y(p-l))
goes to the solve scaled (`recurrence_rhs` is its Fraction view), and
exact residual-order measurement tests each order for zero in ints, with
no memo of its own. t = tau + a tau^e normalizes leading coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import ratlinalg
from .quadsys import BaseOperators
from .ratlinalg import (
    DimensionError,
    Scaled,
    Vector,
    _combine,
    _fractions,
    combination,
    is_zero_vector,
    vector,
    zero_vector,
)

INFINITE = math.inf


@dataclass(frozen=True)
class SeriesCoefficients:
    """Ordered coefficients Y0..Yq of a polynomial family in one parameter."""

    coeffs: tuple[Vector, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise DimensionError("series needs at least the constant coefficient")
        width = len(self.coeffs[0])
        if any(len(c) != width for c in self.coeffs):
            raise DimensionError("series coefficients must all have the same length")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def width(self) -> int:
        return len(self.coeffs[0])

    def coefficient(self, p: int) -> Vector:
        return self.coeffs[p]

    def appended(self, coeff: Vector) -> "SeriesCoefficients":
        return SeriesCoefficients(self.coeffs + (vector(coeff),))

    def is_constant(self) -> bool:
        return all(is_zero_vector(c) for c in self.coeffs[1:])


def _products(ops: BaseOperators, s: SeriesCoefficients, p: int) -> list[Scaled]:
    """B(Yl, Y(p-l)) for 1 <= l, p-l <= degree(s): the terms of the t^p part of F(Y(t)) without Y0."""
    return [ops._product(s.coefficient(l), s.coefficient(p - l))
            for l in range(max(1, p - s.degree), min(p - 1, s.degree) + 1)]


def _recurrence_sum(ops: BaseOperators, s: SeriesCoefficients, p: int) -> Scaled:
    products = _products(ops, s, p)
    return _combine((-1,) * len(products), products, ops.system.n)


def recurrence_rhs(ops: BaseOperators, s: SeriesCoefficients, p: int) -> Vector:
    """-sum_{l=1}^{p-1} B(Yl, Y(p-l)), the right-hand side for coefficient p.

    The base coefficient Y0 never enters the sum; for p = 1 the sum is
    empty and the result is zero.
    """
    if p < 1 or p > s.degree + 1:
        raise DimensionError(f"coefficient index {p} out of range for degree {s.degree}")
    return _fractions(_recurrence_sum(ops, s, p))


def extend_step(ops: BaseOperators, s: SeriesCoefficients) -> Optional[Vector]:
    """Canonical next coefficient Y(q+1) with C Y(q+1) equal to the
    recurrence right-hand side, or None if no such vector exists.
    Appending a returned vector preserves approximate-solution status at
    degree q+1. The scaled sum is solved on the operators' one elimination of C."""
    return ops.solve(_recurrence_sum(ops, s, s.degree + 1))


def extend_to(ops: BaseOperators, s: SeriesCoefficients, degree: int) -> SeriesCoefficients:
    """Append canonical coefficients by `extend_step` until the series
    has degree `degree` or a step is unsolvable; a result of lower degree
    than `degree` stalled at the order after its own."""
    while s.degree < degree:
        nxt = extend_step(ops, s)
        if nxt is None:
            break
        s = s.appended(nxt)
    return s


def _vanishes(ops: BaseOperators, s: SeriesCoefficients, p: int) -> bool:
    """Whether the t^p coefficient of F(Y(t)) is zero, for p >= 1 and
    Y0 the base point of the operators: C Yp (for p <= degree(s), from
    the operators' image memo), which is A(Yp) + 2 B(Y0, Yp), plus the
    products of the recurrence: an int zero test of the scaled terms'
    `ratlinalg._combine`, which builds no Fraction. It reads Y1..Yp alone."""
    terms = _products(ops, s, p)
    if p <= s.degree:
        terms.append(ops._image(s.coefficient(p)))
    return not any(_combine((1,) * len(terms), terms, ops.system.n)[1])


def residual_order(ops: BaseOperators, s: SeriesCoefficients):
    """Smallest p >= 1 with a nonzero t^p coefficient in F(Y(t)), or
    INFINITE when the whole expansion vanishes (an exact polynomial
    solution). Y0 must be the base point of the operators. Orders are
    tested one at a time by `_vanishes` up to the first nonzero
    coefficient; a degree-q family gives no terms beyond t^(2q)."""
    if s.coefficient(0) != ops.base_point:
        raise DimensionError("series base coefficient is not the base point of the operators")
    return next((p for p in range(1, 2 * s.degree + 1) if not _vanishes(ops, s, p)), INFINITE)


def reparameterize(
    s: SeriesCoefficients, a, e: int, out_degree: int
) -> SeriesCoefficients:
    """Coefficients of X(tau + a tau^e) up to out_degree.

    Horner's rule from the top coefficient down: out <- out*u + Xp, where
    multiplying by u = tau + a tau^e is a shift by one plus a times a
    shift by e, truncated at out_degree.

    For e >= 2 the constant and linear coefficients are unchanged; for
    e = 2 the next ones satisfy Y2 = X2 + a X1 and Y3 = X3 + 2 a X2.
    """
    if e < 2:
        raise DimensionError("reparameterization exponent must be at least 2")
    a = ratlinalg.scalar(a)
    out = [zero_vector(s.width)] * (out_degree + 1)
    for xp in reversed(s.coeffs):
        shifted = ([xp] + out)[: out_degree + 1]  # out*tau + Xp, truncated
        out = [combination((1, a), (y, out[i - e]), s.width) if i >= e else y
               for i, y in enumerate(shifted)]
    return SeriesCoefficients(tuple(out))
