"""Exact rational linear algebra: ranks, kernels and linear solves.

Every verdict produced by the analyzer ultimately reduces to a rank /
kernel / solvability question answered here, so all arithmetic is exact
(`fractions.Fraction`); no floating point appears on any decision path.
Elimination is fraction-free (integer-preserving with gcd stripping) and
normalized to reduced row echelon form at the end, which bounds
intermediate coefficient blow-up without sacrificing exactness.

Linear solves append their right-hand sides as extra columns and pivot
only in the matrix columns, so one elimination answers any number of
right-hand sides: `solve_in_span_coefficients` takes a sequence of them
and `solve_general` is the one-right-hand-side case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]


class DimensionError(ValueError):
    """Operands with incompatible shapes."""


def scalar(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' / decimal-integer string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def format_scalar(x: Fraction) -> str:
    """Serialize as a decimal-integer string or 'p/q'; round-trips bit-exactly."""
    return str(x)


def vector(values: Iterable) -> Vector:
    return tuple(scalar(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def vec_add(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))

def vec_sub(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple(a - b for a, b in zip(x, y))

def vec_scale(c, x: Vector) -> Vector:
    c = scalar(c)
    return tuple(c * a for a in x)

def is_zero_vector(x: Vector) -> bool:
    return all(a == 0 for a in x)


@dataclass(frozen=True)
class Matrix:
    """Dense rectangular matrix of Fractions.

    `rows`/`cols` are stored explicitly so that degenerate shapes (zero
    rows or zero columns) stay well defined.
    """

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable], cols: Optional[int] = None) -> "Matrix":
        entries = tuple(vector(r) for r in rows)
        if entries:
            cols = len(entries[0])
        elif cols is None:
            raise DimensionError("empty matrix needs an explicit column count")
        return cls(len(entries), cols, entries)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def mul_vec(self, x: Vector) -> Vector:
        if len(x) != self.cols:
            raise DimensionError(f"matrix has {self.cols} columns, vector has {len(x)}")
        # zero entries are skipped: linearizations are mostly zeros
        return tuple(sum((a * xj for a, xj in zip(r, x) if a), Fraction(0))
                     for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.column(j) for j in range(self.cols)))

    def with_rows_permuted(self, order: Sequence[int]) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(self.entries[i] for i in order))


def matrix_from_columns(columns: Sequence[Vector], rows: Optional[int] = None) -> Matrix:
    if columns:
        rows = len(columns[0])
    elif rows is None:
        raise DimensionError("empty column list needs an explicit row count")
    return Matrix(rows, len(columns),
                  tuple(tuple(col[i] for col in columns) for i in range(rows)))


def _integer_rows(entries: Sequence[Vector]) -> list[list[int]]:
    # Clear denominators row by row; row scaling never changes rank,
    # kernel, or solvability.
    out = []
    for row in entries:
        mult = lcm(*(f.denominator for f in row)) if row else 1
        ints = [int(f * mult) for f in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _rref(entries: Sequence[Vector], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with deterministic pivoting.

    Pivots are chosen only in the first `cols` columns; row operations
    run over the whole row, so any further columns (right-hand sides)
    are carried along. Forward and backward elimination run on integer
    rows (fraction-free updates, gcd-stripped); pivot rows are divided
    out only at the end. Pivot choice is the first row with a nonzero
    entry in the scanned column, so the result is a pure function of the
    row order.
    """
    work = _integer_rows(entries)
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        p = work[r][c]
        for i in range(nrows):
            if i == r or work[i][c] == 0:
                continue
            f = work[i][c]
            row = [a * p - b * f for a, b in zip(work[i], work[r])]
            g = 0
            for v in row:
                g = gcd(g, v)
            if g > 1:
                row = [v // g for v in row]
            work[i] = row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    reduced: list[list[Fraction]] = []
    for i, row in enumerate(work):
        if i < len(pivots):
            p = row[pivots[i]]
            reduced.append([Fraction(v, p) for v in row])
        else:
            reduced.append([Fraction(v) for v in row])
    return reduced, pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    reduced, pivots = _rref(m.entries, m.cols)
    return Matrix(m.rows, m.cols, tuple(tuple(r) for r in reduced)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def determinant(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = []
    denom = Fraction(1)
    for row in m.entries:
        mult = lcm(*(f.denominator for f in row))
        denom *= mult
        a.append([int(f * mult) for f in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], 1) / denom


def _primitive(vec: Vector) -> Vector:
    # Scale a rational direction vector to coprime integers (sign kept).
    mult = lcm(*(f.denominator for f in vec)) if vec else 1
    ints = [int(f * mult) for f in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of {X : MX = 0}, one vector per free column of the RREF.

    Vectors are ordered by free-column position and scaled to primitive
    integer form; the list is empty exactly when the kernel is trivial.
    """
    reduced, pivots = _rref(m.entries, m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        basis.append(_primitive(tuple(vec)))
    return basis


def _solve_columns(m: Matrix, vs: Sequence[Vector]) -> list[Optional[Vector]]:
    # one elimination of [M | v_1 ... v_P]; for each v the canonical
    # solution (zeros in the free positions) or None outside im M
    for v in vs:
        if len(v) != m.rows:
            raise DimensionError(f"matrix has {m.rows} rows, rhs has {len(v)}")
    augmented = tuple(row + tuple(v[i] for v in vs) for i, row in enumerate(m.entries))
    reduced, pivots = _rref(augmented, m.cols)
    out: list[Optional[Vector]] = []
    for col in range(m.cols, m.cols + len(vs)):
        if any(row[col] != 0 for row in reduced[len(pivots):]):
            out.append(None)
            continue
        solution = [Fraction(0)] * m.cols
        for r, pc in enumerate(pivots):
            solution[pc] = reduced[r][col]
        out.append(tuple(solution))
    return out


def solve_general(m: Matrix, v: Vector) -> Optional[Vector]:
    """Solve MX = v exactly.

    Returns the canonical solution, with zeros in every free-variable
    position of the reduced echelon form, or None when v is outside the
    image of M.
    """
    return _solve_columns(m, [v])[0]


def solve_in_span_coefficients(
    m: Matrix, vs: Sequence[Vector], span: Sequence[Vector]
) -> list[Optional[tuple[Vector, Vector]]]:
    """For each right-hand side v, the coefficients c and the vector
    Y = sum c_i span_i with MY = v, or None when no such Y exists.

    M·span is computed once and all right-hand sides are solved in one
    elimination. The coefficients are the canonical solution over the
    span (free coordinates zero); span vectors need not be independent.
    """
    for s in span:
        if len(s) != m.cols:
            raise DimensionError("span vector length does not match matrix columns")
    images = matrix_from_columns([m.mul_vec(s) for s in span], rows=m.rows)
    out: list[Optional[tuple[Vector, Vector]]] = []
    for coeffs in _solve_columns(images, vs):
        if coeffs is None:
            out.append(None)
            continue
        combo = zero_vector(m.cols)
        for c, s in zip(coeffs, span):
            if c != 0:
                combo = vec_add(combo, vec_scale(c, s))
        out.append((coeffs, combo))
    return out
