"""Exact rational linear algebra: kernels, linear solves and determinants.

Every verdict produced by the analyzer ultimately reduces to a rank /
kernel / solvability question answered here, so all arithmetic is exact;
no floating point appears on any decision path.

One routine, `_rref`, answers all of them: a sparse, fraction-free
Gauss–Jordan elimination. Each row becomes a dict of its nonzero entries,
scaled to coprime integers; row operations touch only those entries and
strip the gcd of every row they produce. The reduced row echelon form is
unique, so the kernel basis, the canonical solutions and every report
built from them do not depend on how the elimination orders its pivots.
`kernel_basis`, `rref` and the two solvers read the reduced rows
directly. Bareiss `determinant` is separate: it gives the Sylvester
minors of small square forms.

Linear solves append their right-hand sides as extra columns and pivot
only in the matrix columns, so one elimination answers any number of
right-hand sides: `solve_in_span_coefficients` takes a sequence of them
and `solve_general` is the one-right-hand-side case.

`kernel_basis`, `solve_general` and `solve_in_span_coefficients` are
also the probes through which the benchmark (bench/tracer.py) times this
layer, so they stay module-level functions under these names.
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


def matrix_from_columns(columns: Sequence[Vector], rows: Optional[int] = None) -> Matrix:
    if columns:
        rows = len(columns[0])
    elif rows is None:
        raise DimensionError("empty column list needs an explicit row count")
    return Matrix(rows, len(columns),
                  tuple(tuple(col[i] for col in columns) for i in range(rows)))


def _primitive_row(row: dict[int, int]) -> dict[int, int]:
    # divide out the gcd of the entries; row scaling never changes the
    # rank, the kernel or which right-hand sides are solvable
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _rref(
    entries: Sequence[Vector], cols: int
) -> tuple[list[dict[int, int]], list[int], list[dict[int, int]]]:
    """Sparse fraction-free Gauss–Jordan elimination.

    Each row is a {column: int} dict of its nonzero entries, scaled to
    coprime integers from the entries' numerators and denominators.
    Pivots are chosen only in the first `cols` columns, in column order,
    from the first remaining row with an entry in that column; that
    entry is cleared from every other row, so any further columns
    (right-hand sides) are carried along. Rows that cancel to zero are
    dropped.

    Returns the pivot rows, row i having its pivot in column pivots[i]
    (dividing it by that entry gives row i of the reduced row echelon
    form), and the rows left over, whose entries all lie past `cols`.
    The reduced row echelon form is unique, so nothing read from these
    rows depends on the pivoting order.
    """
    rest = []
    for row in entries:
        nonzero = [(j, f) for j, f in enumerate(row) if f]
        if nonzero:
            mult = lcm(*(f.denominator for _, f in nonzero))
            rest.append(_primitive_row(
                {j: f.numerator * (mult // f.denominator) for j, f in nonzero}))
    reduced: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(cols):
        k = next((i for i, row in enumerate(rest) if c in row), None)
        if k is None:
            continue
        pivot = rest.pop(k)
        p = pivot[c]
        for rows in (reduced, rest):
            for i, row in enumerate(rows):
                f = row.get(c)
                if f is None:
                    continue
                # p·row − f·pivot, with the common factor of p and f removed
                g = gcd(p, f)
                a, b = p // g, f // g
                out = {j: a * v for j, v in row.items()}
                for j, v in pivot.items():
                    w = out.get(j, 0) - b * v
                    if w:
                        out[j] = w
                    else:
                        del out[j]
                rows[i] = _primitive_row(out)
        rest = [row for row in rest if row]
        reduced.append(pivot)
        pivots.append(c)
        if not rest:
            break
    return reduced, pivots, rest


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form of M and its pivot columns."""
    reduced, pivots, _ = _rref(m.entries, m.cols)
    rows = []
    for row, pc in zip(reduced, pivots):
        dense = [Fraction(0)] * m.cols
        for j, v in row.items():
            dense[j] = Fraction(v, row[pc])
        rows.append(tuple(dense))
    rows += [zero_vector(m.cols)] * (m.rows - len(rows))
    return Matrix(m.rows, m.cols, tuple(rows)), tuple(pivots)


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


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of {X : MX = 0}, one vector per free column of the RREF.

    Vectors are ordered by free-column position and scaled to primitive
    integer form (positive in their free column); the list is empty
    exactly when the kernel is trivial.
    """
    reduced, pivots, _ = _rref(m.entries, m.cols)
    # the pivot rows' entries in each free column
    in_column: dict[int, list[tuple[int, int, int]]] = {}
    for row, pc in zip(reduced, pivots):
        for j, v in row.items():
            if j != pc:
                in_column.setdefault(j, []).append((pc, v, row[pc]))
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        entries = in_column.get(free, [])
        scale = lcm(*(p for _, _, p in entries))
        vec = [0] * m.cols
        vec[free] = scale
        for pc, v, p in entries:
            vec[pc] = -v * (scale // p)
        g = gcd(*vec)
        basis.append(tuple(Fraction(x // g) for x in vec))
    return basis


def _solve_columns(m: Matrix, vs: Sequence[Vector]) -> list[Optional[Vector]]:
    # one elimination of [M | v_1 ... v_P]; for each v the canonical
    # solution (zeros in the free positions) or None outside im M
    for v in vs:
        if len(v) != m.rows:
            raise DimensionError(f"matrix has {m.rows} rows, rhs has {len(v)}")
    augmented = tuple(row + tuple(v[i] for v in vs) for i, row in enumerate(m.entries))
    reduced, pivots, rest = _rref(augmented, m.cols)
    outside = {j for row in rest for j in row}
    out: list[Optional[Vector]] = []
    for col in range(m.cols, m.cols + len(vs)):
        if col in outside:
            out.append(None)
            continue
        solution = [Fraction(0)] * m.cols
        for row, pc in zip(reduced, pivots):
            v = row.get(col)
            if v is not None:
                solution[pc] = Fraction(v, row[pc])
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
