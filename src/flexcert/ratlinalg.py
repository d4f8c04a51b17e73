"""Exact rational linear algebra: kernels, linear solves and determinants.

Every verdict produced by the analyzer ultimately reduces to a rank /
kernel / solvability question answered here, so all arithmetic is exact;
no floating point appears on any decision path.

Sums are taken in int arithmetic. `_integers` is the one step that
scales a vector to integers over its least common denominator.
`combination` is the one linear combination sum c_i v_i of vectors;
every such sum in the package goes through it. It scales each term
once, sums the integers over the lcm of the terms' denominators and
builds one Fraction per entry.

A `Matrix` stores only its nonzero entries, row by row, and every
operation on it (products, transposes, eliminations) touches only those.
`mul_vec` sums each row as ints over the common denominators of the row
and of the vector, and builds one Fraction per entry. `mul_vec` and
`_rref` scale their (column, value) rows inline: through `_integers`, the
extra call and list per row made those loops 20-40% slower.

One routine, `_rref`, answers every kernel and solve question: a sparse,
fraction-free Gauss–Jordan elimination. It scales each row to coprime
integers in a {column: int} dict; row operations touch only the stored
entries and strip the gcd of every row they produce. The reduced row
echelon form is unique, so the kernel basis, the canonical solutions and
every report built from them do not depend on how the elimination orders
its pivots. `kernel_basis`, `eliminate` and `solve_in_span_coefficients`
read the reduced rows directly. Bareiss `determinant` is separate: it
gives the Sylvester minors of small square forms from the dense view of
a matrix.

Solves against one matrix M many times over (the series recurrence
solves against the linearization C at every order) share one
elimination: `eliminate(M)` reduces [M | I] once, pivoting only in M's
columns, and records each reduced row [R | E], for which E·M = R.
`solve_general(record, v)` then needs one `_integers(v)` and int dot
products: v is in im M exactly when E·v = 0 for every row without a
pivot (the Farkas functionals), and the canonical solution has E·v
divided by R's pivot entry in each pivot column and 0 in every free
column. It builds no Fraction when v is outside the image. The analysis
keeps the record on its operators, so it eliminates C for its solves
once.

`solve_in_span_coefficients` solves a batch of right-hand sides inside a
span: it appends them as extra columns to the images M·span_i, which the
caller passes in (the analysis keeps them in its operators' memo, so
each is computed once), and eliminates that small matrix once, pivoting
only in the image columns. A batch is all or nothing: the canonical
solutions of every right-hand side, or None, with no solution vector
built, as soon as one of them is outside the span's image.

`kernel_basis`, `solve_general` and `solve_in_span_coefficients` are
also the probes through which the benchmark (bench/tracer.py) times this
layer, so they stay module-level functions under these names; a
`solve_general` call is one solve against a recorded elimination, and
`eliminate` is traced as a span of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

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


def is_zero_vector(x: Vector) -> bool:
    return all(a == 0 for a in x)


def _integers(x: Sequence) -> tuple[int, list[int]]:
    # x over its least common denominator d: (d, [d * x_i]), each an int
    d = lcm(*(v.denominator for v in x))
    return d, [v.numerator * (d // v.denominator) for v in x]


def combination(coeffs: Sequence, vectors: Sequence[Vector], n: int) -> Vector:
    """sum c_i v_i as a vector of length n, for int or Fraction c_i.

    Zero coefficients are skipped; a vector whose length is not n raises
    DimensionError when its coefficient is nonzero. Each c_i v_i is
    scaled once to integers, the terms are summed in int arithmetic over
    the lcm of their denominators, and each entry builds one Fraction.
    """
    terms = []
    for c, v in zip(coeffs, vectors):
        if c:
            if len(v) != n:
                raise DimensionError(f"vector has {len(v)} entries, expected {n}")
            d, xs = _integers(v)
            terms.append((c.numerator, c.denominator * d, xs))
    if not terms:
        return zero_vector(n)
    common = lcm(*(d for _, d, _ in terms))
    total = [0] * n
    for c, d, xs in terms:
        scale = c * (common // d)
        total = [t + scale * x for t, x in zip(total, xs)]
    return tuple(Fraction(t, common) for t in total)


Row = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class Matrix:
    """Sparse rectangular matrix of Fractions.

    Row i is stored as `nonzeros[i]`: its (column, value) pairs in
    increasing column order, without zero values. The form is canonical,
    so equal matrices compare equal, and products, transposes and
    eliminations cost O(nnz). `rows`/`cols` are stored explicitly so that
    degenerate shapes (zero rows or zero columns) stay well defined.

    `from_rows` builds a matrix from dense rows; `entries` and `row(i)`
    are dense views for display, tests and `determinant`.
    """

    rows: int
    cols: int
    nonzeros: tuple[Row, ...]

    def __post_init__(self):
        if len(self.nonzeros) != self.rows:
            raise DimensionError("row count does not match stored rows")
        for row in self.nonzeros:
            last = -1
            for j, v in row:
                if not last < j < self.cols:
                    raise DimensionError(
                        f"column {j} repeated, out of order or outside 0..{self.cols - 1}")
                if not v:
                    raise ValueError(f"zero value stored in column {j}")
                last = j

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable], cols: Optional[int] = None) -> "Matrix":
        dense = [vector(r) for r in rows]
        if dense:
            cols = len(dense[0])
        elif cols is None:
            raise DimensionError("empty matrix needs an explicit column count")
        if any(len(r) != cols for r in dense):
            raise DimensionError("ragged matrix rows")
        return cls(len(dense), cols,
                   tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in dense))

    @property
    def entries(self) -> tuple[Vector, ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def row(self, i: int) -> Vector:
        dense = [Fraction(0)] * self.cols
        for j, v in self.nonzeros[i]:
            dense[j] = v
        return tuple(dense)

    def mul_vec(self, x: Vector) -> Vector:
        """M·x. x is scaled once to integers over its common denominator,
        and each row's values to integers over theirs, so every entry is
        summed in int arithmetic and builds one Fraction."""
        if len(x) != self.cols:
            raise DimensionError(f"matrix has {self.cols} columns, vector has {len(x)}")
        d, xs = _integers(x)
        out = []
        for row in self.nonzeros:
            scale = lcm(*(v.denominator for _, v in row))
            total = 0
            for j, v in row:
                total += v.numerator * (scale // v.denominator) * xs[j]
            out.append(Fraction(total, scale * d))
        return tuple(out)

    def transpose(self) -> "Matrix":
        columns: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, v in row:
                columns[j].append((i, v))
        return Matrix(self.cols, self.rows, tuple(map(tuple, columns)))


def matrix_from_columns(columns: Sequence[Vector], rows: Optional[int] = None) -> Matrix:
    if columns:
        rows = len(columns[0])
    elif rows is None:
        raise DimensionError("empty column list needs an explicit row count")
    out: list[list[tuple[int, Fraction]]] = [[] for _ in range(rows)]
    for j, col in enumerate(columns):
        if len(col) != rows:
            raise DimensionError("ragged matrix columns")
        for i, x in enumerate(col):
            if x:
                out[i].append((j, x))
    return Matrix(rows, len(columns), tuple(map(tuple, out)))


def _primitive_row(row: dict[int, int]) -> dict[int, int]:
    # divide out the gcd of the entries; row scaling never changes the
    # rank, the kernel or which right-hand sides are solvable
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _rref(
    nonzeros: Iterable[Sequence[tuple[int, Fraction]]], cols: int
) -> tuple[list[dict[int, int]], list[int], list[dict[int, int]]]:
    """Sparse fraction-free Gauss–Jordan elimination.

    Takes rows as (column, nonzero value) pairs and makes each a
    {column: int} dict, scaled to coprime integers from the values'
    numerators and denominators. Pivots are chosen only in the first
    `cols` columns, in column order, from the first remaining row with an
    entry in that column; that entry is cleared from every other row, so
    any further columns (right-hand sides, or the identity block of
    `eliminate`) are carried along. Rows that cancel to zero are dropped.

    Returns the pivot rows, row i having its pivot in column pivots[i]
    (dividing it by that entry gives row i of the reduced row echelon
    form), and the rows left over, whose entries all lie past `cols`.
    The reduced row echelon form is unique, so nothing read from these
    rows depends on the pivoting order.
    """
    rest = []
    for row in nonzeros:
        if row:
            mult = lcm(*(f.denominator for _, f in row))
            rest.append(_primitive_row(
                {j: f.numerator * (mult // f.denominator) for j, f in row}))
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


def determinant(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = []
    denom = 1
    for row in m.entries:
        mult, ints = _integers(row)
        denom *= mult
        a.append(ints)
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
    return Fraction(sign * a[n - 1][n - 1], denom)


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of {X : MX = 0}, one vector per free column of the RREF.

    Vectors are ordered by free-column position and scaled to primitive
    integer form (positive in their free column); the list is empty
    exactly when the kernel is trivial.
    """
    reduced, pivots, _ = _rref(m.nonzeros, m.cols)
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


class Elimination(NamedTuple):
    """The reduced row echelon form of [M | I] for an n x m matrix M, as
    `eliminate` records it for `solve_general`.

    Every row of it is [R | E] with E·M = R. `pivots` holds, for each
    row with a pivot in M's columns, the pivot column, the pivot entry
    and E, the row scaled to integers; `checks` holds E for each row with
    no entry in M's columns (R = 0): these are the Farkas functionals,
    and v is in im M exactly when each of them vanishes on v. E is stored
    as (row index, int) pairs without zeros.

    A NamedTuple rather than a frozen dataclass: building the dataclass
    took about 1 ms on every fresh import of the package.
    """

    rows: int
    cols: int
    pivots: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    checks: tuple[tuple[tuple[int, int], ...], ...]


def eliminate(m: Matrix) -> Elimination:
    """One elimination of [M | I], which answers every later
    `solve_general` against M without eliminating M again."""
    augmented = [row + ((m.cols + i, 1),) for i, row in enumerate(m.nonzeros)]
    reduced, pivots, rest = _rref(augmented, m.cols)

    def functional(row: dict[int, int]) -> tuple[tuple[int, int], ...]:
        return tuple((j - m.cols, v) for j, v in row.items() if j >= m.cols)

    return Elimination(
        m.rows, m.cols,
        tuple((pc, row[pc], functional(row)) for row, pc in zip(reduced, pivots)),
        tuple(functional(row) for row in rest))


def solve_general(e: Elimination, v: Vector) -> Optional[Vector]:
    """Solve MX = v exactly, for the matrix M that `e` eliminates.

    Returns the canonical solution, with zeros in every free-variable
    position of the reduced echelon form, or None when v is outside the
    image of M. v is scaled once to integers; None comes from int dot
    products alone, and a solution builds one Fraction per nonzero entry.
    """
    if len(v) != e.rows:
        raise DimensionError(f"matrix has {e.rows} rows, rhs has {len(v)}")
    d, xs = _integers(v)
    for functional in e.checks:
        total = 0
        for i, a in functional:
            total += a * xs[i]
        if total:
            return None
    solution = [Fraction(0)] * e.cols
    for pc, p, functional in e.pivots:
        total = 0
        for i, a in functional:
            total += a * xs[i]
        if total:
            solution[pc] = Fraction(total, p * d)
    return tuple(solution)


def solve_in_span_coefficients(
    m: Matrix, vs: Sequence[Vector], span: Sequence[Vector], images: Sequence[Vector]
) -> Optional[list[tuple[Vector, Vector]]]:
    """For each right-hand side v, the coefficients c and the vector
    Y = sum c_i span_i with MY = v; None for the whole batch as soon as
    one v has no such Y.

    images[i] is M·span[i], supplied by the caller: the analysis reads
    each from its operators' memo, so it is computed once however many
    checks share the span vector. All right-hand sides are solved in one
    elimination of the matrix with columns images[i]. The coefficients
    are the canonical solution over the span (free coordinates zero);
    span vectors need not be independent.
    """
    if len(images) != len(span):
        raise DimensionError("one image is needed per span vector")
    for s, image in zip(span, images):
        if len(s) != m.cols or len(image) != m.rows:
            raise DimensionError("span vector or image length does not match the matrix")
    for v in vs:
        if len(v) != m.rows:
            raise DimensionError(f"matrix has {m.rows} rows, rhs has {len(v)}")
    # one elimination of [M·span | v_1 ... v_P]; a leftover row holding a
    # right-hand side means that v is outside M·span
    k = len(span)
    augmented = [row + tuple((k + t, v[i]) for t, v in enumerate(vs) if v[i])
                 for i, row in enumerate(matrix_from_columns(images, rows=m.rows).nonzeros)]
    reduced, pivots, rest = _rref(augmented, k)
    if rest:
        return None
    out = []
    for col in range(k, k + len(vs)):
        coeffs = [Fraction(0)] * k
        for row, pc in zip(reduced, pivots):
            v = row.get(col)
            if v is not None:
                coeffs[pc] = Fraction(v, row[pc])
        coeffs = tuple(coeffs)
        out.append((coeffs, combination(coeffs, span, m.cols)))
    return out
