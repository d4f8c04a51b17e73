"""Exact rational linear algebra: kernels, linear solves and determinants.

Every verdict produced by the analyzer ultimately reduces to a rank /
kernel / solvability question answered here, so all arithmetic is exact;
no floating point appears on any decision path.

Inside the analysis a vector has one form, scaled: (common, ints), the
vector ints / common. `_integers` scales a Fraction vector over its least
common denominator, `_fractions` builds the Fraction view wherever a
vector becomes a series coefficient, a certificate field or a public
result, and `_combine` is the one linear combination sum c_i v_i, over the
lcm of the terms' denominators, so a zero test builds no Fraction. They
stay private so that the benchmark's tracer, which wraps every public
function, adds no span per vector.

A `Matrix` is stored scaled too: one common denominator and, row by
row, the int numerators of its nonzero entries, so every operation on it
(products, transposes, eliminations) touches only those, in ints.
`Matrix._mul_scaled` is M·x on scaled vectors, `mul_vec` its Fraction
view.

One routine, `_rref`, answers every kernel and solve question over Q: a
sparse, fraction-free Gauss–Jordan elimination of {column: int} rows,
each made coprime, which reads a `Matrix`'s stored rows as they are. The
reduced row echelon form is unique, so the kernel basis, the canonical
solutions and every report built from them do not depend on the pivoting
order. A trivial kernel needs no such elimination: `rank_mod_p` takes
the rank of the stored ints mod the word-size prime `PRIME`, a lower
bound for the rank over Q, so a rank equal to the column count proves
it. Bareiss `determinant` is an exact public helper; no verdict reads it.

Solves against one matrix M many times over (the series recurrence
solves against the linearization C at every order) share one
elimination: `eliminate(M)` reduces [M | J] once, J the identity with
its columns reversed, and records each reduced row [R | E], for which
E·M = R. `solve_general(record, v)` takes v scaled and needs int dot
products alone: v is in im M exactly when E·v = 0 for every row without
a pivot in M (the Farkas functionals, which are `kernel_basis(M^T)`),
and the canonical solution has E·v divided by R's pivot entry in each
pivot column and 0 in every free column.

`solve_in_span_coefficients` solves a batch of scaled right-hand sides
inside the span of scaled images M·span_i in one elimination, all or
nothing: the canonical coefficients of every right-hand side, or the
index of the first one outside the span, with no coefficient built.

`kernel_basis`, `solve_general` and `solve_in_span_coefficients` are
also the probes through which the benchmark (bench/tracer.py) times this
layer, so they stay module-level functions under these names; a
`solve_general` call is one solve against a recorded elimination, and
`eliminate` and `rank_mod_p` are traced as spans of their own.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Fraction
Vector = tuple[Fraction, ...]
Scaled = tuple[int, list[int]]  # (common, ints): the vector ints / common


class DimensionError(ValueError):
    """Operands with incompatible shapes."""


def scalar(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' / decimal-integer string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _without_digit_limit(Fraction, value)
    raise TypeError(f"not an exact scalar: {value!r}")


def _without_digit_limit(call, *args):
    # call(*args) with Python's limit on int <-> str conversion (3.10.7 and
    # later) lifted, as exact rationals may have any number of digits; the
    # limit is put back as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return call(*args)
    sys.set_int_max_str_digits(0)
    try:
        return call(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def format_scalar(x: Fraction) -> str:
    """Serialize as a decimal-integer string or 'p/q', of any number of
    digits; round-trips bit-exactly."""
    return _without_digit_limit(str, x)


def vector(values: Iterable) -> Vector:
    return tuple(scalar(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def is_zero_vector(x: Vector) -> bool:
    return all(a == 0 for a in x)


def _integers(x: Sequence) -> Scaled:
    # x over its least common denominator d: (d, [d * x_i]), each an int
    d = lcm(*(v.denominator for v in x))
    return d, [v.numerator * (d // v.denominator) for v in x]


def _fractions(x: Scaled) -> Vector:
    common, ints = x
    return tuple(Fraction(t, common) for t in ints)


def _combine(coeffs: Sequence, scaled: Sequence[Scaled], n: int) -> Scaled:
    # sum c_i v_i for scaled vectors v_i = (d_i, ints), scaled over the lcm
    # of the terms' denominators; a zero c_i skips its entry, which may
    # then be anything
    if len(coeffs) != len(scaled):
        raise DimensionError(f"{len(coeffs)} coefficients for {len(scaled)} vectors")
    terms = []
    for c, v in zip(coeffs, scaled):
        if c:
            d, xs = v
            if len(xs) != n:
                raise DimensionError(f"vector has {len(xs)} entries, expected {n}")
            terms.append((c.numerator, c.denominator * d, xs))
    common = lcm(*(d for _, d, _ in terms))
    total = [0] * n
    for c, d, xs in terms:
        scale = c * (common // d)
        total = [t + scale * x for t, x in zip(total, xs)]
    return common, total


def combination(coeffs: Sequence, vectors: Sequence[Vector], n: int) -> Vector:
    """sum c_i v_i as a vector of length n, for int or Fraction c_i: the
    Fraction view of `_combine`.

    Zero coefficients are skipped; a vector whose length is not n raises
    DimensionError when its coefficient is nonzero, and so does a count
    of coefficients other than the count of vectors."""
    if len(coeffs) != len(vectors):
        raise DimensionError(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
    return _fractions(_combine(
        coeffs, [_integers(v) if c else None for c, v in zip(coeffs, vectors)], n))


@dataclass(frozen=True)
class Matrix:
    """Sparse rectangular matrix of rationals, stored scaled like a vector.

    Entry (i, j) is v / `common` for the int v stored with column j in
    `nonzeros[i]`, row i's (column, int) pairs in increasing column order,
    without zeros. `common` is the least positive common denominator, so
    the form is canonical and equal matrices compare equal; products,
    transposes and eliminations cost O(nnz) in ints. `rows`/`cols` are
    stored explicitly so that degenerate shapes (zero rows or zero
    columns) stay well defined.

    `from_rows` builds a matrix from dense rows; `entries` and `row(i)`
    are Fraction views for display and tests.
    """

    rows: int
    cols: int
    common: int
    nonzeros: tuple[tuple[tuple[int, int], ...], ...]

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
        if self.common < 1 or gcd(self.common, *(v for row in self.nonzeros for _, v in row)) != 1:
            raise ValueError(f"common denominator {self.common} is not positive and reduced")

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable], cols: Optional[int] = None) -> "Matrix":
        dense = [vector(r) for r in rows]
        if cols is None:
            if not dense:
                raise DimensionError("empty matrix needs an explicit column count")
            cols = len(dense[0])
        if any(len(r) != cols for r in dense):
            raise DimensionError(f"ragged matrix rows, or rows that do not have {cols} entries")
        common = lcm(*(x.denominator for r in dense for x in r))
        return cls(len(dense), cols, common, tuple(
            tuple((j, x.numerator * (common // x.denominator)) for j, x in enumerate(r) if x)
            for r in dense))

    @property
    def entries(self) -> tuple[Vector, ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def row(self, i: int) -> Vector:
        dense = [Fraction(0)] * self.cols
        for j, v in self.nonzeros[i]:
            dense[j] = Fraction(v, self.common)
        return tuple(dense)

    def mul_vec(self, x: Vector) -> Vector:
        """M·x, the Fraction view of `_mul_scaled`."""
        return _fractions(self._mul_scaled(_integers(x)))

    def _mul_scaled(self, x: Scaled) -> Scaled:
        # M·x for a scaled x: each row summed in ints, over common·d
        d, xs = x
        if len(xs) != self.cols:
            raise DimensionError(f"matrix has {self.cols} columns, vector has {len(xs)}")
        out = []
        for row in self.nonzeros:
            total = 0
            for j, v in row:
                total += v * xs[j]
            out.append(total)
        return self.common * d, out

    def transpose(self) -> "Matrix":
        columns: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, v in row:
                columns[j].append((i, v))
        return Matrix(self.cols, self.rows, self.common, tuple(map(tuple, columns)))


def _primitive_row(row: dict[int, int]) -> dict[int, int]:
    # divide out the gcd of the entries; row scaling never changes the
    # rank, the kernel or which right-hand sides are solvable
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _rref(
    rows: Iterable[dict[int, int]], cols: int
) -> tuple[list[dict[int, int]], list[int], list[dict[int, int]]]:
    """Sparse fraction-free Gauss–Jordan elimination of {column: nonzero
    int} rows, each first made coprime. Pivots are chosen only in the
    first `cols` columns, in column order, from the first remaining row
    with an entry in that column; that entry is cleared from every other
    row, so any further columns (the right-hand sides of a span batch)
    are carried along. Rows that cancel to zero are
    dropped. Returns the pivot rows, row i having its pivot in column
    pivots[i] (dividing it by that entry gives row i of the reduced row
    echelon form, which is unique), and the rows left over, whose entries
    all lie past `cols`.
    """
    rest = [_primitive_row(row) for row in rows if row]
    reduced: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(cols):
        k = next((i for i, row in enumerate(rest) if c in row), None)
        if k is None:
            continue
        pivot = rest.pop(k)
        p = pivot[c]
        for block in (reduced, rest):
            for i, row in enumerate(block):
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
                block[i] = _primitive_row(out)
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
    a = [[0] * n for _ in range(n)]
    for i, row in enumerate(m.nonzeros):
        for j, v in row:
            a[i][j] = v
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
    return Fraction(sign * a[n - 1][n - 1], m.common ** n)


PRIME = 1073741789  # the largest prime below 2^30


def rank_mod_p(m: Matrix) -> int:
    """The rank of M's stored int rows reduced mod PRIME, by one forward
    elimination (no back-substitution) in column order.

    It is a lower bound for the rank of M over Q. M is ints / common, and
    a rank r mod PRIME means an r × r minor of the ints that is nonzero
    mod PRIME, hence nonzero over Z. So a rank of `cols` proves the kernel
    of M trivial; a smaller rank proves nothing. An index maps each column
    to the ids of the rows holding it: a column's pivot is the lowest row
    id there, and it touches only the rows that index names.
    """
    rows = [{j: v % PRIME for j, v in row if v % PRIME} for row in m.nonzeros]
    holding: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            holding.setdefault(j, set()).add(i)
    rank = 0
    for c in range(m.cols):
        ids = holding.get(c)
        if not ids:
            continue
        k = min(ids)
        pivot = rows[k]
        for j in pivot:
            holding[j].discard(k)
        inverse = pow(pivot[c], -1, PRIME)
        for i in tuple(ids):
            row = rows[i]
            f = row[c] * inverse % PRIME
            for j, v in pivot.items():
                w = (row.get(j, 0) - f * v) % PRIME
                if w:
                    holding[j].add(i)
                    row[j] = w
                elif j in row:
                    del row[j]
                    holding[j].discard(i)
        rank += 1
    return rank


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of {X : MX = 0}, one vector per free column of the RREF.

    Vectors are ordered by free-column position and scaled to primitive
    integer form (positive in their free column); the list is empty
    exactly when the kernel is trivial.
    """
    reduced, pivots, _ = _rref(map(dict, m.nonzeros), m.cols)
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
    """The reduced row echelon form of [M | J] for an n x m matrix M and J
    the n x n identity, columns reversed, as `eliminate` records it.

    Every row of it is [R | E] with E·M = R. `pivots` holds, for each
    row with a pivot in M's columns, the pivot column, the pivot entry
    and E, the row scaled to integers; `checks` holds E for each row
    with its pivot in J (R = 0): these are the Farkas functionals, and v
    is in im M exactly when each of them vanishes on v. Made positive at
    their pivot and put in reverse order, the checks are exactly
    `kernel_basis(M.transpose())`. E is stored as (row index, int) pairs
    without zeros.

    A NamedTuple rather than a frozen dataclass: building the dataclass
    took about 1 ms on every fresh import of the package.
    """

    rows: int
    cols: int
    pivots: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    checks: tuple[tuple[tuple[int, int], ...], ...]


def eliminate(m: Matrix) -> Elimination:
    """One elimination of [M | J], which answers every later
    `solve_general` against M without eliminating M again; pivoting in J
    too reduces the checks fully, to `kernel_basis(M.transpose())`."""
    # row i of [M | J] times common, so that E·M = R holds for M itself;
    # its J entry lies in column last - i
    last = m.cols + m.rows - 1
    augmented = (dict(row + ((last - i, m.common),)) for i, row in enumerate(m.nonzeros))
    reduced, pivots, _ = _rref(augmented, last + 1)
    # each row's E, in row order; a check is made positive at its pivot
    rows = [(pc, row[pc], tuple((last - j, v if pc < m.cols or row[pc] > 0 else -v)
                                for j, v in row.items() if j >= m.cols))
            for row, pc in zip(reduced, pivots)]
    return Elimination(m.rows, m.cols, tuple(r for r in rows if r[0] < m.cols),
                       tuple(e for pc, _, e in reversed(rows) if pc >= m.cols))


def solve_general(e: Elimination, v: Scaled) -> Optional[Vector]:
    """Solve MX = v exactly, for the matrix M that `e` eliminates and v
    scaled: the canonical solution, zero in every free-variable position
    of the reduced echelon form, or None, from int dot products alone,
    when v is outside im M."""
    d, xs = v
    if len(xs) != e.rows:
        raise DimensionError(f"matrix has {e.rows} rows, rhs has {len(xs)}")
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
    images: Sequence[Scaled], vs: Sequence[Scaled]
) -> Union[list[Vector], int]:
    """For each scaled right-hand side v, the canonical coefficients c
    with sum c_i images_i = v (free coordinates zero), the images scaled
    too; or, for the whole batch, the index of the first v that has none.

    The images need not be independent. Row i of [images | vs] is
    equation i times the lcm of every column's denominator, and all
    right-hand sides are solved in one elimination of those rows. The
    rows it leaves over are the Farkas functionals of the images applied
    to the right-hand sides, so v_t is outside their span exactly when
    one of them has an entry in v_t's column; the failing index is read
    off them, and no coefficient is built.
    """
    columns = (*images, *vs)
    rows = len(columns[0][1]) if columns else 0
    if any(len(ints) != rows for _, ints in columns):
        raise DimensionError("images and right-hand sides must have equal lengths")
    k = len(images)
    common = lcm(*(d for d, _ in columns))
    columns = [(t, common // d, ints) for t, (d, ints) in enumerate(columns)]
    reduced, pivots, rest = _rref(
        ({t: scale * ints[i] for t, scale, ints in columns if ints[i]} for i in range(rows)), k)
    if rest:
        return min(min(row) for row in rest) - k
    out = []
    for col in range(k, len(columns)):
        coeffs = [Fraction(0)] * k
        for row, pc in zip(reduced, pivots):
            v = row.get(col)
            if v is not None:
                coeffs[pc] = Fraction(v, row[pc])
        out.append(tuple(coeffs))
    return out
