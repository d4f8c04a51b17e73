"""Systems of algebraic equations of degree at most 2.

A system is stored sparsely, in one canonical form: equation k is
(sum a x_i x_j + sum b x_i + c) / den_k = 0, with integer coefficients,
(i, j, a) triples with i <= j and (i, b) pairs sorted and without zeros,
and den_k > 0 the lcm of the denominators of the equation's rational
coefficients (the integers are not reduced further). Equal systems
compare equal; every writer ends with `_canonical_equation`, which
reduces one equation to this form. F, B, A and the rows of the
linearization C at a base point (the object every rigidity test
interrogates) cost O(nnz) in int arithmetic, and `linearize` stores C in
the scaled `Matrix` form, ints over one common denominator. C is
eliminated on first read, once for its kernel unless C's rank mod a prime
proves it trivial, and once for all its solves and its cokernel. B's one
kernel, `_polarize`, works in the scaled form (common, ints) that
`BaseOperators` holds, and `bilinear`, like `alpha`, `beta` and `gamma`,
is a Fraction view. Higher-degree polynomial systems are brought into
this form by introducing auxiliary variables for sub-monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .ratlinalg import (
    DimensionError,
    Elimination,
    Matrix,
    Scaled,
    Vector,
    _combine,
    _fractions,
    _integers,
    _is_int,
    eliminate,
    format_scalar,
    is_zero_vector,
    kernel_basis,
    rank_mod_p,
    scalar,
    solve_general,
    vector,
)


class BasePointError(ValueError):
    """The supplied point does not solve the system exactly."""

    def __init__(self, residual: Vector):
        self.residual = residual
        pretty = "(" + ", ".join(map(format_scalar, residual)) + ")"
        super().__init__(f"base point is not a solution; residual {pretty}")


@dataclass(frozen=True)
class QuadraticSystem:
    """n equations of degree <= 2 in m variables, with exact coefficients,
    in the canonical integer form of the module docstring.

    `alpha`, `beta` and `gamma` give the same equations as Fractions:
    alpha^k is the symmetric matrix of the quadratic form, as (i, j, c)
    triples with i <= j (an off-diagonal c is half the coefficient of
    x_i x_j), beta^k the (i, c) pairs and gamma^k the constant, each
    divided by den_k. They are built on each access."""

    m: int
    n: int
    quad: tuple[tuple[tuple[int, int, int], ...], ...]  # (i, j, a) per equation: a x_i x_j
    lin: tuple[tuple[tuple[int, int], ...], ...]        # (i, b) per equation: b x_i
    const: tuple[int, ...]   # one integer constant per equation
    den: tuple[int, ...]     # one positive denominator per equation
    variable_names: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.quad) == len(self.lin) == len(self.const) == len(self.den) == self.n):
            raise DimensionError("equation count mismatch")
        if len(self.variable_names) != self.m:
            raise DimensionError("variable name count mismatch")

    @property
    def alpha(self) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
        return tuple(
            tuple((i, j, Fraction(a, d if i == j else 2 * d)) for i, j, a in quad)
            for quad, d in zip(self.quad, self.den))

    @property
    def beta(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        return tuple(tuple((i, Fraction(b, d)) for i, b in lin)
                     for lin, d in zip(self.lin, self.den))

    @property
    def gamma(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, d) for c, d in zip(self.const, self.den))


def default_names(m: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(m))


def _exact(c):
    # an int stays an int, so integer input builds no Fraction; a bool goes to scalar
    return c if type(c) is int else scalar(c)

def validate_and_symmetrize(
    m: int,
    alpha_terms: Sequence[Iterable[tuple]],
    beta_terms: Sequence[Iterable[tuple]],
    gamma: Sequence,
    variable_names: Optional[Sequence[str]] = None,
) -> QuadraticSystem:
    """Build a QuadraticSystem from raw per-equation terms: (i, j, c) for
    c x_i x_j, (i, c) for c x_i, and a constant. Duplicates are summed,
    (j, i) is folded onto (i, j), zeros are dropped, and each equation is
    scaled to integers over the lcm of its coefficients' denominators.
    The `alpha` view is then (alpha + alpha^T)/2, which keeps the
    quadratic form values and makes B symmetric, so B(X,Y)+B(Y,X) can be
    computed as 2*B(X,Y) throughout."""
    n = len(alpha_terms)
    if n == 0 or len(beta_terms) != n or len(gamma) != n:
        raise DimensionError("need one or more equations, with equal alpha/beta/gamma counts")
    equations = []
    for quad, lin, g in zip(alpha_terms, beta_terms, gamma):
        poly: dict[tuple[int, int], int | Fraction] = {}
        for i, j, c in quad:
            if not (_is_int(i) and _is_int(j) and 0 <= i < m and 0 <= j < m):
                raise DimensionError(f"alpha term ({i}, {j}) out of range for m = {m}")
            key = (i, j) if i <= j else (j, i)
            poly[key] = poly.get(key, 0) + _exact(c)
        acc: dict[int, int | Fraction] = {}
        for i, c in lin:
            if not (_is_int(i) and 0 <= i < m):
                raise DimensionError(f"beta term {i} out of range for m = {m}")
            acc[i] = acc.get(i, 0) + _exact(c)
        g = _exact(g)
        den = lcm(g.denominator, *(c.denominator for c in [*poly.values(), *acc.values()]))
        equations.append(_canonical_equation(
            [(i, j, c.numerator * (den // c.denominator)) for (i, j), c in poly.items()],
            [(i, c.numerator * (den // c.denominator)) for i, c in acc.items()],
            g.numerator * (den // g.denominator), den))
    names = tuple(variable_names) if variable_names is not None else default_names(m)
    return QuadraticSystem(m, n, *map(tuple, zip(*equations)), names)


def _canonical_equation(quad, lin, const: int, over: int):
    """(quad, lin, const, den) from integer numerators over `over` > 0, with i <= j and
    no index repeated: their gcd with `over` is divided out, terms sorted, zeros dropped."""
    g = gcd(over, const, *[t[-1] for t in quad], *[t[-1] for t in lin])
    return (tuple([(i, j, a // g) for i, j, a in sorted(quad) if a]),
            tuple([(i, b // g) for i, b in sorted(lin) if b]), const // g, over // g)


def evaluate(sys: QuadraticSystem, x: Vector) -> Vector:
    """F(X): component k is sum alpha_ij x_i x_j + sum beta_i x_i + gamma."""
    if len(x) != sys.m:
        raise DimensionError(f"system has {sys.m} variables, point has {len(x)}")
    d, xs = _integers(x)
    out = []
    for quad, lin, c, den in zip(sys.quad, sys.lin, sys.const, sys.den):
        total = 0
        for i, j, a in quad:
            total += a * xs[i] * xs[j]
        affine = c * d
        for i, b in lin:
            affine += b * xs[i]
        out.append(Fraction(total + affine * d, den * d * d))
    return tuple(out)


def bilinear(sys: QuadraticSystem, x: Vector, y: Vector) -> Vector:
    """B(X,Y): component k is sum_ij alpha_ij^k x_i y_j (symmetric in X,Y)."""
    return _fractions(_polarize(sys, _integers(x), _integers(y)))


def _polarize(sys: QuadraticSystem, x: Scaled, y: Scaled) -> Scaled:
    # B(X, Y) for scaled X, Y, over 2 lcm(den) dx dy: a x_i x_j polarizes
    # to a (x_i y_j + x_j y_i) / 2, also when i = j
    (dx, xs), (dy, ys) = x, y
    if len(xs) != sys.m or len(ys) != sys.m:
        raise DimensionError("bilinear arguments must have m entries")
    common = lcm(*sys.den)
    out = []
    for quad, den in zip(sys.quad, sys.den):
        total = 0
        for i, j, a in quad:
            total += a * (xs[i] * ys[j] + xs[j] * ys[i])
        out.append(total * (common // den))
    return 2 * common * dx * dy, out


def _linear(sys: QuadraticSystem, x: Scaled) -> Scaled:
    # A(X) for scaled X, over lcm(den) dx: entry k times lcm / den_k
    dx, xs = x
    if len(xs) != sys.m:
        raise DimensionError("the argument X of A(X) must have m entries")
    common = lcm(*sys.den)
    return common * dx, [sum(b * xs[i] for i, b in lin) * (common // den)
                         for lin, den in zip(sys.lin, sys.den)]


@dataclass(frozen=True)
class BaseOperators:
    """The linearization C = B(X0,.) + B(.,X0) + A at an exact solution X0.

    One analysis is the life of the operators one `linearize` call
    builds. Its memos hold the scaled form (common, ints) of each vector
    it is given (`_scaled`), each B(X, Y) (`_product`) and each C·Y
    (`_image`), once per argument object, and `solve` takes that form;
    `bilinear` is a Fraction view. An entry is keyed by the ids of its
    arguments and holds those objects, so the ids cannot pass to other
    objects while it lives. `_prefixes` belongs to
    `certify.span_closure_check`, whose docstring gives its layout: one
    (prefix, set of failing k) per validated prefix, which a series in
    t^r shares with its base series.
    Two records are built on first use, so operators that never read
    one never pay for it: `_kernel`, the basis `kernel` returns, on the
    first read of `kernel` (a span-closure replay never reads it), and
    `_elimination`, the reduced [C | J] behind `solve` and `cokernel`, on
    the first read of either (a trivial kernel reads neither). A trivial
    kernel is proven by the rank of C mod a prime where it can be, so a
    first-order-rigid analysis eliminates C over Q only when that rank
    falls short."""

    system: QuadraticSystem
    base_point: Vector
    c_matrix: Matrix
    _scaled_by_id: dict[int, tuple[Vector, Scaled]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _products_by_id: dict[tuple[int, int], tuple[Vector, Vector, Scaled]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _images_by_id: dict[int, tuple[Vector, Scaled]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _prefixes: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _kernel: Optional[tuple[Vector, ...]] = field(
        default=None, init=False, compare=False, repr=False)
    _elimination: Optional[Elimination] = field(
        default=None, init=False, compare=False, repr=False)

    @property
    def kernel(self) -> tuple[Vector, ...]:
        """`kernel_basis(C)`: one primitive integer vector per free column.

        When C has at least as many rows as columns, its rank mod a prime
        comes first: full column rank there proves the kernel trivial (see
        `rank_mod_p`), and C is not eliminated over Q. A lower rank proves
        nothing, and `kernel_basis` eliminates C exactly."""
        if self._kernel is None:
            rows, cols = self.c_matrix.rows, self.c_matrix.cols
            trivial = rows >= cols and rank_mod_p(self.c_matrix) == cols
            basis = () if trivial else kernel_basis(self.c_matrix)
            object.__setattr__(self, "_kernel", tuple(basis))
        return self._kernel

    def _scaled(self, y: Vector) -> Scaled:
        hit = self._scaled_by_id.get(id(y))
        if hit is None:
            hit = self._scaled_by_id[id(y)] = (y, _integers(y))
        return hit[-1]

    def _product(self, x: Vector, y: Vector) -> Scaled:
        # B is symmetric, so one entry serves both argument orders
        key = (id(x), id(y)) if id(x) <= id(y) else (id(y), id(x))
        hit = self._products_by_id.get(key)
        if hit is None:
            hit = self._products_by_id[key] = (
                x, y, _polarize(self.system, self._scaled(x), self._scaled(y)))
        return hit[-1]

    def _image(self, y: Vector) -> Scaled:
        hit = self._images_by_id.get(id(y))
        if hit is None:
            hit = self._images_by_id[id(y)] = (y, self.c_matrix._mul_scaled(self._scaled(y)))
        return hit[-1]

    def bilinear(self, x: Vector, y: Vector) -> Vector:
        return _fractions(self._product(x, y))

    def _eliminated(self) -> Elimination:
        if self._elimination is None:
            object.__setattr__(self, "_elimination", eliminate(self.c_matrix))
        return self._elimination

    def solve(self, v: Scaled) -> Optional[Vector]:
        """The canonical solution of C·X = v for a scaled v, or None when
        v is outside im C. The first solve or cokernel read eliminates
        [C | J]; every solve reads the answer off that one record."""
        return solve_general(self._eliminated(), v)

    @property
    def cokernel(self) -> tuple[Vector, ...]:
        """`kernel_basis(C^T)`, the functionals w with w·C = 0,
        which cut out im C: Fraction views of the record's checks."""
        return tuple(tuple(Fraction(w.get(i, 0)) for i in range(self.c_matrix.rows))
                     for w in map(dict, self._eliminated().checks))


def linearize(sys: QuadraticSystem, base_point: Vector) -> BaseOperators:
    """Construct the operators at a base point, rejecting non-solutions.

    Row k of C is the gradient of F_k at X0: a term a x_i x_j adds a x_j
    to column i and a x_i to column j (2 a x_i when i = j), and b x_i
    adds b to column i. Each row is summed in integers over den_k and
    X0's common denominator d, from the equation's own terms, in O(nnz),
    then scaled by lcm(den) / den_k, so that C is stored over lcm(den)·d
    with the gcd divided out. C is not eliminated here: the operators
    find its kernel on the first read of `kernel`.
    """
    x0 = vector(base_point)
    residual = evaluate(sys, x0)
    if not is_zero_vector(residual):
        raise BasePointError(residual)
    d, xs = _integers(x0)
    common = lcm(*sys.den)
    rows = []
    for quad, lin, den in zip(sys.quad, sys.lin, sys.den):
        row: dict[int, int] = {}
        for i, j, a in quad:
            row[i] = row.get(i, 0) + a * xs[j]
            row[j] = row.get(j, 0) + a * xs[i]
        for i, b in lin:
            row[i] = row.get(i, 0) + b * d
        scale = common // den
        rows.append([(j, v * scale) for j, v in sorted(row.items()) if v])
    g = gcd(common * d, *(v for row in rows for _, v in row))
    c = Matrix(sys.n, sys.m, common * d // g,
               tuple(tuple((j, v // g) for j, v in row) for row in rows))
    # spot-check the closed-form columns: C·1 - 2 B(X0, 1) - A(1) = 0 in ints
    ones = 1, [1] * sys.m
    bx = _integers(bilinear(sys, x0, (Fraction(1),) * sys.m))
    if any(_combine((1, -2, -1), (c._mul_scaled(ones), bx, _linear(sys, ones)), sys.n)[1]):
        raise RuntimeError("linearization C disagrees with 2 B(X0, .) + A at the probe")
    return BaseOperators(sys, x0, c)


# ---------------------------------------------------------------------------
# General polynomial systems and degree reduction


@dataclass(frozen=True)
class GeneralPolySystem:
    """Multivariate polynomial equations as exponent-vector -> coefficient maps."""

    m: int
    equations: tuple[dict[tuple[int, ...], Fraction], ...]
    variable_names: tuple[str, ...]


def poly_system(
    equations: Sequence[dict], m: int, variable_names: Optional[Sequence[str]] = None
) -> GeneralPolySystem:
    """Equations as {exponents: coeff} maps, read as in a polynomial file: m int
    exponents >= 0 per key (no bools), coefficients by `scalar`; zero terms dropped."""
    cleaned = []
    for eq in equations:
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in eq.items():
            if len(exps) != m or not all(_is_int(e) and e >= 0 for e in exps):
                raise DimensionError(f"bad exponent vector {exps}")
            c = scalar(coeff)
            if c != 0:
                terms[exps] = c
        cleaned.append(terms)
    names = tuple(variable_names) if variable_names is not None else default_names(m)
    return GeneralPolySystem(m, tuple(cleaned), names)


@dataclass(frozen=True)
class ReductionMap:
    """Record of auxiliary variables introduced during degree reduction.

    Each definition maps a new variable to a monomial in earlier
    variables (original ones or previously introduced auxiliaries), so a
    solution of the original system extends uniquely to the reduced one
    and a reduced solution restricts to an original one.
    """

    original_variable_count: int
    auxiliary_definitions: tuple[tuple[int, tuple[int, ...]], ...]


def lift_base_point(rmap: ReductionMap, x0: Vector) -> Vector:
    """Extend a solution of the original system with the auxiliary
    monomial values, giving a solution of the reduced system."""
    if len(x0) != rmap.original_variable_count:
        raise DimensionError("base point length does not match original variables")
    values = list(vector(x0))
    for _, exps in rmap.auxiliary_definitions:
        val = Fraction(1)
        for xi, e in zip(values, exps):
            val *= xi ** e
        values.append(val)
    return tuple(values)


def _degree(mono: tuple[tuple[int, int], ...]) -> int:
    return sum(e for _, e in mono)


def reduce_degree(poly: GeneralPolySystem) -> tuple[QuadraticSystem, ReductionMap]:
    """Rewrite a polynomial system so every equation has degree <= 2.

    A monomial is held in run-length form, the (index, exponent) pairs of
    its variables in index order (x0^2 x1 is ((0, 2), (1, 1))), so its
    size grows with its number of variables, not with its degree. Spelled
    out, it is the sorted tuple of its indices, each repeated by its
    exponent (x0^2 x1 is (0, 0, 1)). While a monomial of degree d > 2
    exists, the one of maximal degree with the smallest such tuple is
    split; among equal degrees a smaller tuple is a lexicographically
    greater exponent vector, and comparing the pairs (index, -exponent)
    in order gives the same order. Its head, the first ceil(d/2) indices
    of the tuple (the lowest-indexed sub-monomial of that degree), is
    bound to an auxiliary variable by one defining equation (head minus
    variable), and every occurrence of the monomial becomes the rest of
    it times that variable. Identical heads reuse the same auxiliary,
    named by the first x{k} no other variable has, from k = its index + 1
    up. The solution sets correspond bijectively via the returned
    ReductionMap.
    """
    equations = [
        {tuple((i, e) for i, e in enumerate(exps) if e): c for exps, c in eq.items() if c}
        for eq in poly.equations
    ]
    names = list(poly.variable_names)
    defs: list[tuple[int, tuple[int, ...]]] = []
    known: dict[tuple[tuple[int, int], ...], int] = {}

    while True:
        worst = min(
            (mono for eq in equations for mono in eq if _degree(mono) > 2),
            key=lambda mono: (-_degree(mono), [(i, -e) for i, e in mono]),
            default=None,
        )
        if worst is None:
            break
        need = (_degree(worst) + 1) // 2
        head, rest = [], {}
        for i, e in worst:
            take = min(e, need)
            need -= take
            if take:
                head.append((i, take))
            if e > take:
                rest[i] = e - take
        head = tuple(head)
        var = known.get(head)
        if var is None:
            var = known[head] = len(names)
            names.append(next(f"x{k}" for k in count(var + 1) if f"x{k}" not in names))
            exps = [0] * var
            for i, e in head:
                exps[i] = e
            defs.append((var, tuple(exps)))
            equations.append({head: 1, ((var, 1),): -1})
        rest[var] = rest.get(var, 0) + 1
        quotient = tuple(sorted(rest.items()))
        for eq in equations:
            if worst in eq:
                eq[quotient] = eq.get(quotient, 0) + eq.pop(worst)

    spelled = [{tuple(i for i, e in mono for _ in range(e)): c for mono, c in eq.items()}
               for eq in equations]
    alphas = [[(*mono, c) for mono, c in eq.items() if len(mono) == 2] for eq in spelled]
    betas = [[(*mono, c) for mono, c in eq.items() if len(mono) == 1] for eq in spelled]
    gammas = [eq.get((), 0) for eq in spelled]
    reduced = validate_and_symmetrize(len(names), alphas, betas, gammas, names)
    return reduced, ReductionMap(poly.m, tuple(defs))
