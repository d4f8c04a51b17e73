"""Systems of algebraic equations of degree at most 2.

A system is stored sparsely, in one canonical form: per equation k, the
symmetric matrix alpha^k as sorted (i, j, c) triples with i <= j, the
vector beta^k as sorted (i, c) pairs, both without zeros, and a constant
gamma^k. Equal systems compare equal, and F, B, A and the rows of the
linearization C at a base point (the object every rigidity test
interrogates) cost O(nnz). Higher-degree polynomial systems are brought
into this form by introducing auxiliary variables for sub-monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .ratlinalg import (
    DimensionError,
    Matrix,
    Vector,
    is_zero_vector,
    kernel_basis,
    scalar,
    vector,
)


class BasePointError(ValueError):
    """The supplied point does not solve the system exactly."""

    def __init__(self, residual: Vector):
        self.residual = residual
        pretty = "(" + ", ".join(str(x) for x in residual) + ")"
        super().__init__(f"base point is not a solution; residual {pretty}")


@dataclass(frozen=True)
class QuadraticSystem:
    """n equations of degree <= 2 in m variables, with exact coefficients,
    in the canonical form that validate_and_symmetrize builds."""

    m: int
    n: int
    alpha: tuple[tuple[tuple[int, int, Fraction], ...], ...]  # (i, j, c) per equation
    beta: tuple[tuple[tuple[int, Fraction], ...], ...]        # (i, c) per equation
    gamma: tuple[Fraction, ...]      # one constant per equation
    variable_names: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.alpha) == len(self.beta) == len(self.gamma) == self.n):
            raise DimensionError("equation count mismatch")
        if len(self.variable_names) != self.m:
            raise DimensionError("variable name count mismatch")


def default_names(m: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(m))


def validate_and_symmetrize(
    m: int,
    alpha_terms: Sequence[Iterable[tuple]],
    beta_terms: Sequence[Iterable[tuple]],
    gamma: Sequence,
    variable_names: Optional[Sequence[str]] = None,
) -> QuadraticSystem:
    """Build a QuadraticSystem from raw per-equation terms: (i, j, c) for
    c x_i x_j, (i, c) for c x_i, and a constant. Duplicates are summed,
    zeros dropped, and alpha replaced by (alpha + alpha^T)/2, which keeps
    the quadratic form values and makes B symmetric, so B(X,Y)+B(Y,X) can
    be computed as 2*B(X,Y) throughout."""
    n = len(alpha_terms)
    if n == 0 or len(beta_terms) != n or len(gamma) != n:
        raise DimensionError("need one or more equations, with equal alpha/beta/gamma counts")
    half = Fraction(1, 2)
    alphas, betas = [], []
    for quad, lin in zip(alpha_terms, beta_terms):
        sym: dict[tuple[int, int], Fraction] = {}
        for i, j, c in quad:
            if not (0 <= i < m and 0 <= j < m):
                raise DimensionError(f"alpha term ({i}, {j}) out of range for m = {m}")
            key = (min(i, j), max(i, j))
            sym[key] = sym.get(key, 0) + (scalar(c) if i == j else scalar(c) * half)
        alphas.append(tuple((i, j, c) for (i, j), c in sorted(sym.items()) if c != 0))
        acc: dict[int, Fraction] = {}
        for i, c in lin:
            if not 0 <= i < m:
                raise DimensionError(f"beta term {i} out of range for m = {m}")
            acc[i] = acc.get(i, 0) + scalar(c)
        betas.append(tuple((i, c) for i, c in sorted(acc.items()) if c != 0))
    names = tuple(variable_names) if variable_names is not None else default_names(m)
    gammas = tuple(scalar(g) for g in gamma)
    return QuadraticSystem(m, n, tuple(alphas), tuple(betas), gammas, names)


def evaluate(sys: QuadraticSystem, x: Vector) -> Vector:
    """F(X): component k is sum alpha_ij x_i x_j + sum beta_i x_i + gamma."""
    if len(x) != sys.m:
        raise DimensionError(f"system has {sys.m} variables, point has {len(x)}")
    out = []
    for quad, lin, g in zip(sys.alpha, sys.beta, sys.gamma):
        diag = off = Fraction(0)
        for i, j, c in quad:
            if i == j:
                diag += c * x[i] * x[i]
            else:
                off += c * x[i] * x[j]
        out.append(sum((c * x[i] for i, c in lin), diag + 2 * off + g))
    return tuple(out)


def bilinear(sys: QuadraticSystem, x: Vector, y: Vector) -> Vector:
    """B(X,Y): component k is sum_ij alpha_ij^k x_i y_j (symmetric in X,Y)."""
    if len(x) != sys.m or len(y) != sys.m:
        raise DimensionError("bilinear arguments must have m entries")
    out = []
    for quad in sys.alpha:
        total = Fraction(0)
        for i, j, c in quad:
            if i == j:
                total += c * x[i] * y[i]
            else:
                total += c * (x[i] * y[j] + x[j] * y[i])
        out.append(total)
    return tuple(out)


def linear_part(sys: QuadraticSystem, x: Vector) -> Vector:
    """A(X): component k is sum_i beta_i^k x_i."""
    if len(x) != sys.m:
        raise DimensionError("linear_part argument must have m entries")
    return tuple(sum((c * x[i] for i, c in lin), Fraction(0)) for lin in sys.beta)


@dataclass(frozen=True)
class BaseOperators:
    """The linearization C = B(X0,.) + B(.,X0) + A at an exact solution X0,
    with its kernel basis cached.

    The memos belong to this object alone, so one analysis (the life of
    the operators one `linearize` call builds) computes each B(X, Y) once
    for each pair of argument objects. Products are keyed by the
    identities of their arguments; each entry holds the objects whose ids
    key it, so those ids cannot pass to other objects while it lives.
    `_vanishing` serves `series.residual_order`."""

    system: QuadraticSystem
    base_point: Vector
    c_matrix: Matrix
    kernel: tuple[Vector, ...]
    _products_by_id: dict[tuple[int, int], tuple[Vector, Vector, Vector]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _vanishing: dict[tuple[int, ...], tuple[tuple[Vector, ...], bool]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def bilinear(self, x: Vector, y: Vector) -> Vector:
        # B is symmetric, so one entry serves both argument orders
        key = (id(x), id(y)) if id(x) <= id(y) else (id(y), id(x))
        hit = self._products_by_id.get(key)
        if hit is None:
            hit = self._products_by_id[key] = (x, y, bilinear(self.system, x, y))
        return hit[-1]


def linearize(sys: QuadraticSystem, base_point: Vector) -> BaseOperators:
    """Construct the operators at a base point, rejecting non-solutions.

    Column j of C equals B(X0,e_j) + B(e_j,X0) + A(e_j); with symmetric
    alpha this is 2*(alpha^k X0)_j + beta_j^k per equation row k, so
    each row of C is built from the equation's alpha and beta terms
    alone, in O(nnz).
    """
    x0 = vector(base_point)
    residual = evaluate(sys, x0)
    if not is_zero_vector(residual):
        raise BasePointError(residual)
    rows = []
    for quad, lin in zip(sys.alpha, sys.beta):
        row: dict[int, Fraction] = {}
        for i, j, c in quad:
            row[i] = row.get(i, 0) + 2 * c * x0[j]
            if i != j:
                row[j] = row.get(j, 0) + 2 * c * x0[i]
        for i, c in lin:
            row[i] = row.get(i, 0) + c
        rows.append(tuple(sorted((j, v) for j, v in row.items() if v)))
    c = Matrix(sys.n, sys.m, tuple(rows))
    # spot-check the closed-form columns against the operational definition
    probe = (Fraction(1),) * sys.m
    bx, ap = bilinear(sys, x0, probe), linear_part(sys, probe)
    if c.mul_vec(probe) != tuple(2 * b + a for b, a in zip(bx, ap)):
        raise RuntimeError("linearization C disagrees with 2 B(X0, .) + A at the probe")
    return BaseOperators(sys, x0, c, tuple(kernel_basis(c)))


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
    cleaned = []
    for eq in equations:
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in eq.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != m or any(e < 0 for e in exps):
                raise DimensionError(f"bad exponent vector {exps}")
            c = scalar(coeff)
            if c != 0:
                terms[exps] = terms.get(exps, Fraction(0)) + c
        cleaned.append({e: c for e, c in terms.items() if c != 0})
    names = tuple(variable_names) if variable_names is not None else default_names(m)
    return GeneralPolySystem(m, tuple(cleaned), names)


def evaluate_poly(poly: GeneralPolySystem, x: Vector) -> Vector:
    if len(x) != poly.m:
        raise DimensionError("point length does not match variable count")
    out = []
    for eq in poly.equations:
        total = Fraction(0)
        for exps, coeff in eq.items():
            term = coeff
            for xi, e in zip(x, exps):
                term *= xi ** e
            total += term
        out.append(total)
    return tuple(out)


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

    @property
    def total_variable_count(self) -> int:
        return self.original_variable_count + len(self.auxiliary_definitions)

    def is_empty(self) -> bool:
        return not self.auxiliary_definitions


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


def restrict_solution(rmap: ReductionMap, x: Vector) -> Vector:
    """Drop the auxiliary coordinates of a reduced-system solution."""
    if len(x) != rmap.total_variable_count:
        raise DimensionError("solution length does not match reduced variables")
    return tuple(x[: rmap.original_variable_count])


def reduce_degree(poly: GeneralPolySystem) -> tuple[QuadraticSystem, ReductionMap]:
    """Rewrite a polynomial system so every equation has degree <= 2.

    A monomial is held as the sorted tuple of its variables' indices, each
    repeated by its exponent (x0^2 x1 is (0, 0, 1)), so its degree is its
    length. While a monomial of degree d > 2 exists, the smallest tuple of
    maximal degree is split; among equal degrees a smaller tuple is a
    lexicographically greater exponent vector. Its head, the first
    ceil(d/2) indices (the lowest-indexed sub-monomial of that degree), is
    bound to an auxiliary variable by one defining equation (head minus
    variable), and every occurrence of the monomial becomes the rest of
    it times that variable. Identical heads reuse the same auxiliary. The
    solution sets correspond bijectively via the returned ReductionMap.
    """
    equations = [
        {tuple(i for i, e in enumerate(exps) for _ in range(e)): c for exps, c in eq.items() if c}
        for eq in poly.equations
    ]
    names = list(poly.variable_names)
    defs: list[tuple[int, tuple[int, ...]]] = []
    known: dict[tuple[int, ...], int] = {}

    while True:
        worst = min(
            (mono for eq in equations for mono in eq if len(mono) > 2),
            key=lambda mono: (-len(mono), mono),
            default=None,
        )
        if worst is None:
            break
        cut = (len(worst) + 1) // 2
        head = worst[:cut]
        var = known.get(head)
        if var is None:
            var = known[head] = len(names)
            names.append(f"x{var + 1}")
            defs.append((var, tuple(head.count(i) for i in range(var))))
            equations.append({head: Fraction(1), (var,): Fraction(-1)})
        quotient = tuple(sorted(worst[cut:] + (var,)))
        for eq in equations:
            if worst in eq:
                eq[quotient] = eq.get(quotient, 0) + eq.pop(worst)

    alphas = [[(*mono, c) for mono, c in eq.items() if len(mono) == 2] for eq in equations]
    betas = [[(*mono, c) for mono, c in eq.items() if len(mono) == 1] for eq in equations]
    gammas = [eq.get((), 0) for eq in equations]
    reduced = validate_and_symmetrize(len(names), alphas, betas, gammas, names)
    return reduced, ReductionMap(poly.m, tuple(defs))
