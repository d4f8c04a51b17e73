"""Certificate engines deciding whether a base solution is rigid or
extends to an analytic family.

Three rigidity tests (trivial kernel, order-2 obstruction, failure of a
T-standard formal solution when the kernel is a line) and one
flexibility test (span closure of the bilinear products of a candidate
series) are implemented, together with the orchestrating analyzer. Every
emitted certificate carries enough exact witness data to be re-verified
from scratch by `replay_certificate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import ratlinalg
from .quadsys import BaseOperators, QuadraticSystem, linearize
from .ratlinalg import (
    Matrix,
    Vector,
    is_zero_vector,
    kernel_basis,
    solve_general,
    solve_in_span_coefficients,
    vec_add,
    vec_scale,
    zero_vector,
)
from .series import (
    SeriesCoefficients,
    extend_step,
    recurrence_rhs,
    residual_order,
)

FLEXIBLE = "Flexible"
RIGID = "Rigid"
INCONCLUSIVE = "Inconclusive"


class PreconditionError(ValueError):
    """An operation was invoked outside its stated preconditions."""


class InapplicableError(ValueError):
    """The requested test does not apply to this system."""


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class FirstOrderRigid:
    """ker C = {0}: zero is the only first-order deformation."""

    rank: int
    variables: int


@dataclass(frozen=True)
class SecondOrderObstruction:
    """No nonzero kernel direction K has B(K,K) in the image of C, so no
    first-order deformation extends to second order.

    `case` records how this was proven:
      - "empty_kernel": vacuous (no nonzero kernel direction exists);
      - "single_direction": 1-dim kernel, B(K,K) outside im C;
      - "definite_form": some cokernel functional projects B to a definite
        quadratic form on the kernel (the functional and the form are
        stored; replay recomputes the Sylvester minors of the form);
      - "no_common_line": 2-dim kernel, the projected binary forms have no
        common nonzero real root.
    """

    case: str
    kernel: tuple[Vector, ...]
    b_value: Optional[Vector] = None
    functional: Optional[Vector] = None
    form: Optional[tuple[tuple[Fraction, ...], ...]] = None
    forms: Optional[tuple[tuple[Fraction, Fraction, Fraction], ...]] = None
    functionals: Optional[tuple[Vector, ...]] = None


@dataclass(frozen=True)
class PairSolution:
    i: int
    j: int
    coefficients: Vector  # combination over the span vectors Y_k .. Y_q
    vector: Vector


@dataclass(frozen=True)
class SpanClosureFlex:
    """Span-closure certificate: for every i in [1,q], j in [k,q] the
    equation C Y = -B(Y_i,Y_j)-B(Y_j,Y_i) is solved inside
    span{Y_k,...,Y_q}; this extends the series to a convergent analytic
    family with the same initial coefficients."""

    q: int
    k: int
    series: SeriesCoefficients
    pair_solutions: tuple[PairSolution, ...]


@dataclass(frozen=True)
class TStandardFail:
    """The T-standard recurrence is unsolvable at `fail_index`; with a
    1-dimensional kernel this proves no nonconstant analytic family
    passes through the base point."""

    fail_index: int
    unreachable_rhs: Vector
    t_basis: tuple[Vector, ...]
    leading: Vector
    prefix: SeriesCoefficients  # coefficients Y0 .. Y_{fail_index-1}


@dataclass(frozen=True)
class TStandardSurvived:
    """The T-standard recurrence stayed solvable through `depth`; this
    proves nothing by itself and is reported as evidence only."""

    depth: int
    t_basis: tuple[Vector, ...]
    leading: Vector
    series: SeriesCoefficients


Certificate = Union[
    FirstOrderRigid, SecondOrderObstruction, SpanClosureFlex, TStandardFail, TStandardSurvived
]

RIGIDITY_KINDS = (FirstOrderRigid, SecondOrderObstruction, TStandardFail)


# ---------------------------------------------------------------------------
# First-order rigidity: trivial kernel of the linearization


def first_order_rigidity_check(ops: BaseOperators) -> Optional[FirstOrderRigid]:
    """FirstOrderRigid certificate iff the linearization has trivial kernel."""
    if ops.kernel:
        return None
    # a trivial kernel means full column rank
    m = ops.system.m
    return FirstOrderRigid(rank=m, variables=m)


# ---------------------------------------------------------------------------
# Second-order obstruction: no kernel direction extends one more order


def _cokernel(ops: BaseOperators) -> list[Vector]:
    # functionals w with w^T C = 0; they cut out im C exactly
    return kernel_basis(ops.c_matrix.transpose())


def _dot(x: Vector, y: Vector) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _projected_form(ops: BaseOperators, w: Vector) -> tuple[tuple[Fraction, ...], ...]:
    # d x d symmetric matrix Q with Q[i][j] = w . B(K_i, K_j)
    kernel = ops.kernel
    d = len(kernel)
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append(_dot(w, ops.bilinear(kernel[i], kernel[j])))
        rows.append(tuple(row))
    return tuple(rows)


def _is_definite(q: tuple[tuple[Fraction, ...], ...]) -> bool:
    """Exact definiteness (positive or negative) via Sylvester's criterion."""
    d = len(q)
    minors = []
    for k in range(1, d + 1):
        sub = Matrix(k, k, tuple(tuple(q[i][j] for j in range(k)) for i in range(k)))
        minors.append(ratlinalg.determinant(sub))
    if all(m > 0 for m in minors):
        return True
    return all((m > 0 if k % 2 == 0 else m < 0) for k, m in enumerate(minors, start=1))


def _form_triple(q: tuple[tuple[Fraction, ...], ...]) -> tuple[Fraction, Fraction, Fraction]:
    # binary form a u^2 + b uv + c v^2 from a 2x2 symmetric matrix
    return (q[0][0], 2 * q[0][1], q[1][1])


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _form_value(triple, u: Fraction, v: Fraction) -> Fraction:
    a, b, c = triple
    return a * u * u + b * u * v + c * v * v


def _binary_forms_have_common_root(
    triples: Sequence[tuple[Fraction, Fraction, Fraction]]
) -> bool:
    """Whether the binary quadratic forms share a nonzero real root.

    Assumes every form has nonnegative discriminant (definite forms are
    caught earlier). The root lines of the first nonzero form are
    enumerated and checked against the remaining forms; irrational lines
    are handled exactly in the quadratic extension Q[sqrt(D)].
    """
    nonzero = [t for t in triples if any(x != 0 for x in t)]
    if not nonzero:
        return True  # every kernel direction works
    a, b, c = first = nonzero[0]
    rational_lines: list[tuple[Fraction, Fraction]] = []
    conjugate_disc: Optional[Fraction] = None
    if a == 0:
        rational_lines.append((Fraction(1), Fraction(0)))  # v = 0
        if b != 0:
            rational_lines.append((-c, b))  # b u + c v = 0
    else:
        disc = b * b - 4 * a * c
        root = _rational_sqrt(disc)
        if disc == 0:
            rational_lines.append((-b, 2 * a))
        elif root is not None:
            rational_lines.append((-b + root, 2 * a))
            rational_lines.append((-b - root, 2 * a))
        else:
            conjugate_disc = disc
    for line in rational_lines:
        if all(_form_value(t, *line) == 0 for t in nonzero):
            return True
    if conjugate_disc is not None:
        # direction (u, v) = (-b + sqrt(D), 2a); value of each form splits
        # as P + Q sqrt(D) and vanishes iff P = Q = 0
        d = conjugate_disc
        ok = True
        for ar, br, cr in nonzero:
            p = ar * (b * b + d) - 2 * a * b * br + 4 * a * a * cr
            qq = -2 * b * ar + 2 * a * br
            if p != 0 or qq != 0:
                ok = False
                break
        if ok:
            return True
    return False


def second_order_obstruction_check(ops: BaseOperators) -> Optional[SecondOrderObstruction]:
    """SecondOrderObstruction certificate iff it is proven that no nonzero
    kernel direction K has B(K,K) in the image of C.

    Decides exactly for kernel dimension <= 2. For dimension >= 3 only
    the definite-functional sufficient test runs; when it does not fire
    the question is left undecided and None is returned.
    """
    kernel = ops.kernel
    d = len(kernel)
    if d == 0:
        return SecondOrderObstruction(case="empty_kernel", kernel=())
    if d == 1:
        k = kernel[0]
        bval = ops.bilinear(k, k)
        if solve_general(ops.c_matrix, bval) is not None:
            return None
        return SecondOrderObstruction(case="single_direction", kernel=(k,), b_value=bval)
    cokernel = _cokernel(ops)
    if not cokernel:
        return None  # C surjective: every B value lies in the image
    forms = [_projected_form(ops, w) for w in cokernel]
    for w, q in zip(cokernel, forms):
        if _is_definite(q):
            return SecondOrderObstruction(
                case="definite_form", kernel=tuple(kernel), functional=w, form=q
            )
    if d == 2:
        triples = tuple(_form_triple(q) for q in forms)
        if not _binary_forms_have_common_root(triples):
            return SecondOrderObstruction(
                case="no_common_line",
                kernel=tuple(kernel),
                forms=triples,
                functionals=tuple(cokernel),
            )
        return None
    return None  # d >= 3 without a definite functional: undecided


# ---------------------------------------------------------------------------
# Flexibility: span closure of the bilinear products of a series


def span_closure_check(
    ops: BaseOperators, s: SeriesCoefficients, q: int, k: int
) -> Optional[SpanClosureFlex]:
    """Check the span-closure condition at (q, k) on the given series.

    Requires 1 <= k <= q <= degree(s). The series (truncated to q) must
    start at the base point and be an approximate solution of degree q; a
    constant series is rejected with None since it certifies only the
    constant family. All q(q-k+1) pair equations are solved in one
    elimination.
    """
    if not 1 <= k <= q:
        raise PreconditionError(f"need 1 <= k <= q, got (q, k) = ({q}, {k})")
    if s.degree < q:
        raise PreconditionError(f"series degree {s.degree} is below q = {q}")
    prefix = s.truncated(q)
    if prefix.coefficient(0) != ops.base_point:
        raise PreconditionError("series does not start at the base point")
    if residual_order(ops, prefix) <= q:
        raise PreconditionError(f"series is not an approximate solution of degree {q}")
    if prefix.is_constant():
        return None
    span = prefix.coeffs[k : q + 1]
    pairs = [(i, j) for i in range(1, q + 1) for j in range(k, q + 1)]
    rhss = [vec_scale(-2, ops.bilinear(prefix.coefficient(i), prefix.coefficient(j)))
            for i, j in pairs]
    solved = solve_in_span_coefficients(ops.c_matrix, rhss, span)
    if None in solved:
        return None
    pair_solutions = tuple(
        PairSolution(i, j, coeffs, vec) for (i, j), (coeffs, vec) in zip(pairs, solved)
    )
    return SpanClosureFlex(q=q, k=k, series=prefix, pair_solutions=pair_solutions)


def canonical_candidates(ops: BaseOperators, q_max: int) -> list[SeriesCoefficients]:
    """Approximate solutions grown canonically from each kernel direction,
    including variants with up to two leading zero coefficients. A
    candidate stops early where the canonical extension step becomes
    unsolvable."""
    out = []
    zero = zero_vector(ops.system.m)
    for kvec in ops.kernel:
        for leading_zeros in (0, 1, 2):
            coeffs = [ops.base_point] + [zero] * leading_zeros + [kvec]
            s = SeriesCoefficients(tuple(coeffs))
            if s.degree > q_max:
                s = s.truncated(q_max)
            while s.degree < q_max:
                nxt = extend_step(ops, s)
                if nxt is None:
                    break
                s = s.appended(nxt)
            out.append(s)
    return out


def span_closure_search(ops: BaseOperators, q_max: int) -> Optional[SpanClosureFlex]:
    """Scan (q, k) pairs in increasing lexicographic order over the
    canonical candidate series and return the first certificate.

    The scan keeps 2k <= q + 1: every unordered index pair {l, j} with
    l + j > q entering a later recurrence right-hand side then satisfies
    max(l, j) >= (q + 1) / 2 >= k, so the span condition covers it and a
    found certificate genuinely extends to all orders. Returning None is
    NOT a rigidity proof: systems exist whose analytic families satisfy
    no span-closure condition at any (q, k).
    """
    if q_max < 1:
        raise PreconditionError("q_max must be at least 1")
    candidates = canonical_candidates(ops, q_max)
    for q in range(2, q_max + 1):
        for k in range(1, (q + 1) // 2 + 1):
            for cand in candidates:
                if cand.degree < q:
                    continue
                cert = span_closure_check(ops, cand, q, k)
                if cert is not None:
                    return cert
    return None


# ---------------------------------------------------------------------------
# T-standard formal solutions (kernel dimension 1)


@dataclass(frozen=True)
class TStandardConfig:
    t_basis: tuple[Vector, ...]
    max_depth: int
    leading_coeff: Vector


def default_t_standard_config(ops: BaseOperators, max_depth: int = 24) -> TStandardConfig:
    """T is the coordinate hyperplane omitting the kernel vector's pivot
    coordinate (largest absolute value, ties to the lowest index), which
    keeps T rational and transversal to the kernel."""
    if len(ops.kernel) != 1:
        raise InapplicableError(
            f"T-standard analysis needs a 1-dimensional kernel, got {len(ops.kernel)}"
        )
    kvec = ops.kernel[0]
    pivot = max(range(len(kvec)), key=lambda i: (abs(kvec[i]), -i))
    m = ops.system.m
    basis = tuple(
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(m))
        for i in range(m)
        if i != pivot
    )
    return TStandardConfig(t_basis=basis, max_depth=max_depth, leading_coeff=kvec)


def _validate_t_standard(ops: BaseOperators, cfg: TStandardConfig) -> None:
    if len(ops.kernel) != 1:
        raise InapplicableError(
            f"T-standard analysis needs a 1-dimensional kernel, got {len(ops.kernel)}"
        )
    if cfg.max_depth < 2:
        raise PreconditionError("max_depth must be at least 2")
    lead = cfg.leading_coeff
    if is_zero_vector(lead) or not is_zero_vector(ops.c_matrix.mul_vec(lead)):
        raise PreconditionError("leading coefficient must be a nonzero kernel vector")
    m = ops.system.m
    if len(cfg.t_basis) != m - 1:
        raise PreconditionError("T must have codimension 1")
    combined = list(cfg.t_basis) + [lead]
    if kernel_basis(Matrix.from_rows(combined, cols=m)):
        raise PreconditionError("T is degenerate or meets the kernel of C")


def t_standard_run(ops: BaseOperators, cfg: TStandardConfig) -> Certificate:
    """Grow the unique T-standard formal solution with the configured
    leading coefficient. An unsolvable step at index p proves (kernel
    dimension 1) that no nonconstant analytic family exists through the
    base point; surviving to max_depth proves nothing."""
    _validate_t_standard(ops, cfg)
    s = SeriesCoefficients((ops.base_point, cfg.leading_coeff))
    for p in range(2, cfg.max_depth + 1):
        rhs = recurrence_rhs(ops, s, p)
        got = solve_in_span_coefficients(ops.c_matrix, [rhs], cfg.t_basis)[0]
        if got is None:
            return TStandardFail(
                fail_index=p,
                unreachable_rhs=rhs,
                t_basis=cfg.t_basis,
                leading=cfg.leading_coeff,
                prefix=s,
            )
        s = s.appended(got[1])
    return TStandardSurvived(
        depth=cfg.max_depth, t_basis=cfg.t_basis, leading=cfg.leading_coeff, series=s
    )


# ---------------------------------------------------------------------------
# Orchestration


@dataclass(frozen=True)
class AnalyzeConfig:
    q_max: int = 8
    max_depth: int = 24

    def __post_init__(self):
        if self.q_max < 1 or self.max_depth < 2:
            raise PreconditionError("analysis caps must be positive")


@dataclass(frozen=True)
class AnalysisReport:
    verdict: str
    certificate: Optional[Certificate]
    depth_reached: int
    notes: tuple[str, ...]


def analyze_system(
    sys: QuadraticSystem, x0: Vector, config: AnalyzeConfig = AnalyzeConfig()
) -> AnalysisReport:
    """Run the rigidity tests and the flexibility search in order:
    trivial kernel, order-2 obstruction, span-closure search, and (for a
    1-dimensional kernel) the T-standard recurrence."""
    ops = linearize(sys, x0)
    d = len(ops.kernel)
    notes = [f"kernel dimension {d}"]

    cert = first_order_rigidity_check(ops)
    if cert is not None:
        notes.append("first-order rigid: the linearization has trivial kernel")
        return AnalysisReport(RIGID, cert, 1, tuple(notes))

    cert3 = second_order_obstruction_check(ops)
    if cert3 is not None:
        notes.append(
            "order-2 obstruction: no first-order deformation extends to second order"
        )
        return AnalysisReport(RIGID, cert3, 2, tuple(notes))
    if d >= 3:
        notes.append("order-2 obstruction test undecided (kernel dimension >= 3)")

    cert1 = span_closure_search(ops, config.q_max)
    if cert1 is not None:
        notes.append(f"span-closure certificate at (q, k) = ({cert1.q}, {cert1.k})")
        return AnalysisReport(FLEXIBLE, cert1, cert1.q, tuple(notes))
    notes.append(
        f"no span-closure certificate up to q_max = {config.q_max}; "
        "absence of a certificate is not a rigidity proof"
    )

    if d == 1:
        outcome = t_standard_run(ops, default_t_standard_config(ops, config.max_depth))
        if isinstance(outcome, TStandardFail):
            notes.append(
                f"T-standard recurrence unsolvable at order {outcome.fail_index}: "
                "no nonconstant analytic family exists"
            )
            return AnalysisReport(RIGID, outcome, outcome.fail_index, tuple(notes))
        notes.append(
            f"T-standard recurrence solvable through depth {outcome.depth} (cap reached)"
        )
        return AnalysisReport(INCONCLUSIVE, outcome, outcome.depth, tuple(notes))

    return AnalysisReport(INCONCLUSIVE, None, config.q_max, tuple(notes))


# ---------------------------------------------------------------------------
# Independent re-verification of emitted certificates


def replay_certificate(sys: QuadraticSystem, x0: Vector, cert: Certificate) -> bool:
    """Re-check a certificate against the system from scratch: linear
    systems are re-solved and memberships re-decided; stored witness data
    must reproduce exactly."""
    ops = linearize(sys, x0)
    if isinstance(cert, FirstOrderRigid):
        return not ops.kernel and cert.rank == cert.variables == ops.system.m

    if isinstance(cert, SecondOrderObstruction):
        return _replay_obstruction(ops, cert)

    if isinstance(cert, SpanClosureFlex):
        return _replay_span_closure(ops, cert)

    if isinstance(cert, TStandardFail):
        return _replay_t_standard(ops, cert.t_basis, cert.leading, cert.prefix,
                                  fail_index=cert.fail_index,
                                  unreachable_rhs=cert.unreachable_rhs)

    if isinstance(cert, TStandardSurvived):
        return _replay_t_standard(ops, cert.t_basis, cert.leading, cert.series,
                                  fail_index=None, unreachable_rhs=None)

    return False


def _replay_obstruction(ops: BaseOperators, cert: SecondOrderObstruction) -> bool:
    d = len(ops.kernel)
    if cert.case != "single_direction" and tuple(cert.kernel) != tuple(ops.kernel):
        return False  # only a single direction may store another kernel vector
    if cert.case == "empty_kernel":
        return d == 0
    if cert.case == "single_direction":
        if d != 1 or len(cert.kernel) != 1:
            return False
        k = cert.kernel[0]
        if not is_zero_vector(ops.c_matrix.mul_vec(k)) or is_zero_vector(k):
            return False
        bval = ops.bilinear(k, k)
        return bval == cert.b_value and solve_general(ops.c_matrix, bval) is None
    if cert.case == "definite_form":
        w = cert.functional
        if w is None or cert.form is None:
            return False
        if not is_zero_vector(ops.c_matrix.transpose().mul_vec(w)):
            return False  # functional must annihilate the image of C
        return _projected_form(ops, w) == cert.form and _is_definite(cert.form)
    if cert.case == "no_common_line":
        if d != 2 or cert.functionals is None or cert.forms is None:
            return False
        for w in cert.functionals:
            if not is_zero_vector(ops.c_matrix.transpose().mul_vec(w)):
                return False
        recomputed = tuple(
            _form_triple(_projected_form(ops, w)) for w in cert.functionals
        )
        if recomputed != cert.forms:
            return False
        return not _binary_forms_have_common_root(cert.forms)
    return False


def _replay_span_closure(ops: BaseOperators, cert: SpanClosureFlex) -> bool:
    s = cert.series
    q, k = cert.q, cert.k
    if s.degree != q or not 1 <= k <= q:
        return False
    if s.coefficient(0) != ops.base_point:
        return False
    if residual_order(ops, s) <= q:
        return False
    if s.is_constant():
        return False
    span = s.coeffs[k : q + 1]
    required = {(i, j) for i in range(1, q + 1) for j in range(k, q + 1)}
    seen = set()
    for ps in cert.pair_solutions:
        if len(ps.coefficients) != len(span):
            return False
        combo = zero_vector(ops.system.m)
        for c, vec in zip(ps.coefficients, span):
            combo = vec_add(combo, vec_scale(c, vec))
        if combo != ps.vector:
            return False
        rhs = vec_scale(-2, ops.bilinear(s.coefficient(ps.i), s.coefficient(ps.j)))
        if ops.c_matrix.mul_vec(combo) != rhs:
            return False
        seen.add((ps.i, ps.j))
    return seen == required


def _in_span(vec: Vector, span: Sequence[Vector]) -> bool:
    if is_zero_vector(vec):
        return True
    cols = ratlinalg.matrix_from_columns(list(span), rows=len(vec))
    return solve_general(cols, vec) is not None


def _replay_t_standard(
    ops: BaseOperators,
    t_basis: tuple[Vector, ...],
    leading: Vector,
    coeffs: SeriesCoefficients,
    fail_index: Optional[int],
    unreachable_rhs: Optional[Vector],
) -> bool:
    if len(ops.kernel) != 1:
        return False
    try:
        _validate_t_standard(
            ops, TStandardConfig(t_basis=t_basis, max_depth=max(2, coeffs.degree + 1),
                                 leading_coeff=leading)
        )
    except (PreconditionError, InapplicableError):
        return False
    if coeffs.coefficient(0) != ops.base_point or coeffs.coefficient(1) != leading:
        return False
    t_span = list(t_basis)
    for p in range(2, coeffs.degree + 1):
        y = coeffs.coefficient(p)
        if not _in_span(y, t_span):
            return False
        rhs = recurrence_rhs(ops, coeffs.truncated(p - 1), p)
        if ops.c_matrix.mul_vec(y) != rhs:
            return False
    if fail_index is not None:
        if coeffs.degree != fail_index - 1:
            return False
        rhs = recurrence_rhs(ops, coeffs, fail_index)
        if rhs != unreachable_rhs:
            return False
        return solve_in_span_coefficients(ops.c_matrix, [rhs], t_basis)[0] is None
    return True
