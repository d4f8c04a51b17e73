"""Certificate engines deciding whether a base solution is rigid or
extends to an analytic family.

Three rigidity tests (trivial kernel, order-2 obstruction, failure of a
T-standard formal solution when the kernel is a line) and one
flexibility test (span closure of the bilinear products of a candidate
series) are implemented, together with the orchestrating analyzer. Every
series they grow is a canonical extension by `series.extend_to`; the
T-standard solution is the one that starts [X0, K], read in T = ker e_f
for the free column f of C. Every emitted certificate carries enough
exact witness data to be re-verified from scratch by
`replay_certificate`, which accepts any rational transversal T.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Sequence, Union

from . import ratlinalg
from .quadsys import BaseOperators, QuadraticSystem, linearize
from .ratlinalg import (
    DimensionError,
    Matrix,
    Vector,
    _combine,
    _fractions,
    _integers,
    is_zero_vector,
    kernel_basis,
    solve_in_span_coefficients,
    zero_vector,
)
from .series import (
    SeriesCoefficients,
    _recurrence_sum,
    _vanishes,
    extend_to,
    recurrence_rhs,
    residual_order,
)

FLEXIBLE = "Flexible"
RIGID = "Rigid"
INCONCLUSIVE = "Inconclusive"


class PreconditionError(ValueError):
    """An operation was invoked outside its stated preconditions, or a
    test was asked of a system it does not apply to."""


@dataclass(frozen=True)
class AnalyzeConfig:
    q_max: int = 8
    max_depth: int = 24

    def __post_init__(self):
        for name, least in (("q_max", 1), ("max_depth", 2)):
            if getattr(self, name) < least:
                raise PreconditionError(f"invalid analysis caps: {name} must be at least "
                                        f"{least}, got {getattr(self, name)}")


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
    normal: Vector  # T = ker normal
    leading: Vector
    prefix: SeriesCoefficients  # coefficients Y0 .. Y_{fail_index-1}


@dataclass(frozen=True)
class TStandardSurvived:
    """The T-standard recurrence stayed solvable through `depth`; this
    proves nothing by itself and is reported as evidence only."""

    depth: int
    normal: Vector  # T = ker normal
    leading: Vector
    series: SeriesCoefficients


Certificate = Union[
    FirstOrderRigid, SecondOrderObstruction, SpanClosureFlex, TStandardFail, TStandardSurvived
]

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
        sub = Matrix.from_rows([q[i][:k] for i in range(k)])
        minors.append(ratlinalg.determinant(sub))
    if all(m > 0 for m in minors):
        return True
    return all((m > 0 if k % 2 == 0 else m < 0) for k, m in enumerate(minors, start=1))


def _form_triple(q: tuple[tuple[Fraction, ...], ...]) -> tuple[Fraction, Fraction, Fraction]:
    # binary form a u^2 + b uv + c v^2 from a 2x2 symmetric matrix
    return (q[0][0], 2 * q[0][1], q[1][1])


def _stripped(coeffs) -> list[Fraction]:
    # coefficient list, highest degree first, without its leading zeros
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    return coeffs


def _polynomial_gcd(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Euclid over Q on nonzero coefficient lists, highest degree first
    and without leading zeros; the gcd is returned up to a scalar."""
    while g:
        while len(f) >= len(g):  # f := f mod g
            ratio = f[0] / g[0]
            f = _stripped(x - ratio * y for x, y in zip_longest(f[1:], g[1:], fillvalue=0))
        f, g = g, f
    return f


def _binary_forms_have_common_root(
    triples: Sequence[tuple[Fraction, Fraction, Fraction]]
) -> bool:
    """Whether the binary quadratic forms a u^2 + b uv + c v^2 share a
    nonzero real root (u, v).

    When every nonzero form has a = 0 they all vanish on the line v = 0.
    Otherwise that line is no common root, and the common root lines are
    (u, 1) for the real roots u of the gcd over Q of the forms at v = 1:
    a linear gcd has one, and a quadratic gcd has real roots exactly
    when its discriminant is not negative.
    """
    nonzero = [t for t in triples if any(t)]
    if all(a == 0 for a, _, _ in nonzero):
        return True  # with no form left, every kernel direction works
    g = functools.reduce(_polynomial_gcd, (_stripped(t) for t in nonzero))
    if len(g) == 3:
        a, b, c = g
        return b * b - 4 * a * c >= 0
    return len(g) == 2


def second_order_obstruction_check(ops: BaseOperators) -> Optional[SecondOrderObstruction]:
    """SecondOrderObstruction certificate iff it is proven that no nonzero
    kernel direction K has B(K,K) in the image of C.

    Decides exactly for kernel dimension 1 and 2. For dimension >= 3
    only the definite-functional sufficient test runs; when it does not
    fire the question is left undecided and None is returned. A trivial
    kernel is rejected with PreconditionError: `first_order_rigidity_check`
    settles it, and `analyze_system` runs that check first.
    """
    kernel = ops.kernel
    d = len(kernel)
    if d == 0:
        raise PreconditionError("the order-2 obstruction test needs a nontrivial kernel")
    if d == 1:
        k = kernel[0]
        if ops.solve(ops._product(k, k)) is not None:
            return None
        return SecondOrderObstruction(
            case="single_direction", kernel=(k,), b_value=ops.bilinear(k, k))
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
    constant series certifies only the constant family and gives None.
    Each prefix has one record in the operators' `_prefixes`, keyed by
    the ids of Y1..Yq: (prefix, k0, b), the series truncated to q and
    the last (k0, b) for which a product B(Ya, Yb) was proven outside
    C·span{Yk0..Yq}. The first check of a prefix validates it once (if
    its one-shorter prefix has a record, only the t^q coefficient is
    tested, else `residual_order` must exceed q) and records (q, 0), or
    (0, q) for a constant prefix, which so fails at every k; later
    checks neither truncate nor validate. The span, the products and the
    images C Yk .. C Yq come from the operators' memos, scaled.

    B is symmetric, so the q(q-k+1) pair equations C Y = B(Yi, Yj) have
    one right-hand side per distinct product B(Ya, Yb), a <= b, b >= k;
    these are solved in one elimination, ordered by decreasing b, which
    gives up before building any coefficient when one of them has none.
    Only when all solve are the coefficients scaled by -2 to solve the
    pair equations C Y = -2 B(Yi, Yj), and each vector Y summed from the
    span once; (j, i) gets the values of (i, j). The canonical solution
    is linear in the right-hand side, so this equals solving each scaled
    equation on its own.

    A failure carries over to later k. The first product B(Ya, Yb) found
    outside C·span{Yk..Yq} has the largest b of the failing ones, and it
    stays outside the smaller C·span{Yk'..Yq} for k < k' <= b, where the
    pair (a, b) is required too. The record then keeps (k, b), and a
    check at such a k' returns None after its preconditions, without
    building its right-hand sides.

    A result with 2k > q + 1 is not a proof of flexibility: the span
    condition then misses pairs that enter later orders (see
    `span_closure_search`), and `replay_certificate` rejects it.
    """
    if not 1 <= k <= q:
        raise PreconditionError(f"need 1 <= k <= q, got (q, k) = ({q}, {k})")
    if s.degree < q:
        raise PreconditionError(f"series degree {s.degree} is below q = {q}")
    if s.coefficient(0) != ops.base_point:
        raise PreconditionError("series does not start at the base point")
    key = tuple(map(id, s.coeffs[1 : q + 1]))
    record = ops._prefixes.get(key)
    if record is None:
        prefix = s.truncated(q)
        # the t^p coefficient for p < q depends on Y1..Y(q-1) alone
        if not (_vanishes(ops, prefix, q) if key[:-1] in ops._prefixes
                else residual_order(ops, prefix) > q):
            raise PreconditionError(f"series is not an approximate solution of degree {q}")
        record = ops._prefixes[key] = (prefix, 0, q) if prefix.is_constant() else (prefix, q, 0)
    prefix, failed_k, failed_b = record
    if failed_k < k <= failed_b:
        return None  # a constant prefix, or a product outside a larger span
    span = prefix.coeffs[k : q + 1]
    # the distinct products B(Ya, Yb), a <= b, b >= k, largest b first
    products = [(a, b) for b in range(q, k - 1, -1) for a in range(1, b + 1)]
    rhss = [ops._product(prefix.coefficient(a), prefix.coefficient(b)) for a, b in products]
    solved = solve_in_span_coefficients([ops._image(y) for y in span], rhss)
    if isinstance(solved, int):
        ops._prefixes[key] = (prefix, k, products[solved][1])
        return None
    scaled_span = [ops._scaled(y) for y in span]
    solutions = {}
    for ab, coeffs in zip(products, solved):
        coeffs = tuple(-2 * c for c in coeffs)
        solutions[ab] = coeffs, _fractions(_combine(coeffs, scaled_span, ops.system.m))
    pair_solutions = tuple(
        PairSolution(i, j, *solutions[min(i, j), max(i, j)])
        for i in range(1, q + 1) for j in range(k, q + 1)
    )
    return SpanClosureFlex(q=q, k=k, series=prefix, pair_solutions=pair_solutions)


def canonical_candidates(ops: BaseOperators, q_max: int) -> list[SeriesCoefficients]:
    """Approximate solutions grown canonically from each kernel direction
    K: for r = 1, 2, 3 the canonical extension of [X0] + [0]*(r-1) + [K],
    up to degree q_max or to where an extension step becomes unsolvable.

    Only X, the extension of [X0, K], is grown; the variant for r is
    X(t^r). By induction on p, its coefficient V_p is X_{p/r} when r
    divides p and 0 otherwise. At an index p that r does not divide,
    every product B(V_l, V_{p-l}) of the recurrence has a zero factor, so
    the right-hand side is 0 and so is its canonical solution. At p = r*n
    the nonzero products are B(X_l, X_{n-l}), the right-hand side of X_n,
    which has the same canonical solution. So if X stalls at degree s
    (no X_{s+1}), the variant stalls at degree r*(s+1) - 1.

    Likewise a span check on the variant at (q, k) equals the check on X
    at (q // r, ceil(k / r)). The scan's bound 2k <= q + 1 is not kept by
    that map (r = 3 takes (8, 4) to (2, 2)), and some variants certify
    at points whose base check the scan never runs."""
    out = []
    zero = zero_vector(ops.system.m)
    for kvec in ops.kernel:
        base = extend_to(ops, SeriesCoefficients((ops.base_point, kvec)), q_max)
        for r in (1, 2, 3):
            degree = min(q_max, r * (base.degree + 1) - 1)
            out.append(SeriesCoefficients(tuple(
                base.coefficient(p // r) if p % r == 0 else zero for p in range(degree + 1))))
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


def _line_kernel(ops: BaseOperators) -> Vector:
    # the one kernel vector K, with a message naming the precondition otherwise
    if len(ops.kernel) != 1:
        raise PreconditionError(
            f"T-standard analysis needs a 1-dimensional kernel, got {len(ops.kernel)}"
        )
    return ops.kernel[0]


def _validate_t_standard(ops: BaseOperators, normal: Vector, lead: Vector) -> None:
    """Check the T-standard preconditions on T = ker normal and the
    leading coefficient. normal . lead != 0 also rules out a zero normal."""
    _line_kernel(ops)
    if is_zero_vector(lead) or any(ops._image(lead)[1]):
        raise PreconditionError("leading coefficient must be a nonzero kernel vector")
    if len(normal) != ops.system.m or _dot(normal, lead) == 0:
        raise PreconditionError("T must be a hyperplane that meets the kernel of C only in 0")


def t_standard_run(ops: BaseOperators, max_depth: int = AnalyzeConfig.max_depth) -> Certificate:
    """Grow the T-standard formal solution led by the kernel vector K up
    to `max_depth`. An unsolvable step at index p proves (kernel
    dimension 1) that no nonconstant analytic family exists through the
    base point; surviving to max_depth proves nothing.

    T = ker e_f, f the last nonzero entry of K. That is the one free
    column of the reduced form of C: `kernel_basis` puts K's nonzeros at
    f and at pivot columns left of f only. The canonical solution of
    each step is 0 in every free column, so it lies in T, and the
    T-standard series is the canonical extension of [X0, K]. ker C =
    span{K} and K_f != 0, so C maps T one-to-one onto im C: a step is
    solvable in T exactly when it is solvable at all. Any other rational
    transversal gives a reparametrization t -> t + a2 t^2 + ... of the
    same series, and so the same outcome.
    """
    lead = _line_kernel(ops)
    if max_depth < 2:
        raise PreconditionError("max_depth must be at least 2")
    f = max(i for i, x in enumerate(lead) if x)
    normal = tuple(Fraction(int(i == f)) for i in range(len(lead)))
    s = extend_to(ops, SeriesCoefficients((ops.base_point, lead)), max_depth)
    if s.degree < max_depth:
        p = s.degree + 1
        return TStandardFail(p, recurrence_rhs(ops, s, p), normal, lead, s)
    return TStandardSurvived(max_depth, normal, lead, s)


# ---------------------------------------------------------------------------
# Orchestration


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
        outcome = t_standard_run(ops, config.max_depth)
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
    must reproduce exactly. Witness data of the wrong shape, such as a
    vector of the wrong length, is rejected with False."""
    ops = linearize(sys, x0)
    try:
        return _replay(ops, cert)
    except (DimensionError, PreconditionError):
        return False


def _replay(ops: BaseOperators, cert: Certificate) -> bool:
    if isinstance(cert, FirstOrderRigid):
        return not ops.kernel and cert.rank == cert.variables == ops.system.m

    if isinstance(cert, SecondOrderObstruction):
        return _replay_obstruction(ops, cert)

    if isinstance(cert, SpanClosureFlex):
        return _replay_span_closure(ops, cert)

    if isinstance(cert, TStandardFail):
        return _replay_t_standard(ops, cert, cert.prefix)

    if isinstance(cert, TStandardSurvived):
        return cert.series.degree == cert.depth and _replay_t_standard(ops, cert, cert.series)

    return False


def _replay_obstruction(ops: BaseOperators, cert: SecondOrderObstruction) -> bool:
    d = len(ops.kernel)
    if d == 0:
        return False  # the order-2 test does not apply to a trivial kernel
    if cert.case != "single_direction" and tuple(cert.kernel) != tuple(ops.kernel):
        return False  # only a single direction may store another kernel vector
    if cert.case == "single_direction":
        if d != 1 or len(cert.kernel) != 1:
            return False
        k = cert.kernel[0]
        if any(ops._image(k)[1]) or is_zero_vector(k):
            return False
        return ops.bilinear(k, k) == cert.b_value and ops.solve(ops._product(k, k)) is None
    c_transposed = ops.c_matrix.transpose()
    if cert.case == "definite_form":
        w = cert.functional
        if w is None or cert.form is None:
            return False
        if not is_zero_vector(c_transposed.mul_vec(w)):
            return False  # functional must annihilate the image of C
        return _projected_form(ops, w) == cert.form and _is_definite(cert.form)
    if cert.case == "no_common_line":
        if d != 2 or cert.functionals is None or cert.forms is None:
            return False
        for w in cert.functionals:
            if not is_zero_vector(c_transposed.mul_vec(w)):
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
    if s.degree != q or not 1 <= k <= q or 2 * k > q + 1:
        return False
    if s.coefficient(0) != ops.base_point:
        return False
    if residual_order(ops, s) <= q:
        return False
    if s.is_constant():
        return False
    m, n = ops.system.m, ops.system.n
    # each pair is two int zero tests on the memos' scaled vectors: sum c_i Y_i - v = 0
    # and, as C·sum c_i Y_i = sum c_i C·Y_i, sum c_i C·Y_i + 2 B(Y_i, Y_j) = 0
    ys = s.coeffs[k : q + 1]
    span = [ops._scaled(y) for y in ys]
    images = [ops._image(y) for y in ys]
    required = {(i, j) for i in range(1, q + 1) for j in range(k, q + 1)}
    seen = set()
    for ps in cert.pair_solutions:
        if ((ps.i, ps.j) not in required or len(ps.coefficients) != len(span)
                or len(ps.vector) != m):
            return False
        if any(_combine((*ps.coefficients, -1), (*span, _integers(ps.vector)), m)[1]):
            return False
        product = ops._product(s.coefficient(ps.i), s.coefficient(ps.j))
        if any(_combine((*ps.coefficients, 2), (*images, product), n)[1]):
            return False
        seen.add((ps.i, ps.j))
    return seen == required


def _replay_t_standard(ops: BaseOperators, cert: Union[TStandardFail, TStandardSurvived],
                       coeffs: SeriesCoefficients) -> bool:
    """Check a T-standard certificate for any rational T = ker normal
    that meets ker C only in 0, not only the ker e_f that
    `t_standard_run` uses: the series leads with the stored kernel
    vector, its later coefficients lie in T, it solves the recurrence
    through its degree, and a failure's right-hand side is outside im C."""
    _validate_t_standard(ops, cert.normal, cert.leading)
    if coeffs.coeffs[:2] != (ops.base_point, cert.leading):
        return False
    if any(_dot(cert.normal, y) != 0 for y in coeffs.coeffs[2:]):
        return False
    if residual_order(ops, coeffs) <= coeffs.degree:
        return False
    if isinstance(cert, TStandardFail):
        if coeffs.degree != cert.fail_index - 1:
            return False
        rhs = _recurrence_sum(ops, coeffs, cert.fail_index)
        if _fractions(rhs) != cert.unreachable_rhs:
            return False
        # C maps T onto im C (checked above), so outside im C is outside C(T)
        return ops.solve(rhs) is None
    return True
