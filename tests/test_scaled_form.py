"""The analysis holds its vectors and matrices in one scaled form, ints
over one common denominator: the stored `Matrix`, the linearization C,
the polarization kernel, the image product, the recurrence sum and the
solves on that form agree with Fraction references, and each series
coefficient is scaled once per operators."""

from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexcert import certify, quadsys, ratlinalg, series
from flexcert.certify import analyze_system, replay_certificate
from flexcert.quadsys import evaluate, linearize, validate_and_symmetrize
from flexcert.ratlinalg import (
    Matrix,
    _fractions,
    _integers,
    combination,
    determinant,
    eliminate,
    kernel_basis,
    solve_general,
    solve_in_span_coefficients,
    zero_vector,
)
from flexcert.rigidity import analyze_framework, build_edge_system
from flexcert.series import SeriesCoefficients

from conftest import (dense_product, dense_transpose, load_corpus_framework,
                      load_corpus_system, reference_jacobian)
from test_ratlinalg import _fractions_built, _laplace

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
PRIMES = (2, 3, 5, 7)
rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def systems_with_base(draw, coordinates=st.builds(F, st.integers(-3, 3))):
    """A system through a drawn base point whose equation k has den_k =
    PRIMES[k] when the point is integral: every coefficient is an integer
    or an integer over that prime, and one x_i^2 term is exactly ±1 over
    it, so the lcm across equations is never one equation's den. A
    rational point adds the denominator of its constant to den_k."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = tuple(draw(coordinates) for _ in range(m))
    index = st.integers(0, m - 1)
    alphas, betas = [], []
    for p in PRIMES[:n]:
        coeff = st.builds(F, st.integers(-4, 4), st.sampled_from([1, p]))
        i = draw(index)
        others = st.tuples(index, index, coeff).filter(lambda t: t[:2] != (i, i))
        alphas.append([(i, i, F(draw(st.sampled_from([-1, 1])), p))]
                      + draw(st.lists(others, max_size=5)))
        betas.append(draw(st.lists(st.tuples(index, coeff), max_size=3)))
    gammas = [-r for r in evaluate(validate_and_symmetrize(m, alphas, betas, [0] * n), base)]
    sys_ = validate_and_symmetrize(m, alphas, betas, gammas)
    assert all(den % p == 0 for den, p in zip(sys_.den, PRIMES))
    assert sys_.den == PRIMES[:n] or any(x.denominator > 1 for x in base)
    return sys_, base


def _reference_bilinear(sys_, x, y):
    # B(X, Y) read off the alpha view in Fractions, i = j terms included
    return tuple(sum((c * x[i] * y[i] if i == j else c * (x[i] * y[j] + x[j] * y[i])
                      for i, j, c in alpha), F(0)) for alpha in sys_.alpha)


def _reference_rref(rows, cols):
    # Gauss–Jordan in Fractions, pivoting in the first `cols` columns only:
    # the reduced rows (pivot entry 1), their pivot columns and the rows left
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots, rows[len(pivots):]


def _reference_kernel(dense, cols):
    # one vector per free column of the RREF, primitive and positive there
    reduced, pivots, _ = _reference_rref(dense, cols)
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        vec = [F(int(j == free)) for j in range(cols)]
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        scale = lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (scale // x.denominator) for x in vec]
        basis.append(tuple(F(x // gcd(*ints)) for x in ints))
    return basis


def _reference_solve(dense, cols, v):
    # the canonical solution of M·X = v, free coordinates zero, or None
    reduced, pivots, rest = _reference_rref(
        [list(r) + [x] for r, x in zip(dense, v)], cols)
    if any(row[-1] for row in rest):
        return None
    solution = [F(0)] * cols
    for row, pc in zip(reduced, pivots):
        solution[pc] = row[-1]
    return tuple(solution)


dense_matrices = st.integers(0, 5).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(st.just(F(0)), rationals), min_size=cols, max_size=cols),
    max_size=5).map(lambda rows: (rows, cols)))


@PROPERTY
@given(dense_matrices, st.data())
def test_stored_matrix_matches_dense_references(case, data):
    dense, cols = case
    m = Matrix.from_rows(dense, cols=cols)
    values = [v for row in m.nonzeros for _, v in row]
    assert m.common == lcm(*(x.denominator for r in dense for x in r))
    assert gcd(m.common, *values) == 1 and all(type(v) is int for v in values)
    assert {(i, j): F(v, m.common) for i, row in enumerate(m.nonzeros) for j, v in row} == {
        (i, j): x for i, r in enumerate(dense) for j, x in enumerate(r) if x}
    x = tuple(data.draw(rationals) for _ in range(cols))
    product = dense_product(dense, x)
    assert _fractions(m._mul_scaled(_redundant(x, data.draw(st.integers(1, 4))))) == product
    assert kernel_basis(m) == _reference_kernel(dense, cols)
    record = eliminate(m)
    for v in (product, tuple(data.draw(rationals) for _ in dense)):
        assert solve_general(record, _integers(v)) == _reference_solve(dense, cols, v)
    k = min(len(dense), cols)
    square = [r[:k] for r in dense[:k]]
    assert determinant(Matrix.from_rows(square, cols=k)) == _laplace(square)


# x^2 - 1/4 = 0 at x = 1/2: row 8 over den·d = 4·2 reduces to 1 over 1
@example((validate_and_symmetrize(1, [[(0, 0, 1)]], [[]], [F(-1, 4)]), (F(1, 2),)))
@PROPERTY
@given(systems_with_base(coordinates=rationals))
def test_linearize_stores_c_scaled_over_its_least_common_denominator(case):
    sys_, base = case
    c = linearize(sys_, base).c_matrix
    assert all(type(v) is int for row in c.nonzeros for _, v in row)
    assert c == Matrix.from_rows(reference_jacobian(sys_, base), cols=sys_.m)


def _redundant(v, factor):
    # v scaled over a multiple of its least common denominator
    common, ints = _integers(v)
    return common * factor, [x * factor for x in ints]


@PROPERTY
@given(systems_with_base(), st.data())
def test_scaled_kernels_match_fraction_references(case, data):
    sys_, base = case
    ops = linearize(sys_, base)
    m, n = sys_.m, sys_.n

    def draw_vector():
        return tuple(data.draw(rationals) for _ in range(m))

    x, y = draw_vector(), draw_vector()
    f, g = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    product = _reference_bilinear(sys_, x, y)
    assert _fractions(quadsys._polarize(sys_, _redundant(x, f), _redundant(y, g))) == product
    assert quadsys.bilinear(sys_, x, y) == product
    assert _fractions(ops._product(x, y)) == product == _fractions(ops._product(y, x))
    image = dense_product(reference_jacobian(sys_, base), y)
    assert _fractions(ops.c_matrix._mul_scaled(_redundant(y, f))) == image
    assert _fractions(ops._image(y)) == image
    s = SeriesCoefficients((ops.base_point, x, y, draw_vector()))
    for p in range(1, s.degree + 2):
        terms = [_reference_bilinear(sys_, s.coefficient(l), s.coefficient(p - l))
                 for l in range(max(1, p - s.degree), min(p - 1, s.degree) + 1)]
        expected = tuple(-sum(column, F(0)) for column in zip(*terms)) or zero_vector(n)
        assert _fractions(series._recurrence_sum(ops, s, p)) == expected
        assert combination((-1,) * len(terms), terms, n) == expected
        assert series.recurrence_rhs(ops, s, p) == expected


def _outside(rows, v, n):
    # whether v is outside the span of `rows`, by the Fraction functionals
    # that annihilate every row
    return any(sum((a * b for a, b in zip(w, v)), F(0))
               for w in kernel_basis(Matrix.from_rows(rows, cols=n)))


@PROPERTY
@given(systems_with_base(), st.data())
def test_scaled_solves_match_fraction_references(case, data):
    sys_, base = case
    c = linearize(sys_, base).c_matrix
    jacobian = reference_jacobian(sys_, base)
    m, n = sys_.m, sys_.n
    factor = st.integers(1, 6)

    def draw_vector(size):
        return tuple(data.draw(rationals) for _ in range(size))

    # one solve against the record of C: the canonical solution or None,
    # however v is scaled, as the cokernel decides
    record = eliminate(c)
    c_columns = list(zip(*jacobian))
    for v in (dense_product(jacobian, draw_vector(m)), draw_vector(n)):
        got = solve_general(record, _integers(v))
        assert solve_general(record, _redundant(v, data.draw(factor))) == got
        assert (got is None) == _outside(c_columns, v, n)
        if got is not None:
            assert dense_product(jacobian, got) == v
    # a span batch: the same canonical coefficients, or the same first
    # failing index, however the images and right-hand sides are scaled
    span = [draw_vector(m) for _ in range(data.draw(st.integers(0, 3)))]
    images = [dense_product(jacobian, y) for y in span]
    batch = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            batch.append(combination([data.draw(rationals) for _ in images], images, n))
        else:
            batch.append(draw_vector(n))
    got = solve_in_span_coefficients([_integers(v) for v in images],
                                     [_integers(v) for v in batch])
    assert solve_in_span_coefficients(
        [_redundant(v, data.draw(factor)) for v in images],
        [_redundant(v, data.draw(factor)) for v in batch]) == got
    outside = [_outside(images, v, n) for v in batch]
    if isinstance(got, int):
        assert outside.index(True) == got
        return
    assert not any(outside)
    # the canonical coefficients are those of one solve against [images]
    in_columns = eliminate(Matrix.from_rows(dense_transpose(images, n), cols=len(images)))
    for v, coeffs in zip(batch, got):
        assert combination(coeffs, images, n) == v
        assert solve_general(in_columns, _integers(v)) == coeffs


def _search_and_replay_runs():
    """Analyses of example2, example3 and the octahedron, as (system, base
    point, report)."""
    runs = []
    for name in ("example2.json", "example3.json"):
        sys_, base = load_corpus_system(name)
        runs.append(lambda sys_=sys_, base=base: (sys_, base, analyze_system(sys_, base)))
    fw, auto = load_corpus_framework("bricard_octahedron.json")

    def octahedron():
        rep = analyze_framework(fw, use_auto_pin=auto)
        sys_, _, base = build_edge_system(rep.pinned)
        return sys_, base, rep
    return runs + [octahedron]


def test_each_series_coefficient_is_scaled_once_per_operators(monkeypatch):
    # every _integers call made while some operators are live, grouped by
    # operators and by the id of its argument; each argument and each series
    # coefficient is kept alive, so no id passes to another object
    scaled, coefficients, operators = [], [], []
    real_integers, real_linearize = ratlinalg._integers, certify.linearize
    real_post_init = SeriesCoefficients.__post_init__

    def counting_integers(x):
        if operators and operators[-1] is not None:
            scaled.append((len(operators), x))
        return real_integers(x)

    def tracking_linearize(*args):
        operators.append(None)  # calls inside linearize belong to no operators
        operators[-1] = real_linearize(*args)
        return operators[-1]

    def recording_post_init(self):
        coefficients.extend(self.coeffs)
        real_post_init(self)

    for module in (ratlinalg, quadsys, certify):
        monkeypatch.setattr(module, "_integers", counting_integers)
    monkeypatch.setattr(certify, "linearize", tracking_linearize)
    monkeypatch.setattr(SeriesCoefficients, "__post_init__", recording_post_init)
    certificates = []
    for run in _search_and_replay_runs():
        sys_, base, rep = run()
        if rep.certificate is not None:
            certificates.append(rep.certificate)
            assert replay_certificate(sys_, base, rep.certificate)
    assert len(operators) == 3 + len(certificates) and certificates
    coefficient_ids = {id(y) for y in coefficients}
    counts = Counter((ops, id(x)) for ops, x in scaled if id(x) in coefficient_ids)
    assert counts and max(counts.values()) == 1
    assert {ops for ops, _ in counts} == set(range(1, len(operators) + 1))


def test_a_failing_span_check_builds_no_fraction(monkeypatch):
    # Viviani's curve: every span check fails. Its kernel directions stall
    # at degree 1, so the candidates of degree >= 2 are t^2 and t^3
    # variants, each checked on its base series X at (1, 1): the first
    # check validates X's prefix and solves its batch on products, images
    # and a span scaled in the operators' memos, and the later ones are
    # answered by X's record; none builds a Fraction
    ops = linearize(*load_corpus_system("example3.json"))
    candidates = certify.canonical_candidates(ops, 4)
    solves = []
    real_solve = certify.solve_in_span_coefficients
    monkeypatch.setattr(certify, "solve_in_span_coefficients",
                        lambda *args: solves.append(1) or real_solve(*args))
    per_check = []
    for q in (2, 3, 4):
        cand = next(c for c in candidates if c.degree >= q)
        solves.clear()
        assert _fractions_built(lambda: certify.span_closure_check(ops, cand, q, 1)) == (None, 0)
        per_check.append(len(solves))
    assert per_check == [1, 0, 0]


def test_a_variant_check_its_base_answered_solves_and_tests_nothing(monkeypatch):
    # after the search on the cusp, a check on a t^2 or t^3 variant at a
    # point whose base point (q // r, ceil(k / r)) the base candidate's
    # record has ruled out returns None from that record: no solve, no
    # order test and no Fraction
    ops = linearize(*load_corpus_system("example2.json"))
    found, real_candidates = [], certify.canonical_candidates
    monkeypatch.setattr(certify, "canonical_candidates",
                        lambda *args: found.append(real_candidates(*args)) or found[-1])
    assert certify.span_closure_search(ops, certify.AnalyzeConfig.q_max) is None
    monkeypatch.undo()
    [candidates] = found
    calls = []
    real_solve, real_order, real_vanishes = (certify.solve_in_span_coefficients,
                                             certify.residual_order, series._vanishes)
    monkeypatch.setattr(certify, "solve_in_span_coefficients",
                        lambda *args: calls.append("solve") or real_solve(*args))
    monkeypatch.setattr(certify, "residual_order",
                        lambda *args: calls.append("order") or real_order(*args))
    for module in (certify, series):
        monkeypatch.setattr(module, "_vanishes",
                            lambda *args: calls.append("vanishes") or real_vanishes(*args))
    answered = 0
    for x, *variants in zip(*[iter(candidates)] * 3):
        for r, variant in zip((2, 3), variants):
            for q in range(r, variant.degree + 1):
                for k in range(1, r * (q // r) + 1):
                    record = ops._prefixes.get(tuple(map(id, x.coeffs[1 : q // r + 1])))
                    if record is None or -(-k // r) not in record[1]:
                        continue
                    call = lambda: certify.span_closure_check(ops, variant, q, k)
                    assert _fractions_built(call) == (None, 0), (r, q, k)
                    answered += 1
    assert calls == [] and answered >= 40, answered
