import random
from fractions import Fraction as F

import pytest

from flexcert import ratlinalg
from flexcert.ratlinalg import (
    DimensionError,
    Matrix,
    determinant,
    kernel_basis,
    matrix_from_columns,
    rref,
    solve_general,
    solve_in_span_coefficients,
    vector,
    zero_vector,
)

C_LINE = Matrix.from_rows([[10, 10, -14], [3, 1, -3], [1, -3, 1]])
C_VIVIANI = Matrix.from_rows([[4, 0, 0], [2, 0, 0]])
C_TANGENT = Matrix.from_rows([[4, 0, 0], [-2, 0, 0], [0, 1, 0]])


def mul(m, x):
    return m.mul_vec(vector(x))


def test_solve_general_singular_homogeneous():
    assert solve_general(C_LINE, zero_vector(3)) == vector([0, 0, 0])
    assert kernel_basis(C_LINE) == [vector([4, 3, 5])]


def test_solve_general_identity():
    eye = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert solve_general(eye, vector([1, 2, 3])) == vector([1, 2, 3])
    assert kernel_basis(eye) == []


def test_solve_general_rank_deficient():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    particular = solve_general(m, vector([2, 1]))
    assert particular == vector([1, 0])
    assert kernel_basis(m) == [vector([-2, 1])]
    assert mul(m, particular) == vector([2, 1])


def test_solve_general_no_solution():
    m = Matrix.from_rows([[1, 0], [1, 0]])
    assert solve_general(m, vector([1, 2])) is None


def test_solve_general_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve_general(C_LINE, vector([1, 2]))


def test_kernel_basis_reference_matrices():
    assert kernel_basis(C_TANGENT) == [vector([0, 0, 1])]
    eye = Matrix.from_rows([[1, 0], [0, 1]])
    assert kernel_basis(eye) == []
    basis = kernel_basis(C_VIVIANI)
    assert basis == [vector([0, 1, 0]), vector([0, 0, 1])]
    for vec in basis:
        assert mul(C_VIVIANI, vec) == zero_vector(2)


def test_image_membership():
    assert solve_general(C_TANGENT, vector([1, 0, 0])) is None
    assert solve_general(C_TANGENT, zero_vector(3)) is not None
    assert solve_general(C_VIVIANI, vector([2, 1])) is not None
    # direct witness for the membership above
    assert mul(C_VIVIANI, [F(1, 2), 0, 0]) == vector([2, 1])


def test_solve_in_span_reference_cases():
    assert solve_in_span_coefficients(C_LINE, [zero_vector(3)], [vector([4, 3, 5])]) == [(
        vector([0]), vector([0, 0, 0]))]
    eye = Matrix.from_rows([[1, 0], [0, 1]])
    assert solve_in_span_coefficients(eye, [vector([1, 1])], [vector([1, 0])]) == [None]
    m = Matrix.from_rows([[1, 0], [0, 0]])
    [(coeffs, got)] = solve_in_span_coefficients(m, [vector([1, 0])], [vector([1, 1])])
    assert coeffs == vector([1])
    assert got == vector([1, 1])
    assert mul(m, got) == vector([1, 0])


def test_solve_in_span_handles_dependent_and_zero_span_vectors():
    m = Matrix.from_rows([[1, 0], [0, 1]])
    span = [vector([0, 0]), vector([1, 1]), vector([2, 2])]
    [(coeffs, got)] = solve_in_span_coefficients(m, [vector([2, 2])], span)
    assert mul(m, got) == vector([2, 2])
    assert got == tuple(sum(c * s[i] for c, s in zip(coeffs, span)) for i in range(2))
    # empty span solves only the zero right-hand side
    assert solve_in_span_coefficients(m, [zero_vector(2)], []) == [((), zero_vector(2))]
    assert solve_in_span_coefficients(m, [vector([1, 0])], []) == [None]


def test_solve_in_span_empty_batches():
    m = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert solve_in_span_coefficients(m, [], [vector([1, 0])]) == []
    assert solve_in_span_coefficients(m, [], []) == []
    # an empty span in one batch: zero right-hand sides solvable, the rest not
    batch = [vector([0, 0, 0]), vector([0, 1, 0]), vector([0, 0, 0])]
    assert solve_in_span_coefficients(m, batch, []) == [
        ((), zero_vector(2)), None, ((), zero_vector(2))]
    with pytest.raises(DimensionError):
        solve_in_span_coefficients(m, [vector([1, 2])], [vector([1, 0])])
    with pytest.raises(DimensionError):
        solve_in_span_coefficients(m, [zero_vector(3)], [vector([1, 0, 0])])


def test_determinant():
    assert determinant(C_LINE) == 0
    assert determinant(Matrix.from_rows([[2, 1], [1, 1]])) == 1
    assert determinant(Matrix.from_rows([[F(1, 2), 0], [7, F(2, 3)]])) == F(1, 3)
    with pytest.raises(DimensionError):
        determinant(C_VIVIANI)


def _random_matrix(rng, rows, cols):
    return Matrix.from_rows(
        [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
    )


def test_solve_residual_is_exactly_zero_randomized():
    rng = random.Random(20240311)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        v = vector([F(rng.randint(-3, 3)) for _ in range(rows)])
        got = solve_general(m, v)
        if got is not None:
            assert mul(m, got) == v
        nullspace = kernel_basis(m)
        assert len(nullspace) == cols - len(rref(m)[1])
        for k in nullspace:
            assert mul(m, k) == zero_vector(rows)


def test_solve_in_span_agrees_with_grid_bruteforce():
    rng = random.Random(977)
    grid = [F(n, d) for d in (1, 2) for n in range(-4, 5)]
    for _ in range(25):
        rows, cols = rng.randint(1, 3), rng.randint(2, 3)
        m = _random_matrix(rng, rows, cols)
        span = [vector([F(rng.randint(-2, 2)) for _ in range(cols)]) for _ in range(2)]
        v = vector([F(rng.randint(-2, 2)) for _ in range(rows)])
        [solved] = solve_in_span_coefficients(m, [v], span)
        if solved is not None:
            got = solved[1]
            assert mul(m, got) == v
            # returned vector really is a combination of the span
            cols_m = matrix_from_columns(list(span), rows=cols)
            assert solve_general(cols_m, got) is not None
        else:
            for c1 in grid:
                for c2 in grid:
                    combo = tuple(c1 * a + c2 * b for a, b in zip(span[0], span[1]))
                    assert mul(m, combo) != v


def _low_rank_matrix(rng, rows, cols):
    # product of rows x r and r x cols factors: rank at most r, often less than full
    r = rng.randint(0, min(rows, cols))
    left = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)] for _ in range(rows)]
    right = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(r)]
    return Matrix.from_rows(
        [[sum((a[t] * right[t][j] for t in range(r)), F(0)) for j in range(cols)] for a in left]
    )


def _sparse_case(rng):
    """A matrix with at least 70% zeros, one zero row, one zero column and
    one row that is a combination of two others, so that a row cancels to
    zero during elimination; also the right-hand sides that probe it."""
    while True:
        rows, cols = rng.randint(4, 8), rng.randint(4, 8)
        zero_row, cancelling = rng.sample(range(rows), 2)
        zero_col = rng.randrange(cols)
        others = [i for i in range(rows) if i not in (zero_row, cancelling)]
        entries = [[F(0)] * cols for _ in range(rows)]
        for _ in range(rows * cols // 6):
            j = rng.choice([j for j in range(cols) if j != zero_col])
            entries[rng.choice(others)][j] = F(rng.choice([-3, -2, -1, 1, 2, 3]),
                                               rng.randint(1, 2))
        i, k = rng.sample(others, 2)
        a, b = F(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)), F(rng.choice([-1, 1, 3]))
        entries[cancelling] = [a * x + b * y for x, y in zip(entries[i], entries[k])]
        zeros = sum(x == 0 for row in entries for x in row)
        if zeros >= 0.7 * rows * cols and any(entries[cancelling]):
            return Matrix.from_rows(entries), (zero_row, cancelling), zero_col


def _sparse_rhss(rng, m, rank, left_over):
    """Right-hand sides for a sparse case: one inside im M, unit vectors on
    the rows the elimination leaves over, and one supported only on the
    rows past the rank."""
    x = [F(rng.randint(-2, 2)) if rng.random() < 0.3 else F(0) for _ in range(m.cols)]
    unit = [tuple(F(int(i == r)) for i in range(m.rows)) for r in left_over]
    past_rank = tuple(F(rng.randint(1, 3)) if i >= rank else F(0) for i in range(m.rows))
    return [mul(m, x)] + unit + [past_rank]


def _to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows])


def _from_sympy(column):
    return tuple(F(int(x.p), int(x.q)) for x in column)


def _check_against_sympy(sympy, m, vs):
    sm = _to_sympy(sympy, m.entries)
    reduced, pivots = rref(m)
    s_reduced, s_pivots = sm.rref()
    assert pivots == s_pivots
    assert reduced.entries == tuple(_from_sympy(s_reduced.row(i)) for i in range(m.rows))

    for v in vs:
        try:
            solution, params = sm.gauss_jordan_solve(_to_sympy(sympy, [[x] for x in v]))
        except ValueError:  # sympy: the system is inconsistent
            assert solve_general(m, v) is None
        else:
            expected = solution.subs({p: 0 for p in params})
            assert solve_general(m, v) == _from_sympy(expected)

    nullspace = sm.nullspace()
    basis = kernel_basis(m)
    assert len(basis) == len(nullspace) == m.cols - sm.rank()
    for k in basis:
        column = _to_sympy(sympy, [[x] for x in k])
        assert sympy.Matrix.hstack(*nullspace, column).rank() == len(nullspace)


def test_solver_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8123)
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _low_rank_matrix(rng, rows, cols) if rng.random() < 0.7 else (
            _random_matrix(rng, rows, cols))
        if rng.random() < 0.5:
            v = mul(m, [F(rng.randint(-3, 3)) for _ in range(cols)])
        else:
            v = vector([F(rng.randint(-3, 3)) for _ in range(rows)])
        _check_against_sympy(sympy, m, [v])

    rng = random.Random(6067)
    for _ in range(30):
        m, left_over, zero_col = _sparse_case(rng)
        rank = _to_sympy(sympy, m.entries).rank()
        vs = _sparse_rhss(rng, m, rank, left_over)
        assert solve_general(m, vs[1]) is None and solve_general(m, vs[2]) is None
        _check_against_sympy(sympy, m, vs)
        assert tuple(F(int(j == zero_col)) for j in range(m.cols)) in kernel_basis(m)


def _check_span_batch(sympy, m, batch, span, seen):
    got = solve_in_span_coefficients(m, batch, span)
    assert got == [solve_in_span_coefficients(m, [v], span)[0] for v in batch]

    images = matrix_from_columns([m.mul_vec(s) for s in span], rows=m.rows)
    images = _to_sympy(sympy, images.entries)
    for v, solved in zip(batch, got):
        try:
            solution, params = images.gauss_jordan_solve(_to_sympy(sympy, [[x] for x in v]))
        except ValueError:  # sympy: v is outside M·span
            assert solved is None
            seen["unsolvable"] += 1
            continue
        seen["solvable"] += 1
        coeffs, vec = solved
        expected = solution.subs({p: 0 for p in params})
        assert coeffs == _from_sympy(expected)
        assert vec == tuple(sum((c * s[i] for c, s in zip(coeffs, span)), F(0))
                            for i in range(m.cols))
        assert mul(m, vec) == v


def test_batched_span_solves_match_single_solves_and_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4417)
    seen = {"solvable": 0, "unsolvable": 0}
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _low_rank_matrix(rng, rows, cols) if rng.random() < 0.5 else (
            _random_matrix(rng, rows, cols))
        span = [vector([F(rng.randint(-2, 2)) for _ in range(cols)])
                for _ in range(rng.randint(1, 3))]
        # a zero vector and a multiple of another span vector make it dependent
        span.insert(rng.randint(0, len(span)), zero_vector(cols))
        span.append(tuple(F(-3, 2) * x for x in span[rng.randrange(len(span))]))
        batch = []
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.5:
                # inside M·span by construction
                combo = [F(rng.randint(-2, 2)) for _ in span]
                batch.append(mul(m, [sum((c * s[i] for c, s in zip(combo, span)), F(0))
                                     for i in range(cols)]))
            else:
                batch.append(vector([F(rng.randint(-3, 3)) for _ in range(rows)]))
        batch.append(zero_vector(rows))
        _check_span_batch(sympy, m, batch, span, seen)
    assert seen["solvable"] > 50 and seen["unsolvable"] > 20

    # sparse M·span: unit span vectors, the zero column's among them, and a
    # multiple of one of them
    rng = random.Random(3119)
    seen = {"solvable": 0, "unsolvable": 0}
    for _ in range(30):
        m, left_over, zero_col = _sparse_case(rng)
        units = [zero_col] + rng.sample(range(m.cols), rng.randint(2, m.cols))
        span = [tuple(F(int(i == j)) for i in range(m.cols)) for j in units]
        span.append(tuple(F(2) * x for x in span[-1]))
        images = matrix_from_columns([m.mul_vec(s) for s in span], rows=m.rows)
        rank = _to_sympy(sympy, images.entries).rank()
        batch = _sparse_rhss(rng, images, rank, left_over)
        _check_span_batch(sympy, m, [mul(m, x) for x in span] + batch, span, seen)
    assert seen["solvable"] > 40 and seen["unsolvable"] > 60


def test_verdicts_invariant_under_row_permutation():
    rng = random.Random(551)
    for _ in range(40):
        rows, cols = rng.randint(2, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        v = vector([F(rng.randint(-2, 2)) for _ in range(rows)])
        order = list(range(rows))
        rng.shuffle(order)
        pm = Matrix(rows, cols, tuple(m.row(i) for i in order))
        pv = tuple(v[i] for i in order)
        assert rref(m) == rref(pm)
        assert len(kernel_basis(m)) == len(kernel_basis(pm))
        assert (solve_general(m, v) is None) == (solve_general(pm, pv) is None)


def test_scalar_serialization_round_trip():
    for text in ["5", "-3", "3/4", "-7/2", "0"]:
        val = ratlinalg.scalar(text)
        assert ratlinalg.scalar(ratlinalg.format_scalar(val)) == val
    assert ratlinalg.format_scalar(F(6, 4)) == "3/2"
