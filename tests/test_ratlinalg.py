import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from flexcert import ratlinalg
from flexcert.ratlinalg import (
    DimensionError,
    Matrix,
    _fractions,
    _integers,
    combination,
    determinant,
    eliminate,
    kernel_basis,
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


def solve(m, v):
    # solve_general against the elimination record of m, v scaled
    return solve_general(eliminate(m), _integers(v))


def in_span(m, vs, span):
    # solve_in_span_coefficients over the images M·span_i computed here, all
    # scaled; each solution's coefficients come paired with Y = sum c_i span_i
    solved = solve_in_span_coefficients([m._mul_scaled(_integers(s)) for s in span],
                                        [_integers(v) for v in vs])
    if isinstance(solved, int):
        return solved
    return [(coeffs, combination(coeffs, span, m.cols)) for coeffs in solved]


def test_solve_general_singular_homogeneous():
    assert solve(C_LINE, zero_vector(3)) == vector([0, 0, 0])
    assert kernel_basis(C_LINE) == [vector([4, 3, 5])]


def test_solve_general_identity():
    eye = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert solve(eye, vector([1, 2, 3])) == vector([1, 2, 3])
    assert kernel_basis(eye) == []


def test_solve_general_rank_deficient():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    particular = solve(m, vector([2, 1]))
    assert particular == vector([1, 0])
    assert kernel_basis(m) == [vector([-2, 1])]
    assert mul(m, particular) == vector([2, 1])


def test_solve_general_no_solution():
    m = Matrix.from_rows([[1, 0], [1, 0]])
    assert solve(m, vector([1, 2])) is None


def test_solve_general_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(C_LINE, vector([1, 2]))


def test_kernel_basis_reference_matrices():
    assert kernel_basis(C_TANGENT) == [vector([0, 0, 1])]
    eye = Matrix.from_rows([[1, 0], [0, 1]])
    assert kernel_basis(eye) == []
    basis = kernel_basis(C_VIVIANI)
    assert basis == [vector([0, 1, 0]), vector([0, 0, 1])]
    for vec in basis:
        assert mul(C_VIVIANI, vec) == zero_vector(2)


def test_image_membership():
    assert solve(C_TANGENT, vector([1, 0, 0])) is None
    assert solve(C_TANGENT, zero_vector(3)) is not None
    assert solve(C_VIVIANI, vector([2, 1])) is not None
    # direct witness for the membership above
    assert mul(C_VIVIANI, [F(1, 2), 0, 0]) == vector([2, 1])


def test_solve_in_span_reference_cases():
    assert in_span(C_LINE, [zero_vector(3)], [vector([4, 3, 5])]) == [(
        vector([0]), vector([0, 0, 0]))]
    eye = Matrix.from_rows([[1, 0], [0, 1]])
    assert in_span(eye, [vector([1, 1])], [vector([1, 0])]) == 0
    m = Matrix.from_rows([[1, 0], [0, 0]])
    [(coeffs, got)] = in_span(m, [vector([1, 0])], [vector([1, 1])])
    assert coeffs == vector([1])
    assert got == vector([1, 1])
    assert mul(m, got) == vector([1, 0])


def test_solve_in_span_handles_dependent_and_zero_span_vectors():
    m = Matrix.from_rows([[1, 0], [0, 1]])
    span = [vector([0, 0]), vector([1, 1]), vector([2, 2])]
    [(coeffs, got)] = in_span(m, [vector([2, 2])], span)
    assert mul(m, got) == vector([2, 2])
    assert got == tuple(sum(c * s[i] for c, s in zip(coeffs, span)) for i in range(2))
    # empty span solves only the zero right-hand side
    assert in_span(m, [zero_vector(2)], []) == [((), zero_vector(2))]
    assert in_span(m, [vector([1, 0])], []) == 0


def test_solve_in_span_empty_batches():
    m = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert in_span(m, [], [vector([1, 0])]) == []
    assert in_span(m, [], []) == []
    # an empty span in one batch: zero right-hand sides solvable, and one
    # that is not fails the whole batch with its index
    batch = [vector([0, 0, 0]), vector([0, 0, 0])]
    assert in_span(m, batch, []) == [((), zero_vector(2))] * 2
    assert in_span(m, batch + [vector([0, 1, 0])], []) == 2
    with pytest.raises(DimensionError):
        in_span(m, [vector([1, 2])], [vector([1, 0])])
    with pytest.raises(DimensionError):
        in_span(m, [zero_vector(3)], [vector([1, 0, 0])])
    with pytest.raises(DimensionError):
        combination((1,), [vector([1, 0, 0])], m.cols)
    with pytest.raises(DimensionError):
        solve_in_span_coefficients([_integers(zero_vector(2))], [_integers(zero_vector(3))])
    with pytest.raises(DimensionError):
        solve_in_span_coefficients([_integers(zero_vector(3)), _integers(zero_vector(2))], [])


def _fractions_built(call):
    built = 0
    saved = F.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return saved.__func__(cls, *args, **kwargs)

    F.__new__ = staticmethod(counting_new)
    try:
        result = call()
    finally:
        F.__new__ = saved
    return result, built


def test_unsolvable_batch_builds_no_solution():
    # rank 2, im M = {v : v_0 + v_1 = v_2}
    m = Matrix.from_rows([[1, 2, 0], [0, 0, 1], [1, 2, 1]])
    span = [vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])]
    images = [m._mul_scaled(_integers(y)) for y in span]
    solvable = [_integers(vector([1, 1, 2])), _integers(vector([F(1, 2), 3, F(7, 2)]))]
    unsolvable = _integers(vector([1, 1, 0]))
    batch = [solvable[0], unsolvable, solvable[1]]
    got, built = _fractions_built(lambda: solve_in_span_coefficients(images, batch))
    assert got == 1 and built == 0
    got, built = _fractions_built(lambda: solve_in_span_coefficients(images, solvable))
    assert built > 0
    assert [combination(c, span, 3) for c in got] == [vector([1, 0, 1]), vector([F(1, 2), 0, 3])]
    # one right-hand side against the elimination record: the canonical
    # solution, or None without building one
    record = eliminate(m)
    assert solve_general(record, solvable[0]) == vector([1, 0, 1])
    assert solve_general(record, solvable[1]) == vector([F(1, 2), 0, 3])
    assert _fractions_built(lambda: solve_general(record, unsolvable)) == (None, 0)


def test_failing_batch_reports_its_first_unsolvable_right_hand_side():
    # im M = span{e0}: e1 and e2 are outside it, and so is any vector with
    # an entry past the first
    m = Matrix.from_rows([[1, 0], [0, 0], [0, 0]])
    span = [vector([1, 0]), vector([0, 1])]
    images = [m._mul_scaled(_integers(y)) for y in span]
    e0, e1, e2 = (_integers(tuple(F(int(i == j)) for i in range(3))) for j in range(3))
    # two failing right-hand sides whose leftover rows differ: the one in
    # the first leftover row (e1, row 1) comes later in the batch than the
    # one in the second (e2, row 2)
    assert solve_in_span_coefficients(images, [e0, e2, e0, e1]) == 1
    assert solve_in_span_coefficients(images, [e0, e1, e2]) == 1
    # two failing right-hand sides in one leftover row
    assert solve_in_span_coefficients(images, [e1, _integers(vector([3, 2, 0]))]) == 0
    assert solve_in_span_coefficients(images, [e0, _integers(vector([3, 2, 0])), e1]) == 1
    # a failure builds no solution
    got, built = _fractions_built(lambda: solve_in_span_coefficients(images, [e0, e0, e2, e1]))
    assert got == 2 and built == 0
    [coeffs] = solve_in_span_coefficients(images, [e0])
    assert coeffs == vector([1, 0]) and combination(coeffs, span, 2) == vector([1, 0])


def test_matrix_stores_canonical_nonzeros():
    # entry (i, j) is an int over one common denominator, the least one
    m = Matrix(2, 3, 2, (((0, 2), (2, -1)), ()))
    assert m.entries == ((F(1), F(0), F(-1, 2)), zero_vector(3))
    assert m.row(1) == zero_vector(3)
    assert Matrix.from_rows([[1, 0, F(-1, 2)], [0, 0, 0]]) == m
    assert Matrix.from_rows([[0, 2, 0], [0, 0, 0]]).nonzeros == (((1, 2),), ())
    assert Matrix.from_rows([[F(1, 6), F(1, 4)]]) == Matrix(1, 2, 12, (((0, 2), (1, 3)),))
    with pytest.raises(ValueError, match="zero"):
        Matrix(1, 3, 1, (((1, 0),),))
    for bad in [((3, 1),), ((-1, 1),), ((2, 1), (1, 1)), ((1, 1), (1, 2))]:
        with pytest.raises(DimensionError):
            Matrix(1, 3, 1, (bad,))
    with pytest.raises(DimensionError):
        Matrix(2, 3, 1, ((),))
    # a common denominator that is not positive, or not reduced against
    # the stored ints (a zero matrix has common 1)
    for common, row in [(0, ((0, 1),)), (-2, ((0, 1),)), (4, ((0, 2), (2, 6))),
                        (3, ((1, 3),)), (2, ())]:
        with pytest.raises(ValueError, match="common"):
            Matrix(1, 3, common, (row,))
    assert Matrix.from_rows([[1, 2]], cols=2) == Matrix.from_rows([[1, 2]])
    assert Matrix.from_rows([], cols=3) == Matrix(0, 3, 1, ())
    # ragged rows, no rows without a column count, and a column count
    # the rows do not have
    for rows, cols in (([[1, 2], [3]], None), ([], None), ([[1, 2]], 3), ([[1, 2]], 1),
                       ([[1, 2], [3, 4]], 0)):
        with pytest.raises(DimensionError):
            Matrix.from_rows(rows, cols=cols)


def test_sparse_operations_match_dense_reference():
    rng = random.Random(7211)
    for _ in range(80):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        dense = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
                  for _ in range(cols)] for _ in range(rows)]
        columns = [tuple(dense[i][j] for i in range(rows)) for j in range(cols)]
        m = Matrix.from_rows(dense, cols=cols)
        common = lcm(*(a.denominator for r in dense for a in r))
        assert m.common == common
        assert m.nonzeros == tuple(tuple((j, a.numerator * (common // a.denominator))
                                         for j, a in enumerate(r) if a) for r in dense)
        assert all(type(v) is int for row in m.nonzeros for _, v in row)
        assert m.entries == tuple(map(tuple, dense))
        x = vector([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)])
        assert m.mul_vec(x) == tuple(sum((a * b for a, b in zip(r, x)), F(0)) for r in dense)
        t = m.transpose()
        assert (t.rows, t.cols, t.common) == (cols, rows, common)
        assert t.entries == tuple(columns)
        assert t.transpose() == m
        assert Matrix.from_rows(columns, cols=rows) == t


def test_combination_matches_a_fraction_sum():
    rng = random.Random(71)
    for _ in range(200):
        n, k = rng.randint(0, 5), rng.randint(0, 4)
        vectors = [zero_vector(n) if rng.random() < 0.2 else
                   tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
                   for _ in range(k)]
        # ints and Fractions, zero among them
        coeffs = [rng.choice([0, rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 7))])
                  for _ in range(k)]
        expected = tuple(sum((c * v[i] for c, v in zip(coeffs, vectors)), F(0))
                         for i in range(n))
        got = combination(coeffs, vectors, n)
        assert got == expected
        assert all(type(x) is F for x in got)
        # and so does the int kernel under it, on the vectors _integers scales
        common, total = ratlinalg._combine(coeffs, [ratlinalg._integers(v) for v in vectors], n)
        assert common > 0 and all(type(t) is int for t in total)
        assert tuple(F(t, common) for t in total) == expected
    assert combination([], [], 3) == zero_vector(3)
    assert combination([0, F(0)], [(F(1),), (F(2),)], 1) == zero_vector(1)
    assert ratlinalg._combine([], [], 2) == (1, [0, 0])


def test_combination_checks_lengths_of_used_vectors_only():
    with pytest.raises(DimensionError):
        combination([1, 2], [vector([1, 2]), vector([1])], 2)
    with pytest.raises(DimensionError):
        combination([F(1, 2)], [vector([1, 2])], 3)
    with pytest.raises(DimensionError):
        ratlinalg._combine([1], [ratlinalg._integers(vector([1, 2]))], 3)
    # a zero coefficient skips its vector, whatever its length
    assert combination([1, 0], [vector([1, 2]), vector([1])], 2) == vector([1, 2])
    assert ratlinalg._combine([0, 1], [None, (2, [1, 3])], 2) == (2, [1, 3])


@pytest.mark.parametrize("coeffs, count", [((1, 2), 1), ((1,), 2), ((0, 0), 1), ((), 1)])
def test_combination_rejects_a_coefficient_count_other_than_the_vector_count(coeffs, count):
    # extra coefficients or extra vectors raise instead of dropping terms
    vectors = [vector([1, 2])] * count
    with pytest.raises(DimensionError):
        combination(coeffs, vectors, 2)
    with pytest.raises(DimensionError):
        ratlinalg._combine(coeffs, [ratlinalg._integers(v) for v in vectors], 2)


def _laplace(rows):
    if not rows:
        return F(1)
    return sum((-1) ** j * rows[0][j] * _laplace([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def test_determinant():
    assert determinant(C_LINE) == 0
    assert determinant(Matrix.from_rows([[2, 1], [1, 1]])) == 1
    assert determinant(Matrix.from_rows([[F(1, 2), 0], [7, F(2, 3)]])) == F(1, 3)
    with pytest.raises(DimensionError):
        determinant(C_VIVIANI)
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        assert determinant(Matrix.from_rows(rows)) == _laplace(rows)


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
        got = solve(m, v)
        if got is not None:
            assert mul(m, got) == v
        nullspace = kernel_basis(m)
        # rank-nullity for M and for its transpose: both give the rank
        assert len(nullspace) == cols - rows + len(kernel_basis(m.transpose()))
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
        solved = in_span(m, [v], span)
        if solved != 0:
            got = solved[0][1]
            assert mul(m, got) == v
            # returned vector really is a combination of the span
            cols_m = Matrix.from_rows(span, cols=cols).transpose()
            assert solve(cols_m, got) is not None
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


def _to_sympy(sympy, rows, cols):
    return sympy.Matrix(len(rows), cols, [sympy.Rational(x.numerator, x.denominator)
                                          for r in rows for x in r])


def _from_sympy(column):
    return tuple(F(int(x.p), int(x.q)) for x in column)


def _primitive(vec):
    # scaled by a positive factor to coprime integers
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    return tuple(F(x // g) for x in ints)


def _dense_checks(record):
    # the record's checks as dense Fraction vectors, one entry per row of M
    return [tuple(F(w.get(i, 0)) for i in range(record.rows)) for w in map(dict, record.checks)]


def _check_against_sympy(sympy, m, vs, seen):
    sm = _to_sympy(sympy, m.entries, m.cols)
    # sympy reads one nullspace vector off each free column of the unique
    # RREF, with a 1 there, so the two bases agree exactly after scaling
    nullspace = sm.nullspace()
    assert kernel_basis(m) == [_primitive(_from_sympy(k)) for k in nullspace]
    assert len(nullspace) == m.cols - sm.rank()
    # a lower bound in general, equal to the rank on these small seeded inputs
    assert ratlinalg.rank_mod_p(m) == sm.rank()

    # one elimination record answers every right-hand side; the batch path
    # over the unit vectors eliminates [M | v] and must give the same
    # canonical solution
    record = eliminate(m)
    assert len(record.pivots) == sm.rank() and len(record.checks) == m.rows - sm.rank()
    for functional in record.checks:  # a Farkas functional annihilates M
        rows = [m.row(i) for i, _ in functional]
        assert combination([a for _, a in functional], rows, m.cols) == zero_vector(m.cols)
    # and the checks are the left null space read off the RREF of M^T, in order
    assert _dense_checks(record) == [_primitive(_from_sympy(w)) for w in sm.T.nullspace()]
    units = [tuple(F(int(i == j)) for i in range(m.cols)) for j in range(m.cols)]
    for v in vs:
        got = solve_general(record, _integers(v))
        assert in_span(m, [v], units) == (0 if got is None else [(got, got)])
        try:
            solution, params = sm.gauss_jordan_solve(_to_sympy(sympy, [[x] for x in v], 1))
        except ValueError:  # sympy: the system is inconsistent
            assert got is None
            seen["outside"] += 1
        else:
            expected = solution.subs({p: 0 for p in params})
            assert got == _from_sympy(expected)
            seen["inside"] += 1


def _with_zero_lines(rng, rows, cols):
    """A rows x cols matrix of rank at most 2 with one zero row and one
    zero column when it has any; either dimension may be 0."""
    r = min(rows, cols, 2)
    left = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)] for _ in range(rows)]
    right = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(r)]
    dense = [[sum((a[t] * right[t][j] for t in range(r)), F(0)) for j in range(cols)]
             for a in left]
    if rows:
        dense[rng.randrange(rows)] = [F(0)] * cols
    if cols:
        j = rng.randrange(cols)
        for row in dense:
            row[j] = F(0)
    return Matrix.from_rows(dense, cols=cols)


def test_solver_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8123)
    seen = {"inside": 0, "outside": 0}
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _low_rank_matrix(rng, rows, cols) if rng.random() < 0.7 else (
            _random_matrix(rng, rows, cols))
        if rng.random() < 0.5:
            v = mul(m, [F(rng.randint(-3, 3)) for _ in range(cols)])
        else:
            v = vector([F(rng.randint(-3, 3)) for _ in range(rows)])
        _check_against_sympy(sympy, m, [v], seen)
    assert seen["inside"] > 20 and seen["outside"] > 10

    rng = random.Random(6067)
    seen = {"inside": 0, "outside": 0}
    for _ in range(30):
        m, left_over, zero_col = _sparse_case(rng)
        rank = _to_sympy(sympy, m.entries, m.cols).rank()
        vs = _sparse_rhss(rng, m, rank, left_over)
        assert solve(m, vs[1]) is None and solve(m, vs[2]) is None
        _check_against_sympy(sympy, m, vs, seen)
        assert tuple(F(int(j == zero_col)) for j in range(m.cols)) in kernel_basis(m)
    assert seen["inside"] >= 30 and seen["outside"] >= 60

    # zero rows and zero columns, and matrices with no rows or no columns
    rng = random.Random(5407)
    seen = {"inside": 0, "outside": 0}
    shapes = set()
    for _ in range(60):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = _with_zero_lines(rng, rows, cols)
        vs = [mul(m, [F(rng.randint(-3, 3)) for _ in range(cols)]),
              vector([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rows)]),
              zero_vector(rows)]
        _check_against_sympy(sympy, m, vs, seen)
        shapes.add((rows == 0, cols == 0))
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}
    assert seen["inside"] > 100 and seen["outside"] > 20


def test_elimination_of_degenerate_shapes():
    # no rows: no checks; no columns: every row is a zero row; and each zero
    # row of M gives a check that is its unit vector, as in kernel_basis(M^T)
    def unit(i, n):
        return tuple(F(int(j == i)) for j in range(n))

    cases = [
        (Matrix.from_rows([], cols=3), [],
         [((1, []), (F(0),) * 3)]),
        (Matrix.from_rows([[], [], []], cols=0), [unit(0, 3), unit(1, 3), unit(2, 3)],
         [((1, [0, 0, 0]), ()), ((1, [0, 1, 0]), None), ((2, [0, 0, 1]), None)]),
        (Matrix.from_rows([[0, 0], [1, 2], [0, 0], [2, 4]]),
         [unit(0, 4), unit(2, 4), (F(0), F(-2), F(0), F(1))],
         [((1, [0, 3, 0, 6]), (F(3), F(0))), ((2, [0, 1, 0, 2]), (F(1, 2), F(0))),
          ((1, [1, 0, 0, 0]), None), ((1, [0, 1, 0, 1]), None)]),
    ]
    for m, checks, solves in cases:
        record = eliminate(m)
        assert _dense_checks(record) == checks == kernel_basis(m.transpose())
        assert len(record.pivots) + len(record.checks) == m.rows
        for v, expected in solves:
            assert solve_general(record, v) == expected
            assert in_span(m, [_fractions(v)], [unit(j, m.cols) for j in range(m.cols)]) == (
                0 if expected is None else [(expected, expected)])


def _check_span_batch(sympy, m, batch, span, seen):
    # the batch fails with the index of the first right-hand side whose
    # single solve fails, else it is the list of the single solves
    singles = [in_span(m, [v], span) for v in batch]
    got = in_span(m, batch, span)
    failing = [t for t, single in enumerate(singles) if single == 0]
    if failing:
        assert got == failing[0]
    else:
        assert got == [single[0] for single in singles]

    images = Matrix.from_rows([m.mul_vec(s) for s in span], cols=m.rows).transpose()
    images = _to_sympy(sympy, images.entries, images.cols)
    for v, single in zip(batch, singles):
        try:
            solution, params = images.gauss_jordan_solve(_to_sympy(sympy, [[x] for x in v], 1))
        except ValueError:  # sympy: v is outside M·span
            assert single == 0
            seen["unsolvable"] += 1
            continue
        seen["solvable"] += 1
        [(coeffs, vec)] = single
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
        images = Matrix.from_rows([m.mul_vec(s) for s in span], cols=m.rows).transpose()
        rank = _to_sympy(sympy, images.entries, images.cols).rank()
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
        pm = Matrix.from_rows([m.row(i) for i in order])
        pv = tuple(v[i] for i in order)
        assert kernel_basis(m) == kernel_basis(pm)
        assert (solve(m, v) is None) == (solve(pm, pv) is None)


def test_scalar_serialization_round_trip():
    for text in ["5", "-3", "3/4", "-7/2", "0"]:
        val = ratlinalg.scalar(text)
        assert ratlinalg.scalar(ratlinalg.format_scalar(val)) == val
    assert ratlinalg.format_scalar(F(6, 4)) == "3/2"
