import random
import tracemalloc
from fractions import Fraction as F

import pytest

from flexcert import quadsys, rigidity
from flexcert.quadsys import (
    BasePointError,
    bilinear,
    evaluate,
    evaluate_poly,
    lift_base_point,
    linear_part,
    linearize,
    poly_system,
    reduce_degree,
    restrict_solution,
    validate_and_symmetrize,
)
from flexcert.ratlinalg import DimensionError, _fractions, vector, zero_vector

from conftest import dense_system, system_poly_terms, triangulated_grid


def test_symmetrize_upper_triangle():
    sys_ = dense_system([[[0, 2], [0, 0]]], [[0, 0]], [0])
    assert sys_.alpha[0] == ((0, 1, F(1)),)
    # the same system from sparse terms, given as (j, i) and split in two
    assert validate_and_symmetrize(2, [[(1, 0, 1), (1, 0, 1)]], [[]], [0]) == sys_


def test_symmetrize_keeps_quadratic_values():
    raw = [[1, 3], [1, 1]]
    sys_ = dense_system([raw], [[0, 0]], [0])
    assert sys_.alpha[0] == ((0, 0, F(1)), (0, 1, F(2)), (1, 1, F(1)))
    rng = random.Random(7)
    for _ in range(10):
        x = vector([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)])
        direct = sum(raw[i][j] * x[i] * x[j] for i in range(2) for j in range(2))
        assert evaluate(sys_, x)[0] == direct
    assert evaluate(sys_, vector([1, 1]))[0] == 6


def test_symmetric_input_accepted_unchanged(hyperboloid_line):
    sys_, _ = hyperboloid_line
    diag = tuple(c for i, j, c in sys_.alpha[0] if i == j)
    assert diag == (F(1), F(1), F(-1))
    assert sys_.beta[0] == ()
    assert sys_.gamma[0] == F(-1)


def test_dimension_validation():
    with pytest.raises(DimensionError):
        dense_system([[[1, 0], [0, 1]]], [[1, 2, 3]], [0])
    with pytest.raises(DimensionError):
        validate_and_symmetrize(2, [[(0, 2, 1)]], [[]], [0])
    with pytest.raises(DimensionError):
        validate_and_symmetrize(2, [[]], [[]], [0, 0])
    sys_ = dense_system([[[1, 0], [0, 1]]], [[0, 0]], [-1])
    with pytest.raises(DimensionError):
        evaluate(sys_, vector([1, 2, 3]))


@pytest.mark.parametrize("index", [0.0, True])
def test_indices_are_ints_as_in_files(index):
    # 0.0 would pass the range check and fail inside linearize; True would read as 1
    with pytest.raises(DimensionError, match="alpha term"):
        validate_and_symmetrize(2, [[(index, 1, 1)]], [[]], [0])
    with pytest.raises(DimensionError, match="alpha term"):
        validate_and_symmetrize(2, [[(1, index, 1)]], [[]], [0])
    with pytest.raises(DimensionError, match="beta term"):
        validate_and_symmetrize(2, [[]], [[(index, 1)]], [0])


def test_a_bool_coefficient_is_not_a_number():
    with pytest.raises(TypeError, match="not an exact scalar"):
        validate_and_symmetrize(1, [[(0, 0, True)]], [[]], [-1])
    with pytest.raises(TypeError, match="not an exact scalar"):
        validate_and_symmetrize(1, [[]], [[]], [False])


@pytest.mark.parametrize("exps", [(2.5, 0), (True, 1), ("2", 0)])
def test_exponents_are_non_negative_ints_as_in_files(exps):
    # int() would read (2.5, 0) as x^2 and (True, 1) as x*y
    with pytest.raises(DimensionError, match="bad exponent vector"):
        poly_system([{exps: 1, (0, 1): -1}], 2)


def test_evaluate_reference_points(hyperboloid_line):
    sys_, base = hyperboloid_line
    assert evaluate(sys_, base) == zero_vector(3)
    assert evaluate(sys_, vector([9, 8, 12])) == zero_vector(3)
    zero_sys = dense_system([[[0, 0], [0, 0]]], [[0, 0]], [0])
    assert evaluate(zero_sys, vector([5, -7])) == zero_vector(1)


def test_bilinear_reference_values(hyperboloid_line, cusp_system, tangent_sphere_cylinder):
    sys1, _ = hyperboloid_line
    assert bilinear(sys1, vector([4, 3, 5]), vector([4, 3, 5])) == zero_vector(3)
    sys2, _ = cusp_system
    assert bilinear(sys2, vector([1, 0, 0]), vector([1, 0, 0])) == vector([0, 1])
    sys4, _ = tangent_sphere_cylinder
    assert bilinear(sys4, vector([0, 0, 1]), vector([0, 0, 1])) == vector([1, 0, 0])


def test_bilinear_is_bilinear_and_symmetric(viviani_system):
    sys_, _ = viviani_system
    rng = random.Random(42)
    for _ in range(20):
        a = F(rng.randint(-3, 3), rng.randint(1, 3))
        x, xp, y = (
            vector([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)])
            for _ in range(3)
        )
        ax_plus = tuple(a * u + v for u, v in zip(x, xp))
        left = bilinear(sys_, ax_plus, y)
        right = tuple(a * u + v for u, v in zip(bilinear(sys_, x, y), bilinear(sys_, xp, y)))
        assert left == right
        assert bilinear(sys_, x, y) == bilinear(sys_, y, x)


def test_linearize_reference_matrices(hyperboloid_line, viviani_system, tangent_sphere_cylinder):
    sys1, base1 = hyperboloid_line
    ops1 = linearize(sys1, base1)
    assert [list(r) for r in ops1.c_matrix.entries] == [
        [10, 10, -14], [3, 1, -3], [1, -3, 1]]
    sys3, base3 = viviani_system
    assert [list(r) for r in linearize(sys3, base3).c_matrix.entries] == [
        [4, 0, 0], [2, 0, 0]]
    sys4, base4 = tangent_sphere_cylinder
    assert [list(r) for r in linearize(sys4, base4).c_matrix.entries] == [
        [4, 0, 0], [-2, 0, 0], [0, 1, 0]]


def test_linearize_stores_no_zero_entry():
    # at (1, 0, 0) every term of the first two rows of C cancels or vanishes:
    # x^2 - 2x + 1 + yz, xy - y + z^2; the last row, of xz + x + y - 1, meets
    # column 1 only through its linear terms
    sys_ = validate_and_symmetrize(
        3, [[(0, 0, 1), (1, 2, 1)], [(0, 1, 1), (2, 2, 1)], [(0, 2, 1)]],
        [[(0, -2)], [(1, -1)], [(0, 1), (1, 1)]], [1, 0, -1])
    c = linearize(sys_, vector([1, 0, 0])).c_matrix
    assert (c.common, c.nonzeros) == (1, ((), (), ((0, 1), (1, 1), (2, 1))))


def test_linearize_rejects_non_solution(hyperboloid_line):
    sys_, _ = hyperboloid_line
    with pytest.raises(BasePointError) as err:
        linearize(sys_, vector([5, 5, 8]))
    assert err.value.residual == vector([-15, -3, 1])


def test_linearize_probe_mismatch_raises(monkeypatch, hyperboloid_line):
    sys_, base = hyperboloid_line
    real = quadsys.bilinear
    monkeypatch.setattr(
        quadsys, "bilinear", lambda s, x, y: tuple(v + 1 for v in real(s, x, y))
    )
    with pytest.raises(RuntimeError, match="probe"):
        linearize(sys_, base)


def _random_fraction(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


def _random_raw_terms(rng, m):
    """Raw quadratic terms with repeated (i, j) keys and both (i, j) and (j, i),
    denominators up to 9 that differ from term to term."""
    quad = []
    for _ in range(rng.randint(0, 8)):
        i, j = rng.randrange(m), rng.randrange(m)
        c = _random_fraction(rng)
        quad += [(i, j, c), (j, i, c / 2)] if rng.random() < 0.5 else [(i, j, c)]
    lin = [(rng.randrange(m), _random_fraction(rng)) for _ in range(rng.randint(0, 4))]
    return quad, lin


def _random_point(rng, m):
    # a zero vector one time in eight; otherwise each coordinate has its
    # own denominator
    if rng.random() < 0.125:
        return [F(0)] * m
    return [_random_fraction(rng) for _ in range(m)]


def _fraction_symmetrization(quad, lin, g):
    """The alpha, beta and gamma of one equation, built term by term in
    Fractions: off-diagonal coefficients are halved onto (min, max)."""
    sym, acc = {}, {}
    for i, j, c in quad:
        key = (min(i, j), max(i, j))
        sym[key] = sym.get(key, F(0)) + (F(c) if i == j else F(c) / 2)
    for i, c in lin:
        acc[i] = acc.get(i, F(0)) + F(c)
    return (tuple((i, j, c) for (i, j), c in sorted(sym.items()) if c),
            tuple((i, c) for i, c in sorted(acc.items()) if c), F(g))


def test_sparse_kernels_match_sympy():
    # F, B, A, the rows of C and M·x are summed in integers over common
    # denominators; sympy evaluates the same polynomials, built from the
    # raw terms, over QQ
    sympy = pytest.importorskip("sympy")

    def frac(r):
        return F(int(r.p), int(r.q))

    def poly(terms, xs):
        # terms are (indices, coefficient); an index tuple is a monomial
        coeffs = {}
        for indices, c in terms:
            exps = tuple(indices.count(i) for i in range(len(xs)))
            coeffs[exps] = coeffs.get(exps, 0) + sympy.Rational(c)
        return sympy.Poly.from_dict(coeffs, *xs, domain=sympy.QQ)

    def at(p, point):
        return frac(p(*map(sympy.Rational, point)))

    rng = random.Random(2024)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 3)
        xs = sympy.symbols(f"x0:{m}")
        raw = [_random_raw_terms(rng, m) for _ in range(n)]
        base = _random_point(rng, m)
        quads = [poly([((i, j), c) for i, j, c in quad], xs) for quad, _ in raw]
        lins = [poly([((i,), c) for i, c in lin], xs) for _, lin in raw]
        gammas = [-at(q + a, base) for q, a in zip(quads, lins)]  # the base point solves
        polys = [q + a + sympy.Rational(g) for q, a, g in zip(quads, lins, gammas)]
        sys_ = validate_and_symmetrize(m, [r[0] for r in raw], [r[1] for r in raw], gammas)
        for k, ((quad, lin), g) in enumerate(zip(raw, gammas)):
            views = (sys_.alpha[k], sys_.beta[k], sys_.gamma[k])
            assert views == _fraction_symmetrization(quad, lin, g)
            assert all(type(c) is F for c in (*(t[-1] for t in views[0] + views[1]), views[2]))

        x, y = _random_point(rng, m), _random_point(rng, m)
        assert evaluate(sys_, vector(x)) == tuple(at(p, x) for p in polys)
        assert linear_part(sys_, vector(x)) == tuple(at(a, x) for a in lins)
        # polarization: B(X, Y) = (Q(X + Y) - Q(X) - Q(Y)) / 2
        x_plus_y = [u + v for u, v in zip(x, y)]
        expected_b = tuple((at(q, x_plus_y) - at(q, x) - at(q, y)) / 2 for q in quads)
        assert bilinear(sys_, vector(x), vector(y)) == expected_b
        jac = sympy.Matrix([[p.diff(v)(*map(sympy.Rational, base)) for v in xs] for p in polys])
        c = linearize(sys_, base).c_matrix
        assert [list(r) for r in c.entries] == [[frac(jac[k, j]) for j in range(m)]
                                                for k in range(n)]
        assert c.mul_vec(vector(x)) == tuple(frac(v) for v in jac * sympy.Matrix(x))
        w = _random_point(rng, n)
        assert c.transpose().mul_vec(vector(w)) == tuple(
            frac(v) for v in jac.T * sympy.Matrix(w))


def test_equivalent_raw_terms_give_equal_systems():
    # the integer form over one denominator per equation is canonical
    half = validate_and_symmetrize(2, [[(0, 1, "1/2")]], [[(0, "1/2")]], ["1/2"])
    assert (half.quad, half.lin, half.const, half.den) == (
        (((0, 1, 1),),), (((0, 1),),), (1,), (2,))
    equivalent = [
        validate_and_symmetrize(2, [[(0, 1, "2/4")]], [[(0, F(2, 4))]], ["3/6"]),
        # (i, j) split with (j, i)
        validate_and_symmetrize(2, [[(0, 1, F(1, 4)), (1, 0, F(1, 4))]], [[(0, F(1, 2))]],
                                [F(1, 2)]),
        # duplicates that cancel, in every part of the equation
        validate_and_symmetrize(
            2, [[(0, 1, F(1, 2)), (0, 0, F(1, 3)), (0, 0, F(-1, 3)), (1, 1, 7), (1, 1, -7)]],
            [[(0, F(1, 2)), (1, F(1, 5)), (1, F(-1, 5))]], [F(1, 2)]),
    ]
    for sys_ in equivalent:
        assert sys_ == half and hash(sys_) == hash(half)
        assert (sys_.alpha, sys_.beta, sys_.gamma) == (
            (((0, 1, F(1, 4)),),), (((0, F(1, 2)),),), (F(1, 2),))
    # 2F has the same zeros as F but is another system
    double = validate_and_symmetrize(2, [[(0, 1, 1)]], [[(0, 1)]], [1])
    assert double != half and double.den == (1,) and double.quad == half.quad
    assert validate_and_symmetrize(1, [[]], [[]], [0]).den == (1,)


def test_kernels_build_one_fraction_per_output():
    # F, B, A and M·x build one Fraction per output entry, and linearize
    # O(n) for its checks and none per entry of C, however many alpha
    # terms there are; a framework compiles straight to ints, with none
    fw = rigidity.auto_pin(triangulated_grid(10))
    rational = rigidity.framework(
        3, {"a": [F(1, 2), 0, F(-3, 4)], "b": [2, F(5, 3), 1], "c": [F(7, 9), F(1, 6), 0]},
        [("a", "b"), ("b", "c"), ("a", "c")], [("a", 0), ("a", 1), ("a", 2), ("b", 1)])
    sys_, _, base = rigidity.build_edge_system(fw)
    ops = linearize(sys_, base)
    nnz = sum(len(row) for row in ops.c_matrix.nonzeros)
    y = vector(F(k % 7 - 3, 1 + k % 5) for k in range(sys_.m))
    calls = {
        "evaluate": (lambda: evaluate(sys_, y), sys_.n),
        "bilinear": (lambda: bilinear(sys_, base, y), sys_.n),
        "linear_part": (lambda: linear_part(sys_, y), sys_.n),
        "mul_vec": (lambda: ops.c_matrix.mul_vec(y), sys_.n),
        "linearize": (lambda: linearize(sys_, base), 2 * sys_.n + 1),
        "build_edge_system": (lambda: rigidity.build_edge_system(fw), 0),
        "build_edge_system_rational": (lambda: rigidity.build_edge_system(rational), 0),
    }
    built = 0
    saved = F.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return saved.__func__(cls, *args, **kwargs)

    counts = {}
    F.__new__ = staticmethod(counting_new)
    try:
        for name, (call, _) in calls.items():
            built = 0
            call()
            counts[name] = built
    finally:
        F.__new__ = saved
    assert sum(len(quad) for quad in sys_.quad) > 2 * sys_.n
    assert all(counts[name] <= bound for name, (_, bound) in calls.items()), (counts, nnz, sys_.n)


def test_base_operators_memoize_products_per_instance(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops, again = linearize(sys_, base), linearize(sys_, base)
    x, y = vector([1, 2, 3]), vector([F(1, 2), 0, -4])
    assert ops.bilinear(x, y) == bilinear(sys_, x, y)
    # the memo holds the scaled product, one entry for both argument orders
    assert ops._product(y, x) is ops._product(x, y)
    # each linearize call builds its own memo, which takes no part in equality
    assert again._products_by_id == {} and again._products_by_id is not ops._products_by_id
    assert ops == again and "_products_by_id" not in repr(ops)
    with pytest.raises(DimensionError):
        ops._product(x, vector([1, 2]))


def test_base_operators_memoize_images_per_instance(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops, again = linearize(sys_, base), linearize(sys_, base)
    y = vector([F(1, 2), 0, -4])
    assert _fractions(ops._image(y)) == ops.c_matrix.mul_vec(y)
    # the memo holds the scaled image, and the scaled argument once
    assert ops._image(y) is ops._image(y) and ops._scaled(y) is ops._scaled(y)
    # each linearize call builds its own memo, which takes no part in equality
    assert again._images_by_id == {} and again._images_by_id is not ops._images_by_id
    assert again._scaled_by_id == {} and "_scaled_by_id" not in repr(ops)
    assert ops == again and "_images_by_id" not in repr(ops)
    with pytest.raises(DimensionError):
        ops._image(vector([1, 2]))


def test_base_operators_memo_agrees_with_bilinear_on_short_lived_vectors(hyperboloid_line):
    # x draws from a small pool of values, so most x equal an earlier
    # vector but are fresh objects that die after their product; built
    # from a list, a new x often takes the memory, and so the id, of a dead
    # one, and a memo that trusted a bare id would answer for another vector
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    rng = random.Random(17)
    ys = [vector([F(rng.randint(-2, 2), 2) for _ in range(3)]) for _ in range(3)]
    for _ in range(600):
        x, y = tuple([F(rng.randint(-1, 1)) for _ in range(3)]), rng.choice(ys)
        assert ops.bilinear(x, y) == bilinear(sys_, x, y)
        assert ops.bilinear(y, x) == bilinear(sys_, x, y)
        assert _fractions(ops._image(x)) == ops.c_matrix.mul_vec(x)


def test_degree_two_taylor_identity(hyperboloid_line, viviani_system, tangent_sphere_cylinder):
    # F(X0 + Z) - F(X0) = C Z + B(Z, Z), exactly
    rng = random.Random(99)
    for sys_, base in (hyperboloid_line, viviani_system, tangent_sphere_cylinder):
        ops = linearize(sys_, base)
        for _ in range(10):
            z = vector([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(sys_.m)])
            shifted = tuple(u + v for u, v in zip(base, z))
            lhs = tuple(u - v for u, v in zip(evaluate(sys_, shifted), evaluate(sys_, base)))
            rhs = tuple(u + v for u, v in zip(ops.c_matrix.mul_vec(z), bilinear(sys_, z, z)))
            assert lhs == rhs


def test_reduce_degree_cubic_curve():
    poly = poly_system([{(3, 0): 1, (0, 2): -1}], 2)
    red, rmap = reduce_degree(poly)
    assert red.m == 3 and red.n == 2
    assert rmap.auxiliary_definitions == ((2, (2, 0)),)
    assert system_poly_terms(red) == [
        {(1, 0, 1): F(1), (0, 2, 0): F(-1)},
        {(2, 0, 0): F(1), (0, 0, 1): F(-1)},
    ]


def test_reduce_degree_mixed_cubic_monomial():
    poly = poly_system([{(2, 1): 1, (0, 0): -1}], 2)
    red, rmap = reduce_degree(poly)
    assert rmap.auxiliary_definitions == ((2, (2, 0)),)
    assert system_poly_terms(red) == [
        {(0, 1, 1): F(1), (0, 0, 0): F(-1)},
        {(2, 0, 0): F(1), (0, 0, 1): F(-1)},
    ]


@pytest.mark.parametrize("equations", [
    [{(3, 0): 1, (0, 3): 1}],
    [{(0, 3): 1}, {(3, 0): 1}],
])
def test_reduce_degree_splits_the_greatest_exponent_vector_first(equations):
    # x^3 (exponents (3, 0)) is split before y^3, whichever equation holds it
    red, rmap = reduce_degree(poly_system(equations, 2))
    assert rmap.auxiliary_definitions == ((2, (2, 0)), (3, (0, 2, 0)))
    defining = (((0, 0, F(1)),), ((1, 1, F(1)),))
    if len(equations) == 1:
        assert red.alpha == (((0, 2, F(1, 2)), (1, 3, F(1, 2))),) + defining
    else:
        assert red.alpha == (((1, 3, F(1, 2)),), ((0, 2, F(1, 2)),)) + defining
    assert red.beta[-2:] == (((2, F(-1)),), ((3, F(-1)),))
    assert red.variable_names == ("x1", "x2", "x3", "x4")


def test_reduce_degree_names_no_auxiliary_after_an_input_variable():
    # x3^3 - y: the auxiliary for x3^2 is variable 3, but "x3" is taken, so
    # it is named by the first free x{k} from there up
    poly = poly_system([{(3, 0): 1, (0, 1): -1}], 2, ["x3", "y"])
    red, rmap = reduce_degree(poly)
    assert rmap.auxiliary_definitions == ((2, (2, 0)),)
    assert red.variable_names == ("x3", "y", "x4")
    red, _ = reduce_degree(poly_system([{(3, 0, 0): 1}], 3, ["x4", "x5", "x3"]))
    assert red.variable_names == ("x4", "x5", "x3", "x6")


def test_reduce_degree_memory_grows_with_exponent_bits():
    # x^1000000 - y: each monomial is held by its (index, exponent) pairs,
    # so no step builds a tuple as long as the degree (8 MB of pointers)
    poly = poly_system([{(1000000, 0): 1, (0, 1): -1}], 2)
    tracemalloc.start()
    try:
        red, rmap = reduce_degree(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert len(rmap.auxiliary_definitions) == 114
    assert (red.m, red.n) == (116, 115)
    assert all(sum(e) <= 2 for eq in system_poly_terms(red) for e in eq)
    # (+-1, 1) solve x^1000000 = y and lift to solutions of the reduced system
    for x0 in (1, -1):
        assert evaluate(red, lift_base_point(rmap, vector([x0, 1]))) == zero_vector(115)


def test_reduce_degree_already_quadratic_is_unchanged():
    poly = poly_system([{(2, 0): 1, (0, 1): F(-1)}], 2)
    red, rmap = reduce_degree(poly)
    assert rmap.is_empty()
    assert red.m == 2
    assert system_poly_terms(red) == [{(2, 0): F(1), (0, 1): F(-1)}]


def test_reduce_degree_reuses_auxiliary_and_terminates_on_high_degree():
    # x1^4 and x1^2 x2^2 share the sub-monomial x1^2
    poly = poly_system([{(4, 0): 1, (2, 2): 1, (0, 0): -1}], 2)
    red, rmap = reduce_degree(poly)
    assert all(
        sum(e) <= 2 for eq in system_poly_terms(red) for e in eq
    )
    names = [v for v, _ in rmap.auxiliary_definitions]
    assert len(names) == len(set(names))
    # x1^2 introduced once only
    assert sum(1 for _, exps in rmap.auxiliary_definitions if exps == (2, 0)) == 1


def test_reduction_round_trip_on_sampled_points():
    rng = random.Random(1234)
    polys = [
        poly_system([{(3, 0): 1, (0, 2): -1}], 2),
        poly_system([{(2, 1): 1, (0, 0): -1}], 2),
        poly_system([{(4, 0): 1, (2, 2): 1, (1, 0): F(1, 2)}], 2),
    ]
    for poly in polys:
        red, rmap = reduce_degree(poly)
        for _ in range(20):
            x = vector([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(poly.m)])
            lifted = lift_base_point(rmap, x)
            red_vals = evaluate(red, lifted)
            orig_vals = evaluate_poly(poly, x)
            # original equations keep their values; defining equations vanish
            assert red_vals[: len(orig_vals)] == orig_vals
            assert all(v == 0 for v in red_vals[len(orig_vals):])
            assert restrict_solution(rmap, lifted) == x


def test_reduction_preserves_exact_solutions():
    poly = poly_system([{(3, 0): 1, (0, 2): -1}], 2)
    red, rmap = reduce_degree(poly)
    for t in [F(0), F(1), F(-2), F(1, 2), F(3, 5)]:
        sol = (t * t, t * t * t)
        assert evaluate_poly(poly, sol) == (F(0),)
        assert evaluate(red, lift_base_point(rmap, sol)) == zero_vector(2)


def test_lift_base_point_examples():
    rmap = quadsys.ReductionMap(2, ((2, (2, 0)),))
    assert lift_base_point(rmap, vector([0, 0])) == vector([0, 0, 0])
    assert lift_base_point(rmap, vector([3, 1])) == vector([3, 1, 9])
    empty = quadsys.ReductionMap(2, ())
    assert lift_base_point(empty, vector([3, 1])) == vector([3, 1])
