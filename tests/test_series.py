import math
import random
from fractions import Fraction as F

import pytest

from flexcert import quadsys, series
from flexcert.certify import canonical_candidates
from flexcert.quadsys import linearize, validate_and_symmetrize
from flexcert.ratlinalg import DimensionError, vector, zero_vector
from flexcert.series import (
    INFINITE,
    SeriesCoefficients,
    extend_step,
    recurrence_rhs,
    reparameterize,
    residual_order,
)

from conftest import broken_series, dense_system, sympy_residual_order


def make_series(*coeffs):
    return SeriesCoefficients(tuple(vector(c) for c in coeffs))


def test_recurrence_rhs_reference(hyperboloid_line, cusp_system):
    sys1, base1 = hyperboloid_line
    ops1 = linearize(sys1, base1)
    s = make_series(base1, [4, 3, 5])
    assert recurrence_rhs(ops1, s, 2) == zero_vector(3)
    assert recurrence_rhs(ops1, s, 1) == zero_vector(3)

    sys2, base2 = cusp_system
    ops2 = linearize(sys2, base2)
    s2 = make_series(base2, [0, 0, 0], [1, 0, 0], [0, 1, 0])
    assert recurrence_rhs(ops2, s2, 4) == vector([0, -1])


def test_recurrence_rhs_index_bounds(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    s = make_series(base, [4, 3, 5])
    with pytest.raises(DimensionError):
        recurrence_rhs(ops, s, 3)
    with pytest.raises(DimensionError):
        recurrence_rhs(ops, s, 0)


def test_recurrence_rhs_pairing_symmetry(cusp_system):
    sys_, base = cusp_system
    ops = linearize(sys_, base)
    rng = random.Random(5)
    coeffs = [vector(base)] + [
        vector([F(rng.randint(-2, 2)) for _ in range(3)]) for _ in range(4)
    ]
    s = SeriesCoefficients(tuple(coeffs))
    for p in range(1, 6):
        forward = zero_vector(sys_.n)
        backward = zero_vector(sys_.n)
        for l in range(1, p):
            term = ops.bilinear(s.coefficient(l), s.coefficient(p - l))
            forward = tuple(a + b for a, b in zip(forward, term))
            term_rev = ops.bilinear(s.coefficient(p - l), s.coefficient(l))
            backward = tuple(a + b for a, b in zip(backward, term_rev))
        assert forward == backward
        assert recurrence_rhs(ops, s.truncated(p - 1) if p - 1 >= 0 else s, p) == tuple(
            -x for x in forward
        )


def test_extend_step_circle(circle_system):
    sys_, base = circle_system
    ops = linearize(sys_, base)
    s = make_series(base, [0, 1])
    got = extend_step(ops, s)
    assert got == vector([F(-1, 2), 0])
    extended = s.appended(got)
    assert residual_order(linearize(sys_, extended.coefficient(0)), extended) > 2


def test_residual_order_reference(hyperboloid_line, tangent_sphere_cylinder):
    sys1, base1 = hyperboloid_line
    assert residual_order(linearize(sys1, base1), make_series(base1, [4, 3, 5])) == INFINITE
    assert residual_order(linearize(sys1, base1), make_series(base1)) == INFINITE
    sys4, base4 = tangent_sphere_cylinder
    assert residual_order(linearize(sys4, base4), make_series(base4, [0, 0, 1])) == 2


def test_residual_order_matches_sympy_expansion(hyperboloid_line, cusp_system,
                                                viviani_system, tangent_sphere_cylinder,
                                                circle_system):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(606)
    parabola = dense_system([[[-1, 0], [0, 0]]], [[0, 1]], [0])
    sys1, base1 = hyperboloid_line
    # exact polynomial families
    cases = [(sys1, make_series(base1, [4, 3, 5])), (sys1, make_series(base1, [8, 6, 10])),
             (parabola, make_series([0, 0], [1, 0], [0, 1])),
             (parabola, make_series([0, 0], [0, 0], [2, 0], [0, 0], [0, 4]))]
    for sys_, base in (hyperboloid_line, cusp_system, viviani_system,
                       tangent_sphere_cylinder, circle_system, (parabola, vector([0, 0]))):
        cases.append((sys_, make_series(base)))
        # truncated canonical candidates, each also deliberately broken
        for cand in canonical_candidates(linearize(sys_, base), 4):
            for q in range(1, cand.degree + 1):
                prefix = cand.truncated(q)
                cases += [(sys_, prefix), (sys_, broken_series(rng, prefix))]
    orders = []
    for sys_, s in cases:
        expected = sympy_residual_order(sympy, sys_, s)
        assert residual_order(linearize(sys_, s.coefficient(0)), s) == expected, s
        orders.append(expected)
    assert INFINITE in orders and {1, 2, 3, 4, 6, 8} <= set(orders)


def test_residual_order_memo_on_short_lived_series(circle_system):
    # one ops checks many series whose coefficients draw from a small pool
    # of values and die after their check; built from lists, new
    # coefficients often take the memory, and so the ids, of dead ones,
    # which must not answer for them in the operators' product and image
    # memos
    sys_, base = circle_system
    ops = linearize(sys_, base)
    rng = random.Random(23)
    orders = set()
    for _ in range(300):
        coeffs = [tuple([F(rng.randint(-1, 1)) for _ in range(sys_.m)])
                  for _ in range(rng.randint(1, 2))]
        s = SeriesCoefficients((base, *coeffs))
        expected = residual_order(linearize(sys_, base), s)
        assert residual_order(ops, s) == expected, s
        orders.add(expected)
    assert orders == {1, 2, 4, INFINITE}


def test_residual_order_requires_solving_base(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    # (5, 5, 8) does not solve the system, so no operators exist there
    with pytest.raises(quadsys.BasePointError):
        linearize(sys_, vector([5, 5, 8]))
    with pytest.raises(DimensionError):
        residual_order(ops, make_series([5, 5, 8]))
    with pytest.raises(DimensionError):
        residual_order(ops, make_series(list(base) + [0]))


def test_extension_soundness_across_corpus(hyperboloid_line, cusp_system,
                                           viviani_system, tangent_sphere_cylinder,
                                           circle_system):
    # a successful unconstrained extension always raises the residual order
    for sys_, base in (hyperboloid_line, cusp_system, viviani_system,
                       tangent_sphere_cylinder, circle_system):
        ops = linearize(sys_, base)
        for kvec in ops.kernel:
            s = SeriesCoefficients((vector(base), kvec))
            while s.degree < 6:
                before = residual_order(linearize(sys_, s.coefficient(0)), s)
                assert before > s.degree
                nxt = extend_step(ops, s)
                if nxt is None:
                    break
                s = s.appended(nxt)
                assert residual_order(linearize(sys_, s.coefficient(0)), s) > s.degree


def _compose_bruteforce(coeffs, u_coeffs, out_degree):
    """Independent polynomial-composition oracle: substitute u(tau) into
    sum_p X_p t^p by direct convolution."""
    width = len(coeffs[0])
    acc = [[F(0)] * width for _ in range(out_degree + 1)]
    upow = [F(1)] + [F(0)] * out_degree  # u^0
    for p, xp in enumerate(coeffs):
        if p > 0:
            nxt = [F(0)] * (out_degree + 1)
            for i, a in enumerate(upow):
                for j, b in enumerate(u_coeffs):
                    if a != 0 and b != 0 and i + j <= out_degree:
                        nxt[i + j] += a * b
            upow = nxt
        for idx in range(out_degree + 1):
            if upow[idx] != 0:
                for w in range(width):
                    acc[idx][w] += upow[idx] * xp[w]
    return [tuple(row) for row in acc]


def test_reparameterize_identity_and_low_order_rules():
    rng = random.Random(31)
    coeffs = [vector([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)])
              for _ in range(5)]
    s = SeriesCoefficients(tuple(coeffs))
    assert reparameterize(s, 0, 2, s.degree).coeffs == s.coeffs
    for _ in range(10):
        a = F(rng.randint(-5, 5), rng.randint(1, 4))
        out = reparameterize(s, a, 2, 4)
        assert out.coefficient(0) == s.coefficient(0)
        assert out.coefficient(1) == s.coefficient(1)
        assert out.coefficient(2) == tuple(
            x2 + a * x1 for x2, x1 in zip(s.coefficient(2), s.coefficient(1)))
        assert out.coefficient(3) == tuple(
            x3 + 2 * a * x2 for x3, x2 in zip(s.coefficient(3), s.coefficient(2)))
        assert out.coefficient(4) == tuple(
            x4 + 3 * a * x3 + a * a * x2
            for x4, x3, x2 in zip(s.coefficient(4), s.coefficient(3), s.coefficient(2)))


def test_reparameterize_matches_bruteforce_composition():
    # series degree 0..5 against out_degree 0..7, so the output is cut
    # below, at and above the series degree, with e up to out_degree + 2
    rng = random.Random(88)
    for degree in range(6):
        for out_degree in range(8):
            for e in range(2, out_degree + 3):
                coeffs = [vector([F(rng.randint(-2, 2)) for _ in range(2)])
                          for _ in range(degree + 1)]
                s = SeriesCoefficients(tuple(coeffs))
                a = F(rng.randint(-3, 3), rng.randint(1, 2))
                u = [F(0)] * (out_degree + 1)
                if out_degree >= 1:
                    u[1] = F(1)
                if e <= out_degree:
                    u[e] += a
                expected = _compose_bruteforce(list(s.coeffs), u, out_degree)
                got = reparameterize(s, a, e, out_degree)
                assert list(got.coeffs) == expected


def test_reparameterize_inverse_composition():
    rng = random.Random(13)
    coeffs = [vector([F(rng.randint(-2, 2)) for _ in range(2)]) for _ in range(4)]
    s = SeriesCoefficients(tuple(coeffs))
    for a in (F(1), F(-2), F(1, 3)):
        once = reparameterize(s, a, 2, 3)
        back = reparameterize(once, -a, 2, 3)
        assert back.coefficient(0) == s.coefficient(0)
        assert back.coefficient(1) == s.coefficient(1)
        # the t = tau + a tau^2 substitutions differ from an exact inverse
        # only beyond order 2
        assert back.coefficient(2) == s.coefficient(2)


def test_reparameterize_preserves_residual_order(circle_system):
    sys_, base = circle_system
    ops = linearize(sys_, base)
    s = SeriesCoefficients((vector(base), vector([0, 1]), vector([F(-1, 2), 0])))
    assert residual_order(linearize(sys_, s.coefficient(0)), s) > 2
    for a in (F(1), F(-1, 2), F(3)):
        for e in (2, 3):
            out = reparameterize(s, a, e, 2)
            assert residual_order(linearize(sys_, out.coefficient(0)), out) > 2


def test_zero_series_accepted(hyperboloid_line):
    sys_, base = hyperboloid_line
    s = make_series(base, [0, 0, 0], [0, 0, 0])
    assert s.is_constant()
    assert residual_order(linearize(sys_, s.coefficient(0)), s) == INFINITE
