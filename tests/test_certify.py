import dataclasses
import random
from fractions import Fraction as F
from math import gcd

import pytest

from flexcert import certify, fileio, quadsys, ratlinalg, series
from flexcert.certify import (
    FLEXIBLE,
    INCONCLUSIVE,
    RIGID,
    AnalyzeConfig,
    FirstOrderRigid,
    PreconditionError,
    SecondOrderObstruction,
    SpanClosureFlex,
    TStandardFail,
    analyze_system,
    first_order_rigidity_check,
    replay_certificate,
    second_order_obstruction_check,
    span_closure_check,
    span_closure_search,
    t_standard_run,
)
from flexcert.quadsys import linearize, validate_and_symmetrize
from flexcert.ratlinalg import (
    Matrix,
    _fractions,
    _integers,
    combination,
    is_zero_vector,
    kernel_basis,
    solve_in_span_coefficients,
    vector,
    zero_vector,
)
from flexcert.rigidity import analyze_framework, build_edge_system, framework
from flexcert.series import SeriesCoefficients

from conftest import (
    FRAMEWORK_CORPUS,
    SYSTEM_CORPUS,
    broken_series,
    check_rank_mod_p,
    corpus_path,
    dense_system,
    fuzz_systems,
    load_corpus_framework,
    load_corpus_system,
    low_rank_system,
    random_system_with_solution,
    sympy_equations,
    sympy_residual_order,
    triangulated_grid,
)


def make_series(*coeffs):
    return SeriesCoefficients(tuple(vector(c) for c in coeffs))


# ---------------------------------------------------------------------------
# first-order rigidity


def test_first_order_check_negative(hyperboloid_line):
    sys_, base = hyperboloid_line
    assert first_order_rigidity_check(linearize(sys_, base)) is None


def test_first_order_check_positive():
    sys_ = dense_system(
        [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [[1, 0], [0, 1]], [0, 0]
    )
    ops = linearize(sys_, vector([0, 0]))
    cert = first_order_rigidity_check(ops)
    assert isinstance(cert, FirstOrderRigid) and cert.rank == 2
    assert replay_certificate(sys_, vector([0, 0]), cert)


# ---------------------------------------------------------------------------
# second-order obstruction


def test_obstruction_single_direction(tangent_sphere_cylinder):
    sys_, base = tangent_sphere_cylinder
    cert = second_order_obstruction_check(linearize(sys_, base))
    assert isinstance(cert, SecondOrderObstruction)
    assert cert.case == "single_direction"
    assert cert.kernel == (vector([0, 0, 1]),)
    assert cert.b_value == vector([1, 0, 0])
    assert replay_certificate(sys_, base, cert)


def test_obstruction_absent_when_products_extend(hyperboloid_line, viviani_system):
    for sys_, base in (hyperboloid_line, viviani_system):
        assert second_order_obstruction_check(linearize(sys_, base)) is None


def test_obstruction_definite_form_dim2():
    # x1^2 + x2^2 + x3 = 0 and x3 = 0: the origin is an isolated solution
    z3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    sys_ = dense_system(
        [[[1, 0, 0], [0, 1, 0], [0, 0, 0]], z3],
        [[0, 0, 1], [0, 0, 1]],
        [0, 0],
    )
    ops = linearize(sys_, zero_vector(3))
    assert len(ops.kernel) == 2
    cert = second_order_obstruction_check(ops)
    assert isinstance(cert, SecondOrderObstruction) and cert.case == "definite_form"
    assert replay_certificate(sys_, zero_vector(3), cert)


def test_obstruction_no_common_line_dim2():
    # projected forms u*v and u^2 - 2 v^2 share no nonzero real root
    z4 = [[0] * 4 for _ in range(4)]
    a1 = [[0, F(1, 2), 0, 0], [F(1, 2), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    a2 = [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    sys_ = dense_system(
        [a1, a2, z4, z4],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
        [0, 0, 0, 0],
    )
    ops = linearize(sys_, zero_vector(4))
    assert len(ops.kernel) == 2
    cert = second_order_obstruction_check(ops)
    assert isinstance(cert, SecondOrderObstruction) and cert.case == "no_common_line"
    assert replay_certificate(sys_, zero_vector(4), cert)


def test_obstruction_kernel_tampering_is_rejected():
    # xy = 0 and x^2 - y^2 = 0 at the origin: C = 0, and the forms u*v and
    # u^2 - v^2 share no line, so the certificate is "no_common_line"
    sys_ = validate_and_symmetrize(2, [[(0, 1, 1)], [(0, 0, 1), (1, 1, -1)]], [[], []], [0, 0])
    origin = zero_vector(2)
    cert = second_order_obstruction_check(linearize(sys_, origin))
    assert cert.case == "no_common_line" and replay_certificate(sys_, origin, cert)
    for kernel in ((vector([7, 7]), vector([1, 2])), (), cert.kernel[:1]):
        assert not replay_certificate(sys_, origin, dataclasses.replace(cert, kernel=kernel))
    # x = 0 in one variable: the kernel is trivial, which the first-order
    # test settles, so the order-2 test does not apply, and replay accepts
    # no vacuous obstruction: none with a stored kernel direction, and none
    # that an empty kernel makes hold, such as an empty definite form
    line = validate_and_symmetrize(1, [[]], [[(0, 1)]], [0])
    with pytest.raises(PreconditionError, match="nontrivial kernel"):
        second_order_obstruction_check(linearize(line, zero_vector(1)))
    for vacuous in (SecondOrderObstruction(case="empty_kernel", kernel=()),
                    SecondOrderObstruction(case="empty_kernel", kernel=(vector([1]),)),
                    SecondOrderObstruction(case="definite_form", kernel=(),
                                           functional=vector([0]), form=())):
        assert not replay_certificate(line, zero_vector(1), vacuous)


def test_obstruction_passes_on_common_rational_line():
    # single projected form u*v vanishes on two rational lines
    z3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    a1 = [[0, F(1, 2), 0], [F(1, 2), 0, 0], [0, 0, 0]]
    sys_ = dense_system([a1, z3], [[0, 0, 1], [0, 0, 1]], [0, 0])
    ops = linearize(sys_, zero_vector(3))
    assert second_order_obstruction_check(ops) is None


def test_obstruction_passes_on_common_irrational_line():
    # proportional forms u^2 - 2 v^2: zero lines are irrational but shared
    z4 = [[0] * 4 for _ in range(4)]
    a1 = [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    a2 = [[2, 0, 0, 0], [0, -4, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    sys_ = dense_system(
        [a1, a2, z4, z4],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
        [0, 0, 0, 0],
    )
    ops = linearize(sys_, zero_vector(4))
    assert second_order_obstruction_check(ops) is None


def test_obstruction_distinct_irrational_forms_obstruct():
    # u^2 - 2 v^2 and u^2 - 3 v^2 share only the zero root over the reals
    z4 = [[0] * 4 for _ in range(4)]
    a1 = [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    a2 = [[1, 0, 0, 0], [0, -3, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    sys_ = dense_system(
        [a1, a2, z4, z4],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
        [0, 0, 0, 0],
    )
    ops = linearize(sys_, zero_vector(4))
    cert = second_order_obstruction_check(ops)
    assert isinstance(cert, SecondOrderObstruction) and cert.case == "no_common_line"
    assert replay_certificate(sys_, zero_vector(4), cert)


def test_obstruction_undecided_dim3_returns_none():
    # 3-dim kernel, projected form u*v: indefinite, no decision attempted
    z4 = [[0] * 4 for _ in range(4)]
    a1 = [[0, F(1, 2), 0, 0], [F(1, 2), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    sys_ = dense_system([a1, z4], [[0, 0, 0, 1], [0, 0, 0, 1]], [0, 0])
    ops = linearize(sys_, zero_vector(4))
    assert len(ops.kernel) == 3
    assert second_order_obstruction_check(ops) is None


def test_obstruction_definite_form_dim3_fires():
    # projected form u^2 + v^2 + w^2 is positive definite on a 3-dim kernel
    z4 = [[0] * 4 for _ in range(4)]
    a1 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    sys_ = dense_system([a1, z4], [[0, 0, 0, 1], [0, 0, 0, 1]], [0, 0])
    ops = linearize(sys_, zero_vector(4))
    assert len(ops.kernel) == 3
    cert = second_order_obstruction_check(ops)
    assert isinstance(cert, SecondOrderObstruction) and cert.case == "definite_form"
    assert replay_certificate(sys_, zero_vector(4), cert)


# ---------------------------------------------------------------------------
# span-closure certificate


def test_span_closure_check_line_family(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    s = make_series(base, [4, 3, 5], [0, 0, 0])
    cert = span_closure_check(ops, s, 2, 1)
    assert isinstance(cert, SpanClosureFlex)
    assert (cert.q, cert.k) == (2, 1)
    assert replay_certificate(sys_, base, cert)


def test_span_closure_check_cusp_exact_thresholds(cusp_system):
    sys_, base = cusp_system
    ops = linearize(sys_, base)
    zero = [0, 0, 0]
    s = make_series(base, zero, [1, 0, 0], [0, 1, 0], [0, 0, 1], zero)
    assert span_closure_check(ops, s, 5, 5) is not None
    for q in range(1, 6):
        for k in range(1, q + 1):
            if (q, k) == (5, 5):
                continue
            assert span_closure_check(ops, s, q, k) is None, (q, k)


def _viviani_series(degree):
    """Maclaurin coefficients of (1 + cos t, sin t, 2 sin(t/2))."""
    fact = [F(1)]
    for i in range(1, degree + 1):
        fact.append(fact[-1] * i)
    coeffs = [vector([2, 0, 0])]
    for p in range(1, degree + 1):
        if p % 2 == 0:
            sign = -1 if (p // 2) % 2 else 1
            coeffs.append(vector([F(sign, 1) / fact[p], 0, 0]))
        else:
            sign = -1 if ((p - 1) // 2) % 2 else 1
            coeffs.append(
                vector([0, F(sign, 1) / fact[p], F(sign, 1) / (fact[p] * 2 ** (p - 1))])
            )
    return SeriesCoefficients(tuple(coeffs))


def test_span_closure_check_viviani_never_passes(viviani_system):
    sys_, base = viviani_system
    ops = linearize(sys_, base)
    s = _viviani_series(6)
    assert series.residual_order(linearize(sys_, s.coefficient(0)), s) > 6
    for q in range(1, 7):
        for k in range(1, q + 1):
            assert span_closure_check(ops, s, q, k) is None, (q, k)


def test_span_closure_check_preconditions(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    s = make_series(base, [4, 3, 5])
    with pytest.raises(PreconditionError):
        span_closure_check(ops, s, 1, 0)
    with pytest.raises(PreconditionError):
        span_closure_check(ops, s, 2, 1)  # degree too low
    bad = make_series(base, [1, 0, 0])  # not an approximate solution
    with pytest.raises(PreconditionError):
        span_closure_check(ops, bad, 1, 1)


def test_span_closure_check_rejects_series_off_the_base_point(circle_system):
    # (0, 1) + (1, 0) t solves x^2 + y^2 = 1 to first order, but it starts
    # at (0, 1), not at the base point (1, 0); replay rejects such a series
    sys_, base = circle_system
    ops = linearize(sys_, base)
    assert base == vector([1, 0])
    s = make_series([0, 1], [1, 0])
    assert series.residual_order(linearize(sys_, s.coefficient(0)), s) > 1
    with pytest.raises(PreconditionError, match="base point"):
        span_closure_check(ops, s, 1, 1)
    forged = SpanClosureFlex(q=1, k=1, series=s, pair_solutions=())
    assert not replay_certificate(sys_, base, forged)


def test_replay_rejects_span_closure_with_2k_above_q_plus_1():
    # x^2 + y^2 = 0 is rigid at the origin. With k = q and Y_q = 0 the span
    # is {0} and every pair equation holds vacuously, so span_closure_check
    # returns a certificate for (t^2, 0) at (q, k) = (3, 3); it proves
    # nothing, and replay must reject it
    sys_ = dense_system([[[1, 0], [0, 1]]], [[0, 0]], [0])
    base = vector([0, 0])
    assert analyze_system(sys_, base).verdict == RIGID
    s = make_series([0, 0], [0, 0], [1, 0], [0, 0])
    forged = span_closure_check(linearize(sys_, base), s, 3, 3)
    assert forged is not None
    assert not replay_certificate(sys_, base, forged)


@pytest.fixture
def rref_calls(monkeypatch):
    # the arguments of every sparse elimination over Q, in call order
    calls = []
    original = ratlinalg._rref
    monkeypatch.setattr(ratlinalg, "_rref", lambda *args: calls.append(args) or original(*args))
    return calls


def test_t_standard_replay_eliminates_only_c(rref_calls):
    # T is read from its stored normal: replay eliminates C once for its
    # kernel and once to solve the unreachable right-hand side, and
    # nothing else
    for sys_, base in (load_corpus_system("example4.json"), _cubic_contact()):
        cert = t_standard_run(linearize(sys_, base), 6)
        assert isinstance(cert, TStandardFail)
        rref_calls.clear()
        assert replay_certificate(sys_, base, cert)
        assert len(rref_calls) == 2


def _corpus_input(name):
    # (system, base point) of a corpus file; a framework pinned as its file says
    if name in FRAMEWORK_CORPUS:
        fw, auto = load_corpus_framework(name)
        sys_, _, base = build_edge_system(analyze_framework(fw, use_auto_pin=auto).pinned)
        return sys_, base
    return load_corpus_system(name)


# the seeded fuzz sets that this module's tests draw, as fuzz_systems arguments
FUZZ_SETS = ((424242, 40, (random_system_with_solution,)), (424242, 80), (8086, 100),
             (5150, 120), (2718, 40))


def _grid_input(n):
    # (system, base point) of the auto-pinned triangulated n x n grid
    sys_, _, base = build_edge_system(
        analyze_framework(triangulated_grid(n), use_auto_pin=True).pinned)
    return sys_, base


def test_replay_eliminates_only_what_its_certificate_reads(rref_calls):
    # the operators eliminate C for a kernel only when one is read: a
    # span-closure replay reads none, a FirstOrderRigid replay reads a
    # kernel that the rank mod p proves trivial, and an obstruction reads
    # the kernel and solves once
    expected = {"example1.json": (SpanClosureFlex, 0), "circle.json": (SpanClosureFlex, 0),
                "square.json": (SpanClosureFlex, 0),
                "bricard_octahedron.json": (SpanClosureFlex, 0),
                "triangle.json": (FirstOrderRigid, 0),
                "cross_braced_square.json": (FirstOrderRigid, 0),
                "k4.json": (FirstOrderRigid, 0), "example4.json": (SecondOrderObstruction, 2)}
    for name, (kind, eliminations) in expected.items():
        sys_, base = _corpus_input(name)
        cert = analyze_system(sys_, base).certificate
        assert isinstance(cert, kind), name
        rref_calls.clear()
        assert replay_certificate(sys_, base, cert)
        assert len(rref_calls) == eliminations, name


def test_first_order_rigid_analyses_eliminate_nothing(rref_calls):
    # C has full column rank mod the prime on each of these, which proves
    # the kernel trivial with no elimination over Q
    inputs = [_corpus_input(name) for name in ("triangle.json", "cross_braced_square.json",
                                               "k4.json")]
    inputs += [_grid_input(n) for n in (2, 3, 5, 8)]
    rref_calls.clear()
    for sys_, base in inputs:
        assert isinstance(analyze_system(sys_, base).certificate, FirstOrderRigid)
    assert rref_calls == []


def test_rank_mod_p_bounds_the_rank_over_q():
    # on every seeded input the rank mod p is at most the rank over Q, and
    # it is the full column count whenever the kernel is trivial
    inputs = [_corpus_input(name) for name in SYSTEM_CORPUS + FRAMEWORK_CORPUS]
    inputs += [_grid_input(n) for n in range(2, 7)]
    for args in FUZZ_SETS:
        inputs += fuzz_systems(*args)
    trivial = [check_rank_mod_p(linearize(sys_, base).c_matrix) for sys_, base in inputs]
    assert sum(trivial) >= 100 and len(trivial) - sum(trivial) >= 200


def test_rank_lost_mod_p_falls_back_to_the_exact_kernel(rref_calls):
    # PRIME·x = 0, y = 0 at the origin: C = diag(PRIME, 1) has full rank
    # over Q and rank 1 mod the prime, which proves nothing, so the
    # operators eliminate C over Q once and still find the kernel trivial
    prime = ratlinalg.PRIME
    sys_ = validate_and_symmetrize(2, [[], []], [[(0, prime)], [(1, 1)]], [0, 0])
    ops = linearize(sys_, zero_vector(2))
    assert ops.c_matrix.nonzeros == (((0, prime),), ((1, 1),))
    assert ratlinalg.rank_mod_p(ops.c_matrix) == 1
    report = analyze_system(sys_, zero_vector(2))
    assert report.certificate == FirstOrderRigid(rank=2, variables=2)
    assert len(rref_calls) == 1
    assert replay_certificate(sys_, zero_vector(2), report.certificate)


def _cubic_contact():
    """y = x^2, xy = 0 and z = 0 at the origin: x^3 = 0 on the curve, so
    the point is isolated. ker C = span{e_x}, B(K, K) lies in im C, and
    the T-standard run in T = ker e_x fails at order 3 after the prefix
    [0, e_x, e_y]."""
    sys_ = validate_and_symmetrize(3, [[(0, 0, -1)], [(0, 1, 1)], []],
                                   [[(1, 1)], [], [(2, 1)]], [0, 0, 0])
    return sys_, zero_vector(3)


def _tampered_certificates():
    # name -> (system, base point, certificate with a witness of the wrong shape)
    ex1, base1 = load_corpus_system("example1.json")
    ex4, base4 = load_corpus_system("example4.json")
    bowl = dense_system([[[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0] * 3] * 3],
                        [[0, 0, 1], [0, 0, 1]], [0, 0])
    cross = validate_and_symmetrize(2, [[(0, 1, 1)], [(0, 0, 1), (1, 1, -1)]], [[], []], [0, 0])
    span = analyze_system(ex1, base1).certificate
    first = span.pair_solutions[0]
    bad_pair = dataclasses.replace(first, i=99)
    definite = second_order_obstruction_check(linearize(bowl, zero_vector(3)))
    no_line = second_order_obstruction_check(linearize(cross, zero_vector(2)))
    cubic, origin = _cubic_contact()
    fail = t_standard_run(linearize(cubic, origin))
    y0, y1, y2 = fail.prefix.coeffs
    # z = x^2, y = xz, z^2 = xy: the curve (x, x^3, x^2), whose T-standard
    # series it is. Read off its prefix of degree 2 with Y3 left out, the
    # right-hand side at order 4 is -B(Y2, Y2) = (0, 0, -1), outside im C
    curve = validate_and_symmetrize(3, [[(0, 0, -1)], [(0, 2, -1)], [(2, 2, 1), (0, 1, -1)]],
                                    [[(2, 1)], [(1, 1)], []], [0, 0, 0])
    curve_prefix = SeriesCoefficients((origin, vector([1, 0, 0]), vector([0, 0, 1])))
    return {
        "span_pair_index": (ex1, base1, dataclasses.replace(
            span, pair_solutions=(bad_pair,) + span.pair_solutions[1:])),
        # a zip over the m entries of the pair vector would accept the first
        "span_pair_vector_trailing_zero": (ex1, base1, dataclasses.replace(
            span, pair_solutions=(dataclasses.replace(first, vector=first.vector + (F(0),)),)
            + span.pair_solutions[1:])),
        "span_pair_vector_short": (ex1, base1, dataclasses.replace(
            span, pair_solutions=(dataclasses.replace(first, vector=first.vector[:-1]),)
            + span.pair_solutions[1:])),
        "span_pair_vector_entry_off_by_one": (ex1, base1, dataclasses.replace(
            span, pair_solutions=(dataclasses.replace(
                first, vector=(first.vector[0] + 1,) + first.vector[1:]),)
            + span.pair_solutions[1:])),
        "single_direction_kernel": (ex4, base4, dataclasses.replace(
            second_order_obstruction_check(linearize(ex4, base4)), kernel=(vector([1]),))),
        "definite_form_functional": (bowl, zero_vector(3),
                                     dataclasses.replace(definite, functional=vector([1]))),
        # a stored form that is ragged or not square is compared, never decided
        "definite_form_ragged_form": (bowl, zero_vector(3), dataclasses.replace(
            definite, form=(definite.form[0], definite.form[1][:1]))),
        "definite_form_non_square_form": (bowl, zero_vector(3), dataclasses.replace(
            definite, form=definite.form[:1])),
        "no_common_line_short_form": (cross, zero_vector(2), dataclasses.replace(
            no_line, forms=(no_line.forms[0][:2],) + no_line.forms[1:])),
        "no_common_line_functional": (cross, zero_vector(2), dataclasses.replace(
            no_line, functionals=(vector([1]),) + no_line.functionals[1:])),
        "t_standard_leading": (cubic, origin, dataclasses.replace(fail, leading=vector([1]))),
        # the failure has normal (1, 0, 0), leading (1, 0, 0) and Y2 = (0, 1, 0):
        # a zip over the entries of the first two normals would read (1, 0, 0),
        # and the last one passes the T test on Y2, so only their shape is wrong
        "t_standard_short_normal": (cubic, origin,
                                    dataclasses.replace(fail, normal=vector([1, 0]))),
        "t_standard_long_normal": (cubic, origin,
                                   dataclasses.replace(fail, normal=vector([1, 0, 0, 0]))),
        "t_standard_zero_normal": (cubic, origin,
                                   dataclasses.replace(fail, normal=zero_vector(3))),
        "t_standard_normal_orthogonal_to_leading": (
            cubic, origin, dataclasses.replace(fail, normal=vector([0, 0, 1]))),
        # the stored depth and right-hand side of the failure at order 3
        "t_standard_fail_index_below": (cubic, origin, dataclasses.replace(fail, fail_index=2)),
        "t_standard_fail_index_above": (cubic, origin, dataclasses.replace(fail, fail_index=4)),
        "t_standard_unreachable_rhs_entry": (cubic, origin, dataclasses.replace(
            fail, unreachable_rhs=vector([0, -1, 1]))),
        "t_standard_prefix_longer": (cubic, origin, dataclasses.replace(
            fail, prefix=SeriesCoefficients((y0, y1, y2, zero_vector(3))))),
        "t_standard_prefix_shorter": (cubic, origin, dataclasses.replace(
            fail, prefix=SeriesCoefficients((y0, y1)))),
        # every other check passes: only the prefix's degree shows the gap
        "t_standard_fail_index_past_prefix": (curve, origin, TStandardFail(
            4, vector([0, 0, -1]), vector([1, 0, 0]), vector([1, 0, 0]), curve_prefix)),
    }


@pytest.mark.parametrize("case", ["span_pair_index", "span_pair_vector_trailing_zero",
                                  "span_pair_vector_short", "span_pair_vector_entry_off_by_one",
                                  "single_direction_kernel",
                                  "definite_form_functional", "definite_form_ragged_form",
                                  "definite_form_non_square_form",
                                  "no_common_line_functional", "no_common_line_short_form",
                                  "t_standard_leading", "t_standard_short_normal",
                                  "t_standard_long_normal", "t_standard_zero_normal",
                                  "t_standard_normal_orthogonal_to_leading",
                                  "t_standard_fail_index_below", "t_standard_fail_index_above",
                                  "t_standard_unreachable_rhs_entry",
                                  "t_standard_prefix_longer", "t_standard_prefix_shorter",
                                  "t_standard_fail_index_past_prefix"])
def test_replay_rejects_witnesses_of_the_wrong_shape(case):
    sys_, base, cert = _tampered_certificates()[case]
    assert replay_certificate(sys_, base, cert) is False


def test_residual_order_reuses_the_span_check_products(cusp_system, viviani_system,
                                                       monkeypatch):
    # residual_order takes its products from the operators, so repeating
    # the validation a span check has just made computes no new B(X, Y)
    calls = []
    original = quadsys.bilinear
    monkeypatch.setattr(quadsys, "bilinear", lambda *args: calls.append(args) or original(*args))
    checked = 0
    for sys_, base in (cusp_system, viviani_system):
        ops = linearize(sys_, base)
        for cand in certify.canonical_candidates(ops, 4):
            for q in range(2, cand.degree + 1):
                span_closure_check(ops, cand, q, 1)
                before = len(calls)
                series.residual_order(ops, cand.truncated(q))
                assert len(calls) == before, (cand, q)
                checked += 1
    assert checked >= 4 and calls


def test_span_closure_check_rejects_constant_series(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    s = make_series(base, [0, 0, 0])
    assert span_closure_check(ops, s, 1, 1) is None


def test_span_closure_search_results(hyperboloid_line, viviani_system):
    sys1, base1 = hyperboloid_line
    cert = span_closure_search(linearize(sys1, base1), 4)
    assert cert is not None and (cert.q, cert.k) == (2, 1)
    sys3, base3 = viviani_system
    assert span_closure_search(linearize(sys3, base3), 6) is None


def test_span_closure_search_deterministic(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    a = span_closure_search(ops, 4)
    b = span_closure_search(ops, 4)
    assert a == b


# ---------------------------------------------------------------------------
# T-standard runs


def test_t_standard_fail_reference(tangent_sphere_cylinder):
    sys_, base = tangent_sphere_cylinder
    ops = linearize(sys_, base)
    out = t_standard_run(ops)
    assert isinstance(out, TStandardFail)
    assert out.normal == vector([0, 0, 1])
    assert out.fail_index == 2
    assert out.unreachable_rhs == vector([-1, 0, 0])
    assert replay_certificate(sys_, base, out)


def _t_standard_series(ops, depth):
    # the series a T-standard run that survives to `depth` grows
    return series.extend_to(ops, SeriesCoefficients((ops.base_point, ops.kernel[0])), depth)


def test_t_standard_survives_line_family(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    assert t_standard_run(ops, 8) is None
    s = _t_standard_series(ops, 8)
    assert s.degree == 8 and series.residual_order(ops, s) > 8
    assert all(c == zero_vector(3) for c in s.coeffs[2:])


def test_t_standard_circle_coefficients(circle_system):
    sys_, base = circle_system
    ops = linearize(sys_, base)
    assert ops.kernel == (vector([0, 1]),)
    assert t_standard_run(ops, 6) is None
    got = _t_standard_series(ops, 6)
    # T = ker e_y: every later coefficient has y = 0
    assert all(y[1] == 0 for y in got.coeffs[2:])
    assert got.coefficient(2) == vector([F(-1, 2), 0])
    assert got.coefficient(3) == vector([0, 0])
    assert got.coefficient(4) == vector([F(-1, 8), 0])


def test_t_standard_circle_matches_sqrt_series(circle_system):
    # brute-force oracle: coefficients of sqrt(1 - t^2) from the recurrence
    # (1 - t^2) = y(t)^2, solved order by order on exact rationals
    sys_, base = circle_system
    ops = linearize(sys_, base)
    depth = 8
    y = [F(1)] + [F(0)] * depth
    for p in range(1, depth + 1):
        conv = sum(y[i] * y[p - i] for i in range(1, p))
        target = F(-1) if p == 2 else F(0)
        y[p] = (target - conv) / 2
    assert t_standard_run(ops, depth) is None
    got = _t_standard_series(ops, depth)
    for p in range(2, depth + 1):
        assert got.coefficient(p) == (y[p], F(0))


def _t_standard_by_basis(ops, normal, basis, depth):
    """Reference T-standard run for T = ker normal = span(basis), led by
    the kernel vector: each coefficient is the one solution inside T,
    found by solving over T's basis. Returns the series, through `depth`
    or through the last solvable step, and the TStandardFail of an
    unsolvable step, or None."""
    lead = ops.kernel[0]
    s = SeriesCoefficients((ops.base_point, lead))
    images = [ops._image(t) for t in basis]
    for p in range(2, depth + 1):
        rhs = series.recurrence_rhs(ops, s, p)
        solved = solve_in_span_coefficients(images, [_integers(rhs)])
        if isinstance(solved, int):
            return s, TStandardFail(p, rhs, normal, lead, s)
        s = s.appended(combination(solved[0], basis, len(lead)))
    return s, None


def test_t_standard_run_is_the_canonical_extension_in_ker_e_f():
    # T = ker e_f, f the last nonzero entry of K, and the series is the
    # canonical extension of [X0, K]; a reference run in a random rational
    # transversal T has the same outcome
    rng = random.Random(2025)
    depth = 6
    seen = {"other_argmax": 0, "fail": 0, "survived": 0}
    while min(seen.values()) < 3:
        m = rng.randint(2, 5)
        sys_, base = random_system_with_solution(rng, m, rng.randint(1, m + 1))
        ops = linearize(sys_, base)
        if len(ops.kernel) != 1:
            continue
        (k,) = ops.kernel
        out = t_standard_run(ops, depth)
        s = series.extend_to(ops, SeriesCoefficients((base, k)), depth)
        f = max(i for i in range(m) if k[i])
        if out is None:
            assert s.degree == depth
        else:
            assert out.prefix == s and out.fail_index == s.degree + 1
            assert out.normal == tuple(F(int(i == f)) for i in range(m))
            assert out.leading == k and replay_certificate(sys_, base, out)
        if f != max(range(m), key=lambda i: (abs(k[i]), -i)):
            seen["other_argmax"] += 1
        seen["survived" if out is None else "fail"] += 1

        normal = zero_vector(m)
        while sum(a * b for a, b in zip(normal, k)) == 0:
            normal = vector([rng.randint(-3, 3) for _ in range(m)])
        basis = ratlinalg.kernel_basis(Matrix.from_rows([normal]))
        ref_series, reference = _t_standard_by_basis(ops, normal, basis, depth)
        assert ref_series.degree == s.degree
        if out is None:
            assert reference is None and series.residual_order(ops, ref_series) > depth
        else:
            assert reference.fail_index == out.fail_index
            assert replay_certificate(sys_, base, reference)


def test_t_standard_requires_kernel_dimension_one(viviani_system):
    sys_, base = viviani_system
    ops = linearize(sys_, base)
    assert len(ops.kernel) == 2
    with pytest.raises(PreconditionError, match="1-dimensional kernel"):
        t_standard_run(ops, 4)
    # a hand-built failure for one of the kernel directions is rejected
    lead = ops.kernel[0]
    prefix = SeriesCoefficients((base, lead))
    forged = TStandardFail(2, series.recurrence_rhs(ops, prefix, 2),
                           vector([int(x != 0) for x in lead]), lead, prefix)
    assert not replay_certificate(sys_, base, forged)


def test_t_standard_rejects_t_meeting_kernel(tangent_sphere_cylinder):
    sys_, base = tangent_sphere_cylinder
    ops = linearize(sys_, base)
    assert ops.kernel == (vector([0, 0, 1]),)
    out = t_standard_run(ops, 4)
    assert replay_certificate(sys_, base, out)
    # T = ker (1, 0, 0) contains the kernel line
    meeting = dataclasses.replace(out, normal=vector([1, 0, 0]))
    assert not replay_certificate(sys_, base, meeting)
    with pytest.raises(PreconditionError, match="meets the kernel"):
        certify._validate_t_standard(ops, meeting.normal, meeting.leading)


def test_t_standard_on_a_rotated_hyperplane(tangent_sphere_cylinder):
    # the unit circle in the plane z = 0, through (1, 0, 0): ker C = span{e_y}
    sys_ = validate_and_symmetrize(3, [[(0, 0, 1), (1, 1, 1), (2, 2, 1)], []],
                                   [[], [(2, 1)]], [-1, 0])
    base = vector([1, 0, 0])
    ops = linearize(sys_, base)
    assert ops.kernel == (vector([0, 1, 0]),)
    # T = ker (1, -1, 1), a plane through no coordinate axis; its basis is
    # the oracle for the one solution inside T
    basis = (vector([1, 1, 0]), vector([0, 1, 1]))
    depth = 7
    s, fail = _t_standard_by_basis(ops, vector([1, -1, 1]), basis, depth)
    assert fail is None and s.degree == depth
    for p in range(2, depth + 1):
        y = s.coefficient(p)
        assert y[0] - y[1] + y[2] == 0
        assert ops.c_matrix.mul_vec(y) == series.recurrence_rhs(ops, s.truncated(p - 1), p)
    assert series.residual_order(ops, s) > depth
    # the same outcome as the run in T = ker e_y
    assert t_standard_run(ops, depth) is None

    # an order-3 failure read off the same plane: T = ker (1, -1, 1) meets
    # ker C = span{e_x} only in 0
    cubic, origin = _cubic_contact()
    ops3 = linearize(cubic, origin)
    prefix, fail = _t_standard_by_basis(ops3, vector([1, -1, 1]), basis, depth)
    assert fail.fail_index == 3 and prefix.degree == 2
    assert replay_certificate(cubic, origin, fail)
    assert t_standard_run(ops3, depth).fail_index == 3
    # moving the last prefix coefficient along the kernel keeps C·Y_2 = rhs
    # and, with the right-hand side at order 3 recomputed, a failure there,
    # but leaves T
    coeffs = list(prefix.coeffs)
    coeffs[2] = tuple(a + b for a, b in zip(coeffs[2], ops3.kernel[0]))
    moved_prefix = SeriesCoefficients(tuple(coeffs))
    assert ops3.c_matrix.mul_vec(coeffs[2]) == ops3.c_matrix.mul_vec(prefix.coefficient(2))
    rhs = series.recurrence_rhs(ops3, moved_prefix, 3)
    assert ops3.solve(_integers(rhs)) is None
    moved = dataclasses.replace(fail, prefix=moved_prefix, unreachable_rhs=rhs)
    assert not replay_certificate(cubic, origin, moved)

    # an order-2 failure read off the same kind of plane:
    # T = ker (1, -1, -1) = span{(1, 1, 0), (1, 0, 1)}
    sys4, base4 = tangent_sphere_cylinder
    ops4 = linearize(sys4, base4)
    _, fail = _t_standard_by_basis(ops4, vector([1, -1, -1]),
                                   (vector([1, 1, 0]), vector([1, 0, 1])), 6)
    assert isinstance(fail, TStandardFail) and fail.fail_index == 2
    assert replay_certificate(sys4, base4, fail)
    assert t_standard_run(ops4, 6).fail_index == 2


# ---------------------------------------------------------------------------
# orchestration


def test_analyze_reference_verdicts(hyperboloid_line, cusp_system, viviani_system,
                                    tangent_sphere_cylinder, circle_system):
    sys1, base1 = hyperboloid_line
    rep = analyze_system(sys1, base1)
    assert rep.verdict == FLEXIBLE
    assert (rep.certificate.q, rep.certificate.k) == (2, 1)

    sys4, base4 = tangent_sphere_cylinder
    rep4 = analyze_system(sys4, base4)
    assert rep4.verdict == RIGID
    assert isinstance(rep4.certificate, SecondOrderObstruction)

    sys3, base3 = viviani_system
    rep3 = analyze_system(sys3, base3, AnalyzeConfig(q_max=6))
    assert rep3.verdict == INCONCLUSIVE
    assert any("not a rigidity proof" in n for n in rep3.notes)

    sys2, base2 = cusp_system
    assert analyze_system(sys2, base2).verdict == INCONCLUSIVE

    sysc, basec = circle_system
    assert analyze_system(sysc, basec).verdict == FLEXIBLE


def test_analyze_base_point_error_propagates(hyperboloid_line):
    sys_, _ = hyperboloid_line
    with pytest.raises(quadsys.BasePointError):
        analyze_system(sys_, vector([1, 1, 1]))


def test_rigidity_and_flexibility_certificates_mutually_exclusive(
        hyperboloid_line, cusp_system, viviani_system, tangent_sphere_cylinder,
        circle_system):
    for sys_, base in (hyperboloid_line, cusp_system, viviani_system,
                       tangent_sphere_cylinder, circle_system):
        ops = linearize(sys_, base)
        flex = span_closure_search(ops, 5)
        if len(ops.kernel) == 1:
            t_out = t_standard_run(ops, 12)
            if isinstance(t_out, TStandardFail):
                assert flex is None


def test_analyze_never_misclassifies_known_families(
        hyperboloid_line, cusp_system, viviani_system, circle_system,
        tangent_sphere_cylinder):
    # systems with a known analytic family are never Rigid; the isolated
    # one is never Flexible
    for sys_, base in (hyperboloid_line, cusp_system, viviani_system, circle_system):
        assert analyze_system(sys_, base).verdict != RIGID
    sys4, base4 = tangent_sphere_cylinder
    assert analyze_system(sys4, base4).verdict != FLEXIBLE


def test_emitted_certificates_replay(hyperboloid_line, tangent_sphere_cylinder,
                                     viviani_system, circle_system, cusp_system):
    for sys_, base in (hyperboloid_line, tangent_sphere_cylinder, viviani_system,
                       circle_system, cusp_system):
        rep = analyze_system(sys_, base, AnalyzeConfig(q_max=5, max_depth=10))
        if rep.certificate is not None:
            assert replay_certificate(sys_, base, rep.certificate)


def test_report_certificate_kind_matches_verdict(hyperboloid_line, cusp_system,
                                                 viviani_system,
                                                 tangent_sphere_cylinder,
                                                 circle_system):
    for sys_, base in (hyperboloid_line, cusp_system, viviani_system,
                       tangent_sphere_cylinder, circle_system):
        rep = analyze_system(sys_, base, AnalyzeConfig(q_max=5, max_depth=10))
        if rep.verdict == FLEXIBLE:
            assert isinstance(rep.certificate, SpanClosureFlex)
        elif rep.verdict == RIGID:
            assert isinstance(rep.certificate,
                              (FirstOrderRigid, SecondOrderObstruction, TStandardFail))


def test_flexible_certificate_series_extend_to_double_depth(hyperboloid_line,
                                                            circle_system):
    # a certified series must keep extending step by step to degree 2q with
    # residual order above 2q
    for sys_, base in (hyperboloid_line, circle_system):
        ops = quadsys.linearize(sys_, base)
        cert = span_closure_search(ops, 5)
        assert cert is not None
        s = cert.series
        while s.degree < 2 * cert.q:
            nxt = series.extend_step(ops, s)
            assert nxt is not None
            s = s.appended(nxt)
        assert series.residual_order(linearize(sys_, s.coefficient(0)), s) > 2 * cert.q


def test_pipeline_fuzz_replay_and_soundness():
    for sys_, base in fuzz_systems(424242, 40, (random_system_with_solution,)):
        rep = analyze_system(sys_, base, AnalyzeConfig(q_max=4, max_depth=6))
        assert rep.verdict in (RIGID, FLEXIBLE, INCONCLUSIVE)
        if rep.verdict == FLEXIBLE:
            assert isinstance(rep.certificate, SpanClosureFlex)
        if rep.verdict == RIGID:
            assert isinstance(rep.certificate,
                              (FirstOrderRigid, SecondOrderObstruction, TStandardFail))
        if rep.certificate is not None:
            assert replay_certificate(sys_, base, rep.certificate)
        if rep.verdict == FLEXIBLE:
            # the certified series must keep extending to degree 2q exactly
            ops = linearize(sys_, base)
            s = rep.certificate.series
            while s.degree < 2 * rep.certificate.q:
                nxt = series.extend_step(ops, s)
                assert nxt is not None
                s = s.appended(nxt)
            order = series.residual_order(linearize(sys_, s.coefficient(0)), s)
            assert order > 2 * rep.certificate.q


def test_replay_accepts_no_span_closure_certificate_at_a_rigid_point():
    # random quadratic forms (one equation sometimes with a linear part) at
    # the origin, and random approximate solutions at the points
    # analyze_system proves Rigid: span_closure_check still returns
    # certificates there (with 2k > q + 1), and replay must reject each one
    rng = random.Random(5)
    returned = 0
    for _ in range(40):
        m, n = rng.randint(2, 3), rng.randint(1, 3)
        alphas = [[[rng.randint(-1, 1) for _ in range(m)] for _ in range(m)] for _ in range(n)]
        betas = [[0] * m for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            betas[0] = [rng.randint(-1, 1) for _ in range(m)]
        sys_, base = dense_system(alphas, betas, [0] * n), zero_vector(m)
        if analyze_system(sys_, base, AnalyzeConfig(q_max=4, max_depth=6)).verdict != RIGID:
            continue
        ops = linearize(sys_, base)
        for _ in range(4):
            s = SeriesCoefficients((base,))
            while s.degree < 4 and (nxt := series.extend_step(ops, s)) is not None:
                for kvec in ops.kernel:
                    c = rng.randint(-1, 1)
                    nxt = tuple(u + c * v for u, v in zip(nxt, kvec))
                s = s.appended(nxt)
            for q in range(1, s.degree + 1):
                for k in range(1, q + 1):
                    cert = span_closure_check(ops, s, q, k)
                    if cert is not None:
                        returned += 1
                        assert not replay_certificate(sys_, base, cert)
    assert returned > 0


def test_residual_order_matches_sympy_on_fuzz_systems():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31337)
    orders = []
    for _ in range(30):
        sys_, base = random_system_with_solution(rng, rng.randint(1, 3), rng.randint(1, 3))
        ops = linearize(sys_, base)
        cases = [SeriesCoefficients((base,))]
        rep = analyze_system(sys_, base, AnalyzeConfig(q_max=4, max_depth=6))
        if isinstance(rep.certificate, SpanClosureFlex):
            cases.append(rep.certificate.series)
        for cand in certify.canonical_candidates(ops, 4):
            for q in range(1, cand.degree + 1):
                prefix = cand.truncated(q)
                cases += [prefix, broken_series(rng, prefix)]
        for s in cases:
            expected = sympy_residual_order(sympy, sys_, s)
            assert series.residual_order(linearize(sys_, s.coefficient(0)), s) == expected
            orders.append(expected)
    assert series.INFINITE in orders and len(set(orders)) >= 4


def test_residual_order_matches_sympy_on_shared_operators():
    # one ops per system serves every case, so the memos of bilinear and
    # the span check's prefix records see each prefix interleaved with
    # broken variants that share all its coefficient objects but one; a
    # variant dies after its check unless a memo entry holds it. Each case
    # is also validated by span_closure_check at (q, 1), q its degree,
    # which must reject it exactly when its order is at most q. A broken
    # degree-(q-1) series is also followed by the degree-q series that
    # extends it with the same objects; a shorter series of order below q
    # gets no record, so its extension must be tested at every order
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2718)
    orders = []
    seeds_below_q = 0
    for _ in range(30):
        sys_, base = random_system_with_solution(rng, rng.randint(1, 3), rng.randint(1, 3))
        ops = linearize(sys_, base)
        for cand in certify.canonical_candidates(ops, 4):
            for q in range(1, cand.degree + 1):
                prefix = cand.truncated(q)
                cases = [broken_series(rng, prefix), prefix, broken_series(rng, prefix)]
                if q >= 2:
                    shorter = broken_series(rng, cand.truncated(q - 1))
                    cases += [shorter, shorter.appended(cand.coefficient(q))]
                for s in cases:
                    expected = sympy_residual_order(sympy, sys_, s)
                    assert series.residual_order(ops, s) == expected, s
                    orders.append(expected)
                    if expected <= s.degree:
                        with pytest.raises(PreconditionError):
                            span_closure_check(ops, s, s.degree, 1)
                    else:
                        span_closure_check(ops, s, s.degree, 1)
                if q >= 2 and orders[-2] < q:
                    seeds_below_q += 1
    assert series.INFINITE in orders and len(set(orders)) >= 4
    assert seeds_below_q > 0


def test_real_product_count_on_the_search_inputs_is_pinned(monkeypatch):
    # products computed by the one polarization kernel over whole analyses,
    # the linearize probe's included, memo misses only; a memo change that
    # loses hits raises the count
    computed = []
    real = quadsys._polarize
    monkeypatch.setattr(quadsys, "_polarize", lambda *args: computed.append(1) or real(*args))
    for name in ("example2.json", "example3.json"):
        assert analyze_system(*load_corpus_system(name)).verdict == INCONCLUSIVE
    fw, auto = load_corpus_framework("bricard_octahedron.json")
    assert analyze_framework(fw, use_auto_pin=auto).verdict == FLEXIBLE
    assert len(computed) == 39


def test_image_count_on_the_search_inputs_is_pinned(monkeypatch):
    # every C·Y of whole analyses, the linearization probes included, as
    # the scaled product that mul_vec wraps; the search reads each image
    # from the operators' memo, so a memo change that loses hits raises
    # the count
    computed = []
    real = Matrix._mul_scaled
    monkeypatch.setattr(Matrix, "_mul_scaled", lambda *args: computed.append(1) or real(*args))
    for name in ("example2.json", "example3.json"):
        assert analyze_system(*load_corpus_system(name)).verdict == INCONCLUSIVE
    fw, auto = load_corpus_framework("bricard_octahedron.json")
    assert analyze_framework(fw, use_auto_pin=auto).verdict == FLEXIBLE
    assert len(computed) == 16


def test_matrix_count_on_the_search_inputs_is_pinned(monkeypatch):
    # every Matrix of whole analyses: C, and for each 2-dim kernel (cusp,
    # Viviani) the forms' 3-column coefficient matrix; the cokernel is read
    # off the record of C's solves, with no transpose of C, and a span
    # batch hands its rows to the elimination without building a Matrix,
    # so a step that builds one again raises the count
    built = []
    real = Matrix.__post_init__
    monkeypatch.setattr(Matrix, "__post_init__", lambda *args: built.append(1) or real(*args))
    for name in ("example2.json", "example3.json"):
        assert analyze_system(*load_corpus_system(name)).verdict == INCONCLUSIVE
    fw, auto = load_corpus_framework("bricard_octahedron.json")
    assert analyze_framework(fw, use_auto_pin=auto).verdict == FLEXIBLE
    assert len(built) == 5


# the joints of the seed-7 flex-certify benchmark's first 6-gon
SEED7_HEXAGON = [(0, 0), (3, 0), (1, 1), (3, 2), (2, 1), (6, 4)]


def test_no_analysis_transposes_c(monkeypatch):
    # the cokernel of a kernel of dimension >= 2 is read off the record of
    # C's solves, so no analysis builds C's transpose: the cusp and Viviani
    # (d = 2), a pinned 6-gon (d = 3) and an unpinned grid (d = 3, with a
    # cokernel of dimension 4)
    transposes = []
    real = Matrix.transpose
    monkeypatch.setattr(Matrix, "transpose", lambda *args: transposes.append(1) or real(*args))
    kernels = [analyze_system(*load_corpus_system(name)).notes[0]
               for name in ("example2.json", "example3.json")]
    hexagon = framework(2, {f"v{i}": list(p) for i, p in enumerate(SEED7_HEXAGON)},
                        [(f"v{i}", f"v{(i + 1) % 6}") for i in range(6)])
    kernels.append(analyze_framework(hexagon, use_auto_pin=True).notes[0])
    kernels.append(analyze_framework(triangulated_grid(4)).notes[0])
    assert kernels == ["kernel dimension 2"] * 2 + ["kernel dimension 3"] * 2
    assert transposes == []


def test_cokernel_is_the_kernel_of_c_transposed():
    # the checks of the one [C | J] record are kernel_basis(C^T), in order,
    # on the corpus, the fuzz sets and unpinned grids
    inputs = [_corpus_input(name) for name in SYSTEM_CORPUS + FRAMEWORK_CORPUS]
    inputs += [build_edge_system(triangulated_grid(n))[::2] for n in range(2, 7)]
    for args in FUZZ_SETS:
        inputs += fuzz_systems(*args)
    nonempty = 0
    for sys_, base in inputs:
        ops = linearize(sys_, base)
        assert ops.cokernel == tuple(kernel_basis(ops.c_matrix.transpose()))
        nonempty += bool(ops.cokernel)
    assert nonempty >= 200 and len(inputs) - nonempty >= 100


def test_span_solve_and_check_counts_on_the_search_inputs_are_pinned(monkeypatch):
    # every check of the search is still made (the benchmark fingerprints
    # hash these counts), but a check ruled out by a product an earlier k
    # proved outside the span solves nothing. Each prefix is validated
    # once: through residual_order when its one-shorter prefix has no
    # record, else by testing its t^q coefficient alone, so losing that
    # seed raises both the calls and the order tests
    solves, checks, orders, tests, constants, truncations = [], [], [], [], [], []
    real_solve, real_check = certify.solve_in_span_coefficients, certify.span_closure_check
    real_order, real_vanishes = certify.residual_order, series._vanishes
    monkeypatch.setattr(certify, "solve_in_span_coefficients",
                        lambda *args: solves.append(1) or real_solve(*args))
    monkeypatch.setattr(certify, "span_closure_check",
                        lambda *args: checks.append(1) or real_check(*args))
    monkeypatch.setattr(certify, "residual_order",
                        lambda *args: orders.append(1) or real_order(*args))
    for module in (certify, series):
        monkeypatch.setattr(module, "_vanishes",
                            lambda *args: tests.append(1) or real_vanishes(*args))
    # a prefix's truncation and constancy are computed once, when its
    # record is made, and never on a check its record answers
    real_constant, real_truncated = SeriesCoefficients.is_constant, SeriesCoefficients.truncated
    monkeypatch.setattr(SeriesCoefficients, "is_constant",
                        lambda *args: constants.append(1) or real_constant(*args))
    monkeypatch.setattr(SeriesCoefficients, "truncated",
                        lambda *args: truncations.append(1) or real_truncated(*args))
    operators, real_linearize = [], certify.linearize
    monkeypatch.setattr(certify, "linearize",
                        lambda *args: operators.append(real_linearize(*args)) or operators[-1])
    octahedron, auto = load_corpus_framework("bricard_octahedron.json")
    analyses = [
        (lambda: analyze_system(*load_corpus_system("example2.json")), INCONCLUSIVE),
        (lambda: analyze_system(*load_corpus_system("example3.json")), INCONCLUSIVE),
        (lambda: analyze_framework(octahedron, use_auto_pin=auto), FLEXIBLE),
    ]
    per_analysis, per_record = [], []
    for analyze, verdict in analyses:
        for counts in (checks, orders, tests, constants, truncations, operators):
            counts.clear()
        assert analyze().verdict == verdict
        per_analysis.append((len(checks), len(orders), len(tests)))
        [ops] = operators
        per_record.append((len(ops._prefixes), len(constants), len(truncations)))
    assert per_analysis == [(39, 4, 28), (22, 3, 20), (16, 3, 18)]
    assert len(solves) == 35
    assert per_record == [(n, n, n) for n in (17, 11, 10)]


def test_constant_series_fails_every_check_and_is_validated_once(monkeypatch):
    # a constant prefix certifies only the constant family: its one record
    # rules out every k, so no check after the first validates or solves
    sys_, base = load_corpus_system("example1.json")
    ops = linearize(sys_, base)
    orders, solves, constants = [], [], []
    real_order, real_solve = certify.residual_order, certify.solve_in_span_coefficients
    real_constant = SeriesCoefficients.is_constant
    monkeypatch.setattr(certify, "residual_order",
                        lambda *args: orders.append(1) or real_order(*args))
    monkeypatch.setattr(certify, "solve_in_span_coefficients",
                        lambda *args: solves.append(1) or real_solve(*args))
    monkeypatch.setattr(SeriesCoefficients, "is_constant",
                        lambda *args: constants.append(1) or real_constant(*args))
    q = 4
    constant = SeriesCoefficients((ops.base_point,) + (zero_vector(sys_.m),) * q)
    for k in range(1, q + 1):
        assert span_closure_check(ops, constant, q, k) is None
    assert (len(orders), len(constants), len(solves)) == (1, 1, 0)


def _oracle_search_inputs():
    """(system, base point, q_max) of every corpus system, every corpus
    framework as analyzed (pinned), and 100 seeded random systems."""
    out = [(*load_corpus_system(name), AnalyzeConfig.q_max) for name in SYSTEM_CORPUS]
    poly, base = fileio.load_poly(corpus_path("cubic.json"))
    reduced, rmap = quadsys.reduce_degree(poly)
    out.append((reduced, quadsys.lift_base_point(rmap, base), AnalyzeConfig.q_max))
    for name in FRAMEWORK_CORPUS:
        fw, auto = load_corpus_framework(name)
        sys_, _, base = build_edge_system(analyze_framework(fw, use_auto_pin=auto).pinned)
        out.append((sys_, base, AnalyzeConfig.q_max))
    out += [(*system, 4) for system in fuzz_systems(8086, 100)]
    return out


def _fresh_span_check(sys_, base, cand, q, k):
    """span_closure_check at (q, k) on fresh operators (empty memos), and
    the set of b for which a one-at-a-time solve finds a product
    B(Ya, Yb), a <= b, b >= k, outside C·span{Yk..Yq}."""
    fresh = linearize(sys_, base)
    cert = span_closure_check(fresh, cand, q, k)
    ys, span = cand.coeffs, cand.coeffs[k : q + 1]
    images = [fresh._image(y) for y in span]
    outside = {b for b in range(k, q + 1) for a in range(1, b + 1)
               if solve_in_span_coefficients(images, [fresh._product(ys[a], ys[b])]) == 0}
    return cert, outside


def test_span_checks_on_shared_operators_match_fresh_checks(monkeypatch):
    # on one ops, the search's (q, k, candidate) order and then every
    # 1 <= k <= q in the same order: each check must give what the same
    # check gives on fresh operators. The shared check must also solve
    # exactly when its prefix is not constant and no earlier failure on the
    # prefix covers its k: the last failure (k0, b) that solved covers
    # k0 < k <= b, where b is the largest b of a product the fresh
    # one-at-a-time solves find outside the span at k0
    solves = []
    real_solve = certify.solve_in_span_coefficients
    monkeypatch.setattr(certify, "solve_in_span_coefficients",
                        lambda *args: solves.append(1) or real_solve(*args))
    seen = {"certificates": 0, "skipped": 0, "failed": 0, "several_b": 0}
    for sys_, base, q_max in _oracle_search_inputs():
        ops = linearize(sys_, base)
        candidates = certify.canonical_candidates(ops, q_max)
        every_k = [(q, k, cand) for q in range(2, q_max + 1) for k in range(1, q + 1)
                   for cand in candidates if cand.degree >= q]
        fresh = [_fresh_span_check(sys_, base, cand, q, k) for q, k, cand in every_k]
        checks = list(zip(every_k, fresh))
        searched = [check for check in checks if 2 * check[0][1] <= check[0][0] + 1]
        last_failure = {}
        for (q, k, cand), (expected, outside) in searched + checks:
            constant = cand.truncated(q).is_constant()
            # the check fails exactly when some product is outside the span
            assert (expected is None) == (constant or bool(outside))
            key = tuple(map(id, cand.coeffs[1 : q + 1]))
            k0, b = last_failure.get(key, (q, 0))
            solving = not constant and not k0 < k <= b
            before = len(solves)
            assert span_closure_check(ops, cand, q, k) == expected, (q, k)
            assert (len(solves) > before) == solving, (q, k)
            seen["certificates"] += expected is not None
            seen["skipped"] += not solving and not constant
            if solving and expected is None:
                last_failure[key] = (k, max(outside))
                seen["failed"] += 1
                seen["several_b"] += len(outside) > 1
    assert seen["certificates"] >= 500 and seen["skipped"] >= 500, seen
    assert seen["failed"] >= 500 and seen["several_b"] >= 10, seen


def test_solve_record_is_built_once_per_analysis(monkeypatch):
    # the operators eliminate C for their kernel on its first read; every
    # later solve against C, and the cokernel, read the one [C | J] record
    # they build on the first read of either, so C is eliminated at most
    # twice per analysis, and a first-order-rigid input, which never
    # solves, builds no record
    built, solves = [], []
    real_eliminate, real_solve = quadsys.eliminate, quadsys.solve_general
    monkeypatch.setattr(quadsys, "eliminate", lambda m: built.append(1) or real_eliminate(m))
    monkeypatch.setattr(quadsys, "solve_general",
                        lambda *args: solves.append(1) or real_solve(*args))
    octahedron, auto = load_corpus_framework("bricard_octahedron.json")
    analyses = [
        (lambda: analyze_system(*load_corpus_system("example2.json")), INCONCLUSIVE),
        (lambda: analyze_system(*load_corpus_system("example3.json")), INCONCLUSIVE),
        (lambda: analyze_framework(octahedron, use_auto_pin=auto), FLEXIBLE),
        (lambda: analyze_framework(triangulated_grid(3), use_auto_pin=True), RIGID),
    ]
    counts = []
    for analyze, verdict in analyses:
        built.clear()
        solves.clear()
        assert analyze().verdict == verdict
        counts.append((len(built), len(solves)))
    assert counts == [(1, 3), (1, 2), (1, 8), (0, 0)]


def test_span_closure_replay_multiplies_only_the_coefficients(monkeypatch):
    # replay checks each pair equation as sum c_i C·Y_i + 2 B(Y_i, Y_j) = 0
    # over the span images, so C multiplies the linearize probe and each
    # coefficient Y_1..Y_q once (residual_order, which computes the span
    # images), and no pair solution
    fw, auto = load_corpus_framework("bricard_octahedron.json")
    rep = analyze_framework(fw, use_auto_pin=auto)
    sys_, _, base = build_edge_system(rep.pinned)
    cert = rep.certificate
    assert (cert.q, cert.k, len(cert.pair_solutions)) == (5, 1, 25)
    computed = []
    real = Matrix._mul_scaled
    monkeypatch.setattr(Matrix, "_mul_scaled", lambda *args: computed.append(1) or real(*args))
    assert replay_certificate(sys_, base, cert)
    assert len(computed) == 1 + cert.q
    monkeypatch.undo()
    # one altered pair coefficient, with the pair's vector rebuilt from it so
    # that only the pair equation can reject it; its span vector's image is
    # nonzero, so the equation no longer holds
    span = cert.series.coeffs[cert.k : cert.q + 1]
    assert not is_zero_vector(_fractions(linearize(sys_, base)._image(span[-1])))
    first = cert.pair_solutions[0]
    coeffs = first.coefficients[:-1] + (first.coefficients[-1] + 1,)
    altered = dataclasses.replace(first, coefficients=coeffs,
                                  vector=combination(coeffs, span, sys_.m))
    assert not replay_certificate(sys_, base, dataclasses.replace(
        cert, pair_solutions=(altered,) + cert.pair_solutions[1:]))


def test_span_closure_replay_builds_no_combination(monkeypatch):
    # replay scales each span vector and image once and tests every pair
    # equation and every residual order in integers, so it builds no
    # Fraction vector through combination
    fw, auto = load_corpus_framework("bricard_octahedron.json")
    rep = analyze_framework(fw, use_auto_pin=auto)
    sys_, _, base = build_edge_system(rep.pinned)
    ops = linearize(sys_, base)
    calls = []
    real = ratlinalg.combination
    # raising=False: a module that does not import combination has nothing to patch
    for module in (ratlinalg, quadsys, series, certify):
        monkeypatch.setattr(module, "combination", lambda *args: calls.append(1) or real(*args),
                            raising=False)
    assert certify._replay(ops, rep.certificate)
    assert calls == []


def test_pair_solutions_equal_the_solves_of_the_scaled_products():
    # each pair equation solved on its own with the -2 factor in its
    # right-hand side, as the certificates were built before the check
    # solved the unscaled products and scaled their solutions
    found = []
    for name in ("example1.json", "circle.json"):
        sys_, base = load_corpus_system(name)
        found.append((sys_, analyze_system(sys_, base).certificate))
    for name in ("square.json", "bricard_octahedron.json"):
        rep = analyze_framework(load_corpus_framework(name)[0], use_auto_pin=True)
        found.append((build_edge_system(rep.pinned)[0], rep.certificate))
    for sys_, base in fuzz_systems(424242, 80):
        rep = analyze_system(sys_, base, AnalyzeConfig(q_max=4, max_depth=6))
        found.append((sys_, rep.certificate))
    flexes = [(sys_, cert) for sys_, cert in found if isinstance(cert, SpanClosureFlex)]
    assert len(flexes) >= 20 and all(isinstance(c, SpanClosureFlex) for _, c in found[:4])
    for sys_, cert in flexes:
        ops = linearize(sys_, cert.series.coefficient(0))
        y = cert.series.coeffs
        span = y[cert.k : cert.q + 1]
        for ps in cert.pair_solutions:
            rhs = _integers(tuple(-2 * b for b in quadsys.bilinear(sys_, y[ps.i], y[ps.j])))
            images = [ops._image(s) for s in span]
            assert solve_in_span_coefficients(images, [rhs]) == [ps.coefficients]
            assert combination(ps.coefficients, span, sys_.m) == ps.vector


def _grown_candidates(ops, q_max):
    """The candidates as each one was once grown on its own: the canonical
    extension of [X0] + [0]*z + [K] by extend_step, for z = 0, 1, 2."""
    out = []
    for kvec in ops.kernel:
        for z in (0, 1, 2):
            s = SeriesCoefficients((ops.base_point,) + (zero_vector(ops.system.m),) * z
                                   + (kvec,))
            if s.degree > q_max:
                s = s.truncated(q_max)
            while s.degree < q_max:
                nxt = series.extend_step(ops, s)
                if nxt is None:
                    break
                s = s.appended(nxt)
            out.append(s)
    return out


def test_derived_candidates_equal_the_grown_ones():
    # each variant is X(t^r) of the one grown series X, with the stall
    # degree r*(s+1) - 1 when X stalls at degree s
    stalled_variants = long_variants = 0
    for trial, (sys_, base) in enumerate(fuzz_systems(5150, 120)):
        for q_max in range(7):
            ops = linearize(sys_, base)
            expected = _grown_candidates(ops, q_max)
            assert certify.canonical_candidates(ops, q_max) == expected, (trial, q_max)
            variants = [s for i, s in enumerate(expected) if i % 3]
            stalled_variants += sum(1 for s in variants if s.degree < q_max)
            long_variants += sum(1 for s in variants if s.degree >= 4 and not s.is_constant())
    assert stalled_variants >= 200 and long_variants >= 400


def test_leading_zero_variant_checks_equal_base_checks():
    # the variant X(t^r) has V_p = X_{p/r} when r divides p and 0 otherwise,
    # so span{V_k..V_q} = span{X_k'..X_q'} with q' = q // r, k' = ceil(k / r),
    # and its nonzero pair products are those of X: a check on the variant
    # at (q, k) equals the check on X at (q', k'). It is constant when
    # q' = 0 and holds vacuously when k' > q' >= 1. The scan keeps
    # 2k <= q + 1 on the variant, which does not keep 2k' <= q' + 1, so
    # some of the base checks it stands for are ones the scan never runs
    seen = {"checks": 0, "certified": 0, "unscanned": 0, "unscanned_certified": 0}
    inputs = [(*load_corpus_system(name), AnalyzeConfig.q_max) for name in SYSTEM_CORPUS]
    inputs += [(*system, AnalyzeConfig.q_max) for system in fuzz_systems(2718, 40)]
    for sys_, base, q_max in inputs:
        ops = linearize(sys_, base)
        candidates = certify.canonical_candidates(ops, q_max)
        for x, *variants in zip(*[iter(candidates)] * 3):
            for r, variant in zip((2, 3), variants):
                for q in range(1, variant.degree + 1):
                    for k in range(1, q + 1):
                        got = span_closure_check(ops, variant, q, k) is not None
                        q1, k1 = q // r, -(-k // r)
                        assert x.degree >= q1
                        if q1 == 0:
                            expected = False
                        elif k1 > q1:
                            expected = True
                        else:
                            expected = span_closure_check(ops, x, q1, k1) is not None
                        assert got == expected, (r, q, k)
                        if q >= 2 and 2 * k <= q + 1:
                            seen["checks"] += 1
                            seen["certified"] += got
                            seen["unscanned"] += 2 * k1 > q1 + 1
                            seen["unscanned_certified"] += got and 2 * k1 > q1 + 1
    assert seen["checks"] >= 1000 and seen["certified"] >= 400, seen
    assert seen["unscanned"] >= 100 and seen["unscanned_certified"] >= 40, seen


def test_cokernel_and_order_two_obstruction_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(97)
    single = {"obstructed": 0, "extends": 0}
    for trial in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if trial % 2:
            sys_, base = random_system_with_solution(rng, m, n)
        else:
            sys_, base = low_rank_system(rng, m, n)
        # C and B from sympy derivatives of the expanded equations
        xs = sympy.symbols(f"x0:{m}")
        polys = sympy_equations(sympy, sys_, xs)
        at_base = dict(zip(xs, map(sympy.Rational, base)))
        c_sym = sympy.Matrix(polys).jacobian(xs).subs(at_base)
        ops = linearize(sys_, base)

        # sympy's left null space, one vector per free column of the RREF
        # of C^T with a 1 there, scaled to primitive integers
        left_null = []
        for w in c_sym.T.nullspace():
            scale = sympy.ilcm(1, *(x.q for x in w))
            ints = [int(x * scale) for x in w]
            left_null.append(tuple(F(x // gcd(*ints)) for x in ints))
        assert ops.cokernel == tuple(left_null)
        for w in ops.cokernel:
            assert sympy.Matrix([list(map(sympy.Rational, w))]) * c_sym == sympy.zeros(1, m)

        kernel = c_sym.nullspace()
        if len(kernel) != 1:
            continue
        k = kernel[0]
        # B(K, K)_e = K^T H_e K / 2, H_e the Hessian of equation e
        b_kk = sympy.Matrix([(k.T * sympy.hessian(p, xs) * k)[0, 0] / 2 for p in polys])
        in_image = c_sym.rank() == c_sym.row_join(b_kk).rank()
        cert = second_order_obstruction_check(ops)
        assert (cert is None) == in_image
        single["extends" if in_image else "obstructed"] += 1
    assert single["obstructed"] >= 3 and single["extends"] >= 3


def test_binary_forms_common_root_matches_sympy():
    # the d = 2 decision: do the forms a u^2 + b uv + c v^2 share a real
    # root line? sympy decides it from the gcd
    sympy = pytest.importorskip("sympy")
    u, v = sympy.symbols("u v")
    rng = random.Random(2718)

    def line():
        p = q = 0
        while p == q == 0:
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        return p, q

    def product(l1, l2):  # (p1 u + q1 v)(p2 u + q2 v)
        (p1, q1), (p2, q2) = l1, l2
        return p1 * p2, p1 * q2 + q1 * p2, q1 * q2

    def multiple(form):
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        return tuple(k * x for x in form)

    # irreducible over Q with positive discriminant 8, 5, 12, 13, 5
    irrational = [(1, 0, -2), (1, 1, -1), (2, 2, -1), (3, 1, -1), (1, 3, 1)]

    def oracle(triples):
        polys = [a * u * u + b * u * v + c * v * v for a, b, c in triples]
        polys = [p for p in polys if p != 0]
        if not polys:
            return True, "all_zero"
        g = sympy.Poly(sympy.gcd_list(polys), u, v)
        if g.total_degree() == 0:
            return False, "none"
        expr = g.as_expr()
        real = expr.subs({u: 1, v: 0}) == 0 or sympy.Poly(expr.subs(v, 1), u).count_roots() > 0
        factors = sympy.factor_list(expr)[1]
        rational = any(sympy.Poly(f, u, v).total_degree() == 1 for f, _ in factors)
        return real, "rational" if rational else "irrational"

    def check(forms):
        expected, why = oracle(forms)
        triples = tuple(tuple(F(x) for x in t) for t in forms)
        assert certify._binary_forms_have_common_root(triples) == expected, forms
        return why if expected else "none"

    seen = {"all_zero": 0, "rational": 0, "irrational": 0, "none": 0}
    # u^2 + uv - 2v^2 is sqrt(2) (not 0) on the root line (sqrt(2), 1) of
    # u^2 - 2v^2, and v^2 - 2u^2 vanishes on (1, sqrt(2)) instead; then
    # forms on the line v = 0, and definite forms, which have no real root
    fixed = [[(1, 0, -2), (1, 1, -2)], [(1, 0, -2), (-2, 0, 1)], [(1, 0, -2), (-3, 0, 6)],
             [(0, 1, 0), (0, 0, 1)], [(0, 0, 1)], [(0, 0, 1), (1, 0, 0)],
             [(1, 0, 1)], [(1, 0, 1), (2, 0, 2)]]
    for forms in fixed:
        check(forms)
    for trial in range(240):
        count = rng.randint(1, 3)
        kind = trial % 5
        if kind == 0:  # one shared rational line
            shared = line()
            forms = [product(shared, line()) for _ in range(count)]
        elif kind == 1:  # multiples of one irreducible form, sometimes disturbed
            g = rng.choice(irrational)
            forms = [multiple(g) for _ in range(count)]
            if rng.random() < 0.3:
                forms.append(rng.choice([product(line(), line()), rng.choice(irrational)]))
        elif kind == 2:  # products of random lines
            forms = [product(line(), line()) for _ in range(count + 1)]
        elif kind == 3:  # random integer forms that are not definite
            forms = []
            while len(forms) < count:
                a, b, c = (rng.randint(-3, 3) for _ in range(3))
                if b * b - 4 * a * c >= 0:
                    forms.append((a, b, c))
        else:
            forms = []
        forms += [(0, 0, 0)] * rng.randint(0 if forms else 1, 1)
        rng.shuffle(forms)
        seen[check(forms)] += 1
    assert all(n >= 10 for n in seen.values()), seen


def test_definiteness_matches_sympy():
    # the one elimination pass of _is_definite against sympy's own tests,
    # on seeded rational symmetric forms of size 1-4: Gram forms L^T D L
    # with D of one sign (definite, or semidefinite when L or D is
    # singular) or of mixed signs, random forms, and forms with a zero
    # first leading minor
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1913)
    seen = {"positive": 0, "negative": 0, "semidefinite": 0, "indefinite": 0,
            "first_minor_zero": 0}

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    for trial in range(300):
        d = rng.randint(1, 4)
        if trial % 3 == 2:
            q = [[entry() for _ in range(d)] for _ in range(d)]
            q = [[q[i][j] + q[j][i] for j in range(d)] for i in range(d)]
        else:
            sign = rng.choice([-1, 1])
            diagonal = [sign * rng.randint(0 if trial % 3 else 1, 3) for _ in range(d)]
            if rng.random() < 0.3:
                diagonal[rng.randrange(d)] *= -1
            lower = [[entry() if j < i else F(int(i == j) or rng.randint(0, 1))
                      for j in range(d)] for i in range(d)]
            q = [[sum((lower[t][i] * diagonal[t] * lower[t][j] for t in range(d)), F(0))
                  for j in range(d)] for i in range(d)]
        if rng.random() < 0.15:
            q[0][0] = F(0)
        form = tuple(map(tuple, q))
        matrix = sympy.Matrix([[sympy.Rational(x) for x in row] for row in form])
        expected = matrix.is_positive_definite or matrix.is_negative_definite
        assert certify._is_definite(form) == expected, form
        if matrix.is_positive_definite:
            seen["positive"] += 1
        elif matrix.is_negative_definite:
            seen["negative"] += 1
        elif matrix.is_positive_semidefinite or matrix.is_negative_semidefinite:
            seen["semidefinite"] += 1
        else:
            seen["indefinite"] += 1
        seen["first_minor_zero"] += form[0][0] == 0
    assert all(n >= 15 for n in seen.values()), seen
