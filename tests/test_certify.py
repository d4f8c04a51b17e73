import dataclasses
import random
from fractions import Fraction as F

import pytest

from flexcert import certify, quadsys, series
from flexcert.certify import (
    FLEXIBLE,
    INCONCLUSIVE,
    RIGID,
    AnalyzeConfig,
    FirstOrderRigid,
    InapplicableError,
    PreconditionError,
    SecondOrderObstruction,
    SpanClosureFlex,
    TStandardConfig,
    TStandardFail,
    TStandardSurvived,
    analyze_system,
    default_t_standard_config,
    first_order_rigidity_check,
    replay_certificate,
    second_order_obstruction_check,
    span_closure_check,
    span_closure_search,
    t_standard_run,
)
from flexcert.quadsys import linearize, validate_and_symmetrize
from flexcert.ratlinalg import vector, zero_vector
from flexcert.series import SeriesCoefficients

from conftest import broken_series, dense_system, sympy_equations, sympy_residual_order


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
    # x = 0 in one variable: the kernel is trivial, and replay must not
    # accept a stored kernel direction
    line = validate_and_symmetrize(1, [[]], [[(0, 1)]], [0])
    cert = second_order_obstruction_check(linearize(line, zero_vector(1)))
    assert cert.case == "empty_kernel" and replay_certificate(line, zero_vector(1), cert)
    tampered = dataclasses.replace(cert, kernel=(vector([1]),))
    assert not replay_certificate(line, zero_vector(1), tampered)


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
    cfg = default_t_standard_config(ops)
    assert cfg.t_basis == (vector([1, 0, 0]), vector([0, 1, 0]))
    out = t_standard_run(ops, cfg)
    assert isinstance(out, TStandardFail)
    assert out.fail_index == 2
    assert out.unreachable_rhs == vector([-1, 0, 0])
    assert replay_certificate(sys_, base, out)


def test_t_standard_survives_line_family(hyperboloid_line):
    sys_, base = hyperboloid_line
    ops = linearize(sys_, base)
    out = t_standard_run(ops, default_t_standard_config(ops, max_depth=8))
    assert isinstance(out, TStandardSurvived)
    assert all(c == zero_vector(3) for c in out.series.coeffs[2:])
    assert replay_certificate(sys_, base, out)


def test_t_standard_circle_coefficients(circle_system):
    sys_, base = circle_system
    ops = linearize(sys_, base)
    cfg = default_t_standard_config(ops, max_depth=6)
    assert cfg.t_basis == (vector([1, 0]),)
    out = t_standard_run(ops, cfg)
    assert isinstance(out, TStandardSurvived)
    got = out.series
    assert got.coefficient(2) == vector([F(-1, 2), 0])
    assert got.coefficient(3) == vector([0, 0])
    assert got.coefficient(4) == vector([F(-1, 8), 0])
    assert replay_certificate(sys_, base, out)


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
    out = t_standard_run(ops, default_t_standard_config(ops, max_depth=depth))
    for p in range(2, depth + 1):
        assert out.series.coefficient(p) == (y[p], F(0))


def test_t_standard_requires_kernel_dimension_one(viviani_system):
    sys_, base = viviani_system
    ops = linearize(sys_, base)
    with pytest.raises(InapplicableError):
        default_t_standard_config(ops)
    with pytest.raises(InapplicableError):
        t_standard_run(ops, TStandardConfig((vector([1, 0, 0]), vector([0, 1, 0])), 4,
                                            vector([0, 0, 1])))


def test_t_standard_rejects_t_meeting_kernel(circle_system):
    sys_, base = circle_system
    ops = linearize(sys_, base)
    assert ops.kernel == (vector([0, 1]),)
    with pytest.raises(PreconditionError):
        t_standard_run(ops, TStandardConfig((vector([0, 1]),), 4, ops.kernel[0]))


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
            t_out = t_standard_run(ops, default_t_standard_config(ops, 12))
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


def _random_system_with_solution(rng, m, n):
    """Random degree-<=2 system adjusted so a random point solves it."""
    base = vector([F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m)])
    alphas, betas, gammas = [], [], []
    for _ in range(n):
        a = [[F(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
        b = [F(rng.randint(-2, 2)) for _ in range(m)]
        alphas.append(a)
        betas.append(b)
        gammas.append(F(0))
    sys0 = dense_system(alphas, betas, gammas)
    residual = quadsys.evaluate(sys0, base)
    gammas = [-r for r in residual]
    return dense_system(alphas, betas, gammas), base


def test_pipeline_fuzz_replay_and_soundness():
    rng = random.Random(424242)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        sys_, base = _random_system_with_solution(rng, m, n)
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


def test_residual_order_matches_sympy_on_fuzz_systems():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31337)
    orders = []
    for _ in range(30):
        sys_, base = _random_system_with_solution(rng, rng.randint(1, 3), rng.randint(1, 3))
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


def _low_rank_system(rng, m, n):
    """System at the origin whose linearization (the beta part) has rank
    at most m - 1, so the kernel of C is never trivial."""
    r = rng.randint(max(0, m - 2), m - 1)
    left = [[F(rng.randint(-2, 2)) for _ in range(r)] for _ in range(n)]
    right = [[F(rng.randint(-2, 2)) for _ in range(m)] for _ in range(r)]
    betas = [[sum((row[t] * right[t][j] for t in range(r)), F(0)) for j in range(m)]
             for row in left]
    alphas = [[[F(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
              for _ in range(n)]
    return dense_system(alphas, betas, [F(0)] * n), zero_vector(m)


def test_cokernel_and_order_two_obstruction_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(97)
    single = {"obstructed": 0, "extends": 0}
    for trial in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if trial % 2:
            sys_, base = _random_system_with_solution(rng, m, n)
        else:
            sys_, base = _low_rank_system(rng, m, n)
        # C and B from sympy derivatives of the expanded equations
        xs = sympy.symbols(f"x0:{m}")
        polys = sympy_equations(sympy, sys_, xs)
        at_base = dict(zip(xs, map(sympy.Rational, base)))
        c_sym = sympy.Matrix(polys).jacobian(xs).subs(at_base)
        ops = linearize(sys_, base)

        cokernel = certify._cokernel(ops)
        left_null = c_sym.T.nullspace()
        assert len(cokernel) == len(left_null)
        for w in cokernel:
            assert sympy.Matrix([list(map(sympy.Rational, w))]) * c_sym == sympy.zeros(1, m)
        if cokernel:
            w_sym = sympy.Matrix([list(map(sympy.Rational, w)) for w in cokernel])
            assert w_sym.rank() == len(cokernel)

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
    # the d = 2 decision: do the forms a u^2 + b uv + c v^2, none of them
    # definite, share a real root line? sympy decides it from the gcd
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
    # u^2 - 2v^2, and v^2 - 2u^2 vanishes on (1, sqrt(2)) instead
    fixed = [[(1, 0, -2), (1, 1, -2)], [(1, 0, -2), (-2, 0, 1)], [(1, 0, -2), (-3, 0, 6)]]
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
