"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from flexcert import certify, cli, fileio, quadsys, ratlinalg, rigidity, series
from flexcert.certify import (
    FLEXIBLE,
    INCONCLUSIVE,
    RIGID,
    AnalyzeConfig,
    FirstOrderRigid,
    SecondOrderObstruction,
    SpanClosureFlex,
    TStandardFail,
    analyze_system,
    replay_certificate,
    span_closure_check,
    span_closure_search,
    t_standard_run,
)
from flexcert.corpus import corpus_path
from flexcert.quadsys import bilinear, linearize, reduce_degree
from flexcert.ratlinalg import determinant, vector, zero_vector
from flexcert.rigidity import analyze_framework, auto_pin, build_edge_system
from flexcert.series import SeriesCoefficients, extend_step, reparameterize, residual_order

from conftest import load_corpus_framework, load_corpus_system, system_poly_terms


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_line_on_quadric_end_to_end():
    sys_, base = load_corpus_system("example1.json")
    ops = linearize(sys_, base)
    assert [list(r) for r in ops.c_matrix.entries] == [
        [10, 10, -14], [3, 1, -3], [1, -3, 1]]
    assert determinant(ops.c_matrix) == 0
    assert ops.kernel == (vector([4, 3, 5]),)
    assert bilinear(sys_, ops.kernel[0], ops.kernel[0]) == zero_vector(3)
    rep = analyze_system(sys_, base)
    assert rep.verdict == FLEXIBLE
    assert isinstance(rep.certificate, SpanClosureFlex)
    assert (rep.certificate.q, rep.certificate.k) == (2, 1)
    report(1, "quadric-with-line system: C, det C = 0, kernel (4,3,5), "
              "B(K,K) = 0, Flexible at (q,k) = (2,1)")


def test_criterion_2_cusp_exact_thresholds():
    sys_, base = load_corpus_system("example2.json")
    ops = linearize(sys_, base)
    zero = vector([0, 0, 0])
    x = [zero, zero, vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1]),
         zero, zero]
    b = lambda i, j: bilinear(sys_, x[i], x[j])

    def sym(i, j):
        return tuple(p + q for p, q in zip(b(i, j), b(j, i)))

    # the six reference product values
    assert b(2, 2) == vector([0, 1])
    assert b(3, 3) == vector([-1, 0])
    assert sym(2, 4) == vector([1, 0])
    for i in range(1, 7):
        assert sym(1, i) == zero_vector(2)
    for i in (3, 5, 6):
        assert sym(2, i) == zero_vector(2)
    for i in (4, 5, 6):
        assert sym(3, i) == zero_vector(2)
        assert sym(4, i) == zero_vector(2)

    s = SeriesCoefficients(tuple(x[:6]))
    assert span_closure_check(ops, s, 5, 5) is not None
    for q in range(1, 6):
        for k in range(1, q + 1):
            if (q, k) != (5, 5):
                assert span_closure_check(ops, s, q, k) is None, (q, k)
    report(2, "cusp system: span-closure condition holds at exactly "
              "(q,k) = (5,5); all q <= 4 or k <= 4 fail; B-products match")


def _viviani_coefficients(degree):
    """Maclaurin series of (1 + cos t, sin t, 2 sin(t/2)), derived from the
    factorial formulas for cos and sin."""
    fact = [F(1)]
    for i in range(1, degree + 1):
        fact.append(fact[-1] * i)
    coeffs = [vector([2, 0, 0])]
    for p in range(1, degree + 1):
        if p % 2 == 0:
            sign = -1 if (p // 2) % 2 else 1
            coeffs.append(vector([F(sign) / fact[p], 0, 0]))
        else:
            sign = -1 if ((p - 1) // 2) % 2 else 1
            coeffs.append(vector([0, F(sign) / fact[p],
                                  F(sign) / (fact[p] * 2 ** (p - 1))]))
    return coeffs


def test_criterion_3_viviani_inconclusive_and_recurrence():
    sys_, base = load_corpus_system("example3.json")
    ops = linearize(sys_, base)
    assert [list(r) for r in ops.c_matrix.entries] == [[4, 0, 0], [2, 0, 0]]
    assert len(ops.kernel) == 2
    assert span_closure_search(ops, 6) is None
    rep = analyze_system(sys_, base, AnalyzeConfig(q_max=6))
    assert rep.verdict == INCONCLUSIVE

    x = _viviani_coefficients(10)
    # closed-form coefficients satisfy the recurrence C X_p = -sum B(X_l, X_{p-l})
    for p in range(1, 11):
        lhs = ops.c_matrix.mul_vec(x[p])
        rhs = zero_vector(2)
        for l in range(1, p):
            rhs = tuple(a + bb for a, bb in zip(rhs, bilinear(sys_, x[l], x[p - l])))
        assert lhs == tuple(-v for v in rhs), p
    # and the truncation is a genuine order-10 approximate solution
    viviani = SeriesCoefficients(tuple(x))
    assert residual_order(linearize(sys_, viviani.coefficient(0)), viviani) > 10
    report(3, "Viviani system: dim ker C = 2, no certificate up to q_max = 6, "
              "verdict Inconclusive; closed-form series satisfies the "
              "recurrence through order 10")


def test_criterion_4_tangent_intersection_rigid():
    sys_, base = load_corpus_system("example4.json")
    ops = linearize(sys_, base)
    assert len(ops.kernel) == 1
    assert ops.kernel[0] == vector([0, 0, 1])
    bval = bilinear(sys_, ops.kernel[0], ops.kernel[0])
    assert bval == vector([1, 0, 0])
    assert ops.solve(ratlinalg._integers(bval)) is None
    out = t_standard_run(ops)
    assert isinstance(out, TStandardFail) and out.fail_index == 2
    rep = analyze_system(sys_, base)
    assert rep.verdict == RIGID
    report(4, "tangent sphere/cylinder system: kernel (0,0,1), "
              "B(K,K) = (1,0,0) outside im C, T-standard fails at order 2, Rigid")


def _eval_poly_terms(terms, x):
    total = F(0)
    for exps, coeff in terms.items():
        val = coeff
        for xi, e in zip(x, exps):
            val *= xi ** e
        total += val
    return total


def test_criterion_5_degree_reduction():
    # x1^3 - x2^2 reduces to {x1 x3 - x2^2, x1^2 - x3}
    cubic = quadsys.poly_system([{(3, 0): 1, (0, 2): -1}], 2)
    red, rmap = reduce_degree(cubic)
    assert system_poly_terms(red) == [
        {(1, 0, 1): F(1), (0, 2, 0): F(-1)},
        {(2, 0, 0): F(1), (0, 0, 1): F(-1)},
    ]
    # x1^2 x2 - 1 reduces to {x3 x2 - 1, defining equation for x3 = x1^2}
    mixed = quadsys.poly_system([{(2, 1): 1, (0, 0): -1}], 2)
    red2, rmap2 = reduce_degree(mixed)
    terms2 = system_poly_terms(red2)
    assert terms2[0] == {(0, 1, 1): F(1), (0, 0, 0): F(-1)}
    assert terms2[1] in (
        {(2, 0, 0): F(1), (0, 0, 1): F(-1)},   # x1^2 - x3
        {(2, 0, 0): F(-1), (0, 0, 1): F(1)},   # x3 - x1^2 (same constraint)
    )
    assert rmap2.auxiliary_definitions == ((2, (2, 0)),)

    rng = random.Random(2718)
    for poly, red_sys, rmap_ in ((cubic, red, rmap), (mixed, red2, rmap2)):
        originals = [dict(eq) for eq in poly.equations]
        reduced_terms = system_poly_terms(red_sys)
        for _ in range(20):
            x = vector([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)])
            lifted = quadsys.lift_base_point(rmap_, x)
            orig_vals = [_eval_poly_terms(eq, x) for eq in originals]
            red_vals = [_eval_poly_terms(eq, lifted) for eq in reduced_terms]
            assert red_vals[: len(orig_vals)] == orig_vals
            assert all(v == 0 for v in red_vals[len(orig_vals):])
    report(5, "degree reduction reproduces the reference reduced systems and "
              "round-trips on 20 sampled rational points per system")


def _bar_residual_series(fw, variables, s, a, b):
    """Independent oracle: coefficients of |x_a(t)-x_b(t)|^2 - L^2 by direct
    polynomial expansion of the bar constraint."""
    var_index = {vc: i for i, vc in enumerate(variables)}
    q = s.degree

    def coord_series(jid, c):
        out = []
        for p in range(q + 1):
            idx = var_index.get((jid, c))
            if idx is None:
                out.append(fw.joints[jid][c] if p == 0 else F(0))
            else:
                out.append(s.coefficient(p)[idx])
        return out

    total = [F(0)] * (2 * q + 1)
    for c in range(fw.dimension):
        da = coord_series(a, c)
        db = coord_series(b, c)
        diff = [xa - xb for xa, xb in zip(da, db)]
        for i in range(q + 1):
            for j in range(q + 1):
                total[i + j] += diff[i] * diff[j]
    base_len = sum((fw.joints[a][c] - fw.joints[b][c]) ** 2 for c in range(fw.dimension))
    total[0] -= base_len
    return total


def test_criterion_6_framework_suite():
    tri, _ = load_corpus_framework("triangle.json")
    rep = analyze_framework(tri, use_auto_pin=True)
    assert rep.verdict == RIGID and isinstance(rep.certificate, FirstOrderRigid)

    sq, _ = load_corpus_framework("square.json")
    rep_sq = analyze_framework(sq, use_auto_pin=True)
    assert rep_sq.verdict == FLEXIBLE
    assert rep_sq.flexion.witness_pair in (("v1", "v3"), ("v2", "v4"))
    # extend the certified series to degree 2q; every bar equation must hold
    # to residual order > 2q under direct polynomial expansion
    pinned = rep_sq.pinned
    sysq, variables, base = build_edge_system(pinned)
    ops = linearize(sysq, base)
    s = rep_sq.certificate.series
    while s.degree < 2 * rep_sq.certificate.q:
        nxt = extend_step(ops, s)
        assert nxt is not None
        s = s.appended(nxt)
    for a, b in pinned.bars:
        coeffs = _bar_residual_series(pinned, variables, s, a, b)
        assert all(coeffs[p] == 0 for p in range(2 * rep_sq.certificate.q + 1))

    braced, _ = load_corpus_framework("cross_braced_square.json")
    assert analyze_framework(braced, use_auto_pin=True).verdict == RIGID

    k4, _ = load_corpus_framework("k4.json")
    rep_k4 = analyze_framework(k4, use_auto_pin=True)
    assert rep_k4.verdict != FLEXIBLE  # complete graph: no witness pair exists
    pinned_k4 = auto_pin(k4)
    sys_k4, vars_k4, base_k4 = build_edge_system(pinned_k4)
    zero_flex = SeriesCoefficients((base_k4, zero_vector(sys_k4.m)))
    gate = rigidity.flexion_nontriviality(pinned_k4, vars_k4, zero_flex)
    assert gate.classification == "Trivial"
    report(6, "triangle Rigid (first-order), square Flexible with diagonal "
              "witness and bar residuals vanishing through order 2q, "
              "cross-braced square Rigid, K4 gated by the complete graph rule")


def test_criterion_7_line_symmetric_octahedron():
    start = time.time()
    fw, _ = load_corpus_framework("bricard_octahedron.json")

    # pre-verification: the half-turn about the line {x = 1, z = 0} maps the
    # realization onto itself, swapping each antipodal vertex pair
    def half_turn(p):
        return (2 - p[0], p[1], -p[2])

    pairs = {"a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1", "c1": "c2", "c2": "c1"}
    for jid, partner in pairs.items():
        assert tuple(half_turn(fw.joints[jid])) == fw.joints[partner]
    assert len(fw.bars) == 12
    for a, b in fw.bars:
        assert pairs[a] != b  # antipodal pairs are never bars

    # brute-force check that the compiled equations agree with the raw
    # squared bar lengths at the base point
    pinned = auto_pin(fw)
    sysq, variables, base = build_edge_system(pinned)
    ops = linearize(sysq, base)
    assert quadsys.evaluate(sysq, base) == zero_vector(12)
    assert len(ops.kernel) == 1

    cand = certify.canonical_candidates(ops, 5)[0]
    cert = span_closure_check(ops, cand, 5, 1)
    assert cert is not None and (cert.q, cert.k) == (5, 1)
    assert replay_certificate(sysq, base, cert)

    rep = analyze_framework(fw, AnalyzeConfig(q_max=6), use_auto_pin=True)
    assert rep.verdict == FLEXIBLE
    assert rep.flexion.classification == "Nontrivial"
    elapsed = time.time() - start
    assert elapsed <= 60, f"took {elapsed:.1f}s"
    report(7, f"line-symmetric octahedron accepted at (q,k) = (5,1), verdict "
              f"Flexible, in {elapsed:.1f}s")


def test_criterion_8_property_suites():
    # certificate replay on every certificate the corpus produces
    emitted = 0
    for name in ("example1.json", "example2.json", "example3.json",
                 "example4.json", "circle.json"):
        sys_, base = load_corpus_system(name)
        rep = analyze_system(sys_, base, AnalyzeConfig(q_max=5, max_depth=10))
        if rep.certificate is not None:
            emitted += 1
            assert replay_certificate(sys_, base, rep.certificate)
    for name in ("triangle.json", "square.json", "cross_braced_square.json",
                 "k4.json", "bricard_octahedron.json"):
        fw, _ = load_corpus_framework(name)
        rep = analyze_framework(fw, AnalyzeConfig(q_max=6, max_depth=10),
                                use_auto_pin=True)
        if rep.certificate is not None:
            emitted += 1
            sysq, _, base = build_edge_system(rep.pinned)
            assert replay_certificate(sysq, base, rep.certificate)
    assert emitted >= 8

    # extension soundness: each successful step raises the residual order
    for name in ("example1.json", "example2.json", "example3.json",
                 "example4.json", "circle.json"):
        sys_, base = load_corpus_system(name)
        ops = linearize(sys_, base)
        for kvec in ops.kernel:
            s = SeriesCoefficients((vector(base), kvec))
            while s.degree < 5:
                assert residual_order(linearize(sys_, s.coefficient(0)), s) > s.degree
                nxt = extend_step(ops, s)
                if nxt is None:
                    break
                s = s.appended(nxt)
                assert residual_order(linearize(sys_, s.coefficient(0)), s) > s.degree

    # reparameterization coefficient identities for 10 random rational a
    rng = random.Random(314159)
    coeffs = [vector([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
              for _ in range(4)]
    s = SeriesCoefficients(tuple(coeffs))
    for _ in range(10):
        a = F(rng.randint(-9, 9), rng.randint(1, 5))
        out = reparameterize(s, a, 2, 3)
        assert out.coefficient(2) == tuple(
            x2 + a * x1 for x2, x1 in zip(s.coefficient(2), s.coefficient(1)))
        assert out.coefficient(3) == tuple(
            x3 + 2 * a * x2 for x3, x2 in zip(s.coefficient(3), s.coefficient(2)))
    report(8, "all emitted certificates replay; extension soundness holds on "
              "the corpus; reparameterization identities hold for 10 random a")
