import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from flexcert import certify, quadsys, series
from flexcert.certify import FLEXIBLE, INCONCLUSIVE, RIGID, AnalyzeConfig, FirstOrderRigid
from flexcert.ratlinalg import vector, zero_vector
from flexcert.rigidity import (
    Framework,
    FrameworkError,
    PinningError,
    analyze_framework,
    auto_pin,
    build_edge_system,
    flexion_nontriviality,
    framework,
    squared_distance_series,
    trivial_motion_basis,
)
from flexcert.series import SeriesCoefficients

from conftest import load_corpus_framework


def triangle():
    return framework(2, {"v1": [0, 0], "v2": [1, 0], "v3": [F(1, 2), 1]},
                     [["v1", "v2"], ["v1", "v3"], ["v2", "v3"]])


def square():
    return framework(2, {"v1": [0, 0], "v2": [1, 0], "v3": [1, 1], "v4": [0, 1]},
                     [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v1"]])


# ---------------------------------------------------------------------------
# construction and validation


def test_framework_validation():
    with pytest.raises(FrameworkError):
        framework(2, {"a": [0, 0]}, [["a", "a"]])  # self-loop
    with pytest.raises(FrameworkError):
        framework(2, {"a": [0, 0], "b": [1, 0]}, [["a", "c"]])  # unknown joint
    with pytest.raises(FrameworkError):
        # disconnected: two bars islands
        framework(2, {"a": [0, 0], "b": [1, 0], "c": [3, 0], "d": [4, 0]},
                  [["a", "b"], ["c", "d"]])
    with pytest.raises(FrameworkError):
        framework(2, {"a": [0, 0], "b": [1, 0]}, [["a", "b"]], pins=[("a", 5)])
    with pytest.raises(FrameworkError):
        framework(2, {"a": [0, 0, 0], "b": [1, 0]}, [["a", "b"]])


def test_auto_pin_triangle():
    pinned = auto_pin(triangle())
    assert sorted(pinned.pins) == [("v1", 0), ("v1", 1), ("v2", 1)]


def test_auto_pin_segment():
    seg = framework(1, {"a": [0], "b": [1]}, [["a", "b"]])
    pinned = auto_pin(seg)
    assert sorted(pinned.pins) == [("a", 0)]


def test_auto_pin_three_dimensional_count():
    fw, _ = load_corpus_framework("bricard_octahedron.json")
    pinned = auto_pin(fw)
    assert len(pinned.pins) == 6  # n(n+1)/2 for n = 3


def test_auto_pin_requires_normal_position():
    shifted = framework(2, {"v1": [1, 1], "v2": [2, 1], "v3": [1, 2]},
                        [["v1", "v2"], ["v1", "v3"], ["v2", "v3"]])
    with pytest.raises(PinningError, match="pre-transform"):
        auto_pin(shifted)


def test_auto_pin_rejects_existing_pins():
    fw = framework(2, {"v1": [0, 0], "v2": [1, 0]}, [["v1", "v2"]], pins=[("v1", 0)])
    with pytest.raises(PinningError):
        auto_pin(fw)


# ---------------------------------------------------------------------------
# edge system compilation


def test_edge_system_single_bar():
    seg = auto_pin(framework(1, {"a": [0], "b": [1]}, [["a", "b"]]))
    sys_, variables, base = build_edge_system(seg)
    assert variables == (("b", 0),)
    assert base == vector([1])
    # x^2 - 1 = 0
    assert sys_.alpha[0] == ((0, 0, F(1)),)
    assert sys_.beta[0] == ()
    assert sys_.gamma[0] == F(-1)


def test_edge_system_triangle_rank():
    sys_, variables, base = build_edge_system(auto_pin(triangle()))
    assert sys_.n == 3 and sys_.m == 3
    ops = quadsys.linearize(sys_, base)
    assert len(ops.kernel) == 0


def test_edge_system_square_shape():
    sys_, variables, base = build_edge_system(auto_pin(square()))
    assert sys_.n == 4 and sys_.m == 5  # 8 coordinates minus 3 pins
    assert quadsys.evaluate(sys_, base) == zero_vector(4)


def test_edge_system_perturbation_breaks_a_bar():
    rng = random.Random(17)
    sys_, variables, base = build_edge_system(auto_pin(square()))
    for idx in range(sys_.m):
        delta = F(rng.randint(1, 5), rng.randint(1, 4))
        moved = tuple(b + (delta if i == idx else 0) for i, b in enumerate(base))
        assert quadsys.evaluate(sys_, moved) != zero_vector(sys_.n)


def test_pin_accounting():
    for name in ("triangle.json", "square.json", "cross_braced_square.json",
                 "k4.json", "bricard_octahedron.json"):
        fw, _ = load_corpus_framework(name)
        pinned = auto_pin(fw)
        sys_, variables, _ = build_edge_system(pinned)
        assert sys_.m == fw.dimension * len(fw.joints) - len(pinned.pins)
        # full auto-pin on an affinely spanning framework kills every
        # rigid-motion direction
        assert trivial_motion_basis(pinned) == []


# ---------------------------------------------------------------------------
# trivial motions


def test_trivial_motions_unpinned_triangle():
    assert len(trivial_motion_basis(triangle())) == 3


def test_trivial_motions_fully_pinned():
    assert trivial_motion_basis(auto_pin(triangle())) == []


def test_trivial_motions_single_joint():
    lone = framework(2, {"a": [0, 0]}, [])
    basis = trivial_motion_basis(lone)
    assert len(basis) == 2  # rotation fixes the lone point at the origin


def test_trivial_motions_partial_pins():
    fw = framework(2, {"v1": [0, 0], "v2": [1, 0]}, [["v1", "v2"]],
                   pins=[("v1", 0), ("v1", 1)])
    basis = trivial_motion_basis(fw)
    # rotations about the pinned joint survive
    assert len(basis) == 1


# ---------------------------------------------------------------------------
# flexion nontriviality


def _square_flex_series():
    fw = auto_pin(square())
    sys_, variables, base = build_edge_system(fw)
    ops = quadsys.linearize(sys_, base)
    s = SeriesCoefficients((base, ops.kernel[0]))
    nxt = series.extend_step(ops, s)
    return fw, variables, s.appended(nxt)


def test_flexion_nontrivial_square_diagonal():
    fw, variables, s = _square_flex_series()
    report = flexion_nontriviality(fw, variables, s)
    assert report.classification == "Nontrivial"
    assert report.witness_pair in (("v1", "v3"), ("v2", "v4"))
    assert report.witness_order >= 1


def test_flexion_zero_series_trivial():
    fw = auto_pin(square())
    sys_, variables, base = build_edge_system(fw)
    s = SeriesCoefficients((base, zero_vector(sys_.m)))
    assert flexion_nontriviality(fw, variables, s).classification == "Trivial"


def test_flexion_complete_graph_gate():
    fw, _ = load_corpus_framework("k4.json")
    pinned = auto_pin(fw)
    sys_, variables, base = build_edge_system(pinned)
    any_series = SeriesCoefficients((base, zero_vector(sys_.m)))
    assert flexion_nontriviality(pinned, variables, any_series).classification == "Trivial"


def test_squared_distance_series_matches_direct_expansion():
    fw, variables, s = _square_flex_series()
    coeffs = squared_distance_series(fw, variables, s, "v1", "v3")
    # independent expansion: |v3(t)|^2 with v3(t) from the series by hand
    var_index = {vc: i for i, vc in enumerate(variables)}
    xs = [s.coefficient(p)[var_index[("v3", 0)]] for p in range(s.degree + 1)]
    ys = [s.coefficient(p)[var_index[("v3", 1)]] for p in range(s.degree + 1)]
    expect = [F(0)] * (2 * s.degree + 1)
    for i in range(s.degree + 1):
        for j in range(s.degree + 1):
            expect[i + j] += xs[i] * xs[j] + ys[i] * ys[j]
    assert coeffs == expect


# ---------------------------------------------------------------------------
# verdicts


def test_analyze_triangle_first_order_rigid():
    rep = analyze_framework(triangle(), use_auto_pin=True)
    assert rep.verdict == RIGID
    assert isinstance(rep.certificate, FirstOrderRigid)
    assert any("first-order" in n for n in rep.notes)


def test_first_order_certificate_tampering_is_rejected():
    rep = analyze_framework(triangle(), use_auto_pin=True)
    sys_, _, base = build_edge_system(rep.pinned)
    cert = rep.certificate
    assert cert.rank == cert.variables == sys_.m
    assert certify.replay_certificate(sys_, base, cert)
    for tampered in (replace(cert, variables=8), replace(cert, rank=cert.rank - 1),
                     replace(cert, rank=8, variables=8)):
        assert not certify.replay_certificate(sys_, base, tampered)


def test_analyze_square_flexible_with_witness():
    rep = analyze_framework(square(), use_auto_pin=True)
    assert rep.verdict == FLEXIBLE
    assert (rep.certificate.q, rep.certificate.k) == (2, 1)
    assert rep.flexion is not None
    assert rep.flexion.classification == "Nontrivial"
    assert rep.flexion.witness_pair in (("v1", "v3"), ("v2", "v4"))


def test_analyze_cross_braced_square_rigid():
    fw, _ = load_corpus_framework("cross_braced_square.json")
    rep = analyze_framework(fw, use_auto_pin=True)
    assert rep.verdict == RIGID


def test_analyze_k4_never_flexible():
    fw, _ = load_corpus_framework("k4.json")
    rep = analyze_framework(fw, use_auto_pin=True)
    assert rep.verdict == RIGID


def test_analyze_unpinned_square_stays_inconclusive():
    rep = analyze_framework(square(), use_auto_pin=False)
    assert rep.verdict != RIGID
    assert any("no pins" in n for n in rep.notes)


def test_flexible_verdicts_replay():
    for fw_builder in (square,):
        rep = analyze_framework(fw_builder(), use_auto_pin=True)
        sys_, variables, base = build_edge_system(rep.pinned)
        assert certify.replay_certificate(sys_, base, rep.certificate)


def triangulated_grid(n):
    """n x n lattice of joints, each unit square split by one diagonal."""
    def jid(col, row):
        return f"p{col:02d}_{row:02d}"

    joints = {jid(c, r): [c, r] for c in range(n) for r in range(n)}
    bars = []
    for c in range(n):
        for r in range(n):
            if c + 1 < n:
                bars.append([jid(c, r), jid(c + 1, r)])
            if r + 1 < n:
                bars.append([jid(c, r), jid(c, r + 1)])
            if c + 1 < n and r + 1 < n:
                bars.append([jid(c, r), jid(c + 1, r + 1)])
    return framework(2, joints, bars)


def test_ten_by_ten_grid_is_first_order_rigid_within_budget():
    fw = triangulated_grid(10)
    start = time.time()
    rep = analyze_framework(fw, use_auto_pin=True)
    sys_, variables, base = build_edge_system(rep.pinned)
    assert (sys_.m, sys_.n) == (197, 261)
    assert rep.verdict == RIGID
    assert isinstance(rep.certificate, FirstOrderRigid) and rep.certificate.rank == 197
    assert certify.replay_certificate(sys_, base, rep.certificate)
    elapsed = time.time() - start
    assert elapsed <= 30, f"took {elapsed:.1f}s"


def test_thirty_by_thirty_grid_is_first_order_rigid_within_budget():
    # the sparse elimination of C keeps this at a few seconds; a dense one
    # took over 20 s
    fw = triangulated_grid(30)
    start = time.time()
    rep = analyze_framework(fw, use_auto_pin=True)
    elapsed = time.time() - start
    sys_, variables, base = build_edge_system(rep.pinned)
    assert (sys_.m, sys_.n) == (1797, 2581)
    assert rep.verdict == RIGID
    assert isinstance(rep.certificate, FirstOrderRigid) and rep.certificate.rank == 1797
    assert certify.replay_certificate(sys_, base, rep.certificate)
    assert elapsed <= 10, f"analysis took {elapsed:.1f}s"


def test_flexible_verdict_needs_span_closure_certificate(monkeypatch):
    fw = square()
    real = certify.analyze_system

    def flexible_with_wrong_certificate(sys_, base, config):
        rep = real(sys_, base, config)
        return certify.AnalysisReport(FLEXIBLE, FirstOrderRigid(0, sys_.m), rep.depth_reached,
                                      rep.notes)

    monkeypatch.setattr(certify, "analyze_system", flexible_with_wrong_certificate)
    with pytest.raises(RuntimeError, match="span-closure"):
        analyze_framework(fw, use_auto_pin=True)
