import random
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from math import gcd

import pytest

from flexcert import certify, quadsys, series
from flexcert.certify import FLEXIBLE, INCONCLUSIVE, RIGID, AnalyzeConfig, FirstOrderRigid
from flexcert.ratlinalg import Matrix, kernel_basis, vector, zero_vector
from flexcert.rigidity import (
    Framework,
    FrameworkError,
    PinningError,
    analyze_framework,
    auto_pin,
    build_edge_system,
    coordinate_order,
    flexion_nontriviality,
    framework,
)
from flexcert.series import SeriesCoefficients

from conftest import FRAMEWORK_CORPUS, load_corpus_framework, triangulated_grid


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


def test_framework_rejects_ids_equal_as_strings():
    # joints are keyed by str(id), so 1 and "1" would overwrite each other
    with pytest.raises(FrameworkError, match="same string"):
        framework(2, {1: [0, 0], "1": [1, 0], "b": [0, 1]}, [(1, "b")])
    fw = framework(2, {1: [0, 0], "b": [0, 1]}, [(1, "b")])
    assert fw.joints == {"1": vector([0, 0]), "b": vector([0, 1])}


@pytest.mark.parametrize("bar", [("a", "b", "c"), ("a",), "ab", 7])
def test_framework_rejects_a_bar_that_is_not_a_pair(bar):
    joints = {"a": [0, 0], "b": [1, 0], "c": [0, 1]}
    with pytest.raises(FrameworkError, match="is not a pair"):
        framework(2, joints, [("a", "b"), ("b", "c"), bar])


@pytest.mark.parametrize("pin", [("a",), ("a", 0, 1), 0])
def test_framework_rejects_a_pin_that_is_not_a_pair(pin):
    with pytest.raises(FrameworkError, match="is not a pair"):
        framework(2, {"a": [0, 0], "b": [1, 0]}, [("a", "b")], pins=[pin])


@pytest.mark.parametrize("idx", [1.7, 1.0, True, "1"])
def test_framework_rejects_a_pin_index_that_is_not_an_int(idx):
    with pytest.raises(FrameworkError, match="is not an integer"):
        framework(2, {"a": [0, 0], "b": [1, 0]}, [("a", "b")], pins=[("a", idx)])


@pytest.mark.parametrize("dimension, width", [(2.0, 2), (True, 1), ("2", 2)])
def test_framework_rejects_a_dimension_that_is_not_an_int(dimension, width):
    joints = {"a": [0] * width, "b": [1] + [0] * (width - 1)}
    with pytest.raises(FrameworkError, match="dimension must be a positive integer"):
        framework(dimension, joints, [("a", "b")])


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


def test_analysis_with_auto_pin_rejects_a_pinned_framework():
    # the framework's pins are not silently kept in place of the auto-pin frame
    fw = framework(2, {"v1": [0, 0], "v2": [1, 0]}, [["v1", "v2"]], pins=[("v1", 0)])
    with pytest.raises(PinningError, match="no pins set"):
        analyze_framework(fw, use_auto_pin=True)


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


def test_edge_system_is_bar_length_change_with_rational_coordinates_and_pins():
    # F_k(x) = |x_a - x_b|^2 - L_ab^2 with every pinned coordinate at its
    # position: coordinates with denominators, bars pinned at one end and
    # coordinates pinned at both ends
    rng = random.Random(23)
    for _ in range(30):
        dim = rng.randint(1, 3)
        ids = [f"v{i}" for i in range(rng.randint(2, 5))]
        joints = {j: [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
                  for j in ids}
        bars = [(ids[i - 1], ids[i]) for i in range(1, len(ids))]
        bars += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 3))]
        # the last joint stays free, so the system keeps a variable
        pins = [(j, c) for j in ids[:-1] for c in range(dim) if rng.random() < 0.5]
        fw = framework(dim, joints, bars, pins)
        sys_, variables, base = build_edge_system(fw)
        assert quadsys.evaluate(sys_, base) == zero_vector(len(fw.bars))
        for _ in range(3):
            x = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in variables]
            at = {j: list(fw.joints[j]) for j in ids}
            for (j, c), v in zip(variables, x):
                at[j][c] = v
            expected = tuple(
                sum((at[a][c] - at[b][c]) ** 2 - (fw.joints[a][c] - fw.joints[b][c]) ** 2
                    for c in range(dim))
                for a, b in fw.bars)
            assert quadsys.evaluate(sys_, tuple(x)) == expected


def _reference_edge_system(fw):
    """The bar equations expanded into Fraction terms, (u - v)^2 - L^2 per
    coordinate with u, v each a variable or its pinned value, and put in
    canonical form by validate_and_symmetrize."""
    variables = [sc for sc in coordinate_order(fw) if sc not in fw.pins]
    index = {sc: i for i, sc in enumerate(variables)}
    alphas, betas, gammas = [], [], []
    for a, b in fw.bars:
        alpha, beta, gamma = [], [], F(0)
        for c, (xa, xb) in enumerate(zip(fw.joints[a], fw.joints[b])):
            u, v = index.get((a, c)), index.get((b, c))
            gamma -= (xa - xb) ** 2
            for i, x in ((u, xa), (v, xb)):  # u^2 and v^2
                if i is None:
                    gamma += x * x
                else:
                    alpha.append((i, i, F(1)))
            if u is not None and v is not None:  # -2 u v
                alpha.append((v, u, F(-2)))
            elif u is not None:
                beta.append((u, -2 * xb))
            elif v is not None:
                beta.append((v, -2 * xa))
            else:
                gamma -= 2 * xa * xb
        alphas.append(alpha)
        betas.append(beta)
        gammas.append(gamma)
    names = [f"{jid}[{c}]" for jid, c in variables]
    return quadsys.validate_and_symmetrize(len(variables), alphas, betas, gammas, names)


def _assert_canonical(sys_):
    # the form itself, so a fault that the reference shares still shows:
    # i <= j, indices increasing, no zeros, and no factor common to den
    for quad, lin, c, den in zip(sys_.quad, sys_.lin, sys_.const, sys_.den):
        keys = [(i, j) for i, j, _ in quad]
        assert all(i <= j for i, j in keys) and keys == sorted(set(keys))
        assert [i for i, _ in lin] == sorted({i for i, _ in lin})
        assert all(a for *_, a in quad + lin)
        assert den > 0 and gcd(den, c, *(a for *_, a in quad + lin)) == 1


def _random_rational_framework(rng):
    # joints with their own denominators up to 9, random pins, and some
    # joints pinned in every coordinate
    dim = rng.randint(1, 3)
    ids = [f"v{i}" for i in range(rng.randint(2, 6))]
    joints = {j: [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)] for j in ids}
    bars = [(ids[i - 1], ids[i]) for i in range(1, len(ids))]
    bars += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 4))]
    pins = [(j, c) for j in ids for c in range(dim)
            if rng.random() < 0.2 or rng.random() < 0.4 and j in ids[:2]]
    return framework(dim, joints, bars, pins)


def test_edge_system_equals_the_fraction_expansion():
    # the compiler writes the canonical integer form directly; it must be
    # the system validate_and_symmetrize builds from the expanded bars
    cases = []
    for name in FRAMEWORK_CORPUS:
        fw, _ = load_corpus_framework(name)
        bare = Framework(fw.dimension, fw.joints, fw.bars, frozenset())
        cases += [fw, bare, auto_pin(bare)]
    for n in range(2, 7):
        cases += [triangulated_grid(n), auto_pin(triangulated_grid(n))]
    rng = random.Random(31)
    cases += [_random_rational_framework(rng) for _ in range(300)]
    assert sum(any(all((j, c) in fw.pins for c in range(fw.dimension)) for j in fw.joints)
               for fw in cases) > 100
    # a Framework built directly may list a bar as (b, a) with b after a
    cases += [Framework(fw.dimension, fw.joints, tuple((b, a) for a, b in fw.bars), fw.pins)
              for fw in cases]
    for fw in cases:
        sys_, variables, base = build_edge_system(fw)
        assert sys_ == _reference_edge_system(fw), fw
        _assert_canonical(sys_)
        assert variables == tuple(sc for sc in coordinate_order(fw) if sc not in fw.pins)
        assert base == tuple(fw.joints[j][c] for j, c in variables)
    # a bar with every coordinate pinned is the empty equation over 1
    fw = framework(2, {"a": [F(1, 2), 3], "b": [2, F(1, 3)], "c": [F(5, 7), 1]},
                   [("a", "b"), ("b", "c")], [("a", 0), ("a", 1), ("b", 0), ("b", 1)])
    sys_, _, _ = build_edge_system(fw)
    assert (sys_.quad[0], sys_.lin[0], sys_.const[0], sys_.den[0]) == ((), (), 0, 1)
    assert sys_ == _reference_edge_system(fw)
    # a free coordinate whose partner is pinned at 0 has no linear term
    fw = framework(1, {"a": [0], "b": [F(3, 2)]}, [("a", "b")], [("a", 0)])
    sys_, _, _ = build_edge_system(fw)
    assert (sys_.quad, sys_.lin, sys_.const, sys_.den) == ((((0, 0, 4),),), ((),), (-9,), (4,))
    assert sys_ == _reference_edge_system(fw)


def test_pin_accounting():
    for name in ("triangle.json", "square.json", "cross_braced_square.json",
                 "k4.json", "bricard_octahedron.json"):
        fw, _ = load_corpus_framework(name)
        pinned = auto_pin(fw)
        sys_, variables, _ = build_edge_system(pinned)
        assert sys_.m == fw.dimension * len(fw.joints) - len(pinned.pins)
        # full auto-pin on an affinely spanning framework kills every
        # rigid-motion direction
        assert _rigid_motions_fixing_pins(pinned) == []


def _rigid_motions_fixing_pins(fw):
    """Combinations of the translations and plane rotations of R^n whose
    velocity field vanishes at every pinned coordinate."""
    n = fw.dimension
    fields = [{(jid, d): F(1) for jid in fw.joints} for d in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            fields.append({**{(jid, a): -x[b] for jid, x in fw.joints.items()},
                           **{(jid, b): x[a] for jid, x in fw.joints.items()}})
    rows = [[f.get(sc, F(0)) for f in fields] for sc in sorted(fw.pins)]
    return kernel_basis(Matrix.from_rows(rows, cols=len(fields)))


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


def test_flexion_square_hand_expansion():
    fw, variables, s = _square_flex_series()
    # v1 is pinned at the origin, so the first non-bar pair (v1, v3) moves
    # as |v3(t)|^2, expanded here by hand
    var_index = {vc: i for i, vc in enumerate(variables)}
    xs = [s.coefficient(p)[var_index[("v3", 0)]] for p in range(s.degree + 1)]
    ys = [s.coefficient(p)[var_index[("v3", 1)]] for p in range(s.degree + 1)]
    expect = [F(0)] * (2 * s.degree + 1)
    for i in range(s.degree + 1):
        for j in range(s.degree + 1):
            expect[i + j] += xs[i] * xs[j] + ys[i] * ys[j]
    order = next(p for p in range(1, s.degree + 1) if expect[p])
    report = flexion_nontriviality(fw, variables, s)
    assert (report.witness_pair, report.witness_order, report.witness_value) == \
        (("v1", "v3"), order, expect[order])


def _full_distance_series(fw, variables, s):
    """Reference: every joint's trajectory, and each non-bar pair's squared
    distance as the whole Cauchy product of its difference series, orders
    0..2q, keyed by pair in id order."""
    index = {sc: i for i, sc in enumerate(variables)}
    q = s.degree
    trajectory = {
        jid: [[s.coeffs[p][index[jid, c]] if (jid, c) in index else x if p == 0 else F(0)
               for c, x in enumerate(fw.joints[jid])] for p in range(q + 1)]
        for jid in fw.joint_ids()}
    out = {}
    ids = fw.joint_ids()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if (a, b) in fw.bars:
                continue
            diff = [[u - v for u, v in zip(ya, yb)]
                    for ya, yb in zip(trajectory[a], trajectory[b])]
            product = [F(0)] * (2 * q + 1)
            for l in range(q + 1):
                for r in range(q + 1):
                    product[l + r] += sum((u * v for u, v in zip(diff[l], diff[r])), F(0))
            out[a, b] = product
    return out


def _reference_flexion(products, q):
    # the first pair in id order that moves at an order in [1, q], at its lowest such order
    for pair, product in products.items():
        for order in range(1, q + 1):
            if product[order]:
                return "Nontrivial", pair, order, product[order]
    return "Trivial", None, None, None


def _random_flexion_draw(rng):
    """A framework of dimension 1-3 with random bars and pins (some joints
    fully pinned) and a rational series of degree 1-5 through its
    positions, sparse and starting at a random order so that witnesses
    at high orders and Trivial results both occur. A quarter of the
    planar draws instead turn about the origin, where the fully pinned
    j0 sits: the series is exp(tJ) X0 cut at q, which moves no distance
    through q and, for odd q, moves every one at q + 1."""
    dim = rng.randint(1, 3)
    ids = [f"j{i}" for i in range(rng.randint(3, 6))]

    def small():
        return F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    joints = {jid: [small() for _ in range(dim)] for jid in ids}
    bars = [[ids[rng.randrange(i)], ids[i]] for i in range(1, len(ids))]
    bars += [rng.sample(ids, 2) for _ in range(rng.randint(0, len(ids) // 2))]
    q = rng.randint(1, 5)
    if dim == 2 and rng.random() < 0.25:
        joints["j0"] = [0, 0]
        fw = framework(dim, joints, bars, [("j0", 0), ("j0", 1)])
        variables = [sc for sc in coordinate_order(fw) if sc not in fw.pins]
        turned = fw.joints
        coeffs = []
        for p in range(q + 1):
            coeffs.append(tuple(turned[jid][c] for jid, c in variables))
            turned = {jid: (-y / (p + 1), x / (p + 1)) for jid, (x, y) in turned.items()}
        return fw, variables, SeriesCoefficients(tuple(coeffs))
    pins = []
    for jid in ids:
        roll = rng.random()
        if roll < 0.2:
            pins += [(jid, c) for c in range(dim)]
        elif roll < 0.5:
            pins.append((jid, rng.randrange(dim)))
    fw = framework(dim, joints, bars, pins)
    variables = [sc for sc in coordinate_order(fw) if sc not in fw.pins]
    lead, sparsity = rng.randint(1, q + 1), rng.uniform(0, 0.8)
    coeffs = [tuple(fw.joints[jid][c] for jid, c in variables)]
    for p in range(1, q + 1):
        coeffs.append(tuple(F(0) if p < lead or rng.random() < sparsity else small()
                            for _ in variables))
    return fw, variables, SeriesCoefficients(tuple(coeffs))


def test_flexion_matches_full_cauchy_product():
    # the flexion check reads each pair only up to its first moving order;
    # the reference builds every pair's whole product first
    certified = []
    for name in FRAMEWORK_CORPUS:
        fw, auto = load_corpus_framework(name)
        rep = analyze_framework(fw, use_auto_pin=auto)
        if rep.flexion is not None:
            _, variables, _ = build_edge_system(rep.pinned)
            certified.append((rep.pinned, variables, rep.certificate.series))
    assert len(certified) == 2
    rng = random.Random(20240611)
    draws = [_random_flexion_draw(rng) for _ in range(400)]
    seen = {"order 1": 0, "order 2": 0, "order >= 3": 0, "Trivial": 0,
            "earlier pair moves later": 0, "Trivial, moving at q + 1": 0}
    for fw, variables, s in certified + draws:
        report = flexion_nontriviality(fw, variables, s)
        products = _full_distance_series(fw, variables, s)
        assert (report.classification, report.witness_pair, report.witness_order,
                report.witness_value) == _reference_flexion(products, s.degree)
        assert (report.order, report.series) == (s.degree, s)
        if report.classification == "Trivial":
            seen["Trivial"] += 1
            seen["Trivial, moving at q + 1"] += any(c[s.degree + 1] for c in products.values())
            continue
        seen[("order 1", "order 2", "order >= 3")[min(report.witness_order, 3) - 1]] += 1
        firsts = [next((p for p in range(1, s.degree + 1) if c[p]), None)
                  for c in products.values()]
        seen["earlier pair moves later"] += \
            min(p for p in firsts if p is not None) < report.witness_order
    assert all(count >= 1 for count in seen.values()), seen


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


def test_framework_analysis_evaluates_the_base_point_once():
    # linearize is the one residual check; a profiler sees every call of
    # quadsys.evaluate, however a caller imported it
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is quadsys.evaluate.__code__:
            calls.append(frame.f_back.f_code.co_name)

    fw, auto = load_corpus_framework("square.json")
    sys.setprofile(count)
    try:
        rep = analyze_framework(fw, use_auto_pin=auto)
    finally:
        sys.setprofile(None)
    assert rep.verdict == FLEXIBLE and calls == ["linearize"]


def test_analyze_cross_braced_square_rigid():
    fw, _ = load_corpus_framework("cross_braced_square.json")
    rep = analyze_framework(fw, use_auto_pin=True)
    assert rep.verdict == RIGID


def test_analyze_k4_never_flexible():
    fw, _ = load_corpus_framework("k4.json")
    rep = analyze_framework(fw, use_auto_pin=True)
    assert rep.verdict == RIGID


@pytest.mark.parametrize("pins", [[("a", 0), ("a", 1)], []])
def test_truncated_rotation_is_not_a_flexion(pins):
    # the braced square pinned at a (or not at all) is certified at
    # (q, k) = (2, 1) by its rotation about a; the truncated series moves
    # the (b, d) distance at order 4 = 2q, which the family does not
    joints = {"a": [0, 0], "b": [1, 0], "c": [1, 1], "d": [0, 1]}
    bars = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"]]
    rep = analyze_framework(framework(2, joints, bars, pins))
    assert (rep.certificate.q, rep.certificate.k) == (2, 1)
    assert rep.verdict == INCONCLUSIVE
    assert rep.flexion.classification == "Trivial"
    assert analyze_framework(framework(2, joints, bars), use_auto_pin=True).verdict == RIGID


def test_analyze_unpinned_square_stays_inconclusive():
    rep = analyze_framework(square(), use_auto_pin=False)
    assert rep.verdict != RIGID
    assert any("no pins" in n for n in rep.notes)


def test_flexible_verdicts_replay():
    for fw_builder in (square,):
        rep = analyze_framework(fw_builder(), use_auto_pin=True)
        sys_, variables, base = build_edge_system(rep.pinned)
        assert certify.replay_certificate(sys_, base, rep.certificate)


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
    # C has full column rank mod a prime, so the analysis eliminates
    # nothing over Q; a dense elimination of C took over 20 s
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
