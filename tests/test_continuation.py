"""Numerical-continuation oracle for Flexible certificates, independent of
`ratlinalg`: a certified series X(t) evaluated at a small t = eps must lie
next to a true family, so Newton projection onto F = 0, with the slice
<X - X0, Y_r> held fixed, converges. It is not a proof; a disagreement is
a bug to investigate."""

import random

import pytest

mpmath = pytest.importorskip("mpmath")

from flexcert.certify import AnalyzeConfig, SpanClosureFlex, analyze_system
from flexcert.quadsys import validate_and_symmetrize
from flexcert.ratlinalg import vector
from flexcert.rigidity import analyze_framework, build_edge_system, framework
from flexcert.series import SeriesCoefficients

from conftest import (
    FRAMEWORK_CORPUS,
    fuzz_systems,
    load_corpus_framework,
    load_corpus_system,
    random_system_with_solution,
)

DIGITS = 60


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _residual(sys_, x):
    return [sum((_mp(c) * x[i] * x[j] * (1 if i == j else 2) for i, j, c in quad), mpmath.mpf(0))
            + sum((_mp(c) * x[i] for i, c in lin), mpmath.mpf(0)) + _mp(g)
            for quad, lin, g in zip(sys_.alpha, sys_.beta, sys_.gamma)]


def _jacobian_rows(sys_, x):
    rows = []
    for quad, lin in zip(sys_.alpha, sys_.beta):
        row = [mpmath.mpf(0)] * sys_.m
        for i, j, c in quad:
            # c x_i^2, or 2c x_i x_j off the diagonal
            row[i] += 2 * _mp(c) * x[j]
            if i != j:
                row[j] += 2 * _mp(c) * x[i]
        for i, c in lin:
            row[i] += _mp(c)
        rows.append(row)
    return rows


def _norm(v):
    return mpmath.sqrt(sum(a * a for a in v))


def _projected_residuals(sys_, s):
    """max |F| after Newton-projecting X(eps) onto F = 0 at each
    eps = 10^-k / rho, k = 2, 3, 4, where rho = max_p |Y_p|^(1/p) and
    Y_r is the leading coefficient. Each step is the minimum-norm
    solution of [C(X); Y_r] dX = -[F(X); 0] through `mpmath.svd_r`."""
    with mpmath.workdps(DIGITS):
        ys = [[_mp(c) for c in y] for y in s.coeffs]
        moving = [(p, y) for p, y in enumerate(ys) if p and any(y)]
        lead = moving[0][1]
        rho = max(_norm(y) ** (mpmath.mpf(1) / p) for p, y in moving)
        out = []
        for k in (2, 3, 4):
            eps = mpmath.mpf(10) ** -k / rho
            x = [sum(y[i] * eps ** p for p, y in enumerate(ys)) for i in range(sys_.m)]
            for _ in range(8):
                f = _residual(sys_, x)
                if max(abs(v) for v in f) < mpmath.mpf(10) ** (-DIGITS + 10):
                    break
                u, sv, vt = mpmath.svd_r(mpmath.matrix(_jacobian_rows(sys_, x) + [lead]))
                rhs = u.T * mpmath.matrix(f + [0])
                cut = max(sv) * mpmath.mpf(10) ** (-DIGITS + 10)
                scaled = mpmath.matrix([rhs[i] / sv[i] if sv[i] > cut else 0
                                        for i in range(len(sv))])
                step = vt.T * scaled
                x = [a - step[i] for i, a in enumerate(x)]
                # the slice <X - X0, Y_r> is linear, so each step keeps it
            out.append(max(abs(v) for v in _residual(sys_, x)))
        return out


def _flexible_input(name):
    if name not in FRAMEWORK_CORPUS:
        sys_, base = load_corpus_system(name)
        return sys_, analyze_system(sys_, base).certificate
    fw, auto = load_corpus_framework(name)
    rep = analyze_framework(fw, use_auto_pin=auto)
    sys_, _, _ = build_edge_system(rep.pinned)
    return sys_, rep.certificate


@pytest.mark.parametrize(
    "name", ["example1.json", "circle.json", "square.json", "bricard_octahedron.json"])
def test_certified_series_lies_on_a_true_family(name):
    sys_, cert = _flexible_input(name)
    assert isinstance(cert, SpanClosureFlex)
    for residual in _projected_residuals(sys_, cert.series):
        assert residual < 1e-40, (name, residual)


# the `fuzz_systems` arguments of the seeded systems that test_certify.py analyzes
FUZZ_SETS = {
    "pipeline": (424242, 40, (random_system_with_solution,)),
    "pair_solutions": (424242, 80),
    "oracle_inputs": (8086, 100),
}


@pytest.mark.parametrize("name", FUZZ_SETS)
def test_fuzz_certified_series_lie_on_true_families(name):
    checked = 0
    for sys_, base in fuzz_systems(*FUZZ_SETS[name]):
        cert = analyze_system(sys_, base, AnalyzeConfig(q_max=4, max_depth=6)).certificate
        if isinstance(cert, SpanClosureFlex):
            checked += 1
            for residual in _projected_residuals(sys_, cert.series):
                assert residual < 1e-40, (name, checked, residual)
    assert checked >= 10, (name, checked)


def _cycle(n, rng):
    # an n-gon drawn as the flex-certify benchmark draws it: v0 at the
    # origin, v1 on axis 1, the others lattice points above it, redrawn
    # until distinct with no three consecutive joints collinear
    while True:
        pts = [(0, 0), (rng.randint(1, 4), 0)]
        pts += [(rng.randint(-3, 6), rng.randint(1, 4)) for _ in range(n - 2)]
        if len(set(pts)) == n and all(
                (b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0])
                for a, b, c in ((pts[i - 1], pts[i], pts[(i + 1) % n]) for i in range(n))):
            joints = {f"v{i}": list(p) for i, p in enumerate(pts)}
            return framework(2, joints, [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)])


# the joints of the seed-7 flex-certify benchmark's n-gons
SEED7_CYCLES = {
    5: [(0, 0), (2, 0), (0, 3), (-2, 3), (-2, 4)],
    6: [(0, 0), (3, 0), (1, 1), (3, 2), (2, 1), (6, 4)],
}


@pytest.mark.parametrize("n", [5, 6])
def test_cycle_certified_series_lie_on_true_families(n):
    # the benchmark's cycle stream, whose first cycle is pinned above
    rng = random.Random(f"flexcert-bench/7/cycle{n}")
    for k in range(3):
        fw = _cycle(n, rng)
        if k == 0:
            assert [fw.joints[f"v{i}"] for i in range(n)] == SEED7_CYCLES[n]
        rep = analyze_framework(fw, use_auto_pin=True)
        assert isinstance(rep.certificate, SpanClosureFlex)
        sys_, _, _ = build_edge_system(rep.pinned)
        assert sys_.m <= 20
        for residual in _projected_residuals(sys_, rep.certificate.series):
            assert residual < 1e-40, (n, residual)


def test_false_series_stalls_at_its_defect():
    # x^2 + y^2 = 0 has only the origin; (t, 0) misses it by t^2, and the
    # slice x = eps keeps Newton from doing better than |F| = eps^2
    sys_ = validate_and_symmetrize(2, [[(0, 0, 1), (1, 1, 1)]], [[]], [0])
    s = SeriesCoefficients((vector([0, 0]), vector([1, 0])))
    for k, residual in zip((2, 3, 4), _projected_residuals(sys_, s)):
        assert 0.5 * 10 ** (-2 * k) < residual < 2 * 10 ** (-2 * k), (k, residual)
