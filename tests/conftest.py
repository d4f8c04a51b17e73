"""Shared builders for the reference systems and frameworks."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from flexcert import fileio, quadsys, ratlinalg, rigidity
from flexcert.corpus import corpus_path
from flexcert.ratlinalg import vector, zero_vector


def dense_system(alpha_raw, beta_raw, gamma_raw):
    """validate_and_symmetrize on dense raw coefficients: each alpha^k an
    m x m list of rows and each beta^k a length-m list, passed on as their
    nonzero (i, j, c) and (i, c) terms, with m the size of the first alpha."""
    m = len(alpha_raw[0])
    alphas = [
        [(i, j, c) for i, row in enumerate(a) for j, c in enumerate(row) if c != 0]
        for a in alpha_raw
    ]
    betas = [[(i, c) for i, c in enumerate(b) if c != 0] for b in beta_raw]
    return quadsys.validate_and_symmetrize(m, alphas, betas, gamma_raw)


def random_system_with_solution(rng, m, n):
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


def low_rank_system(rng, m, n):
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


def fuzz_systems(seed, count, makers=(low_rank_system, random_system_with_solution)):
    """`count` seeded (system, solution) pairs with m and n in 1..4, the
    maker cycling through `makers` trial by trial."""
    rng = random.Random(seed)
    for trial in range(count):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        yield makers[trial % len(makers)](rng, m, n)


def check_rank_mod_p(c):
    """Assert that `rank_mod_p` bounds the rank of C over Q from below and,
    when the kernel is trivial, reaches the column count, so that the
    operators' modular proof fires; return whether the kernel is trivial."""
    rank, nullity = ratlinalg.rank_mod_p(c), len(ratlinalg.kernel_basis(c))
    assert rank <= c.cols - nullity, (rank, c.cols, nullity)
    assert nullity or rank == c.cols, (rank, c.cols)
    return not nullity


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
    return rigidity.framework(2, joints, bars)


def henneberg_mechanism(rng, joints):
    """A plane type-I Henneberg graph on `joints` >= 3 joints with one
    bar removed: a Laman graph minus a bar, a mechanism with one degree
    of freedom at a generic placement. Unpinned; analyze it with
    `use_auto_pin=True`, which pins v00 and the second coordinate of v01.

    The draws, in order, from `rng` alone so that a seed reproduces them:
    v00 sits at the origin and v01 at (x, 0), x = rng.randint(-60, 60)
    redrawn while 0, barred to v00. Each later joint v02, v03, ... is
    barred to the pair rng.sample(earlier joints, 2) and placed at
    (rng.randint(-60, 60), rng.randint(-60, 60)); pair and placement are
    drawn again while the three points are collinear. Last,
    rng.choice(bars), over the bars in the order they were added, is the
    one removed."""
    names = [f"v{i:02d}" for i in range(joints)]
    x = 0
    while x == 0:
        x = rng.randint(-60, 60)
    coords = {names[0]: (0, 0), names[1]: (x, 0)}
    bars = [(names[0], names[1])]
    for name in names[2:]:
        while True:
            a, b = rng.sample(names[:len(coords)], 2)
            p = (rng.randint(-60, 60), rng.randint(-60, 60))
            (ax, ay), (bx, by) = coords[a], coords[b]
            if (bx - ax) * (p[1] - ay) != (by - ay) * (p[0] - ax):
                break
        coords[name] = p
        bars += [(a, name), (b, name)]
    bars.remove(rng.choice(bars))
    return rigidity.framework(2, coords, bars)


def system_poly_terms(sys_):
    """Expand a quadratic system back into exponent-map equations."""
    eqs = []
    for k in range(sys_.n):
        terms = {}
        for i, j, c in sys_.alpha[k]:
            exps = [0] * sys_.m
            exps[i] += 1
            exps[j] += 1
            # an off-diagonal term stands for both c x_i x_j and c x_j x_i
            terms[tuple(exps)] = c if i == j else 2 * c
        for i, c in sys_.beta[k]:
            terms[tuple(1 if t == i else 0 for t in range(sys_.m))] = c
        if sys_.gamma[k] != 0:
            terms[(0,) * sys_.m] = sys_.gamma[k]
        eqs.append(terms)
    return eqs


def reference_jacobian(sys_, base):
    """Row k of C as Fractions, off the alpha and beta views: an alpha
    entry c at (i, j) is c x_i x_j + c x_j x_i, also when i = j."""
    rows = []
    for alpha, beta in zip(sys_.alpha, sys_.beta):
        row = [F(0)] * sys_.m
        for i, j, c in alpha:
            row[i] += 2 * c * base[j]
            if i != j:
                row[j] += 2 * c * base[i]
        for i, b in beta:
            row[i] += b
        rows.append(row)
    return rows


def dense_product(rows, x):
    """M·x for M given as dense rows, summed in Fractions."""
    return tuple(sum((a * b for a, b in zip(row, x)), F(0)) for row in rows)


def dense_transpose(rows, cols):
    """The dense rows of M^T for M given as dense rows of `cols` entries
    each; `cols` keeps a matrix without rows well defined."""
    return [[row[j] for row in rows] for j in range(cols)]


def sympy_equations(sympy, sys_, values):
    """The equations of sys_ as sympy expressions, with values[i] (a
    symbol or any sympy expression) in place of variable i."""
    out = []
    for terms in system_poly_terms(sys_):
        expr = sympy.Integer(0)
        for exps, c in terms.items():
            term = sympy.Rational(c)
            for value, e in zip(values, exps):
                term *= value ** e
            expr += term
        out.append(expr)
    return out


def sympy_residual_order(sympy, sys_, s):
    """Independent oracle for series.residual_order: substitute Y(t) into
    the equations with sympy, expand, and return the smallest p >= 1 with
    a nonzero t^p coefficient, or math.inf when F(Y(t)) vanishes."""
    t = sympy.Symbol("t")
    ys = [sum((sympy.Rational(c[i]) * t ** p for p, c in enumerate(s.coeffs)), sympy.Integer(0))
          for i in range(sys_.m)]
    orders = []
    for expr in sympy_equations(sympy, sys_, ys):
        poly = sympy.Poly(sympy.expand(expr), t)
        assert poly.coeff_monomial(1) == 0, "the base coefficient must solve the system"
        orders += [p for (p,), c in poly.terms() if p >= 1 and c != 0]
    return min(orders, default=math.inf)


def broken_series(rng, s):
    """s with a nonzero vector added to one of its non-constant coefficients."""
    j = rng.randint(1, s.degree)
    bump = (F(0),) * s.width
    while not any(bump):
        bump = vector([F(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(s.width)])
    coeffs = list(s.coeffs)
    coeffs[j] = tuple(a + b for a, b in zip(coeffs[j], bump))
    return type(s)(tuple(coeffs))


def load_corpus_system(name):
    sys_, base = fileio.load_system(corpus_path(name))
    assert base is not None
    return sys_, base


def load_corpus_framework(name):
    fw, auto = fileio.load_framework(corpus_path(name))
    return fw, auto


@pytest.fixture
def hyperboloid_line():
    """Quadric plus two planes meeting in a line through (5,5,7)."""
    return load_corpus_system("example1.json")


@pytest.fixture
def cusp_system():
    """x1^3 = x2^2 rewritten with the auxiliary x3 = x1^2, base at origin."""
    return load_corpus_system("example2.json")


@pytest.fixture
def viviani_system():
    """Sphere of radius 2 with a tangent cylinder of radius 1, base (2,0,0)."""
    return load_corpus_system("example3.json")


@pytest.fixture
def tangent_sphere_cylinder():
    """Sphere, cylinder touching it at (2,0,0) only, and the plane x2 = 0."""
    return load_corpus_system("example4.json")


@pytest.fixture
def circle_system():
    return load_corpus_system("circle.json")


SYSTEM_CORPUS = [
    "example1.json",
    "example2.json",
    "example3.json",
    "example4.json",
    "circle.json",
]

FRAMEWORK_CORPUS = [
    "triangle.json",
    "square.json",
    "cross_braced_square.json",
    "k4.json",
    "bricard_octahedron.json",
]
