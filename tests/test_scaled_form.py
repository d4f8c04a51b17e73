"""The analysis holds its vectors in one scaled form, (common, ints): the
polarization kernel, the image product, the recurrence sum and the solves
on that form agree with Fraction references, and each series coefficient
is scaled once per operators."""

from collections import Counter
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from flexcert import certify, quadsys, ratlinalg, series
from flexcert.certify import analyze_system, replay_certificate
from flexcert.quadsys import evaluate, linearize, validate_and_symmetrize
from flexcert.ratlinalg import (
    Matrix,
    _fractions,
    _integers,
    combination,
    eliminate,
    kernel_basis,
    solve_general,
    solve_in_span_coefficients,
    zero_vector,
)
from flexcert.rigidity import analyze_framework, build_edge_system
from flexcert.series import SeriesCoefficients

from conftest import load_corpus_framework, load_corpus_system
from test_ratlinalg import _fractions_built

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
PRIMES = (2, 3, 5, 7)
rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def systems_with_base(draw):
    """A system through a drawn integer base point whose equation k has
    den_k = PRIMES[k]: every coefficient is an integer or an integer over
    that prime, and one x_i^2 term is exactly ±1 over it, so the lcm
    across equations is never one equation's den."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = tuple(F(draw(st.integers(-3, 3))) for _ in range(m))
    index = st.integers(0, m - 1)
    alphas, betas = [], []
    for p in PRIMES[:n]:
        coeff = st.builds(F, st.integers(-4, 4), st.sampled_from([1, p]))
        i = draw(index)
        others = st.tuples(index, index, coeff).filter(lambda t: t[:2] != (i, i))
        alphas.append([(i, i, F(draw(st.sampled_from([-1, 1])), p))]
                      + draw(st.lists(others, max_size=5)))
        betas.append(draw(st.lists(st.tuples(index, coeff), max_size=3)))
    gammas = [-r for r in evaluate(validate_and_symmetrize(m, alphas, betas, [0] * n), base)]
    sys_ = validate_and_symmetrize(m, alphas, betas, gammas)
    assert sys_.den == PRIMES[:n]
    return sys_, base


def _reference_bilinear(sys_, x, y):
    # B(X, Y) read off the alpha view in Fractions, i = j terms included
    return tuple(sum((c * x[i] * y[i] if i == j else c * (x[i] * y[j] + x[j] * y[i])
                      for i, j, c in alpha), F(0)) for alpha in sys_.alpha)


def _redundant(v, factor):
    # v scaled over a multiple of its least common denominator
    common, ints = _integers(v)
    return common * factor, [x * factor for x in ints]


@PROPERTY
@given(systems_with_base(), st.data())
def test_scaled_kernels_match_fraction_references(case, data):
    sys_, base = case
    ops = linearize(sys_, base)
    m, n = sys_.m, sys_.n

    def draw_vector():
        return tuple(data.draw(rationals) for _ in range(m))

    x, y = draw_vector(), draw_vector()
    f, g = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    product = _reference_bilinear(sys_, x, y)
    assert _fractions(quadsys._polarize(sys_, _redundant(x, f), _redundant(y, g))) == product
    assert quadsys.bilinear(sys_, x, y) == product
    assert _fractions(ops._product(x, y)) == product == _fractions(ops._product(y, x))
    image = tuple(sum((a * b for a, b in zip(row, y)), F(0)) for row in ops.c_matrix.entries)
    assert _fractions(ops.c_matrix._mul_scaled(_redundant(y, f))) == image
    assert ops.c_matrix.mul_vec(y) == image == _fractions(ops._image(y))
    s = SeriesCoefficients((ops.base_point, x, y, draw_vector()))
    for p in range(1, s.degree + 2):
        terms = [_reference_bilinear(sys_, s.coefficient(l), s.coefficient(p - l))
                 for l in range(max(1, p - s.degree), min(p - 1, s.degree) + 1)]
        expected = tuple(-sum(column, F(0)) for column in zip(*terms)) or zero_vector(n)
        assert _fractions(series._recurrence_sum(ops, s, p)) == expected
        assert combination((-1,) * len(terms), terms, n) == expected
        assert series.recurrence_rhs(ops, s, p) == expected


def _outside(rows, v, n):
    # whether v is outside the span of `rows`, by the Fraction functionals
    # that annihilate every row
    return any(sum((a * b for a, b in zip(w, v)), F(0))
               for w in kernel_basis(Matrix.from_rows(rows, cols=n)))


@PROPERTY
@given(systems_with_base(), st.data())
def test_scaled_solves_match_fraction_references(case, data):
    sys_, base = case
    c = linearize(sys_, base).c_matrix
    m, n = sys_.m, sys_.n
    factor = st.integers(1, 6)

    def draw_vector(size):
        return tuple(data.draw(rationals) for _ in range(size))

    # one solve against the record of C: the canonical solution or None,
    # however v is scaled, as the cokernel decides
    record = eliminate(c)
    c_columns = list(zip(*c.entries))
    for v in (c.mul_vec(draw_vector(m)), draw_vector(n)):
        got = solve_general(record, _integers(v))
        assert solve_general(record, _redundant(v, data.draw(factor))) == got
        assert (got is None) == _outside(c_columns, v, n)
        if got is not None:
            assert c.mul_vec(got) == v
    # a span batch: the same canonical coefficients, or the same first
    # failing index, however the images and right-hand sides are scaled
    span = [draw_vector(m) for _ in range(data.draw(st.integers(0, 3)))]
    images = [c.mul_vec(y) for y in span]
    batch = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            batch.append(combination([data.draw(rationals) for _ in images], images, n))
        else:
            batch.append(draw_vector(n))
    got = solve_in_span_coefficients([_integers(v) for v in images],
                                     [_integers(v) for v in batch])
    assert solve_in_span_coefficients(
        [_redundant(v, data.draw(factor)) for v in images],
        [_redundant(v, data.draw(factor)) for v in batch]) == got
    outside = [_outside(images, v, n) for v in batch]
    if isinstance(got, int):
        assert outside.index(True) == got
        return
    assert not any(outside)
    # the canonical coefficients are those of one solve against [images]
    in_columns = eliminate(Matrix.from_rows(images, cols=n).transpose())
    for v, coeffs in zip(batch, got):
        assert combination(coeffs, images, n) == v
        assert solve_general(in_columns, _integers(v)) == coeffs


def _search_and_replay_runs():
    """Analyses of example2, example3 and the octahedron, as (system, base
    point, report)."""
    runs = []
    for name in ("example2.json", "example3.json"):
        sys_, base = load_corpus_system(name)
        runs.append(lambda sys_=sys_, base=base: (sys_, base, analyze_system(sys_, base)))
    fw, auto = load_corpus_framework("bricard_octahedron.json")

    def octahedron():
        rep = analyze_framework(fw, use_auto_pin=auto)
        sys_, _, base = build_edge_system(rep.pinned)
        return sys_, base, rep
    return runs + [octahedron]


def test_each_series_coefficient_is_scaled_once_per_operators(monkeypatch):
    # every _integers call made while some operators are live, grouped by
    # operators and by the id of its argument; each argument and each series
    # coefficient is kept alive, so no id passes to another object
    scaled, coefficients, operators = [], [], []
    real_integers, real_linearize = ratlinalg._integers, certify.linearize
    real_post_init = SeriesCoefficients.__post_init__

    def counting_integers(x):
        if operators and operators[-1] is not None:
            scaled.append((len(operators), x))
        return real_integers(x)

    def tracking_linearize(*args):
        operators.append(None)  # calls inside linearize belong to no operators
        operators[-1] = real_linearize(*args)
        return operators[-1]

    def recording_post_init(self):
        coefficients.extend(self.coeffs)
        real_post_init(self)

    for module in (ratlinalg, quadsys, certify):
        monkeypatch.setattr(module, "_integers", counting_integers)
    monkeypatch.setattr(certify, "linearize", tracking_linearize)
    monkeypatch.setattr(SeriesCoefficients, "__post_init__", recording_post_init)
    certificates = []
    for run in _search_and_replay_runs():
        sys_, base, rep = run()
        if rep.certificate is not None:
            certificates.append(rep.certificate)
            assert replay_certificate(sys_, base, rep.certificate)
    assert len(operators) == 3 + len(certificates) and certificates
    coefficient_ids = {id(y) for y in coefficients}
    counts = Counter((ops, id(x)) for ops, x in scaled if id(x) in coefficient_ids)
    assert counts and max(counts.values()) == 1
    assert {ops for ops, _ in counts} == set(range(1, len(operators) + 1))


def test_a_failing_span_check_builds_no_fraction(monkeypatch):
    # Viviani's curve: every span check fails; the first check of a prefix
    # validates it and solves its batch on products, images and a span
    # scaled in the operators' memos, with no Fraction built
    ops = linearize(*load_corpus_system("example3.json"))
    candidates = certify.canonical_candidates(ops, 4)
    solves = []
    real_solve = certify.solve_in_span_coefficients
    monkeypatch.setattr(certify, "solve_in_span_coefficients",
                        lambda *args: solves.append(1) or real_solve(*args))
    for q in (2, 3, 4):
        cand = next(c for c in candidates if c.degree >= q)
        solves.clear()
        assert _fractions_built(lambda: certify.span_closure_check(ops, cand, q, 1)) == (None, 0)
        assert solves == [1]
