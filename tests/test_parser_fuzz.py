"""Generated input files through the command line: every parser answers
with a documented exit code (0 report, 2 parse error, 3 base point not a
solution) and never lets an exception escape.

Documents are drawn near the real formats: each field is usually of the
right shape and sometimes an arbitrary JSON value, so the generator
reaches the checks deep inside each parser as well as the top-level ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from flexcert import cli

FUZZ = settings(max_examples=40, deadline=None, database=None, derandomize=True)

KEYS = ["variables", "equations", "base_point", "alpha", "beta", "gamma", "terms",
        "exponents", "coeff", "dimension", "joints", "bars", "pins", "id", "coords",
        "joint", "auto_pin"]
BAD_RATIONALS = ["1/0", "x", "", "nan", "1/2/3", "0x10"]

leaf = (st.none() | st.booleans() | st.integers(-3, 3)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from(BAD_RATIONALS + ["0", "1", "-1/2", "2.5", " 3 "]))
anything = st.recursive(
    leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8)
# zero-heavy, so that generated base points often solve the equations
rational = st.sampled_from(["0", "0", "0", "1", "-1", "1/2", "-3/4", 2, 0])


def mostly(valid):
    """The valid strategy nine times in ten, any JSON value otherwise.
    The valid choice is the simplest one, which Hypothesis favours."""
    return st.integers(0, 9).flatmap(lambda i: anything if i == 9 else valid)


def small_lists(elements, min_size=0, max_size=3):
    return st.lists(elements, min_size=min_size, max_size=max_size)


def vectors(n):
    return st.lists(rational, min_size=n, max_size=n)


@st.composite
def system_docs(draw):
    m = draw(st.integers(1, 3))
    index = st.integers(0, m - 1)
    equation = st.fixed_dictionaries({}, optional={
        "alpha": mostly(small_lists(mostly(st.tuples(index, index, rational).map(list)))),
        "beta": mostly(small_lists(mostly(st.tuples(index, rational).map(list)))),
        "gamma": mostly(rational),
    })
    return draw(st.fixed_dictionaries(
        {"equations": mostly(small_lists(mostly(equation), min_size=1)),
         "variables": mostly(st.just([f"x{i}" for i in range(m)]))},
        optional={"base_point": mostly(vectors(m))}))


@st.composite
def poly_docs(draw):
    m = draw(st.integers(1, 3))
    term = st.fixed_dictionaries({
        "exponents": mostly(st.lists(st.integers(0, 4), min_size=m, max_size=m)),
        "coeff": mostly(rational),
    })
    equation = st.fixed_dictionaries({"terms": mostly(small_lists(mostly(term)))})
    return draw(st.fixed_dictionaries(
        {"equations": mostly(small_lists(mostly(equation), min_size=1)),
         "variables": mostly(st.just([f"x{i}" for i in range(m)]))},
        optional={"base_point": mostly(vectors(m))}))


@st.composite
def framework_docs(draw):
    dim = draw(st.integers(1, 3))
    ids = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
    joint_id = st.sampled_from(ids)
    joints = [draw(mostly(st.fixed_dictionaries({"id": mostly(st.just(j)),
                                                 "coords": mostly(vectors(dim))})))
              for j in ids]
    # a path through every joint keeps the graph connected; extras may repeat
    bars = [[a, b] for a, b in zip(ids, ids[1:])]
    bars += draw(small_lists(mostly(st.lists(joint_id, min_size=2, max_size=2, unique=True))))
    pin = st.fixed_dictionaries({"joint": mostly(joint_id),
                                 "coords": mostly(small_lists(st.integers(0, dim - 1)))})
    return draw(st.fixed_dictionaries(
        {"dimension": mostly(st.just(dim)), "joints": mostly(st.just(joints)),
         "bars": mostly(st.just(bars))},
        optional={"pins": mostly(small_lists(mostly(pin))),
                  "auto_pin": mostly(st.booleans())}))


def _exit_code(command, doc, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = [arg.replace("{tmp}", tmp) for arg in extra]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([command, path, *out])


CAPS = ("--q-max", "3", "--max-depth", "6")


@FUZZ
@given(mostly(system_docs()))
def test_analyze_system_exit_codes(doc):
    assert _exit_code("analyze-system", doc, *CAPS) in (0, 2, 3)


@FUZZ
@given(mostly(framework_docs()))
def test_analyze_framework_exit_codes(doc):
    assert _exit_code("analyze-framework", doc, *CAPS) in (0, 2, 3)


@FUZZ
@given(mostly(poly_docs()))
def test_reduce_exit_codes(doc):
    assert _exit_code("reduce", doc, "-o", os.path.join("{tmp}", "out.json")) in (0, 2, 3)
