import hashlib
import json
import random
import re
import sys
import typing
from fractions import Fraction as F
from pathlib import Path

import pytest

from flexcert import certify, cli, fileio, ratlinalg
from flexcert.certify import (
    analyze_system,
    first_order_rigidity_check,
    second_order_obstruction_check,
    t_standard_run,
)
from flexcert.corpus import corpus_path, list_corpus
from flexcert.quadsys import BasePointError, linearize, validate_and_symmetrize
from flexcert.ratlinalg import zero_vector
from flexcert.rigidity import analyze_framework, framework

from conftest import (
    FRAMEWORK_CORPUS,
    SYSTEM_CORPUS,
    dense_system,
    henneberg_mechanism,
    load_corpus_framework,
    load_corpus_system,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_is_complete():
    names = set(list_corpus())
    expected = {
        "example1.json", "example2.json", "example3.json", "example4.json",
        "triangle.json", "square.json", "cross_braced_square.json", "k4.json",
        "circle.json", "cubic.json", "bricard_octahedron.json",
    }
    assert expected <= names


EXPECTED_VERDICTS = {
    "example1.json": "Flexible",
    "example2.json": "Inconclusive",
    "example3.json": "Inconclusive",
    "example4.json": "Rigid",
    "circle.json": "Flexible",
    "triangle.json": "Rigid",
    "square.json": "Flexible",
    "cross_braced_square.json": "Rigid",
    "k4.json": "Rigid",
    "bricard_octahedron.json": "Flexible",
}


@pytest.mark.parametrize("name", SYSTEM_CORPUS)
def test_corpus_system_verdicts(capsys, name):
    code, out, _ = run_cli(capsys, "analyze-system", corpus_path(name), "--json",
                           "--q-max", "6")
    assert code == 0
    assert json.loads(out)["verdict"] == EXPECTED_VERDICTS[name]


@pytest.mark.parametrize("name", FRAMEWORK_CORPUS)
def test_corpus_framework_verdicts(capsys, name):
    code, out, _ = run_cli(capsys, "analyze-framework", corpus_path(name), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == EXPECTED_VERDICTS[name]


def test_json_reports_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "analyze-system", corpus_path("example1.json"),
                               "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_human_and_json_verdicts_agree(capsys):
    _, human, _ = run_cli(capsys, "analyze-system", corpus_path("example4.json"))
    _, machine, _ = run_cli(capsys, "analyze-system", corpus_path("example4.json"),
                            "--json")
    assert "verdict: Rigid" in human
    assert json.loads(machine)["verdict"] == "Rigid"


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze-system", str(bad))
    assert code == 2
    assert "line" in err


def test_invalid_framework_exits_2(tmp_path, capsys):
    data = {"dimension": 2,
            "joints": [{"id": "a", "coords": ["0", "0"]},
                       {"id": "b", "coords": ["1", "0"]}],
            "bars": []}
    path = tmp_path / "empty_bars.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze-framework", str(path))
    assert code == 2
    assert "bars" in err


def test_fully_pinned_framework_is_rank_0_of_0(tmp_path, capsys):
    # every coordinate pinned leaves C with no columns: the kernel is
    # trivial with nothing to eliminate, mod the prime or over Q
    data = {"dimension": 2,
            "joints": [{"id": "a", "coords": ["0", "0"]},
                       {"id": "b", "coords": ["1", "0"]}],
            "bars": [["a", "b"]],
            "pins": [{"joint": "a", "coords": [0, 1]}, {"joint": "b", "coords": [0, 1]}]}
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze-framework", str(path))
    assert code == 0
    assert out.splitlines()[:2] == ["verdict: Rigid",
                                    "certificate: first-order rigidity (rank 0 of 0)"]


def test_mechanism_whose_t_standard_run_survives_has_no_certificate(tmp_path, capsys):
    # a Henneberg mechanism on 7 joints with d = 1, no span-closure
    # certificate up to q_max and a T-standard recurrence that stays
    # solvable through max_depth: Inconclusive, with no certificate
    fw = henneberg_mechanism(random.Random(229), 7)
    report = analyze_framework(fw, use_auto_pin=True)
    assert report.verdict == "Inconclusive" and report.certificate is None
    assert report.depth_reached == 24
    assert report.notes == (
        "kernel dimension 1",
        "no span-closure certificate up to q_max = 8; absence of a certificate is not a "
        "rigidity proof",
        "T-standard recurrence solvable through depth 24 (cap reached)")
    path = tmp_path / "mechanism.json"
    path.write_text(fileio.dumps(fileio.framework_to_dict(fw, True)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze-framework", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"] is None and data["depth"] == 24
    assert data["notes"] == list(report.notes)
    code, out, _ = run_cli(capsys, "analyze-framework", str(path))
    assert code == 0
    assert out.splitlines()[:2] == ["verdict: Inconclusive", "depth reached: 24"]
    assert "certificate:" not in out


@pytest.mark.parametrize("auto_pin, flags", [(True, []), (False, ["--auto-pin"])])
def test_auto_pin_of_a_pinned_framework_exits_2(tmp_path, capsys, auto_pin, flags):
    # auto-pin needs an unpinned framework, asked for by the file or by --auto-pin
    data = {"dimension": 2,
            "joints": [{"id": "a", "coords": ["0", "0"]},
                       {"id": "b", "coords": ["1", "0"]},
                       {"id": "c", "coords": ["0", "1"]}],
            "bars": [["a", "b"], ["b", "c"], ["a", "c"]],
            "pins": [{"joint": "a", "coords": [0, 1]}, {"joint": "b", "coords": [1]}],
            "auto_pin": auto_pin}
    path = tmp_path / "pinned_and_auto.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze-framework", str(path), *flags)
    assert (code, out) == (2, "")
    assert err == "error: auto_pin requires a framework with no pins set\n"


def test_base_point_not_solution_exits_3(tmp_path, capsys):
    data = json.loads(Path(corpus_path("example1.json")).read_text(encoding="utf-8"))
    data["base_point"] = ["5", "5", "8"]
    path = tmp_path / "offbase.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze-system", str(path))
    assert code == 3
    assert "(-15, -3, 1)" in err


def _int_digit_limit():
    # Python 3.10 before 3.10.7 has no limit on int <-> str conversion
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_reduce_writes_numbers_over_4300_digits(tmp_path, capsys):
    # the lifted base point holds 2^30000 (9031 digits); the reduced file
    # is read back, and its base point is no solution of x^30000 - 1
    limit = _int_digit_limit()
    data = {"variables": ["x"], "base_point": ["2"],
            "equations": [{"terms": [{"exponents": [30000], "coeff": "1"},
                                     {"exponents": [0], "coeff": "-1"}]}]}
    path, out_path = tmp_path / "power.json", tmp_path / "reduced.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "reduce", str(path), "-o", str(out_path))
    assert (code, err) == (0, "")
    assert "reduced system written" in out
    code, _, err = run_cli(capsys, "analyze-system", str(out_path))
    assert code == 3
    assert "base point is not a solution" in err and "Traceback" not in err
    assert _int_digit_limit() == limit


def test_rationals_over_4300_digits_are_read_and_reported(tmp_path, capsys):
    limit = _int_digit_limit()
    big = "1" + "0" * 5000
    # x - 10^5000 = 0 at its solution: read, not misreported as malformed
    path = tmp_path / "big_rational.json"
    path.write_text(json.dumps({"variables": ["x"], "base_point": [big],
                                "equations": [{"beta": [[0, "1"]], "gamma": "-" + big}]}),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze-system", str(path))
    assert code == 0
    assert "verdict: Rigid" in out
    # x^2 - 1 = 0 at 10^2957, a 2958-digit point: the residual has 5914 digits
    path = tmp_path / "big_residual.json"
    path.write_text(json.dumps({"variables": ["x"], "base_point": ["1" + "0" * 2957],
                                "equations": [{"alpha": [[0, 0, "1"]], "gamma": "-1"}]}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze-system", str(path))
    assert code == 3
    assert "residual (" + "9" * 5914 + ")" in err
    assert _int_digit_limit() == limit


def test_library_reads_and_writes_rationals_over_4300_digits():
    # the limit is lifted only while a rational is read or written, and put
    # back as it was; n = 10^5000 + 1 has 5001 digits
    limit = _int_digit_limit()
    n, digits = 10 ** 5000 + 1, "1" + "0" * 4999 + "1"
    system, base = fileio.system_from_dict(
        {"variables": ["x"], "equations": [{"beta": [[0, "3"]], "gamma": digits + "/3"}],
         "base_point": ["-" + digits + "/3"]})
    assert _int_digit_limit() == limit
    assert system.gamma == (F(n, 3),) and base == (F(-n, 3),)
    assert ratlinalg.format_scalar(base[0] / 3) == "-" + digits + "/9"
    assert fileio.system_to_dict(system, base)["base_point"] == ["-" + digits + "/3"]
    assert ratlinalg.scalar(digits) == n
    # x^2 - 1 = 0 at n: the residual n^2 - 1 has 10001 digits
    squares = validate_and_symmetrize(1, [[(0, 0, 1)]], [[]], [-1])
    with pytest.raises(BasePointError, match=r"residual \(1" + "0" * 4999 + "20"):
        linearize(squares, (n,))
    assert _int_digit_limit() == limit


def test_reduce_round_trip(tmp_path, capsys):
    out_path = tmp_path / "reduced.json"
    code, _, _ = run_cli(capsys, "reduce", corpus_path("cubic.json"),
                         "-o", str(out_path))
    assert code == 0
    reduced, base = fileio.load_system(str(out_path))
    # the reduced file reproduces the bundled reference system exactly
    reference, ref_base = fileio.load_system(corpus_path("example2.json"))
    assert reduced == reference
    assert base == ref_base
    code, out, _ = run_cli(capsys, "analyze-system", str(out_path), "--json")
    assert code == 0
    code, ref, _ = run_cli(capsys, "analyze-system", corpus_path("example2.json"),
                           "--json")
    assert json.loads(out)["verdict"] == json.loads(ref)["verdict"]


def test_reduce_output_bytes_are_pinned(tmp_path, capsys):
    out_path = tmp_path / "reduced.json"
    code, _, _ = run_cli(capsys, "reduce", corpus_path("cubic.json"),
                         "-o", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "a6d9be759a2f8783d86d1ab6be8ba2b1d743107b1f6466b49a55d7475522a1a5")


# sha256 of `--json` output with default options; a change here changes a
# report a third party may already hold
REPORT_SHA256 = {
    "example1.json": "335412f334b1705165cbd01af1e974ebfe60c9e7fe2ee2d67f4e22ea5f526788",
    "example2.json": "c70f46b85e8de9fcccdc80597831dfdd59530e48a9d186d6a818589b83f7f398",
    "example3.json": "c70f46b85e8de9fcccdc80597831dfdd59530e48a9d186d6a818589b83f7f398",
    "example4.json": "ac204549456a2f4e3b5b4a2fc404b9be81d13122a33da18aad16915585332b9b",
    "circle.json": "10e321caba41e938630ff17ebfc9cfae20c10a74f1c1af8a96280c0dcdda5c39",
    "triangle.json": "742b12fee9694eb5c273f30082355fd0935e1b2037a68981376a964df4452d79",
    "square.json": "cc1ee6f49ead4a43cb5d3e7f151cc279f2e490604b3101dee8196b2dccd19e6f",
    "cross_braced_square.json":
        "ec0d8f8d8e79f3a5ac900a22aa8213f3aba64a2197d90286942c12aa734b611d",
    "k4.json": "ec0d8f8d8e79f3a5ac900a22aa8213f3aba64a2197d90286942c12aa734b611d",
    "bricard_octahedron.json":
        "6b564b73425cd1b21c415bd2f919c53f99a64c2f3f3bfbce3333f460f7fe914b",
}


# sha256 of the plain (non-`--json`) output with default options: the
# verdict, the certificate summary, the depth, the notes and the witness
HUMAN_SHA256 = {
    "example1.json": "81f63b120cf310322cdd8e081fac8f0513978c044ee21c23415f3abf645dd826",
    "example2.json": "99f86de3ce2c981fdac6046007e088250d3ff39bc9590271e71bf78ec2ef85dc",
    "example3.json": "99f86de3ce2c981fdac6046007e088250d3ff39bc9590271e71bf78ec2ef85dc",
    "example4.json": "0a1cd84f0ebe919400f535147680b1207bfb1a3f435507ac18309457928dcf41",
    "circle.json": "81f63b120cf310322cdd8e081fac8f0513978c044ee21c23415f3abf645dd826",
    "triangle.json": "3f7a2ffeb9a90bc41710a6144a505f21b940261b98e6c7c929c982c5fbc22e9a",
    "square.json": "dab05aa4a154292db495c55654662bb0216bbc1b5b441d43cd3dbe00f33c756a",
    "cross_braced_square.json":
        "a2aad4907a181bac7eaa39dd2e4984e39c3624ce02367072efb4c8cff74dab9b",
    "k4.json": "a2aad4907a181bac7eaa39dd2e4984e39c3624ce02367072efb4c8cff74dab9b",
    "bricard_octahedron.json":
        "52d10d621fdcaec464320eb6e2c98d4ae09cf2f20ed70bb38d4ea63ee1b94a36",
}


@pytest.mark.parametrize("name", SYSTEM_CORPUS + FRAMEWORK_CORPUS)
def test_corpus_report_bytes_are_pinned(capsys, name):
    command = "analyze-system" if name in SYSTEM_CORPUS else "analyze-framework"
    code, out, _ = run_cli(capsys, command, corpus_path(name), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_SHA256[name]


@pytest.mark.parametrize("name", SYSTEM_CORPUS + FRAMEWORK_CORPUS)
def test_corpus_human_output_is_pinned(capsys, name):
    command = "analyze-system" if name in SYSTEM_CORPUS else "analyze-framework"
    code, out, _ = run_cli(capsys, command, corpus_path(name))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HUMAN_SHA256[name]


SQUARE_JOINTS = [{"id": "a", "coords": ["0", "0"]}, {"id": "b", "coords": ["1", "0"]},
                 {"id": "c", "coords": ["1", "1"]}, {"id": "d", "coords": ["0", "1"]}]
SQUARE_BARS = [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]
LIST = "must be a list"
MALFORMED = {
    "joints_not_a_list": ("analyze-framework",
                          {"dimension": 2, "joints": 5, "bars": SQUARE_BARS}, LIST),
    "pin_coords_not_a_list": ("analyze-framework",
                              {"dimension": 2, "joints": SQUARE_JOINTS, "bars": SQUARE_BARS,
                               "pins": [{"joint": "a", "coords": 3}]}, LIST),
    "equations_not_a_list": ("analyze-system",
                             {"variables": ["x"], "equations": 5, "base_point": ["0"]}, LIST),
    "alpha_not_a_list": ("analyze-system",
                         {"variables": ["x"], "equations": [{"alpha": 5}],
                          "base_point": ["0"]}, LIST),
    "series_coefficients_not_a_list": ("extend",
                                       {"variables": ["x"], "equations": [{"alpha": []}],
                                        "base_point": ["0"], "series": {"coefficients": 5}},
                                       LIST),
    # JSON booleans are ints to Python; none of them may pass as a number
    "dimension_is_bool": ("analyze-framework",
                          {"dimension": True, "joints": [{"id": "a", "coords": ["0"]}],
                           "bars": [["a", "a"]]},
                          "'dimension' must be a positive integer"),
    "joint_coordinate_is_bool": ("analyze-framework",
                                 {"dimension": 2, "bars": SQUARE_BARS,
                                  "joints": [{"id": "a", "coords": [True, "0"]}]
                                  + SQUARE_JOINTS[1:]},
                                 "got bool"),
    "pin_coordinate_is_bool": ("analyze-framework",
                               {"dimension": 2, "joints": SQUARE_JOINTS, "bars": SQUARE_BARS,
                                "pins": [{"joint": "a", "coords": [True]}]},
                               "coordinate indices must be integers"),
    "alpha_index_is_bool": ("analyze-system",
                            {"variables": ["x", "y"],
                             "equations": [{"alpha": [[True, True, "1"]]}],
                             "base_point": ["0", "0"]},
                            "index out of range"),
    "alpha_coefficient_is_bool": ("analyze-system",
                                  {"variables": ["x"], "equations": [{"alpha": [[0, 0, True]]}],
                                   "base_point": ["0"]},
                                  "got bool"),
    "beta_index_is_bool": ("analyze-system",
                           {"variables": ["x"], "equations": [{"beta": [[False, "1"]]}],
                            "base_point": ["0"]},
                           "index out of range"),
    "exponent_is_bool": ("reduce",
                         {"variables": ["x"],
                          "equations": [{"terms": [{"exponents": [True], "coeff": "1"}]}]},
                         "bad exponent vector"),
    # auto_pin is a JSON boolean; the string "false" must not turn it on
    "auto_pin_is_string": ("analyze-framework",
                           {"dimension": 2, "joints": SQUARE_JOINTS, "bars": SQUARE_BARS,
                            "auto_pin": "false"},
                           "'auto_pin' must be true or false, got str"),
    "auto_pin_is_int": ("analyze-framework",
                        {"dimension": 2, "joints": SQUARE_JOINTS, "bars": SQUARE_BARS,
                         "auto_pin": 0},
                        "'auto_pin' must be true or false, got int"),
    # rationals are -?digits or -?digits/digits in ASCII and nothing else;
    # the exponent takes seconds to expand where Fraction accepts it
    "rational_with_exponent": ("analyze-system",
                               {"variables": ["x"],
                                "equations": [{"beta": [[0, "1"]], "gamma": "1e10000000"}],
                                "base_point": ["0"]},
                               "not a rational string: '1e10000000'"),
    "rational_decimal": ("analyze-system",
                         {"variables": ["x"], "equations": [{"beta": [[0, "1"]]}],
                          "base_point": ["2.5"]},
                         "not a rational string: '2.5'"),
    "rational_with_spaces": ("analyze-system",
                             {"variables": ["x"], "equations": [{"beta": [[0, "1"]]}],
                              "base_point": [" 3 "]},
                             "not a rational string: ' 3 '"),
    "rational_digit_separator": ("analyze-framework",
                                 {"dimension": 2, "bars": SQUARE_BARS,
                                  "joints": [{"id": "a", "coords": ["1_000", "0"]}]
                                  + SQUARE_JOINTS[1:]},
                                 "not a rational string: '1_000'"),
    "rational_plus_sign": ("analyze-system",
                           {"variables": ["x"], "equations": [{"beta": [[0, "+1"]]}],
                            "base_point": ["0"]},
                           "not a rational string: '+1'"),
    "rational_non_ascii_digits": ("analyze-system",
                                  {"variables": ["x"], "equations": [{"beta": [[0, "1"]]}],
                                   "base_point": ["\u0661/\u0662"]},
                                  "not a rational string: '\u0661/\u0662'"),
    # a field the format does not define is named, not dropped: cubic.json
    # holds polynomial equations, which a quadratic system would read as 0 = 0
    "system_equation_with_terms": ("analyze-system", fileio.load_json(corpus_path("cubic.json")),
                                   "equations[0]: unknown field 'terms'"),
    "system_equation_misspelt_alpha": ("analyze-system",
                                       {"variables": ["x"], "equations": [{"alpah": [[0, 0, "1"]]}],
                                        "base_point": ["0"]},
                                       "equations[0]: unknown field 'alpah'"),
    "framework_misspelt_pins": ("analyze-framework",
                                {"dimension": 2, "joints": SQUARE_JOINTS, "bars": SQUARE_BARS,
                                 "pin": [{"joint": "a", "coords": [0, 1]}]},
                                "framework: unknown field 'pin'"),
    "system_misspelt_series": ("extend",
                               {"variables": ["x"], "equations": [{"alpha": []}],
                                "base_point": ["0"], "seris": {"coefficients": [["0"], ["1"]]}},
                               "system: unknown field 'seris'"),
    # a starting series belongs to a quadratic system, not to a polynomial one
    "polynomial_system_with_series": ("reduce",
                                      {"variables": ["x"],
                                       "equations": [{"terms": [{"exponents": [2], "coeff": "1"}]}],
                                       "series": {"coefficients": [["0"]]}},
                                      "polynomial system: unknown field 'series'"),
    "joint_extra_field": ("analyze-framework",
                          {"dimension": 2, "bars": SQUARE_BARS,
                           "joints": [{"id": "a", "coords": ["0", "0"], "mass": "1"}]
                           + SQUARE_JOINTS[1:]},
                          "joints[0]: unknown field 'mass'"),
    "pin_misspelt_coords": ("analyze-framework",
                            {"dimension": 2, "joints": SQUARE_JOINTS, "bars": SQUARE_BARS,
                             "pins": [{"joint": "a", "coords": [0], "coord": [1]}]},
                            "pins[0]: unknown field 'coord'"),
    "series_extra_field": ("extend",
                           {"variables": ["x"], "equations": [{"alpha": []}], "base_point": ["0"],
                            "series": {"coefficients": [["0"], ["1"]], "degre": 1}},
                           "series: unknown field 'degre'"),
    "series_degree_disagrees": ("extend",
                                {"variables": ["x"], "equations": [{"alpha": []}],
                                 "base_point": ["0"],
                                 "series": {"degree": 3, "coefficients": [["0"], ["1"]]}},
                                "series: 'degree' must be 1"),
    "series_rows_of_unequal_length": ("extend",
                                      {"variables": ["x"], "equations": [{"alpha": []}],
                                       "base_point": ["0"],
                                       "series": {"coefficients": [["0"], ["1", "2"]]}},
                                      "coefficients[1] has 2 entries, coefficients[0] has 1"),
    # rows of the wrong width are named as such, not as a wrong constant term
    "series_rows_longer_than_variables": ("extend",
                                          {"variables": ["x"], "equations": [{"alpha": []}],
                                           "base_point": ["0"],
                                           "series": {"coefficients": [["0", "0"], ["1", "0"]]}},
                                          "series coefficient length 2 differs "
                                          "from the variable count 1"),
    "series_rows_shorter_than_variables": ("extend",
                                           {"variables": ["x", "y"],
                                            "equations": [{"alpha": []}],
                                            "base_point": ["0", "0"],
                                            "series": {"coefficients": [["0"], ["1"]]}},
                                           "series coefficient length 1 differs "
                                           "from the variable count 2"),
    "polynomial_system_without_equations": ("reduce", {"variables": ["x"], "equations": []},
                                            "polynomial system needs at least one equation"),
    # `reduce` copies the names into a quadratic system file, which needs strings
    "polynomial_variables_not_names": ("reduce",
                                       {"variables": [1, 2],
                                        "equations": [{"terms": [{"exponents": [2, 0],
                                                                  "coeff": "1"}]}]},
                                       "'variables' must be a non-empty list of names"),
    # a repeated name would make two variables of a written file one
    "system_variable_named_twice": ("analyze-system",
                                    {"variables": ["x", "y", "x"], "equations": [{"alpha": []}],
                                     "base_point": ["0", "0", "0"]},
                                    "'variables' names a variable twice"),
    "polynomial_variable_named_twice": ("reduce",
                                        {"variables": ["x", "x"],
                                         "equations": [{"terms": [{"exponents": [3, 0],
                                                                   "coeff": "1"}]}]},
                                        "'variables' names a variable twice"),
    "term_extra_field": ("reduce",
                         {"variables": ["x"],
                          "equations": [{"terms": [{"exponents": [2], "coeff": "1",
                                                    "coef": "2"}]}]},
                         "equations[0].terms[0]: unknown field 'coef'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    command, data, message = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    extra = {"extend": ["--degree", "2"], "reduce": ["-o", str(tmp_path / "out.json")]}
    code, _, err = run_cli(capsys, command, str(path), *extra.get(command, []))
    assert code == 2
    assert f"error: {path}: " in err
    assert message in err
    assert "Traceback" not in err


def _unreadable_input(tmp_path, case):
    if case == "directory":
        return str(tmp_path)
    path = tmp_path / f"{case}.json"
    if case == "not_utf8":
        path.write_bytes(b'{"variables": ["x\xff"]}')
    elif case == "deeply_nested":
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    elif case == "integer_past_digit_limit":
        path.write_text('{"variables": ["x"], "equations": [{"gamma": ' + "7" * 5000 + "}]}",
                        encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["analyze-system", "analyze-framework", "reduce",
                                     "extend"])
@pytest.mark.parametrize("case", ["directory", "not_utf8", "deeply_nested",
                                  "integer_past_digit_limit"])
def test_unreadable_input_exits_2(tmp_path, capsys, command, case):
    path = _unreadable_input(tmp_path, case)
    extra = {"extend": ["--degree", "2"], "reduce": ["-o", str(tmp_path / "out.json")]}
    code, out, err = run_cli(capsys, command, path, *extra.get(command, []))
    assert code == 2
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_reduce_unwritable_output_exits_2(tmp_path, capsys, target):
    out_path = tmp_path / "absent" / "out.json" if target == "missing_directory" else tmp_path
    code, out, err = run_cli(capsys, "reduce", corpus_path("cubic.json"), "-o", str(out_path))
    assert code == 2
    assert err.startswith(f"error: {out_path}: cannot write: ") and "Traceback" not in err
    assert out == ""


def test_extend_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "extend", corpus_path("circle.json"),
                           "--degree", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 4
    assert data["residual_order"] in (5, 6, "infinite") or data["residual_order"] > 4


def test_extend_reports_stall(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "extend", corpus_path("example4.json"),
                           "--degree", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["unsolvable_at"] == 2
    assert data["degree"] == 1


def test_parse_serialize_parse_is_identity():
    for name in SYSTEM_CORPUS:
        sys_, base = fileio.load_system(corpus_path(name))
        again, base2 = fileio.system_from_dict(fileio.system_to_dict(sys_, base))
        assert again == sys_ and base2 == base
    for name in FRAMEWORK_CORPUS:
        fw, auto = fileio.load_framework(corpus_path(name))
        fw2, auto2 = fileio.framework_from_dict(fileio.framework_to_dict(fw, auto))
        assert fw2 == fw and auto2 == auto
    poly, base = fileio.load_poly(corpus_path("cubic.json"))
    poly2, base2 = fileio.poly_from_dict(fileio.poly_to_dict(poly, base))
    assert poly2 == poly and base2 == base


def test_series_serialization_round_trip():
    from flexcert.series import SeriesCoefficients
    from flexcert.ratlinalg import vector

    s = SeriesCoefficients((vector(["1", "0"]), vector(["-3/2", "7"])))
    again = fileio.series_from_dict(fileio.series_to_dict(s))
    assert again == s


SQUARE_SERIES = {"degree": 2, "coefficients": [["1", "1", "1", "0", "1"], ["0", "1", "0", "1", "0"],
                                               ["0", "0", "-1/2", "0", "-1/2"]]}
SEGMENT_SERIES = {"degree": 2, "coefficients": [["0", "1"], ["1", "1"], ["0", "0"]]}
CIRCLE_SERIES = {"degree": 2, "coefficients": [["1", "0"], ["0", "1"], ["-1/2", "0"]]}
CIRCLE_PAIRS = [(["0", "2"], ["-1", "0"]), (["0", "1/2"], ["-1/4", "0"])]


def _span_closure_flex(series, vectors):
    """A (q, k) = (2, 1) certificate whose pair solutions are 0 except
    for the pairs (1, 1) and (2, 2), given as (coefficients, vector)."""
    zero = (["0", "0"], ["0"] * len(series["coefficients"][0]))
    solutions = {(1, 1): vectors[0], (1, 2): zero, (2, 1): zero, (2, 2): vectors[1]}
    return {"kind": "span_closure_flex", "q": 2, "k": 1, "series": series,
            "pair_solutions": [{"i": i, "j": j, "coefficients": c, "vector": v}
                               for (i, j), (c, v) in solutions.items()]}


def _every_certificate_kind():
    """One certificate of each kind and obstruction case, from small
    systems and the corpus, each as (system, base point, certificate,
    expected JSON object, expected CLI summary)."""
    linear = dense_system([[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [[1, 0], [0, 1]], [0, 0])
    z3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    bowl = dense_system([[[1, 0, 0], [0, 1, 0], [0, 0, 0]], z3], [[0, 0, 1], [0, 0, 1]], [0, 0])
    cross = validate_and_symmetrize(2, [[(0, 1, 1)], [(0, 0, 1), (1, 1, -1)]], [[], []], [0, 0])
    ex4, base4 = load_corpus_system("example4.json")
    ops4 = linearize(ex4, base4)
    circle, base_c = load_corpus_system("circle.json")
    return [
        (linear, zero_vector(2), first_order_rigidity_check(linearize(linear, zero_vector(2))),
         {"kind": "first_order_rigid", "rank": 2, "variables": 2},
         "first-order rigidity (rank 2 of 2)"),
        (ex4, base4, second_order_obstruction_check(ops4),
         {"kind": "second_order_obstruction", "case": "single_direction",
          "kernel": [["0", "0", "1"]], "b_value": ["1", "0", "0"]},
         "order-2 obstruction (single direction)"),
        (bowl, zero_vector(3), second_order_obstruction_check(linearize(bowl, zero_vector(3))),
         {"kind": "second_order_obstruction", "case": "definite_form",
          "kernel": [["1", "0", "0"], ["0", "1", "0"]], "functional": ["-1", "1"],
          "form": [["-1", "0"], ["0", "-1"]]},
         "order-2 obstruction (definite form)"),
        (cross, zero_vector(2), second_order_obstruction_check(linearize(cross, zero_vector(2))),
         {"kind": "second_order_obstruction", "case": "no_common_line",
          "kernel": [["1", "0"], ["0", "1"]], "functionals": [["1", "0"], ["0", "1"]],
          "forms": [["0", "1", "0"], ["1", "0", "-1"]]},
         "order-2 obstruction (no common line)"),
        (ex4, base4, t_standard_run(ops4),
         {"kind": "t_standard_fail", "fail_index": 2, "unreachable_rhs": ["-1", "0", "0"],
          "normal": ["0", "0", "1"], "leading": ["0", "0", "1"],
          "prefix": {"degree": 1, "coefficients": [["2", "0", "0"], ["0", "0", "1"]]}},
         "T-standard recurrence fails at order 2"),
        (circle, base_c, analyze_system(circle, base_c).certificate,
         _span_closure_flex(CIRCLE_SERIES, CIRCLE_PAIRS),
         "span-closure certificate at (q, k) = (2, 1)"),
    ]


def test_every_certificate_class_has_a_kind():
    # README: K names its class, as the snake_case of the class name
    classes = typing.get_args(certify.Certificate)
    kinds = [cls.kind for cls in classes]
    assert len(set(kinds)) == len(kinds)
    for cls in classes:
        assert cls.kind == re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()
    for other in (certify.PairSolution(1, 1, (), ()),
                  certify.AnalysisReport("Rigid", None, 1, ())):
        with pytest.raises(TypeError):
            fileio.certificate_to_dict(other)


def test_certificate_json_of_every_kind_is_pinned():
    # the list covers the Certificate union; each of its certificates
    # replays and has its pinned CLI summary, the only pin of the
    # T-standard summary, which no corpus file prints
    kinds = _every_certificate_kind()
    classes = {type(cert) for _, _, cert, _, _ in kinds}
    assert classes == set(typing.get_args(certify.Certificate))
    for sys_, base, cert, expected, summary in kinds:
        assert fileio.certificate_to_dict(cert) == expected
        assert certify.replay_certificate(sys_, base, cert)
        assert cert.summary() == summary
    circle = analyze_system(*load_corpus_system("circle.json"))
    assert fileio.report_to_dict(circle) == {
        "verdict": "Flexible", "depth": 2,
        "certificate": _span_closure_flex(CIRCLE_SERIES, CIRCLE_PAIRS),
        "notes": ["kernel dimension 1", "span-closure certificate at (q, k) = (2, 1)"],
    }
    # a Nontrivial flexion carries its witness, a Trivial one does not
    square, _ = load_corpus_framework("square.json")
    assert fileio.report_to_dict(analyze_framework(square, use_auto_pin=True)) == {
        "verdict": "Flexible", "depth": 2,
        "certificate": _span_closure_flex(
            SQUARE_SERIES, [(["0", "2"], ["0", "0", "-1", "0", "-1"]),
                            (["0", "1/2"], ["0", "0", "-1/4", "0", "-1/4"])]),
        "flexion": {"order": 2, "classification": "Nontrivial", "series": SQUARE_SERIES,
                    "witness_pair": ["v1", "v3"], "witness_order": 1, "witness_value": "2"},
        "pins": [{"joint": "v1", "coords": [0, 1]}, {"joint": "v2", "coords": [1]}],
        "notes": ["kernel dimension 1", "span-closure certificate at (q, k) = (2, 1)",
                  "nontrivial flexion: distance of non-bar pair (v1, v3) changes at order 1"],
    }
    segment = framework(1, {"a": [0], "b": [1]}, [["a", "b"]])
    assert fileio.report_to_dict(analyze_framework(segment)) == {
        "verdict": "Inconclusive", "depth": 2,
        "certificate": _span_closure_flex(SEGMENT_SERIES, [(["0", "0"], ["0", "0"])] * 2),
        "flexion": {"order": 2, "classification": "Trivial", "series": SEGMENT_SERIES},
        "pins": [],
        "notes": ["kernel dimension 1", "span-closure certificate at (q, k) = (2, 1)",
                  "no pins set: rigid-motion directions stay in the kernel and a rigidity "
                  "verdict cannot occur",
                  "certified family is a trivial flexion (no non-bar distance changes); "
                  "framework verdict stays inconclusive"],
    }


def test_invalid_caps_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze-system", corpus_path("example1.json"),
                           "--q-max", "0")
    assert code == 2
    assert err == "error: invalid analysis caps: q_max must be at least 1, got 0\n"


def test_max_depth_below_two_names_the_cap_and_its_minimum(capsys):
    # 1 is positive but too small: the error says which cap failed and why
    code, out, err = run_cli(capsys, "analyze-system", corpus_path("example1.json"),
                             "--max-depth", "1")
    assert code == 2 and out == ""
    assert err == "error: invalid analysis caps: max_depth must be at least 2, got 1\n"
