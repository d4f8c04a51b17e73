import hashlib
import json

import pytest

from flexcert import cli, fileio
from flexcert.corpus import corpus_path, list_corpus

from conftest import FRAMEWORK_CORPUS, SYSTEM_CORPUS


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


def test_base_point_not_solution_exits_3(tmp_path, capsys):
    data = json.loads(open(corpus_path("example1.json")).read())
    data["base_point"] = ["5", "5", "8"]
    path = tmp_path / "offbase.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze-system", str(path))
    assert code == 3
    assert "(-15, -3, 1)" in err


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


@pytest.mark.parametrize("name", SYSTEM_CORPUS + FRAMEWORK_CORPUS)
def test_corpus_report_bytes_are_pinned(capsys, name):
    command = "analyze-system" if name in SYSTEM_CORPUS else "analyze-framework"
    code, out, _ = run_cli(capsys, command, corpus_path(name), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_SHA256[name]


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    command, data, message = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    extra = {"extend": ["--degree", "2"], "reduce": ["-o", str(tmp_path / "out.json")]}
    code, _, err = run_cli(capsys, command, str(path), *extra.get(command, []))
    assert code == 2
    assert message in err
    assert "Traceback" not in err


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


def test_invalid_caps_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze-system", corpus_path("example1.json"),
                           "--q-max", "0")
    assert code == 2
    assert "caps" in err
