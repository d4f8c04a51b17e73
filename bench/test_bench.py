"""Tests of the benchmark itself: generators, timing, failure accounting,
tracing and the pinned fingerprints of the default seed.

    python3 -m pytest -q bench/test_bench.py

The end-to-end tests run every workload once untraced and once traced
(about two minutes in all).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 7, 123)

# function -> workloads on which it must record at least one call
HEAVY_ON = {
    "quadsys.evaluate": ("rigid-grids",),
    "quadsys.validate_and_symmetrize": ("rigid-grids",),
    "quadsys.linearize": ("rigid-grids",),
    "rigidity.build_edge_system": ("rigid-grids",),
    "quadsys.bilinear": ("flex-certify", "exhaustive-scan"),
    "series.extend_step": ("flex-certify", "exhaustive-scan"),
    "series.residual_order": ("flex-certify", "exhaustive-scan"),
    "ratlinalg.solve_general": ("exhaustive-scan",),
    "ratlinalg.kernel_basis": ("exhaustive-scan",),
    "ratlinalg.solve_in_span_coefficients": ("exhaustive-scan",),
    "certify.canonical_candidates": ("flex-certify", "exhaustive-scan"),
    "certify.span_closure_check": ("flex-certify", "exhaustive-scan"),
    "certify.span_closure_search": ("flex-certify", "exhaustive-scan"),
    "certify.second_order_obstruction_check": ("flex-certify", "exhaustive-scan"),
    "certify.replay_certificate": ("rigid-grids", "flex-certify"),
    "rigidity.flexion_nontriviality": ("flex-certify",),
    "quadsys.reduce_degree": ("exhaustive-scan",),
}


@pytest.fixture(scope="module")
def fc():
    return run.import_flexcert()


def _benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _case_data(case):
    if case.kind == "framework":
        fw = case.framework
        return ("framework", sorted(fw.joints.items()), fw.bars, sorted(fw.pins), case.auto_pin)
    sys_ = case.system
    return ("system", sys_.alpha, sys_.beta, sys_.gamma, case.base_point)


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_pure_functions_of_the_seed(fc, workload):
    for seed in SEEDS:
        first = [_case_data(c) for c in workloads.build(fc, workload, seed)]
        second = [_case_data(c) for c in workloads.build(fc, workload, seed)]
        assert first == second


def test_seed_moves_coordinates_not_sizes(fc):
    a = workloads.build(fc, "rigid-grids", 1)
    b = workloads.build(fc, "rigid-grids", 2)
    assert [len(c.framework.joints) for c in a] == [len(c.framework.joints) for c in b]
    assert [c.framework.bars for c in a] == [c.framework.bars for c in b]
    assert [c.framework.joints for c in a] != [c.framework.joints for c in b]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_base_point_passes_linearize(fc, workload):
    for case in (c for seed in SEEDS for c in workloads.build(fc, workload, seed)):
        if case.kind == "framework":
            fw = fc.rigidity.auto_pin(case.framework) if case.auto_pin else case.framework
            system, _, x0 = fc.rigidity.build_edge_system(fw)
        else:
            system, x0 = case.system, case.base_point
        fc.quadsys.linearize(system, x0)


def test_generated_structures_have_no_defects(fc):
    for seed in range(20):
        for n in workloads.GRID_SIZES:
            fw = workloads.grid_case(fc, n, seed).framework
            coords = {}
            for col in range(n):
                for row in range(n):
                    x, y = fw.joints[workloads.grid_joint_id(col, row)]
                    coords[(col, row)] = (int(x), int(y))
            assert workloads.grid_defect(n, coords) is None
            assert fw.joints["p0_0"] == (0, 0) and fw.joints["p0_1"] == (3, 0)
        for n in workloads.CYCLE_SIZES:
            fw = workloads.cycle_case(fc, n, seed).framework
            pts = [tuple(int(v) for v in fw.joints[f"v{i}"]) for i in range(n)]
            assert workloads.cycle_defect(pts) is None
            assert pts[0] == (0, 0) and pts[1][1] == 0 and all(p[1] > 0 for p in pts[2:])


def test_defects_are_detected():
    assert workloads.cycle_defect([(0, 0), (2, 0), (1, 1), (2, 0), (0, 3)]) == "coincident joints"
    assert "collinear" in workloads.cycle_defect([(0, 0), (2, 0), (4, 0), (1, 3), (0, 2)])
    coords = {(c, r): (3 * c, 3 * r) for c in range(3) for r in range(3)}
    assert workloads.grid_defect(3, coords) is None
    coords[(1, 1)] = (0, 0)
    assert workloads.grid_defect(3, coords) == "coincident joints"
    coords[(1, 1)] = (2, 2)
    coords[(0, 1)] = (1, 1)  # on the line from (0, 0) through (2, 2)
    assert "degenerate triangle" in workloads.grid_defect(3, coords)


# ---------------------------------------------------------------------------
# timing


def _spin(seconds: float) -> int:
    end = run.clock() + seconds
    calls = 0
    while run.clock() < end:
        calls += 1
    return calls


def test_timed_samples_the_reference_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    result, sample = run.timed(lambda: _spin(0.1), 0.0, 0.01)
    assert result > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the call spins for 0.1 s of wall time; the reference samples taken
    # during it are taken out of its time
    assert 0.05 < sample.raw_s < 0.1
    assert sample.scaled_s == sample.raw_s * run.REFERENCE_S / sample.reference_s


def test_timed_restores_the_alarm_after_an_exception():
    before = signal.getsignal(signal.SIGALRM)

    def fail():
        _spin(0.05)
        raise ValueError("analysis failed")

    with pytest.raises(ValueError):
        run.timed(fail, 0.0, 0.01)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# failure accounting


def test_judge():
    flex = workloads.Case("f", "system", workloads.FLEXIBLE, workloads.FLEXIBLE)
    scan = workloads.Case("s", "system", workloads.FLEXIBLE, workloads.INCONCLUSIVE)

    class Report:
        def __init__(self, verdict):
            self.verdict = verdict

    assert run.judge(flex, Report(workloads.FLEXIBLE), True) is None
    assert run.judge(flex, Report(workloads.FLEXIBLE), False) is not None
    assert "contradicts" in run.judge(flex, Report(workloads.RIGID), True)
    assert "pinned" in run.judge(flex, Report(workloads.INCONCLUSIVE), True)
    assert run.judge(scan, Report(workloads.INCONCLUSIVE), True) is None
    # Inconclusive becoming a replayed Flexible is not a failure
    assert run.judge(scan, Report(workloads.FLEXIBLE), True) is None
    assert "contradicts" in run.judge(scan, Report(workloads.RIGID), True)


def test_verify_pins_from_the_input(fc):
    case = workloads.grid_case(fc, 3, 0)
    config = fc.certify.AnalyzeConfig()
    report = run.analyze(fc, case, config)
    assert run.verify(fc, case, report)[0]
    pinned = report.pinned
    # one more pin on a free joint: the system stays Rigid and its
    # certificate still replays, but the pinning is not the input's
    extra = next((j, 0) for j in pinned.joint_ids() if (j, 0) not in pinned.pins)
    over = dataclasses.replace(pinned, pins=pinned.pins | {extra})
    system, _, x0 = fc.rigidity.build_edge_system(over)
    over_system_report = fc.certify.analyze_system(system, x0, config)
    assert over_system_report.verdict == workloads.RIGID
    assert fc.certify.replay_certificate(system, x0, over_system_report.certificate)
    over_report = dataclasses.replace(report, pinned=over, system_report=over_system_report,
                                      certificate=over_system_report.certificate)
    assert not run.verify(fc, case, over_report)[0]


# ---------------------------------------------------------------------------
# tracer


def test_tracer_patches_every_binding_and_restores(fc):
    from_import = fc.certify.solve_in_span_coefficients
    original = fc.ratlinalg.solve_in_span_coefficients
    assert from_import is original
    with tracing.Tracer() as tracer:
        assert fc.certify.solve_in_span_coefficients is not original
        assert fc.ratlinalg.solve_in_span_coefficients is not original
        assert fc.series.extend_step.__wrapped__ is not None
        system, x0 = fc.fileio.load_system(fc.corpus.corpus_path("example1.json"))
        fc.certify.analyze_system(system, x0)
    assert fc.certify.solve_in_span_coefficients is original
    assert fc.ratlinalg.solve_in_span_coefficients is original
    assert not hasattr(fc.series.extend_step, "__wrapped__")
    assert tracer.calls["ratlinalg.solve_in_span_coefficients"] > 0
    assert tracer.calls["fileio.load_system"] == 1
    metrics = tracer.metrics(1)
    assert metrics["ratlinalg.self_s"] > 0


def test_tracer_restores_after_an_exception(fc):
    original = fc.quadsys.linearize
    with pytest.raises(fc.quadsys.BasePointError):
        with tracing.Tracer():
            system, _ = fc.fileio.load_system(fc.corpus.corpus_path("example1.json"))
            fc.certify.analyze_system(system, (1,) * system.m)
    assert fc.quadsys.linearize is original
    assert fc.certify.linearize is original


# ---------------------------------------------------------------------------
# whole runs of the default seed


@pytest.fixture(scope="module")
def records():
    """Run every workload once untraced and once traced; return the run
    records and the printed metric names, keyed by (workload, trace)."""
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", str(run.DEFAULT_SEED),
                    "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv],
                                  capture_output=True, text=True, timeout=600,
                                  cwd=os.path.dirname(HERE))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            suffix = "-trace" if trace else ""
            path = os.path.join(run.OUT_DIR, f"{workload}-seed{run.DEFAULT_SEED}{suffix}.json")
            with open(path, encoding="utf-8") as fh:
                out[(workload, trace)] = (json.load(fh), result)
    return out


def test_default_seed_verdicts_and_no_failures(records):
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            record, result = records[(workload, trace)]
            assert result["correct"] and result["failed"] == 0 and record["fail_frac"] == 0
            assert result["attempted"] >= 1
    verdicts = {
        w: {(e["verdict"], e["certificate"]) for e in records[(w, 0)][0]["inputs"]}
        for w in workloads.WORKLOADS
    }
    assert verdicts["rigid-grids"] == {(workloads.RIGID, "FirstOrderRigid")}
    assert verdicts["flex-certify"] == {(workloads.FLEXIBLE, "SpanClosureFlex")}
    assert verdicts["exhaustive-scan"] == {(workloads.INCONCLUSIVE, "-")}


def test_pinned_fingerprints_reproduce(records):
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            assert records[(workload, trace)][0]["reports_changed"] == 0


def test_traced_fingerprints_equal_untraced(records):
    for workload in workloads.WORKLOADS:
        untraced = records[(workload, 0)][0]["fingerprints"]
        traced = records[(workload, 1)][0]["fingerprints"]
        assert untraced == traced


def test_inconclusive_fingerprints_carry_search_detail(records):
    prints = records[("exhaustive-scan", 0)][0]["fingerprints"]
    assert len({p["report_sha256"] for p in prints.values()}) == 1  # reports alone are identical
    assert all(p["detail"]["span_checks"] > 0 for p in prints.values())
    assert len({p["sha256"] for p in prints.values()}) == len(prints)


def test_printed_metrics_match_benchmark_json(records):
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in workloads.WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            printed = records[(workload, trace)][1]["metrics"]
            assert {name: m["unit"] for name, m in printed.items()} == names
        for value in records[(workload, 0)][1]["metrics"].values():
            assert value["value"] > 0


def test_heavy_functions_are_traced(records):
    for fn, heavy in HEAVY_ON.items():
        for workload in heavy:
            calls = records[(workload, 1)][1]["metrics"][f"{fn}.calls"]["value"]
            assert calls >= 1, (fn, workload)
    assert records[("exhaustive-scan", 1)][1]["metrics"]["fileio.self_s"]["value"] > 0
    flex = records[("flex-certify", 1)][1]["metrics"]
    assert 0 < flex["certify.span_check_hit_ratio"]["value"] < 1


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rigid-grids", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
