#!/usr/bin/env python3
"""Benchmark one flexcert workload and print its metrics.

    python3 bench/run.py --workload flex-certify --seed 7 --seconds 40 --trace 0

Run from the root of a flexcert checkout; the package is imported from
`src/` of that checkout and from nowhere else. One process, no threads,
closed loop: each input is analyzed to completion before the next starts.
The seed drives the input generators only; flexcert sees only the
generated inputs, with the default caps (q_max = 8, max_depth = 24).

With `--trace 0` the run reports the end-to-end metrics. The workload's
inputs are analyzed in turn while the next analysis is expected to end
within `--seconds` (each input at least once); each input's time is the
median of its samples, scaled by a fixed reference computation run
around and during each call to a host on which the reference takes
REFERENCE_S (see `timed`).
With `--trace 1` untraced and traced passes alternate, and the run reports
per-pass per-layer metrics and the tracing overhead.

Every analysis is checked: it fails when it raises, when its report does
not re-verify, when its verdict contradicts the input's ground truth, or
when it is less decisive than the pinned verdict. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. A run record with the per-input table is written
to `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 7
# set-up repeats at least this many times, and takes this share of the run
SETUP_MIN_REPS = 3
SETUP_SHARE = 0.05
# a fast call is repeated until its batch takes this long, and timed per call
MIN_BATCH_S = 0.2
# `reference()` is sampled this often during a timed call; its median time
# on a 2-vCPU Xeon VM under Python 3.11.7 is about REFERENCE_S
REFERENCE_EVERY_S = 0.02
REFERENCE_S = 0.001
FLEXCERT_MODULES = ("ratlinalg", "quadsys", "series", "certify", "rigidity", "fileio", "corpus")
DETAIL_KEYS = ("certify.span_closure_check", "certify.canonical_candidates")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
OUT_DIR = os.path.join(HERE, "out")

clock = time.perf_counter


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (for example, no flexcert sources)."""


# ---------------------------------------------------------------------------
# set-up


def import_flexcert() -> types.SimpleNamespace:
    """Import flexcert afresh from the checkout's src/ directory."""
    package_dir = os.path.join(SRC, "flexcert")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SetupError(f"no flexcert package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "flexcert" or n.startswith("flexcert.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"flexcert.{name}") for name in FLEXCERT_MODULES}
    for mod in mods.values():
        if os.path.dirname(os.path.abspath(mod.__file__)) != package_dir:
            raise SetupError(f"{mod.__name__} was imported from {mod.__file__}")
    return types.SimpleNamespace(**mods)


def set_up(workload: str, seed: int):
    """Import, generate, parse and reduce: everything before the first
    analysis. Returns the modules and the cases."""
    fc = import_flexcert()
    return fc, workloads.build(fc, workload, seed)


# ---------------------------------------------------------------------------
# analysis, re-verification, failure accounting


def analyze(fc, case, config):
    if case.kind == "framework":
        return fc.rigidity.analyze_framework(case.framework, config, use_auto_pin=case.auto_pin)
    return fc.certify.analyze_system(case.system, case.base_point, config)


def verify(fc, case, report):
    """Re-check a report as a third party would, from the input and the
    report alone: a framework is pinned from the input (the report's pinned
    framework must equal it) and its edge system rebuilt, a certificate is
    replayed, and a report without one has its stated kernel dimension
    re-derived. Returns (ok, m, n)."""
    if case.kind == "framework":
        fw = fc.rigidity.auto_pin(case.framework) if case.auto_pin else case.framework
        system, _, x0 = fc.rigidity.build_edge_system(fw)
        if report.pinned != fw:
            return False, system.m, system.n
        system_report = report.system_report
    else:
        system, x0 = case.system, case.base_point
        system_report = report
    if report.certificate is not None:
        ok = fc.certify.replay_certificate(system, x0, report.certificate)
    else:
        ops = fc.quadsys.linearize(system, x0)
        ok = system_report.notes[0] == f"kernel dimension {len(ops.kernel)}"
    return ok, system.m, system.n


def judge(case, report, verified: bool):
    """Why an analysis failed, or None when it passed."""
    if not verified:
        return "report does not re-verify"
    verdict = report.verdict
    if verdict != workloads.INCONCLUSIVE and verdict != case.truth:
        return f"verdict {verdict} contradicts ground truth {case.truth}"
    if verdict == workloads.INCONCLUSIVE and case.pinned != workloads.INCONCLUSIVE:
        return f"Inconclusive where {case.pinned} is pinned"
    return None


def reference() -> None:
    """Product of two fixed sparse polynomials with Fraction coefficients,
    kept in dicts keyed by exponent tuples: the exact arithmetic flexcert
    spends its time on, in code that no flexcert change touches."""
    a = {(i, j, i * j % 3): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
    b = {(j, i, 1): Fraction(j + 3, i + 1) for i in range(4) for j in range(3)}
    product = {}
    for (i, j, k), u in a.items():
        for (p, q, r), v in b.items():
            key = (i + p, j + q, k + r)
            product[key] = product.get(key, 0) + u * v


def reference_s() -> float:
    start = clock()
    reference()
    return clock() - start


@dataclass
class Sample:
    """One timed call: wall seconds as measured, the mean time of the
    reference computation around and during it, and the call's seconds
    scaled to a host where the reference takes REFERENCE_S."""

    raw_s: float
    reference_s: float

    @property
    def scaled_s(self) -> float:
        return self.raw_s * REFERENCE_S / self.reference_s


def timed(fn, min_s: float, every_s: float):
    """Call fn at least once and until min_s has elapsed, and sample the
    host's speed meanwhile. A shared host's speed can move by up to 2x
    within seconds and between runs (so it did on a 2-vCPU Xeon VM), and
    the reference computation slows with flexcert's own code; so it runs right before and right after the
    calls and every `every_s` seconds during them (from a SIGALRM handler,
    its time taken out of the calls' time; with 0, only around them).
    The seconds per call, times REFERENCE_S over the mean reference time,
    are the call's time on a host where the reference takes REFERENCE_S.
    Returns the first result and a Sample."""
    refs = [reference_s()]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: refs.append(reference_s()))
    calls = 0
    start = clock()
    signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    try:
        while True:
            result = fn()
            if calls == 0:
                first = result
            calls += 1
            if clock() - start >= min_s:
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = clock() - start - sum(refs[1:])
        signal.signal(signal.SIGALRM, previous)
    refs.append(reference_s())
    return first, Sample(elapsed / calls, statistics.fmean(refs))


@dataclass
class Row:
    """Everything measured for one input over a run."""

    case: workloads.Case
    analyze: list = field(default_factory=list)  # Samples
    replay: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    report: object = None
    m: int = 0
    n: int = 0
    detail: dict | None = None

    def record(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAIL {self.case.name}: {reason}", file=sys.stderr)


def run_one(fc, row, config, min_batch_s: float, every_s: float, tracer=None) -> None:
    """Analyze and re-verify one input (a fast one in a batch), sampling
    the reference every `every_s` seconds (see `timed`)."""
    case = row.case
    gc.collect()
    row.attempted += 1
    mark = _search_mark(tracer) if tracer is not None else None
    try:
        report, sample = timed(lambda: analyze(fc, case, config), min_batch_s, every_s)
    except Exception:
        row.record("analysis raised\n" + traceback.format_exc())
        return
    row.analyze.append(sample)
    if tracer is not None and row.detail is None:
        row.detail = _search_detail(tracer, mark)
    try:
        (ok, m, n), sample = timed(lambda: verify(fc, case, report), min_batch_s, every_s)
    except Exception:
        row.record("re-verification raised\n" + traceback.format_exc())
        return
    row.replay.append(sample)
    reason = judge(case, report, ok)
    if reason is not None:
        row.record(reason)
    if row.report is None:
        row.report, row.m, row.n = report, m, n


def run_pass(fc, rows, config, tracer=None) -> None:
    """One pass of a traced run: no batches, and no reference samples
    during the calls, whose time would count toward a layer."""
    for row in rows:
        run_one(fc, row, config, 0.0, 0.0, tracer)


def _search_mark(tracer) -> tuple[int, int]:
    return tracer.calls.get("certify.span_closure_check", 0), len(tracer.candidate_degrees)


def _search_detail(tracer, mark) -> dict:
    """Candidate degrees and span-closure checks recorded since `mark`."""
    checks, degrees = mark
    return {
        "candidate_degrees": tracer.candidate_degrees[degrees:],
        "span_checks": tracer.calls.get("certify.span_closure_check", 0) - checks,
    }


# ---------------------------------------------------------------------------
# fingerprints


def fingerprint(fc, row) -> dict:
    """sha256 of the JSON report; for an Inconclusive report also of the
    candidates' stall degrees and the number of span-closure checks,
    which byte-identical Inconclusive reports would otherwise hide."""
    text = fc.fileio.dumps(fc.fileio.report_to_dict(row.report))
    out = {"report_sha256": hashlib.sha256(text.encode()).hexdigest()}
    out["sha256"] = out["report_sha256"]
    if row.report.verdict == workloads.INCONCLUSIVE:
        out["detail"] = row.detail
        blob = text + json.dumps(row.detail, sort_keys=True)
        out["sha256"] = hashlib.sha256(blob.encode()).hexdigest()
    return out


def count_search(fc, rows, config) -> None:
    """Run each analysis pinned Inconclusive once, untimed, counting only
    the span-closure checks and the candidates."""
    counter = Tracer(only=DETAIL_KEYS)
    for row in rows:
        if row.case.pinned != workloads.INCONCLUSIVE:
            continue
        mark = _search_mark(counter)
        with counter:
            analyze(fc, row.case, config)
        row.detail = _search_detail(counter, mark)


def load_pins(workload: str, seed: int):
    if seed != DEFAULT_SEED or not os.path.isfile(FINGERPRINTS):
        return None
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


# ---------------------------------------------------------------------------
# run record


def commit_id() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def certificate_summary(report) -> tuple[str, str]:
    cert = report.certificate
    if cert is None:
        return "-", "-"
    kind = type(cert).__name__
    q, k = getattr(cert, "q", None), getattr(cert, "k", None)
    return kind, (f"({q},{k})" if q is not None else "-")


def kernel_dimension(report) -> str:
    note = getattr(report, "system_report", report).notes[0]
    return note.rsplit(" ", 1)[-1]


def median_scaled(samples) -> float:
    return statistics.median(s.scaled_s for s in samples)


def input_table(rows, prints) -> list[dict]:
    table = []
    for row in rows:
        entry = {"input": row.case.name, "attempted": row.attempted, "failed": len(row.failures)}
        if row.report is not None:
            kind, qk = certificate_summary(row.report)
            entry.update(
                m=row.m,
                n=row.n,
                kernel_dim=kernel_dimension(row.report),
                verdict=row.report.verdict,
                certificate=kind,
                qk=qk,
                analyze_s=median_scaled(row.analyze),
                replay_s=median_scaled(row.replay),
                analyze_raw_s=statistics.median(s.raw_s for s in row.analyze),
                passes=len(row.analyze),
                analyze_samples=[[s.raw_s, s.reference_s, s.scaled_s] for s in row.analyze],
                replay_samples=[[s.raw_s, s.reference_s, s.scaled_s] for s in row.replay],
                sha256=prints[row.case.name]["sha256"],
            )
        table.append(entry)
    return table


def print_table(table) -> None:
    head = f"{'input':20s} {'m':>4s} {'n':>4s} {'ker':>3s} {'verdict':12s} " \
           f"{'certificate':16s} {'(q,k)':6s} {'analyze_s':>10s} {'replay_s':>9s} fp"
    print(head)
    for e in table:
        if "verdict" not in e:
            print(f"{e['input']:20s} failed {e['failed']}/{e['attempted']}")
            continue
        print(f"{e['input']:20s} {e['m']:4d} {e['n']:4d} {e['kernel_dim']:>3s} "
              f"{e['verdict']:12s} {e['certificate']:16s} {e['qk']:6s} "
              f"{e['analyze_s']:10.4f} {e['replay_s']:9.4f} {e['sha256'][:12]}")


def write_record(args, record: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}{suffix}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(args):
    """Untraced run: end-to-end metrics. After set-up and the search count,
    the inputs are analyzed in turn: every input at least once, and then
    the next input only while its last analysis would still end in time.
    After the first round over the inputs, set-up repeats between
    analyses, so that it takes SETUP_SHARE of the run's time. Every time
    metric is a median of scaled samples (see `timed`)."""
    start = clock()
    deadline = start + args.seconds
    (fc, cases), first = timed(lambda: set_up(args.workload, args.seed), 0.0, REFERENCE_EVERY_S)
    setups = [first]
    config = fc.certify.AnalyzeConfig()
    rows = [Row(case) for case in cases]
    count_search(fc, rows, config)
    cost = [0.0] * len(rows)
    analyses = 0
    for i in itertools.cycle(range(len(rows))):
        if analyses >= len(rows) and clock() + cost[i] > deadline:
            break
        begin = clock()
        run_one(fc, rows[i], config, MIN_BATCH_S, REFERENCE_EVERY_S)
        cost[i] = clock() - begin
        analyses += 1
        if analyses == len(rows):
            # read before the set-up repetitions: each re-import keeps some memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while analyses >= len(rows) and (
                len(setups) < SETUP_MIN_REPS
                or sum(s.raw_s for s in setups) < SETUP_SHARE * (clock() - start)):
            setups.append(timed(lambda: set_up(args.workload, args.seed), 0.0, REFERENCE_EVERY_S)[1])
    analyzed = [median_scaled(r.analyze) for r in rows if r.analyze]
    replays = [median_scaled(r.replay) for r in rows if r.replay]
    metrics = {
        "analyze_s": (sum(analyzed), "s"),
        "analyze_geomean_s": (
            math.exp(statistics.fmean(math.log(t) for t in analyzed)) if analyzed else 0.0, "s"),
        "replay_s": (sum(replays), "s"),
        "setup_s": (median_scaled(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = setups + [s for r in rows for s in r.analyze + r.replay]
    extra = {
        "passes": round(analyses / len(rows), 2),
        "reference_median_s": statistics.median(s.reference_s for s in samples),
        "setup_samples": [[s.raw_s, s.reference_s, s.scaled_s] for s in setups],
    }
    return fc, config, rows, metrics, extra


def measure_traced(args):
    """Traced run: untraced and traced passes alternate (each pass builds
    the inputs afresh, so set-up layers are traced too); per-layer metrics
    are per traced pass, and the overhead is the difference of the two
    kinds' median pass times. A new pair of passes starts only when it is
    expected to end within the run's seconds."""
    fc, _ = set_up(args.workload, args.seed)
    config = fc.certify.AnalyzeConfig()
    tracer = Tracer()
    untraced_rows = traced_rows = None
    untraced, traced = [], []
    start = clock()
    while not traced or clock() - start + untraced[-1] + traced[-1] <= args.seconds:
        pass_start = clock()
        untraced_rows = _rows_for(untraced_rows, workloads.build(fc, args.workload, args.seed))
        run_pass(fc, untraced_rows, config)
        untraced.append(clock() - pass_start)
        pass_start = clock()
        with tracer:
            traced_rows = _rows_for(traced_rows, workloads.build(fc, args.workload, args.seed))
            run_pass(fc, traced_rows, config, tracer)
        traced.append(clock() - pass_start)
    for plain, row in zip(untraced_rows, traced_rows):
        row.failures += plain.failures
        row.attempted += plain.attempted
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics = {name: (value, _unit(name)) for name, value in tracer.metrics(len(traced)).items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / statistics.median(untraced), "ratio")
    extra = {"passes": len(traced), "untraced_pass_s": untraced, "traced_pass_s": traced}
    return fc, config, traced_rows, metrics, extra


def _rows_for(rows, cases):
    if rows is None:
        return [Row(case) for case in cases]
    for row, case in zip(rows, cases):
        row.case = case
    return rows


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = measure_traced if args.trace else measure
    try:
        fc, config, rows, metrics, extra = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    prints = {row.case.name: fingerprint(fc, row) for row in rows if row.report is not None}
    pins = load_pins(args.workload, args.seed)
    changed = None
    if pins is not None:
        changed = sum(1 for name, pin in pins.items()
                      if prints.get(name, {}).get("sha256") != pin)

    attempted = sum(r.attempted for r in rows)
    failed = sum(len(r.failures) for r in rows)
    table = input_table(rows, prints)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "config": {"q_max": config.q_max, "max_depth": config.max_depth},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "reports_changed": changed,
        "inputs": table,
        "fingerprints": prints,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **extra,
    }
    path = write_record(args, record)

    print(f"workload {args.workload}  seed {args.seed}  passes {extra['passes']}  "
          f"python {record['python']}  nproc {record['nproc']}  commit {record['commit'][:12]}")
    print_table(table)
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}   reports_changed "
          f"{'unpinned (seed %d only)' % DEFAULT_SEED if changed is None else changed}")
    if args.trace:
        print(f"tracing overhead {metrics['trace.overhead_s'][0]:.4f} s per pass "
              f"({100 * metrics['trace.overhead_ratio'][0]:.1f}% of the untraced median; "
              f"untraced {statistics.median(extra['untraced_pass_s']):.4f} s, "
              f"traced {statistics.median(extra['traced_pass_s']):.4f} s)")
    print(f"record {os.path.relpath(path, ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
