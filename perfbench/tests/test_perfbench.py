"""Tests of the benchmark itself: run with python3 -m pytest perfbench/tests"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracer import layer_totals, self_times  # noqa: E402
from workloads import WORKLOADS, load_reference, make_ops  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["cli", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a: the parent loses the union 1..6
        ["c", 2.0, 3.0, 1, None],
        ["d", 9.0, 12.0, 0, None],  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    totals = layer_totals(spans, {"quadforms.compose": 7})
    assert totals["cli.calls"] == 1
    assert totals["cli.self_s"] == pytest.approx(4.0)
    assert totals["quadforms.compose.calls"] == 7


def test_keyed_ratios_and_enum_steps():
    spans = [
        ["checker.admissibility_check", 0.0, 1.0, -1, -7],
        ["checker.admissibility_check", 1.0, 2.0, -1, -7],
        ["kernels.reduced_forms", 2.0, 3.0, -1, -28],
        ["kernels.class_number", 3.0, 4.0, -1, -28],
    ]
    totals = layer_totals(spans, {})
    assert totals["distinct_d"] == 1
    assert totals["distinct_D"] == 1
    assert totals["kernels.enum_steps"] == 2 * 3**2


def _scan_window_rows():
    wl = WORKLOADS["scan-11a3"]
    ref = load_reference(wl.ref)
    lo_abs, hi_abs = 3000, 3399
    op = {"window": [lo_abs, hi_abs]}
    rows = {d: list(r) for d, r in ref["rows"].items() if lo_abs <= -int(d) <= hi_abs}
    return wl, ref, op, rows


def test_scan_check_flags_one_changed_field():
    wl, ref, op, rows = _scan_window_rows()
    assert rows and wl.check(op, rows, ref) == []
    d = next(iter(rows))
    for field, value in enumerate([rows[d][0] - 4, rows[d][1] + 1, rows[d][2] * 5, "Changed"]):
        bad = {k: list(r) for k, r in rows.items()}
        bad[d][field] = value
        assert wl.check(op, bad, ref), f"changed field {field} went unnoticed"
    missing = dict(rows)
    missing.pop(next(iter(missing)))
    assert wl.check(op, missing, ref)


def test_scan_invariants_hold_on_their_own():
    wl, ref, op, rows = _scan_window_rows()
    d, (D, h, lb, verdict) = next((d, r) for d, r in rows.items() if r[3] == "SelmerTrivial")
    flipped = {**ref, "rows": {**ref["rows"], d: [D, h, lb, "SelmerNontrivial"]}}
    errors = wl.check(op, {**rows, d: [D, h, lb, "SelmerNontrivial"]}, flipped)
    assert any("disagrees with h" in e for e in errors)


def test_check_gate_flags_one_changed_field():
    wl = WORKLOADS["check-large"]
    ref = load_reference(wl.ref)
    entry = ref["pool"][0]
    op = {"d": entry["d"]}
    assert wl.check(op, dict(entry["expect"]), ref) == []
    for key in entry["expect"]:
        bad = dict(entry["expect"])
        bad[key] = "changed"
        assert wl.check(op, bad, ref), f"changed {key} went unnoticed"


def test_paper_gate_flags_a_fail_line():
    wl = WORKLOADS["paper-examples"]
    ref = load_reference(wl.ref)
    got = [list(x) for x in ref["ops"]["verify-paper-examples"]]
    op = {"label": "verify-paper-examples"}
    assert wl.check(op, got, ref) == []
    got[0][0] = "FAIL"
    assert wl.check(op, got, ref)


def test_inputs_follow_the_seed():
    for name, wl in WORKLOADS.items():
        ref = load_reference(wl.ref)
        assert make_ops(name, 3, ref) == make_ops(name, 3, ref)
        if name != "paper-examples":  # its calls are pinned; the seed only orders them
            calls = {json.dumps(sorted(op["label"] for op in make_ops(name, s, ref))) for s in range(5)}
            assert len(calls) > 1


def test_scan_windows_stay_inside_the_reference():
    for name, wl in WORKLOADS.items():
        if wl.kind != "scan":
            continue
        ref = load_reference(wl.ref)
        for seed in range(50):
            for op in make_ops(name, seed, ref):
                lo_abs, hi_abs = op["window"]
                assert ref["lo_abs"] <= lo_abs <= hi_abs <= ref["hi_abs"]


def test_counts_repeat_between_two_traced_runs():
    argv = WORKLOADS["scan-11a3"].argv(3000, 3199)
    first, second = (run.spawn(argv, trace=True)[0] for _ in range(2))
    counts = [
        {k: v for k, v in layer_totals(r["spans"], r["counts"]).items() if not k.endswith("_s")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["quadforms.compose.calls"] > 0
    assert counts[0]["checker.admissibility_check.calls"] > counts[0]["distinct_d"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-11a3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
