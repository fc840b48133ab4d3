#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the twistsel command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI call runs in a fresh interpreter (perfbench/child.py), so no run
times the library's in-process caches.  One pass makes all of the workload's
calls once; passes repeat until ``--seconds`` have gone by, and each metric is
the median over passes.  Every call's output is checked against the pinned
references in perfbench/reference/.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; the difference
between the two kinds of pass is ``trace.overhead_s``.  The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics;
the full record, with provenance, output digest and the spans of the last
traced pass, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import layer_totals  # noqa: E402
from workloads import EXIT_OK, WORKLOADS, digest, load_reference, make_ops  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
RESULTS_DIR = os.path.join(HERE, "results")
MIN_ROUNDS = 2
OP_TIMEOUT_S = 90
HARD_LIMIT_S = 150  # no new round starts once it could end past this

# Times in "ref-s", and setup_s, are rescaled to a machine on which
# calibrate() takes REF_CALIB_S: each call's times are multiplied by
# REF_CALIB_S over the calibration measured just before and just after that
# call.  A shared host can run 30-60% slower for a minute at a time; the
# rescaled times cancel most of that, and the raw times are kept in the record.
REF_CALIB_S = 0.010

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "ref-s"),
    ("cpu_ref_s", "ref-s"),
    ("latency_p50_ref_s", "ref-s"),
    ("latency_max_ref_s", "ref-s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("checker.admissibility_check.calls", "count"),
    ("checker.admissibility_check.self_s", "s"),
    ("checker.admissibility_per_d", "ratio"),
    ("checker.selmer_lower_bound.self_s", "s"),
    ("checker.corollary_sandwich.self_s", "s"),
    ("checker.hypothesis_check.self_s", "s"),
    ("reduction.conductor.calls", "count"),
    ("reduction.local_reduction.calls", "count"),
    ("quadforms.class_group_structure.calls", "count"),
    ("quadforms.class_group_structure.self_s", "s"),
    ("quadforms.ell_rank.calls", "count"),
    ("quadforms.ell_rank.self_s", "s"),
    ("quadforms.reduced_forms.calls", "count"),
    ("quadforms.class_number.calls", "count"),
    ("quadforms.enumerations_per_D", "ratio"),
    ("quadforms.compose.calls", "count"),
    ("quadforms.form_power.calls", "count"),
    ("kernels.reduced_forms.self_s", "s"),
    ("kernels.class_number.self_s", "s"),
    ("kernels.enum_steps", "computed-count"),
    ("kernels.count_points.calls", "count"),
    ("kernels.count_points.self_s", "s"),
    ("reduction.ap.calls", "count"),
    ("rayclass.ray_class_data.calls", "count"),
    ("rayclass.ray_class_data.self_s", "s"),
    ("rayclass.principal_generator.calls", "count"),
    ("search.self_s", "s"),
    ("search.rows", "count"),
    ("search.workers_peak_rss_mib", "MiB"),
    ("divpoly.division_poly_primitive.self_s", "s"),
    ("divpoly.psi_factor_shape.self_s", "s"),
    ("polyzq.zx_factor_bounded.self_s", "s"),
    ("polyzq.hensel_lift.self_s", "s"),
    ("polyzq.fp_factor_squarefree.self_s", "s"),
    ("numfield.dedekind_split.self_s", "s"),
    ("numfield.zeta_in_field.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop that builds and drops
    small tuples, strings and a dict: this interpreter's speed on this machine
    right now.  It runs in this process, so it adds nothing to a call's peak
    resident set; an allocation-heavy loop tracks the slowdowns of the
    library's object-heavy code more closely than a plain arithmetic loop."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        objs = [(i, i * 7 % 1009, str(i)) for i in range(20000)]
        table = {o[2]: o for o in objs}
        sum(o[1] for o in table.values())
        del objs, table
        best = min(best, time.perf_counter() - t)
    return best


def spawn(argv: list[str], trace: bool) -> tuple[dict | None, str]:
    """Run one CLI call in a fresh interpreter between two calibrations;
    (report, error text)."""
    calib_before = calibrate()
    request = json.dumps({"argv": argv, "trace": trace, "t_spawn": time.monotonic()})
    proc = subprocess.Popen(
        [sys.executable, CHILD, request],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {OP_TIMEOUT_S} s"
    if proc.returncode != 0 or not out.strip():
        return None, f"child exited with {proc.returncode}: {err.strip()[-300:]}"
    report = json.loads(out.splitlines()[-1])
    report["calib_s"] = (calib_before + calibrate()) / 2
    return report, ""


def run_pass(wl, ops: list[dict], reference: dict, trace: bool) -> dict:
    """Make each call once; per call, its measurements (None if it died) and layer totals."""
    p = {"calls": [], "backends": set(), "python": set(), "projections": [], "errors": [],
         "failed": 0, "spans": []}
    for op in ops:
        rep, errors = spawn(op["argv"], trace)
        errors = [errors] if errors else []
        projection = None
        call = None
        if rep is not None:
            call = {k: rep[k] for k in
                    ("wall_s", "cpu_s", "setup_s", "rss_mib", "workers_rss_mib", "calib_s")}
            call["rows"] = 0
            p["backends"].add(rep["backend"])
            p["python"].add(rep["python"])
            if rep["error"]:
                errors.append(rep["error"].strip().splitlines()[-1])
            elif rep["code"] != EXIT_OK:
                errors.append(f"exit code {rep['code']}")
            else:
                try:
                    projection = wl.project(rep["stdout"], op["label"])
                except (ValueError, KeyError, TypeError) as exc:
                    errors.append(f"unparsable output: {exc!r}")
                else:
                    errors += wl.check(op, projection, reference)
                    if wl.kind == "scan":
                        call["rows"] = len(projection)
            if trace:
                call["layers"] = layer_totals(rep["spans"], rep["counts"])
                p["spans"].append({"call": op["label"], "spans": rep["spans"]})
        if errors:
            p["failed"] += 1
            p["errors"].append(f"{op['label']}: {errors[0]}")
        p["calls"].append(call)
        p["projections"].append([op["label"], projection])
    return p


def per_call(passes: list[dict], value) -> list[float]:
    """For each call of the workload, the (lower) median over passes of value(call).

    Taking the median per call before summing keeps a burst of load on the
    machine during one call of one pass out of the totals; the lower median is
    always one measured sample, so counts stay whole numbers.
    """
    out = []
    for i in range(len(passes[0]["calls"])):
        samples = [value(p["calls"][i]) for p in passes if p["calls"][i] is not None]
        if samples:
            out.append(statistics.median_low(samples))
    return out


def end_to_end_metrics(plain: list[dict]) -> dict[str, float]:
    """The bounded metrics, plus the raw times they rescale (suffix _raw_s)."""
    calls = [c for p in plain for c in p["calls"] if c]
    out = {
        "setup_s": statistics.median(c["setup_s"] * REF_CALIB_S / c["calib_s"] for c in calls),
        "setup_raw_s": statistics.median(c["setup_s"] for c in calls),
        "peak_rss_mib": max(per_call(plain, lambda c: c["rss_mib"])),
        "calib_s": statistics.median(c["calib_s"] for c in calls),
    }
    for suffix, scale in (("_raw_s", lambda c: 1.0), ("_ref_s", lambda c: REF_CALIB_S / c["calib_s"])):
        walls = per_call(plain, lambda c: c["wall_s"] * scale(c))
        out["wall" + suffix] = sum(walls)
        out["cpu" + suffix] = sum(per_call(plain, lambda c: c["cpu_s"] * scale(c)))
        out["latency_p50" + suffix] = statistics.median(walls)
        out["latency_max" + suffix] = max(walls)
    return out


def per_layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """The per-layer metrics, plus the self time of every traced name."""
    def total(name: str) -> float:
        return sum(per_call(traced, lambda c: c["layers"].get(name, 0)))

    names = {k for p in traced for c in p["calls"] if c for k in c["layers"]}
    out = {name: total(name) for name in names | {name for name, _ in PER_LAYER}}
    calls = out["checker.admissibility_check.calls"]
    enum = total("kernels.reduced_forms.calls") + total("kernels.class_number.calls")
    distinct_d, distinct_D = total("distinct_d"), total("distinct_D")
    out["checker.admissibility_per_d"] = calls / distinct_d if distinct_d else 0.0
    out["quadforms.enumerations_per_D"] = enum / distinct_D if distinct_D else 0.0
    out["search.rows"] = sum(per_call(traced, lambda c: c["rows"]))
    out["search.workers_peak_rss_mib"] = max(per_call(traced, lambda c: c["workers_rss_mib"]))
    out["trace.wall_s"] = sum(per_call(traced, lambda c: c["wall_s"]))
    out["trace.overhead_s"] = out["trace.wall_s"] - sum(per_call(plain, lambda c: c["wall_s"]))
    out["trace.unaccounted_s"] = sum(per_call(
        traced,
        lambda c: c["wall_s"] - sum(v for k, v in c["layers"].items() if k.endswith(".self_s")),
    ))
    return out


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_shares(metrics: dict[str, float]) -> list[tuple[str, float]]:
    """Self time per layer (name prefix), largest first."""
    shares: dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value
    return sorted(shares.items(), key=lambda kv: -kv[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twistsel", "cli.py")):
        print(f"error: no twistsel sources under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = load_reference(wl.ref)
    ops = make_ops(args.workload, args.seed, reference)
    trace = bool(args.trace)

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(wl, ops, reference, trace=False))
        if trace:
            traced.append(run_pass(wl, ops, reference, trace=True))
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds >= MIN_ROUNDS and elapsed >= args.seconds:
            break
        if elapsed + elapsed / rounds > HARD_LIMIT_S:
            break

    if not any(c for p in plain for c in p["calls"]):
        print("error: no call of the workload ran to completion:", file=sys.stderr)
        print("\n".join(plain[0]["errors"][:5]), file=sys.stderr)
        return 1
    passes = plain + traced
    backends = set().union(*(p["backends"] for p in passes))
    attempted = len(ops) * len(passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    if len(backends) > 1:
        errors.append(f"calls ran on different kernel backends: {sorted(backends)}")
        failed = max(failed, 1)
    digests = {digest(p["projections"]) for p in passes}
    if len(digests) > 1:
        errors.append("passes produced different outputs")
        failed = max(failed, 1)

    e2e = end_to_end_metrics(plain)
    if trace:
        values = per_layer_metrics(traced, plain)
        units = dict(PER_LAYER)
    else:
        values = e2e
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "backend": sorted(backends)[0] if len(backends) == 1 else sorted(backends),
        "python": sorted(set().union(*(p["python"] for p in passes))),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "calls": [op["argv"] for op in ops],
        "passes": {"plain": len(plain), "traced": len(traced)},
        "plain_calls": [p["calls"] for p in plain],
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": errors,
        "metrics": metrics,
        "end_to_end": e2e,
    }
    if trace:
        record["layers"] = values
    if trace:
        record["spans_last_traced_pass"] = traced[-1]["spans"]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed {args.seed}: {len(plain)} plain + {len(traced)} traced passes"
          f" of {len(ops)} calls; backend {record['backend']}, python {','.join(record['python'])},"
          f" nproc {record['nproc']}, commit {record['commit'][:12]}")
    for name, m in metrics.items():
        print(f"# {name:<42} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print("# raw: " + ", ".join(f"{k} {e2e[k]:.6g}" for k in e2e if k.endswith("raw_s"))
              + f", calib_s {e2e['calib_s']:.6g}")
    print(f"# failed_frac {record['failed_frac']:.4g} ({failed}/{attempted}); digest {record['digest']}")
    if trace:
        wall = values["trace.wall_s"]
        print("# self time by layer, share of traced wall_s:")
        for layer, secs in layer_shares(values):
            print(f"#   {layer:<10} {secs:9.4f} s {100 * secs / wall:6.1f}%")
    for e in errors[:10]:
        print(f"# FAILED {e}")
    print(f"# record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
