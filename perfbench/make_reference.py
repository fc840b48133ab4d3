#!/usr/bin/env python3
"""Pin the reference outputs the benchmark checks every call against.

Usage, from the repository root: python3 perfbench/make_reference.py [WORKLOAD ...]

Writes perfbench/reference/*.json from the current sources, for the named
workloads or for all of them.  The references
were pinned once and are meant to stay fixed: regenerate them only when a
change to a compared field is intended, and say so where the change is
recorded.  Each scan reference covers every |d| any seed can scan, computed
with --jobs 1; the check pool holds the first admissible d from POOL_START on,
each with the number of form compositions its query makes, counted by a
traced run, which the workload stratifies by.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import spawn  # noqa: E402
from tracer import layer_totals  # noqa: E402
from workloads import PAPER_OPS, REF_DIR, WORKLOADS, EXIT_OK  # noqa: E402

POOL_START = 1_000_000
POOL_SIZE = 44


def call(argv: list[str], trace: bool = False) -> dict:
    rep, err = spawn(argv, trace=trace)
    if rep is None or rep["error"] or rep["code"] != EXIT_OK:
        raise SystemExit(f"reference call {argv} failed: {err or rep}")
    return rep


def write(name: str, payload: dict) -> None:
    os.makedirs(REF_DIR, exist_ok=True)
    with open(os.path.join(REF_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {name}", flush=True)


def scan_reference(wl) -> dict:
    lo_abs, hi_abs = wl.universe()
    argv = wl.argv(lo_abs, hi_abs)
    argv[argv.index("--jobs") + 1] = "1"
    rows = wl.project(call(argv)["stdout"], "reference")
    return {"curve": wl.curve, "ell": wl.ell, "lo_abs": lo_abs, "hi_abs": hi_abs, "rows": rows}


def check_pool(wl) -> dict:
    from twistsel.checker import Overall, admissibility_check
    from twistsel.curves import curve_from_string

    E = curve_from_string(wl.curve)
    pool = []
    d = -POOL_START
    while len(pool) < POOL_SIZE:
        d -= 1
        if d % 4 != 3 or admissibility_check(E, wl.ell, d).overall is not Overall.ADMISSIBLE:
            continue
        rep = call(wl.argv(d), trace=True)
        compositions = layer_totals(rep["spans"], rep["counts"])["quadforms.compose.calls"]
        pool.append({"d": d, "compose_calls": compositions, "expect": wl.project(rep["stdout"], str(d))})
        print(f"  d = {d}: {compositions} compositions", flush=True)
    return {"curve": wl.curve, "ell": wl.ell, "pool": pool}


def paper_reference(wl) -> dict:
    return {"ops": {name: wl.project(call(argv)["stdout"], name) for name, argv in PAPER_OPS}}


def main(names: list[str]) -> int:
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        if wl.kind == "scan":
            write(wl.ref, scan_reference(wl))
        elif wl.kind == "check":
            write(wl.ref, check_pool(wl))
        else:
            write(wl.ref, paper_reference(wl))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
