#!/usr/bin/env python3
"""Compare benchmark records of two commits, workload by workload.

Usage, from the repository root:

    python3 perfbench/compare.py --base OLD.json ... --new NEW.json ...

The records are the files run.py writes to perfbench/results/.  For each
workload and metric it prints both sides' medians over their records and the
ratio new/base; an end-to-end metric that got worse by more than its bound in
BENCHMARK.json is marked.  Records of the same workload and seed must carry
the same output digest, i.e. the two commits gave identical verdicts.  The
comparison is refused when the records were made with different kernel
backends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)

    backends = {json.dumps(r["backend"]) for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare runs made with different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    status = 0
    digests = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            digests.setdefault((r["workload"], r["seed"]), {}).setdefault(side, set()).add(r["digest"])
    for (workload, seed), sides in sorted(digests.items()):
        if len(sides) == 2 and sides["base"] != sides["new"]:
            print(f"{workload} seed {seed}: outputs differ ({sides['base']} vs {sides['new']})")
            status = 1

    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        print(f"\n{workload}")
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == workload and r["trace"] == trace]
            n = [r for r in new if r["workload"] == workload and r["trace"] == trace]
            if not b or not n:
                continue
            for name, meta in b[0]["metrics"].items():
                bv = statistics.median(r["metrics"][name]["value"] for r in b)
                nv = statistics.median(r["metrics"][name]["value"] for r in n)
                ratio = nv / bv if bv else float("nan")
                flag = ""
                if name in bounds and bv and ratio > 1 + bounds[name]:
                    flag = f"  WORSE than bound {bounds[name]}"
                    status = 1
                print(f"  {name:<42} {bv:>12.5g} -> {nv:>12.5g} {meta['unit']:<15}"
                      f" x{ratio:.3f} ({len(b)} vs {len(n)} runs){flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
