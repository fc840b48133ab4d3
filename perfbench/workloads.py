"""The four workloads: seeded inputs, the CLI calls they make, and the gate
that checks each call's output against pinned reference outputs.

Only fields whose meaning is settled are compared: ``d, D, h, selmer_lb,
verdict`` for scan rows; ``overall, selmer_lower_bound, ray_rank, verdict,
bounds`` for checks; PASS lines and factor degrees for the paper examples.
The ``ell_rank`` column and the CSV header are left out on purpose, because
they are due to be renamed and split.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")

CURVE_11A3 = "[0,-1,1,0,0]"
CURVE_26 = "[1,-1,1,-3,3]"
CURVE_E13 = "[0,0,0,13674069,324405221670]"

EXIT_OK = 0


def load_reference(name: str) -> dict:
    with open(os.path.join(REF_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _is_power_of(n, ell: int) -> bool:
    if not isinstance(n, int) or n < 1:
        return False
    while n % ell == 0:
        n //= ell
    return n == 1


def _int_or_none(text: str):
    return int(text) if text != "" else None


def digest(projections: list) -> str:
    """Short hash of the projected outputs of one pass, in operation order."""
    blob = json.dumps(projections, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ScanWorkload:
    """``search`` over ``slots`` consecutive windows of ``width`` values of |d|.

    The seed shifts the windows by an offset below ``shift_max`` from
    ``band_lo``; each window is one CLI call in a fresh process.  The shift
    changes the d that are scanned and the window edges.  It is kept well
    below ``width`` because the cost per d grows with |d|: a small shift keeps
    the work per pass, and the cost of each window, nearly the same from seed
    to seed.
    """

    kind = "scan"

    def __init__(self, why, curve, ell, jobs, s_empty, band_lo, width, slots, shift_max, ref):
        self.why = why
        self.curve, self.ell, self.jobs, self.s_empty = curve, ell, jobs, s_empty
        self.band_lo, self.width, self.slots, self.shift_max = band_lo, width, slots, shift_max
        self.ref = ref

    def universe(self) -> tuple[int, int]:
        """Smallest and largest |d| any seed can scan."""
        return self.band_lo, self.band_lo + self.slots * self.width + self.shift_max - 2

    def argv(self, lo_abs: int, hi_abs: int) -> list[str]:
        return [
            "search", "--curve", self.curve, "--ell", str(self.ell),
            f"--range=-{hi_abs}:-{lo_abs}", "--jobs", str(self.jobs), "--format", "csv",
        ]

    def make_ops(self, rng: random.Random, reference: dict) -> list[dict]:
        shift = rng.randrange(self.shift_max)
        ops = []
        for i in range(self.slots):
            lo_abs = self.band_lo + shift + i * self.width
            hi_abs = lo_abs + self.width - 1
            ops.append({"label": f"{lo_abs}:{hi_abs}", "argv": self.argv(lo_abs, hi_abs),
                        "window": [lo_abs, hi_abs]})
        return ops

    @staticmethod
    def project(stdout: str, label: str) -> dict:
        rows = {}
        for row in csv.DictReader(io.StringIO(stdout)):
            rows[row["d"]] = [
                _int_or_none(row["D"]),
                _int_or_none(row["h"]),
                _int_or_none(row["selmer_lb"]),
                row["verdict"],
            ]
        return rows

    def check(self, op: dict, rows: dict, reference: dict) -> list[str]:
        lo_abs, hi_abs = op["window"]
        expect = {d: r for d, r in reference["rows"].items() if lo_abs <= -int(d) <= hi_abs}
        errors = []
        if rows != expect:
            diff = sorted((d for d in rows.keys() | expect.keys() if rows.get(d) != expect.get(d)),
                          key=int)
            errors.append(f"{len(diff)} rows differ from the reference, first d = {diff[0]}")
        for d, (_D, h, lb, verdict) in rows.items():
            if not _is_power_of(lb, self.ell):
                errors.append(f"d = {d}: selmer_lb {lb} is not a power of {self.ell}")
            if self.s_empty and (verdict == "SelmerNontrivial") != (h is not None and h % self.ell == 0):
                errors.append(f"d = {d}: verdict {verdict} disagrees with h = {h}")
        return errors


class CheckWorkload:
    """Single-``d`` ``check`` queries at large |d|, one fresh process each.

    The pinned pool holds admissible d of nearly the same size, each with the
    number of form compositions its query makes.  That count, unlike |D|,
    varies a lot from d to d and sets most of the variation in query cost.
    The pool is sorted by it and its ``trim_light`` lightest and
    ``trim_heavy`` heaviest entries are set aside.  The heavy tail is sparse:
    a stratum reaching into it would span a third of the query cost, and the
    slowest query of a pass would then depend on the seed.  The rest is cut
    into ``picks`` strata and the seed picks one d per stratum, so every seed
    gets the same spread of query costs.
    """

    kind = "check"

    def __init__(self, why, curve, ell, picks, trim_light, trim_heavy, ref):
        self.why = why
        self.curve, self.ell, self.picks = curve, ell, picks
        self.trim_light, self.trim_heavy = trim_light, trim_heavy
        self.ref = ref

    def argv(self, d: int) -> list[str]:
        return ["check", "--curve", self.curve, "--ell", str(self.ell), "--d", str(d)]

    def make_ops(self, rng: random.Random, reference: dict) -> list[dict]:
        pool = sorted(reference["pool"], key=lambda e: (e["compose_calls"], e["d"]))
        pool = pool[self.trim_light:len(pool) - self.trim_heavy]
        size = len(pool) // self.picks
        picked = [rng.choice(pool[k * size:(k + 1) * size]) for k in range(self.picks)]
        rng.shuffle(picked)
        return [{"label": str(e["d"]), "argv": self.argv(e["d"]), "d": e["d"]} for e in picked]

    @staticmethod
    def project(stdout: str, label: str) -> dict:
        out = json.loads(stdout)
        keys = ("overall", "selmer_lower_bound", "ray_rank", "verdict", "bounds")
        return {k: out.get(k) for k in keys}

    def check(self, op: dict, got: dict, reference: dict) -> list[str]:
        expect = next(e["expect"] for e in reference["pool"] if e["d"] == op["d"])
        errors = []
        if got != expect:
            bad = [k for k in expect if got.get(k) != expect[k]]
            errors.append(f"d = {op['d']}: fields {bad} differ from the reference")
        r, lb = got.get("ray_rank"), got.get("selmer_lower_bound")
        if not isinstance(r, int) or lb != self.ell ** r:
            errors.append(f"d = {op['d']}: selmer_lower_bound {lb} is not {self.ell}^ray_rank")
        elif (got.get("verdict") == "SelmerNontrivial") != (r > 0):
            errors.append(f"d = {op['d']}: verdict {got.get('verdict')} disagrees with rank {r}")
        return errors


# (name, argv) of the paper-examples calls; factor shapes at degree bound 6
PAPER_OPS = (
    ("verify-paper-examples", ["verify-paper-examples"]),
    ("E13-psi13", ["factor-shape", "--curve", CURVE_E13, "--ell", "13", "--degree-bound", "6"]),
    ("11a3-psi11", ["factor-shape", "--curve", CURVE_11A3, "--ell", "11", "--degree-bound", "6"]),
    ("11a3-psi13", ["factor-shape", "--curve", CURVE_11A3, "--ell", "13", "--degree-bound", "6"]),
    ("26-psi11", ["factor-shape", "--curve", CURVE_26, "--ell", "11", "--degree-bound", "6"]),
    ("26-psi13", ["factor-shape", "--curve", CURVE_26, "--ell", "13", "--degree-bound", "6"]),
)


class PaperWorkload:
    """The golden suite and pinned factor-shape calls; the seed only orders them."""

    kind = "paper"

    def __init__(self, why, ref):
        self.why = why
        self.ref = ref

    def make_ops(self, rng: random.Random, reference: dict) -> list[dict]:
        ops = [{"label": name, "argv": list(argv)} for name, argv in PAPER_OPS]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def project(stdout: str, label: str):
        if label == "verify-paper-examples":
            return [line.split()[:2] for line in stdout.splitlines() if line.strip()]
        return {"degrees": [f["degree"] for f in json.loads(stdout)["factors"]]}

    def check(self, op: dict, got, reference: dict) -> list[str]:
        expect = reference["ops"][op["label"]]
        errors = []
        if got != expect:
            errors.append(f"{op['label']}: output differs from the reference")
        if op["label"] == "verify-paper-examples" and any(tag != "PASS" for tag, _ in got):
            errors.append("verify-paper-examples: a case did not PASS")
        return errors


WORKLOADS = {
    "scan-11a3": ScanWorkload(
        "many small discriminants with S empty: class-group work and repeated checker calls",
        CURVE_11A3, 5, 1, True, band_lo=3000, width=400, slots=6, shift_max=100,
        ref="scan_11a3.json",
    ),
    "scan-26-jobs2": ScanWorkload(
        "S = {13} is nonempty: the ray-class connecting map, NotApplicable and the jobs=2 pool",
        CURVE_26, 7, 2, False, band_lo=2000, width=400, slots=4, shift_max=100,
        ref="scan_26.json",
    ),
    "check-large": CheckWorkload(
        "few large discriminants, one query per process: per-query latency, kernel enumeration",
        CURVE_11A3, 5, picks=5, trim_light=4, trim_heavy=8, ref="check_11a3.json",
    ),
    "paper-examples": PaperWorkload(
        "golden suite and psi_11/psi_13 factor shapes: divpoly, polyzq and numfield",
        ref="paper.json",
    ),
}


def make_ops(workload: str, seed: int, reference: dict) -> list[dict]:
    """The workload's CLI calls for one seed; the same seed gives the same calls."""
    return WORKLOADS[workload].make_ops(random.Random(f"{workload}:{seed}"), reference)
