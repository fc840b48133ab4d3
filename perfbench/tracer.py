"""Span tracing of twistsel, installed from the benchmark's side.

The program has no tracing hooks of its own, so the benchmark wraps the public
functions of each layer.  A module that imports a function by name holds its
own binding (``rayclass`` binds ``compose``, ``quadforms`` binds the kernels as
``_kernel_reduced_forms``), so every binding of the same function object in
every loaded ``twistsel`` module is replaced, not only the defining one.

A span is ``[name, start, end, parent_index, key]``.  Spans stay in memory and
the child process hands them to run.py when its operation ends.  The hot
leaves ``compose`` and ``form_power`` (about 10^6 calls per scan) only bump a
counter, so their time stays in the caller's self time.

Spans recorded inside ``--jobs`` pool workers stay in the workers: this tracer
only sees the process it is installed in, so pool work shows up as the self
time of the ``search`` span that waits for it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time

# (module, attribute, span name, mode); mode "span" records a span, "count" a call count
TARGETS = (
    ("checker", "admissibility_check", "checker.admissibility_check", "span"),
    ("checker", "selmer_lower_bound", "checker.selmer_lower_bound", "span"),
    ("checker", "corollary_sandwich", "checker.corollary_sandwich", "span"),
    ("checker", "hypothesis_check", "checker.hypothesis_check", "span"),
    ("reduction", "conductor", "reduction.conductor", "span"),
    ("reduction", "local_reduction", "reduction.local_reduction", "span"),
    ("reduction", "ap", "reduction.ap", "span"),
    ("quadforms", "class_group_structure", "quadforms.class_group_structure", "span"),
    ("quadforms", "ell_rank", "quadforms.ell_rank", "span"),
    ("quadforms", "reduced_forms", "quadforms.reduced_forms", "span"),
    ("quadforms", "class_number", "quadforms.class_number", "span"),
    ("quadforms", "compose", "quadforms.compose", "count"),
    ("quadforms", "form_power", "quadforms.form_power", "count"),
    ("_kernels", "reduced_forms", "kernels.reduced_forms", "span"),
    ("_kernels", "class_number", "kernels.class_number", "span"),
    ("_kernels", "count_points", "kernels.count_points", "span"),
    ("rayclass", "ray_class_data", "rayclass.ray_class_data", "span"),
    ("rayclass", "principal_generator", "rayclass.principal_generator", "span"),
    ("search", "search_twists", "search", "span"),
    ("divpoly", "division_poly_primitive", "divpoly.division_poly_primitive", "span"),
    ("divpoly", "psi_factor_shape", "divpoly.psi_factor_shape", "span"),
    ("polyzq", "zx_factor_bounded", "polyzq.zx_factor_bounded", "span"),
    ("polyzq", "hensel_lift", "polyzq.hensel_lift", "span"),
    ("polyzq", "fp_factor_squarefree", "polyzq.fp_factor_squarefree", "span"),
    ("numfield", "dedekind_split", "numfield.dedekind_split", "span"),
    ("numfield", "zeta_in_field", "numfield.zeta_in_field", "span"),
)

ROOT_SPAN = "cli"

# spans whose first integer argument is kept as the span key: the twist
# parameter d for admissibility, the discriminant D for the kernels
KEYED = {
    "checker.admissibility_check": 2,
    "kernels.reduced_forms": 0,
    "kernels.class_number": 0,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._counters: dict[str, itertools.count] = {}
        self._stack: list[int] = []

    def counts(self) -> dict[str, int]:
        """Calls per count-only name so far; read once, at the end of the run."""
        return {name: next(counter) for name, counter in self._counters.items()}

    def begin(self, name: str, key=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, key]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name: str):
        key_pos = KEYED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = args[key_pos] if key_pos is not None and len(args) > key_pos else None
            rec = self.begin(name, key)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(rec)

        return wrapper

    def _count_wrapper(self, fn, name: str):
        # itertools.count is the cheapest counter: these run about 10^6 times a scan
        tick = self._counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target function in loaded twistsel modules."""
        replace = {}
        for mod_name, attr, name, mode in TARGETS:
            fn = getattr(sys.modules[f"twistsel.{mod_name}"], attr)
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            replace[id(fn)] = (fn, make(fn, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twistsel" or mod_name.startswith("twistsel.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _key in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return [
        (s[2] - s[1]) - _covered(children.get(i, [])) for i, s in enumerate(spans)
    ]


def layer_totals(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-name calls and self time, plus the keyed ratios, for one process."""
    out: dict[str, float] = {}
    for (name, *_), self_s in zip(spans, self_times(spans)):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
    for name, n in counts.items():
        out[f"{name}.calls"] = n
    ds = {s[4] for s in spans if s[0] == "checker.admissibility_check"}
    enum = [s[4] for s in spans if s[0] in ("kernels.reduced_forms", "kernels.class_number")]
    out["distinct_d"] = len(ds)
    out["distinct_D"] = len(set(enum))
    out["kernels.enum_steps"] = sum(math.isqrt(-D // 3) ** 2 for D in enum)
    return out
