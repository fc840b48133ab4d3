"""Run one twistsel CLI call in this fresh interpreter and report on it.

Usage: python3 perfbench/child.py REQUEST_JSON

REQUEST_JSON holds ``argv`` (the CLI arguments), ``trace`` (install the span
tracer) and ``t_spawn`` (run.py's CLOCK_MONOTONIC reading just before it
started this process).  The call goes through ``twistsel.cli.main(argv)``
in-process with stdout captured.  One JSON object is written to the real
stdout: the captured output, exit code, timings, resource use and, when
traced, the spans.
"""

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

request = json.loads(sys.argv[1])

import twistsel  # noqa: E402
import twistsel.cli  # noqa: E402

setup_s = time.monotonic() - request["t_spawn"]

tracer = None
if request["trace"]:
    sys.path.insert(0, HERE)
    from tracer import ROOT_SPAN, Tracer

    tracer = Tracer()
    tracer.install()


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mib() -> float:
    """Peak resident set of this process's own address space.

    ru_maxrss is not used for this: across exec it keeps the peak of the
    run.py process that started this one.  VmHWM starts afresh at exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


buf = io.StringIO()
error = None
cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
t0 = time.perf_counter()
with redirect_stdout(buf):
    root = tracer.begin(ROOT_SPAN) if tracer else None
    try:
        code = twistsel.cli.main(request["argv"])
    except Exception:  # reported to run.py as a failed operation
        code = None
        error = traceback.format_exc()
    finally:
        if root is not None:
            tracer.end(root)
wall_s = time.perf_counter() - t0
cpu_s = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0

report = {
    "backend": twistsel.KERNEL_BACKEND,
    "python": sys.version.split()[0],
    "code": code,
    "error": error,
    "stdout": buf.getvalue(),
    "setup_s": setup_s,
    "wall_s": wall_s,
    "cpu_s": cpu_s,
    "rss_mib": _peak_rss_mib(),
    # in KiB on Linux: the largest pool worker, forked from this process
    "workers_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
}
if tracer is not None:
    report["spans"] = tracer.spans
    report["counts"] = tracer.counts()
sys.__stdout__.write(json.dumps(report) + "\n")
