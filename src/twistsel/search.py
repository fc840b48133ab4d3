"""Twist-parameter enumeration: scan d, filter by admissibility, attach class data.

The scan is deterministic: candidates stream in order of |d| (ascending by
default). Each scan builds one `ScanContext`: the curve's admissibility
rules, and the tables of the class-number count (`_kernels.count_tables`)
for its largest admissible |D|, built only when some d is admissible. The
squarefree sieve of `enumerate_d` is the scan's only squarefree test and
decides the four domain clauses, so the symbol rules alone
(`TwistRules.symbols_hold`) decide which d are admissible, before any report
is written. Without the inadmissible rows, only the admissible d reach
`certify`; with them, every candidate does. Each becomes a finished row from
one `certify` call, which takes the sieve's verdict and factors no d, counts
h once with the context's tables and runs the one class-group pass. The row
is the certificate's `scan_row`, a dict keyed by the scan columns that
`checker` names.

`jobs` is an upper bound on worker processes, not a request for them. The
scan always starts in-process. Once that prefix has run for `PROBE_S`, the
rest of the scan is estimated after each d as the mean time per d so far
times the number of d left to certify. When the estimate exceeds
`POOL_BREAK_EVEN_S`, the remaining d go to a pool of min(jobs, usable CPUs)
workers, which get the context once each, from the pool's initializer, and
return finished rows; otherwise the scan finishes in-process. Rows are
merged in order either way, so the output does not depend on `jobs`. The
pool's modules (`concurrent.futures` and the `multiprocessing` stack under
it) are imported only when a scan starts a pool, so importing this module
loads none of them.
"""

from __future__ import annotations

import math
import os
from enum import Enum
from functools import partial
from time import perf_counter
from typing import NamedTuple

from ._kernels import CountTables, count_tables
from .checker import SCAN_COLUMNS, TwistRules, Verdict, certify, hypothesis_check, twist_rules
from .curves import CurveQ
from .dirichlet import DirichletPredicate
from .errors import InvalidParameterError, PreconditionError, ResourceError
from .intmath import squarefree_sieve

# In-process time before the first estimate of the remaining work, so that the
# estimate does not rest on the first, cold d alone. On curve 26 with ell = 7
# from |d| = 2050, 5 ms is 15-20 of the 64 candidates in a 400-wide window.
PROBE_S = 0.005

# Estimated remaining row work above which a pool of two workers pays for
# itself. A pool costs 30-45 ms before it saves any: importing its modules
# takes 20-30 ms and starting and stopping two workers 10-15 ms. Measured on a
# 2-CPU host, one fresh process per call, the pool forced after the probe;
# medians of 7 or 11 runs (two sets where they differ), in-process / pooled s:
#   curve 26, ell = 7, from |d| = 2050: width 1600 0.044 / 0.089,
#     3200 0.098 / 0.108, 4800 0.160 / 0.160, 6400 0.136-0.182 / 0.148-0.176,
#     9600 0.292 / 0.279, 12800 0.468 / 0.332;
#   11a3, ell = 5, from |d| = 3000: width 3200 0.051 / 0.076,
#     6400 0.104 / 0.136, 12800 0.217-0.228 / 0.223-0.247,
#     25600 0.42-0.47 / 0.37-0.41, 51200 1.14 / 0.82.
POOL_BREAK_EVEN_S = 0.200

# A scan takes at most MAX_SCAN_WIDTH values of d, none below -MAX_SCAN_ABS_D,
# because its sieve holds one byte per d (with one list slot per d, a range of
# 10^8 reached 800 MiB before the first row) and lists the primes up to
# sqrt|d|. 10^7 keeps the full scan of |d| <= 2*10^6, and 10^12 is where the
# class groups stop (|D| = 4*10^12).
MAX_SCAN_WIDTH = 10**7
MAX_SCAN_ABS_D = 10**12


def _check_scan_range(lo: int, hi: int) -> None:
    if lo > hi or hi >= 0:
        raise InvalidParameterError("need lo <= hi < 0")
    if hi - lo + 1 > MAX_SCAN_WIDTH:
        raise ResourceError(f"a scan takes at most {MAX_SCAN_WIDTH} values of d")
    if -lo > MAX_SCAN_ABS_D:
        raise ResourceError(f"a scan takes no d below -{MAX_SCAN_ABS_D}")


def enumerate_d(lo: int, hi: int, ell: int, N: int):
    """Candidates d in [lo, hi] by |d| ascending.

    Each is negative, squarefree, d = 3 (mod 4) and coprime to ell N.
    """
    _check_scan_range(lo, hi)
    flags = squarefree_sieve(lo, hi)
    for d in range(hi, lo - 1, -1):
        if d % 4 != 3:
            continue
        if not flags[d - lo]:
            continue
        if math.gcd(d, ell * N) != 1:
            continue
        yield d


class SearchMode(Enum):
    COROLLARY_E = "CorollaryE"
    LOWER_BOUND_ONLY = "LowerBoundOnly"


class ScanContext(NamedTuple):
    """What one scan shares across its d: the curve's rules, and the count
    tables for the largest admissible |D| of the scan (None when no d is
    admissible)."""

    rules: TwistRules
    tables: CountTables | None


def _row(ctx: ScanContext, mode: SearchMode, d: int) -> dict:
    """The finished row for one d from `enumerate_d`, whose sieve has found it squarefree."""
    cert = certify(ctx.rules, d, squarefree=True, tables=ctx.tables)
    return cert.scan_row(mode is SearchMode.COROLLARY_E)


# a pool worker's row function, set once per worker process by `_start_worker`
_worker_row = None


def _start_worker(ctx: ScanContext, mode: SearchMode) -> None:
    global _worker_row
    _worker_row = partial(_row, ctx, mode)


def _pooled_row(d: int) -> dict:
    return _worker_row(d)


def _csv_line(cells) -> str:
    return ",".join(
        "" if v is None else ";".join(v) if isinstance(v, list) else str(v) for v in cells
    )


def csv_lines(rows: list[dict]):
    """The CSV of scan rows: a header of the scan columns, then one line per
    row, with None as an empty cell and a list as its items joined by ";"."""
    yield _csv_line(SCAN_COLUMNS)
    for row in rows:
        yield _csv_line(row[c] for c in SCAN_COLUMNS)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def search_twists(
    E: CurveQ,
    ell: int,
    lo: int,
    hi: int,
    mode: SearchMode = SearchMode.COROLLARY_E,
    predicate: DirichletPredicate | None = None,
    include_inadmissible: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Scan twist parameters for one curve; rows sorted by |d| ascending.

    `jobs` (at least 1) caps the worker processes; no more than the usable
    CPUs are started. The scan runs in-process until it has run `PROBE_S`
    and the remaining work, estimated as the mean time per d so far times
    the d left to certify, exceeds `POOL_BREAK_EVEN_S`; only then do the
    remaining d go to the pool. The rows do not depend on `jobs`. Without
    include_inadmissible, only the admissible d are certified.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be at least 1, got {jobs}")
    _check_scan_range(lo, hi)  # before the curve-level work, so a bad range gets one answer
    hyp = hypothesis_check(E, ell)
    if not hyp.ok:
        unmet = (c for c in hyp.checks if c.verdict is not Verdict.PASS)
        raise PreconditionError(
            "curve-level hypotheses fail: "
            + ", ".join(f"{c.clause_id} ({c.verdict.value})" for c in unmet)
        )
    rules = twist_rules(hyp, predicate)
    ds = list(enumerate_d(lo, hi, ell, rules.N))
    # the sieve has passed the domain clauses, so the symbols decide, at D = 4d
    admissible = [d for d in ds if rules.symbols_hold(4 * d)]
    if not include_inadmissible:
        ds = admissible
    # the count's bound sqrt(|D|/3) at the largest admissible |D|
    tables = count_tables(math.isqrt(-4 * admissible[-1] // 3)) if admissible else None
    ctx = ScanContext(rules, tables)
    row = partial(_row, ctx, mode)
    workers = min(jobs, _usable_cpus())
    found = []
    start = perf_counter()
    for done, d in enumerate(ds, 1):
        found.append(row(d))
        left = len(ds) - done
        if workers > 1 and left:
            spent = perf_counter() - start
            if spent >= PROBE_S and spent / done * left > POOL_BREAK_EVEN_S:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(
                    max_workers=workers, initializer=_start_worker, initargs=(ctx, mode)
                ) as pool:
                    found.extend(pool.map(_pooled_row, ds[done:], chunksize=16))
                break
    return found
