"""Twist-parameter enumeration: scan d, filter by admissibility, attach class data.

The scan is deterministic: candidates stream in order of |d| (ascending by
default), and each d becomes a finished row from one `certify` call, which
applies the curve's admissibility rules, built once per scan, and runs the
one class-group pass. With jobs > 1 the pool workers get the same rules and
return finished rows, merged in order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial

from .checker import TwistRules, certify, hypothesis_check, twist_rules
from .curves import CurveQ
from .dirichlet import DirichletPredicate
from .errors import InvalidParameterError, PreconditionError
from .intmath import squarefree_sieve


def enumerate_d(lo: int, hi: int, ell: int, N: int):
    """Candidates d in [lo, hi] by |d| ascending.

    Each is negative, squarefree, d = 3 (mod 4) and coprime to ell N.
    """
    if lo > hi or hi >= 0:
        raise InvalidParameterError("need lo <= hi < 0")
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


@dataclass(frozen=True)
class TwistCandidate:
    d: int
    D: int
    h: int | None
    ell_rank: int | None
    selmer_lower_bound: int | None
    verdict: str
    failed_clauses: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "D": self.D,
            "h": self.h,
            "ell_rank": self.ell_rank,
            "selmer_lb": self.selmer_lower_bound,
            "verdict": self.verdict,
            "failed_clauses": list(self.failed_clauses),
        }

    def to_csv_row(self) -> str:
        lb = "" if self.selmer_lower_bound is None else str(self.selmer_lower_bound)
        h = "" if self.h is None else str(self.h)
        r = "" if self.ell_rank is None else str(self.ell_rank)
        return f"{self.d},{self.D},{h},{r},{lb},{self.verdict},{';'.join(self.failed_clauses)}"


CSV_HEADER = "d,D,h,ell_rank,selmer_lb,verdict,failed_clauses"


def _row(
    rules: TwistRules, mode: SearchMode, include_inadmissible: bool, d: int
) -> TwistCandidate | None:
    """The finished row for one d, or None for an inadmissible d left out of the scan."""
    cert = certify(rules, d)
    if cert.bound is None:
        if not include_inadmissible:
            return None
        report = cert.report
        return TwistCandidate(
            d, cert.D, None, None, None, report.overall.value, tuple(report.failed_clauses())
        )
    verdict = cert.sandwich.verdict.value if mode is SearchMode.COROLLARY_E else ""
    return TwistCandidate(d, cert.D, cert.h, cert.bound.rank, cert.bound.bound, verdict, ())


def search_twists(
    E: CurveQ,
    ell: int,
    lo: int,
    hi: int,
    mode: SearchMode = SearchMode.COROLLARY_E,
    predicate: DirichletPredicate | None = None,
    include_inadmissible: bool = False,
    jobs: int = 1,
) -> list[TwistCandidate]:
    """Scan twist parameters for one curve; rows sorted by |d| ascending."""
    hyp = hypothesis_check(E, ell)
    if not hyp.ok:
        raise PreconditionError(
            "curve-level hypotheses fail: "
            + ", ".join(c.clause_id for c in hyp.checks if c.verdict.value != "pass")
        )
    rules = twist_rules(E, ell, predicate)
    ds = list(enumerate_d(lo, hi, ell, rules.N))
    row = partial(_row, rules, mode, include_inadmissible)
    if jobs > 1 and len(ds) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            found = list(pool.map(row, ds, chunksize=16))
    else:
        found = [row(d) for d in ds]
    return [r for r in found if r is not None]
