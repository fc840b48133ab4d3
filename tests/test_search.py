import itertools
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from forced_pool import force_pool
from oracle_rayclass import ray_class_oracle
from pinned_outputs import SEARCH_26_CSV
from twistsel import search
from twistsel.checker import Overall, certify, hypothesis_check, twist_rules
from twistsel.curves import CurveQ
from twistsel.errors import InvalidParameterError, PreconditionError, ResourceError
from twistsel.quadforms import class_number, field_discriminant
from twistsel.rayclass import ray_class_data
from twistsel.search import SearchMode, csv_lines, enumerate_d, search_twists

E11A3 = CurveQ(0, -1, 1, 0, 0)
E26 = CurveQ(1, -1, 1, -3, 3)


def test_enumerate_d_examples():
    assert list(enumerate_d(-20, -3, 5, 11)) == [-13, -17]
    assert list(enumerate_d(-3, -3, 7, 26)) == []  # -3 = 1 mod 4
    with pytest.raises(InvalidParameterError):
        list(enumerate_d(-3, -20, 5, 11))
    with pytest.raises(InvalidParameterError):
        list(enumerate_d(-20, 3, 5, 11))


def test_enumerate_d_filters():
    for d in enumerate_d(-500, -3, 5, 11):
        assert d < 0 and d % 4 == 3
        from twistsel.intmath import is_squarefree
        import math

        assert is_squarefree(d)
        assert math.gcd(d, 55) == 1


def test_search_rows_revalidate():
    rows = search_twists(E11A3, 5, -100, -3)
    assert rows  # nonempty
    rules = twist_rules(hypothesis_check(E11A3, 5))
    for row in rows:
        assert certify(rules, row["d"]).report.overall is Overall.ADMISSIBLE
        assert row["D"] == field_discriminant(row["d"])
        assert row["h"] == class_number(row["D"])
        assert row["selmer_lb"] == 5**row["ell_rank"]


def test_scan_width_and_depth_are_refused_before_the_sieve(monkeypatch):
    # a range one wider than the ceiling is refused; one at the ceiling reaches the
    # sieve, which stands in here for the allocation it would make
    class SieveReached(Exception):
        pass

    def sieve(lo, hi):
        raise SieveReached

    monkeypatch.setattr(search, "squarefree_sieve", sieve)
    width = search.MAX_SCAN_WIDTH
    with pytest.raises(ResourceError):
        list(enumerate_d(-3 - width, -3, 5, 11))
    with pytest.raises(ResourceError):
        search_twists(E11A3, 5, -3 - width, -3)
    with pytest.raises(SieveReached):
        list(enumerate_d(-2 - width, -3, 5, 11))
    with pytest.raises(SieveReached):
        search_twists(E11A3, 5, -2 - width, -3)
    # the same on both sides of the ceiling on |d|
    deepest = search.MAX_SCAN_ABS_D
    with pytest.raises(ResourceError):
        list(enumerate_d(-1 - deepest, -deepest + 399, 5, 11))
    with pytest.raises(SieveReached):
        list(enumerate_d(-deepest, -deepest + 399, 5, 11))


def test_search_row_count_and_order():
    rows = search_twists(E11A3, 5, -100, -3)
    rules = twist_rules(hypothesis_check(E11A3, 5))
    admissible = [
        d
        for d in enumerate_d(-100, -3, 5, 11)
        if certify(rules, d).report.overall is Overall.ADMISSIBLE
    ]
    assert [row["d"] for row in rows] == sorted(admissible, key=abs)
    assert len(rows) == len(set(row["d"] for row in rows))


def test_search_includes_d37():
    rows = {row["d"]: row for row in search_twists(E11A3, 5, -100, -3)}
    row = rows[-37]
    assert (row["h"], row["ell_rank"], row["selmer_lb"], row["verdict"]) == (2, 0, 1, "SelmerTrivial")


def test_search_corollary_mode_verdict_consistency():
    rows = search_twists(E11A3, 5, -400, -3)
    for row in rows:
        want = "SelmerNontrivial" if row["h"] % 5 == 0 else "SelmerTrivial"
        assert row["verdict"] == want


def test_search_explain_mode():
    rows = search_twists(E11A3, 5, -50, -3, include_inadmissible=True)
    by_d = {row["d"]: row for row in rows}
    assert by_d[-13]["verdict"] == "Inadmissible"
    assert "symbol.11" in by_d[-13]["failed_clauses"]
    # all enumerated candidates appear exactly once
    assert sorted(by_d) == sorted(enumerate_d(-50, -3, 5, 11))


def test_search_lower_bound_only_mode():
    rows = search_twists(E11A3, 5, -100, -3, mode=SearchMode.LOWER_BOUND_ONLY)
    for row in rows:
        assert row["verdict"] == ""
        assert row["selmer_lb"] is not None


def test_search_hypothesis_failure():
    with pytest.raises(PreconditionError):
        search_twists(CurveQ(0, 0, 0, 0, 1), 5, -100, -3)


def test_search_parallel_matches_serial(monkeypatch):
    handed = force_pool(monkeypatch)
    serial = search_twists(E11A3, 5, -200, -3, jobs=1)
    assert not handed
    parallel = search_twists(E11A3, 5, -200, -3, jobs=2)
    assert serial == parallel
    assert handed[-1] == list(enumerate_d(-200, -3, 5, 11))[1:]
    # S_E = {13}: pooled rows run the ray-class connecting map
    pinned = SEARCH_26_CSV.splitlines()
    for jobs in (1, 2):
        rows = search_twists(E26, 7, -120, -3, jobs=jobs)
        assert list(csv_lines(rows)) == pinned
    assert len(handed) == 2


@pytest.mark.parametrize("curve, ell", [(E11A3, 5), (E26, 7)], ids=["11a3", "26"])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(start=st.integers(min_value=3, max_value=30000))
def test_search_rows_do_not_depend_on_jobs(curve, ell, start):
    # about 60 values of |d|; curve 26 has S_E = {13}, so its rows run the
    # ray-class connecting map in the pool workers
    lo, hi = -(start + 59), -start
    serial = search_twists(curve, ell, lo, hi, include_inadmissible=True, jobs=1)
    with pytest.MonkeyPatch.context() as mp:
        handed = force_pool(mp)
        assert search_twists(curve, ell, lo, hi, include_inadmissible=True, jobs=2) == serial
    # every candidate has a row here, so the pool gets all d but the first
    assert handed == ([[row["d"] for row in serial][1:]] if len(serial) > 1 else [])


def test_search_pool_takes_over_mid_scan(monkeypatch):
    # a clock that advances 2 ms per reading: the scan reads it at its start and
    # after each d, so the probe of 5 ms ends after the third d, where
    # 2 ms x 61 candidates left passes the break-even of 30 ms
    handed = force_pool(monkeypatch, probe_s=0.005, break_even_s=0.030)
    ticks = itertools.count()
    monkeypatch.setattr(search, "perf_counter", lambda: 0.002 * next(ticks))
    lo, hi = -2449, -2050
    ds = list(enumerate_d(lo, hi, 7, 26))
    assert len(ds) == 64
    pooled = search_twists(E26, 7, lo, hi, include_inadmissible=True, jobs=2)
    assert handed == [ds[3:]]
    serial = search_twists(E26, 7, lo, hi, include_inadmissible=True, jobs=1)
    assert len(handed) == 1
    assert [row["d"] for row in pooled] == ds
    assert pooled == serial


def test_search_short_scan_starts_no_pool(monkeypatch):
    # the 400-wide windows of curve 26 from |d| = 2050 do about 25 ms of row
    # work in all, well below the pool's break-even. A clock that advances
    # 0.4 ms per reading pins that pace, whatever the load on the host: the
    # scan reads it at its start and after each d, so the estimate after the
    # k-th of its 64 candidates is 0.4 ms x (64 - k) < 60 ms
    def no_pool(*args, **kwargs):
        raise AssertionError("a short scan started the pool")

    ticks = itertools.count()
    monkeypatch.setattr(search, "perf_counter", lambda: 0.0004 * next(ticks))
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    rows = search_twists(E26, 7, -2449, -2050, jobs=2)
    assert next(ticks) == 64  # read at the start and after each d but the last
    assert rows == search_twists(E26, 7, -2449, -2050, jobs=1)


@pytest.mark.parametrize("jobs", [0, -3])
def test_search_rejects_jobs_below_one(jobs):
    with pytest.raises(InvalidParameterError):
        search_twists(E11A3, 5, -100, -3, jobs=jobs)


@pytest.mark.parametrize(
    "affinity, cpu_count, jobs, workers",
    [(4, None, 8, 4), (4, None, 3, 3), (1, None, 8, None), (None, 3, 8, 3), (None, None, 8, None)],
    ids=["affinity-caps", "jobs-caps", "one-cpu", "cpu-count", "cpu-count-unknown"],
)
def test_search_starts_no_more_workers_than_usable_cpus(
    monkeypatch, affinity, cpu_count, jobs, workers
):
    # workers = min(jobs, usable CPUs), and one usable CPU starts no pool
    started = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, ds, chunksize=1):
            return map(fn, ds)

    monkeypatch.setattr(search, "PROBE_S", 0.0)
    monkeypatch.setattr(search, "POOL_BREAK_EVEN_S", 0.0)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)))
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    rows = search_twists(E11A3, 5, -200, -3, jobs=jobs)
    assert rows == search_twists(E11A3, 5, -200, -3, jobs=1)
    assert started == ([] if workers is None else [workers])


def test_search_undetermined_bound_keeps_h():
    # d = -1 has units +-i, so the ray class bound over S_E = {13} is undetermined
    rows = search_twists(E26, 7, -8, -1)
    assert list(csv_lines(rows))[1:] == [
        "-1,-4,1,,,NotApplicable,",
        "-5,-20,2,1,7,NotApplicable,",
    ]


def test_csv_rows():
    rows = search_twists(E11A3, 5, -50, -3)
    header, *lines = csv_lines(rows)
    header_fields = header.split(",")
    assert header_fields == ["d", "D", "h", "ell_rank", "selmer_lb", "verdict", "failed_clauses"]
    assert len(lines) == len(rows)
    for line in lines:
        assert len(line.split(",")) == 7


def test_scan_ray_ranks_match_the_relation_oracle():
    """Curve 26 scan rows with S = {13} against a ray class group built from relations.

    The oracle is trusted only where its order equals the ray class number. Of
    the 97 rows of [-600, -3] that holds for the 11 d below, which have ray
    7-ranks 0, 1 and 2 (rank 2 at d = -149); on the other 86 the oracle is
    incomplete. At about 0.3 s per d only those 11 are run.
    """
    rows = {row["d"]: row for row in search_twists(E26, 7, -600, -3)}
    trusted = (-17, -29, -41, -53, -89, -101, -149, -241, -409, -521, -569)
    for d in trusted:
        order, invariants = ray_class_oracle(d, (13,))
        assert order == ray_class_data(field_discriminant(d), (13,), 7).ray_class_number, d
        assert rows[d]["ell_rank"] == sum(1 for v in invariants if v % 7 == 0), d
    assert {rows[d]["ell_rank"] for d in trusted} == {0, 1, 2}


def test_search_nonempty_s_curve():
    # E with S_E = {19}: CorollaryE rows are NotApplicable, bounds still computed
    E38 = CurveQ(1, 1, 1, 0, 1)
    rows = search_twists(E38, 5, -60, -3)
    assert rows
    for row in rows:
        assert row["verdict"] == "NotApplicable"
        assert row["selmer_lb"] is not None


def test_search_does_curve_level_work_once(monkeypatch):
    # the rules are built once per scan: twist_rules runs once and Tate's
    # algorithm (local_reduction) a fixed number of times, however many
    # candidates the range holds
    from twistsel import checker, reduction

    calls = {"twist_rules": 0, "local_reduction": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = {"twist_rules": checker.twist_rules, "local_reduction": reduction.local_reduction}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("twistsel."):
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counting(name, fn))
    seen = []
    for lo in (-400, -3000):
        for k in calls:
            calls[k] = 0
        candidates = len(list(enumerate_d(lo, -3, 5, 11)))
        rows = search_twists(E11A3, 5, lo, -3, include_inadmissible=True)
        assert len(rows) == candidates
        seen.append((candidates, dict(calls)))
    (few, first), (many, second) = seen
    assert many > 5 * few
    assert first["twist_rules"] == second["twist_rules"] == 1
    assert first["local_reduction"] == second["local_reduction"] > 0


def test_squarefreeness_is_decided_once_per_d(monkeypatch, capsys):
    # a scan takes the sieve's verdict, so certify factors no d, with or without
    # the inadmissible rows; a check factors its one d exactly once, admissible or not
    from twistsel import checker, cli, intmath

    squarefree, certify = intmath.is_squarefree, checker.certify
    inside, factored = [], []
    certified = 0

    def counting_squarefree(n):
        if inside:
            factored.append(n)
        return squarefree(n)

    def tracking_certify(*args, **kwargs):
        nonlocal certified
        certified += 1
        inside.append(True)
        try:
            return certify(*args, **kwargs)
        finally:
            inside.pop()

    originals = {"is_squarefree": (squarefree, counting_squarefree), "certify": (certify, tracking_certify)}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("twistsel."):
            for name, (fn, wrapper) in originals.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, wrapper)
    candidates = list(enumerate_d(-3399, -3000, 5, 11))
    for explain in (False, True):
        certified = 0
        rows = search_twists(E11A3, 5, -3399, -3000, include_inadmissible=explain, jobs=1)
        assert certified == len(candidates) and factored == []
        assert len(rows) == len(candidates) if explain else 0 < len(rows) < len(candidates)
    # -37 and -3001 are admissible; -38 = 2 (mod 4), -45 = -3^2 * 5, -55 shares 5 and
    # 11 with ell N, and 37 is positive
    for d in (-37, -3001, -38, -45, -55, 37):
        factored.clear()
        assert cli.main(["check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", str(d)]) == 0
        assert factored == [d]
    overall = [json.loads(line)["overall"] for line in capsys.readouterr().out.splitlines()]
    assert overall == ["Admissible"] * 2 + ["Inadmissible"] * 4


@pytest.mark.parametrize("curve, ell, start, seed", [(E11A3, 5, 3000, 11), (E26, 7, 2000, 26)])
def test_sieve_matches_the_factoring_path(monkeypatch, curve, ell, start, seed):
    # on seeded windows, the scan that takes the sieve's verdict gives the rows that
    # certify gives when it factors every d, and enumerate_d yields exactly the d of
    # the window that pass the four domain clauses on the factoring path
    from twistsel import checker
    from twistsel.checker import Verdict, evaluate_admissibility

    rules = twist_rules(hypothesis_check(curve, ell))
    rng = random.Random(seed)
    for _ in range(2):
        hi = -rng.randrange(start, 2 * start)
        lo = hi - 399
        domain = [
            d
            for d in range(hi, lo - 1, -1)
            if all(
                c.verdict is Verdict.PASS
                for c in evaluate_admissibility(rules, d)[0].clauses
                if c.clause_id.startswith("domain.")
            )
        ]
        assert list(enumerate_d(lo, hi, ell, rules.N)) == domain
        sieved = search_twists(curve, ell, lo, hi, include_inadmissible=True)
        with monkeypatch.context() as m:
            m.setattr(search, "certify", lambda rules, d, squarefree=None: checker.certify(rules, d))
            factoring = search_twists(curve, ell, lo, hi, include_inadmissible=True)
        assert sieved == factoring
        assert [row["d"] for row in sieved] == domain
