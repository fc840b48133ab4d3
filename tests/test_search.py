import sys

import pytest
from hypothesis import given, settings, strategies as st

from pinned_outputs import SEARCH_26_CSV
from twistsel.checker import Overall, admissibility_check
from twistsel.curves import CurveQ
from twistsel.errors import InvalidParameterError, PreconditionError
from twistsel.quadforms import class_number, field_discriminant
from twistsel.search import CSV_HEADER, SearchMode, enumerate_d, search_twists

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
    for row in rows:
        rep = admissibility_check(E11A3, 5, row.d)
        assert rep.overall is Overall.ADMISSIBLE
        assert row.D == field_discriminant(row.d)
        assert row.h == class_number(row.D)
        assert row.selmer_lower_bound == 5**row.ell_rank


def test_search_row_count_and_order():
    rows = search_twists(E11A3, 5, -100, -3)
    admissible = [
        d
        for d in enumerate_d(-100, -3, 5, 11)
        if admissibility_check(E11A3, 5, d).overall is Overall.ADMISSIBLE
    ]
    assert [row.d for row in rows] == sorted(admissible, key=abs)
    assert len(rows) == len(set(row.d for row in rows))


def test_search_includes_d37():
    rows = {row.d: row for row in search_twists(E11A3, 5, -100, -3)}
    row = rows[-37]
    assert (row.h, row.ell_rank, row.selmer_lower_bound, row.verdict) == (2, 0, 1, "SelmerTrivial")


def test_search_corollary_mode_verdict_consistency():
    rows = search_twists(E11A3, 5, -400, -3)
    for row in rows:
        want = "SelmerNontrivial" if row.h % 5 == 0 else "SelmerTrivial"
        assert row.verdict == want


def test_search_explain_mode():
    rows = search_twists(E11A3, 5, -50, -3, include_inadmissible=True)
    by_d = {row.d: row for row in rows}
    assert by_d[-13].verdict == "Inadmissible"
    assert "symbol.11" in by_d[-13].failed_clauses
    # all enumerated candidates appear exactly once
    assert sorted(by_d) == sorted(enumerate_d(-50, -3, 5, 11))


def test_search_lower_bound_only_mode():
    rows = search_twists(E11A3, 5, -100, -3, mode=SearchMode.LOWER_BOUND_ONLY)
    for row in rows:
        assert row.verdict == ""
        assert row.selmer_lower_bound is not None


def test_search_hypothesis_failure():
    with pytest.raises(PreconditionError):
        search_twists(CurveQ(0, 0, 0, 0, 1), 5, -100, -3)


def test_search_parallel_matches_serial():
    serial = search_twists(E11A3, 5, -200, -3, jobs=1)
    parallel = search_twists(E11A3, 5, -200, -3, jobs=2)
    assert serial == parallel
    # S_E = {13}: pooled rows run the ray-class connecting map
    pinned = SEARCH_26_CSV.splitlines()
    for jobs in (1, 2):
        rows = search_twists(E26, 7, -120, -3, jobs=jobs)
        assert [CSV_HEADER] + [row.to_csv_row() for row in rows] == pinned


@pytest.mark.parametrize("curve, ell", [(E11A3, 5), (E26, 7)], ids=["11a3", "26"])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(start=st.integers(min_value=3, max_value=30000))
def test_search_rows_do_not_depend_on_jobs(curve, ell, start):
    # about 60 values of |d|; curve 26 has S_E = {13}, so its rows run the
    # ray-class connecting map in the pool workers
    lo, hi = -(start + 59), -start
    serial = search_twists(curve, ell, lo, hi, include_inadmissible=True, jobs=1)
    assert search_twists(curve, ell, lo, hi, include_inadmissible=True, jobs=2) == serial


def test_search_undetermined_bound_keeps_h():
    # d = -1 has units +-i, so the ray class bound over S_E = {13} is undetermined
    rows = search_twists(E26, 7, -8, -1)
    assert [row.to_csv_row() for row in rows] == [
        "-1,-4,1,,,NotApplicable,",
        "-5,-20,2,1,7,NotApplicable,",
    ]


def test_csv_rows():
    rows = search_twists(E11A3, 5, -50, -3)
    header_fields = CSV_HEADER.split(",")
    assert header_fields == ["d", "D", "h", "ell_rank", "selmer_lb", "verdict", "failed_clauses"]
    for row in rows:
        assert len(row.to_csv_row().split(",")) == 7


def test_search_nonempty_s_curve():
    # E with S_E = {19}: CorollaryE rows are NotApplicable, bounds still computed
    E38 = CurveQ(1, 1, 1, 0, 1)
    rows = search_twists(E38, 5, -60, -3)
    assert rows
    for row in rows:
        assert row.verdict == "NotApplicable"
        assert row.selmer_lower_bound is not None


def test_search_does_curve_level_work_once(monkeypatch):
    # the rules are built once per scan: compute_s_sets runs once and conductor
    # a fixed number of times, however many candidates the range holds
    from twistsel import checker, reduction

    calls = {"compute_s_sets": 0, "conductor": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = {"compute_s_sets": checker.compute_s_sets, "conductor": reduction.conductor}
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
    assert first["compute_s_sets"] == second["compute_s_sets"] == 1
    assert first["conductor"] == second["conductor"]
