import json
import random
import sys
from fractions import Fraction

import pytest

from twistsel.checker import (
    SCAN_COLUMNS,
    ArtinClass,
    Overall,
    SelmerVerdict,
    SymbolRule,
    admissibility_check,
    certify,
    corollary_sandwich,
    evaluate_admissibility,
    hypothesis_check,
    selmer_lower_bound,
    twist_rules,
)
from oracle_checker import admissibility_check_per_d, artin_symbol_quadratic, s_sets_by_definition
from pinned_outputs import HYPOTHESIS_PINS
from twistsel import _kernels, curves, intmath, reduction
from twistsel.curves import CurveQ, curve_from_string
from twistsel.dirichlet import DirichletPredicate
from twistsel.errors import InvalidParameterError, PreconditionError, UnsupportedError
from twistsel.intmath import kronecker
from twistsel.quadforms import ell_part, field_discriminant
from twistsel.rayclass import ray_class_data

E11A3 = CurveQ(0, -1, 1, 0, 0)
E38 = CurveQ(1, 1, 1, 0, 1)  # rational 5-torsion, S_E = {19}
E19 = curve_from_string("[0,1,1,-9,-15]")  # conductor 19
# the curve-level rules, built once; each d is certified from them
RULES_11A3 = twist_rules(hypothesis_check(E11A3, 5))
RULES_38 = twist_rules(hypothesis_check(E38, 5))


def test_artin_symbol_examples():
    assert artin_symbol_quadratic(-7, 11) is ArtinClass.SPLIT
    assert artin_symbol_quadratic(-5, 5) is ArtinClass.RAMIFIED
    assert artin_symbol_quadratic(-37, 11) is ArtinClass.INERT
    assert artin_symbol_quadratic(-7, 2) is ArtinClass.SPLIT  # -7 = 1 mod 8
    assert artin_symbol_quadratic(-3, 2) is ArtinClass.INERT  # -3 = 5 mod 8
    assert artin_symbol_quadratic(-13, 2) is ArtinClass.RAMIFIED  # even discriminant


def test_artin_symbol_matches_kronecker():
    for d in (-1, -2, -3, -5, -7, -11, -13, -37, -181):
        D = field_discriminant(d)
        for p in (2, 3, 5, 7, 11, 13):
            sym = artin_symbol_quadratic(d, p)
            k = kronecker(D, p)
            want = {1: ArtinClass.SPLIT, -1: ArtinClass.INERT, 0: ArtinClass.RAMIFIED}[k]
            assert sym is want


def test_s_sets_11a3():
    ss = twist_rules(hypothesis_check(E11A3, 5)).ssets
    assert ss.s_tilde == () and ss.s == ()  # 11 = 1 mod 5


def test_s_sets_with_19():
    # 19 = -1 mod 5 and ord_19(j) < 0 on these curves
    ss = twist_rules(hypothesis_check(E38, 5)).ssets
    assert ss.s_tilde == (19,) and ss.s == (19,)
    ss2 = twist_rules(hypothesis_check(E19, 5)).ssets
    assert 19 in ss2.s_tilde


def test_s_sets_definitional_congruence():
    for E in (E11A3, E38, E19):
        ss = twist_rules(hypothesis_check(E, 7)).ssets
        for p in ss.s_tilde:
            assert p % 7 == 6


def test_s_sets_with_character():
    # chi mod 11 of order 5: chi(11) = 0 excludes 11; all other bad primes stay
    chi = DirichletPredicate(11, 5, (1,))
    ss = twist_rules(hypothesis_check(E11A3, 5), chi).ssets
    assert ss.s_tilde == ()
    chi19 = DirichletPredicate(11, 5, (1,))
    ss38 = twist_rules(hypothesis_check(E38, 5), chi19).ssets
    assert ss38.s_tilde == (19,)
    with pytest.raises(InvalidParameterError, match="character order must equal ell"):
        twist_rules(hypothesis_check(E11A3, 7), chi)


def test_hypothesis_check():
    rep = hypothesis_check(E11A3, 5)
    assert rep.ok and str(rep.torsion_point) == "(0,0)"
    rep_no = hypothesis_check(CurveQ(0, 0, 0, 0, 1), 5)
    assert not rep_no.ok
    assert any(c.clause_id == "hypothesis.torsion" for c in rep_no.checks)
    with pytest.raises(UnsupportedError):
        hypothesis_check(CurveQ(0, 0, 0, 0, 1), 3)


def test_hypothesis_check_bad_reduction_branch():
    # E38 has ord_19(j) < 0 but good reduction at 5; also test a curve with
    # multiplicative reduction at ell itself: 11a3 with ell = 11 is rejected
    # (11 > 7 never has rational 11-torsion, but the machinery must not crash)
    rep = hypothesis_check(E38, 5)
    assert rep.ok


def test_hypothesis_reports_are_pinned():
    for curve, ell, want in HYPOTHESIS_PINS:
        rep = hypothesis_check(curve_from_string(curve), ell)
        assert json.dumps(rep.to_dict(), sort_keys=True, separators=(",", ":")) == want, curve


def _patch_every_binding(monkeypatch, fn, replacement):
    """Replace fn by replacement wherever a loaded twistsel module binds it."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("twistsel") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, replacement)


def _count_calls(monkeypatch, *fns):
    """The arguments of every call to each of fns from now on, by function name."""
    calls = {fn.__name__: [] for fn in fns}
    for fn in fns:
        def counting(*args, fn=fn):
            calls[fn.__name__].append(args)
            return fn(*args)

        _patch_every_binding(monkeypatch, fn, counting)
    return calls


@pytest.mark.parametrize(
    "curve, ell, most",
    [
        ("[0,-1,1,0,0]", 5, 2),  # 11a3: once at 5, once at 11
        ("[1,-1,1,-3,3]", 7, 3),  # curve 26: once at 7, 2 and 13
        ("[0,0,0,13674069,324405221670]", 13, 3),  # the golden suite's 13-torsion curve
        ("[1,1,1,-3,1]", 5, 3),  # 50b1: additive at 5, no twist built
    ],
)
def test_curve_level_work_runs_tate_a_bounded_number_of_times(monkeypatch, curve, ell, most):
    # nothing is cached, so these counts are the work done: hypothesis_check makes
    # the minimal model and runs Tate's algorithm once at ell, and twist_rules
    # reads that model (or makes it, when the report holds none) and runs Tate's
    # algorithm once at each bad prime; a change that repeats curve-level work
    # raises a count and fails here
    calls = _count_calls(monkeypatch, reduction.local_reduction, curves.minimal_model)
    E = curve_from_string(curve)
    twist_rules(hypothesis_check(E, ell))
    assert 0 < len(calls["local_reduction"]) <= most, calls
    assert calls["minimal_model"] == [(E,)]


@pytest.mark.parametrize(
    "curve, ell", [("[0,-1,1,0,0]", 7), ("[0,0,0,13674069,324405221670]", 13)], ids=["11a3", "E13"]
)
def test_hypothesis_report_without_the_point_makes_no_model(monkeypatch, curve, ell):
    # the torsion point is looked for first: without it, no minimal model is made
    # and no discriminant is factored before the report is returned
    def refuse(*args):
        raise AssertionError("curve-level work before the torsion report")

    for fn in (curves.minimal_model, intmath.factorint):
        _patch_every_binding(monkeypatch, fn, refuse)
    rep = hypothesis_check(curve_from_string(curve), ell)
    assert rep.torsion_point is None and rep.minimal is None
    assert [c.clause_id for c in rep.checks] == ["hypothesis.torsion"] and not rep.ok


def test_admissibility_11a3():
    rep = certify(RULES_11A3, -37).report
    assert rep.overall is Overall.ADMISSIBLE
    rep13 = certify(RULES_11A3, -13).report
    assert rep13.overall is Overall.INADMISSIBLE
    assert rep13.failed_clauses() == ["symbol.11"]
    rep5 = certify(RULES_11A3, -5).report
    assert rep5.overall is Overall.INADMISSIBLE
    assert "domain.coprime" in rep5.failed_clauses()
    rep_pos = certify(RULES_11A3, 3).report
    assert "domain.negative" in rep_pos.failed_clauses()
    rep_sq = certify(RULES_11A3, -9).report
    assert "domain.squarefree" in rep_sq.failed_clauses()
    rep_cong = certify(RULES_11A3, -33 + 32).report  # -1 = 3 mod 4 actually
    assert rep_cong.overall in (Overall.ADMISSIBLE, Overall.INADMISSIBLE)


def test_admissibility_clause_soundness():
    # every Admissible report is re-derivable clause by clause
    from twistsel.intmath import is_squarefree
    from twistsel.reduction import ReductionKind, bad_reductions, conductor, local_reduction
    import math

    for d in (-37, -181, -53, -89):
        rep = certify(RULES_11A3, d).report
        assert rep.overall is Overall.ADMISSIBLE
        N, _ = conductor(E11A3)
        assert d < 0 and d % 4 == 3 and is_squarefree(d)
        assert math.gcd(d, 5 * N) == 1
        for p in bad_reductions(E11A3):
            if p == 2 or p == 5:
                continue
            red = local_reduction(E11A3, p)
            sym = artin_symbol_quadratic(d, p)
            if not red.ord_j_negative or red.kind is ReductionKind.MULTIPLICATIVE_SPLIT:
                assert sym is ArtinClass.INERT
            else:
                assert sym is ArtinClass.SPLIT


def test_exemption_for_s_primes():
    # 19 in S_E: no symbol requirement may be emitted for it
    rep = certify(RULES_38, -21).report
    sym19 = [c for c in rep.clauses if c.clause_id == "symbol.19"]
    assert len(sym19) == 1
    assert "exempt" in sym19[0].detail
    # and the dyadic clause is present because 2 | 38
    assert any(c.clause_id == "dyadic.ramified" for c in rep.clauses)


def test_report_json_schema():
    rep = certify(RULES_11A3, -37).report
    payload = rep.to_dict()
    assert set(payload) == {"curve", "ell", "d", "clauses", "overall"}
    for clause in payload["clauses"]:
        assert set(clause) == {"id", "cite", "pass", "detail"}
    # byte stability
    a = json.dumps(payload, sort_keys=True)
    b = json.dumps(certify(RULES_11A3, -37).report.to_dict(), sort_keys=True)
    assert a == b


def test_selmer_lower_bound_trivial_s():
    sb = certify(RULES_11A3, -37).bound
    assert (sb.rank, sb.bound, sb.s_used) == (0, 1, ())
    sb181 = certify(RULES_11A3, -181).bound
    assert (sb181.rank, sb181.bound) == (1, 5)
    assert certify(RULES_11A3, -13).bound is None


def test_selmer_lower_bound_nonempty_s():
    # E38: S_E = {19}; the bound must match the ray class rank directly
    for d in (-21, -33, -37):
        cert = certify(RULES_38, d)
        if cert.report.overall is not Overall.ADMISSIBLE:
            continue
        sb = cert.bound
        assert sb.s_used == (19,)
        assert sb.rank == ray_class_data(field_discriminant(d), (19,), 5).ell_rank
        assert sb.bound == 5**sb.rank
        # the ray rank is at least the plain class-group rank
        assert sb.rank >= ell_part(field_discriminant(d), 5).rank


def test_corollary_sandwich():
    res = certify(RULES_11A3, -37).sandwich
    assert res.verdict is SelmerVerdict.TRIVIAL and (res.lower, res.upper) == (1, 1)
    res181 = certify(RULES_11A3, -181).sandwich
    assert res181.verdict is SelmerVerdict.NONTRIVIAL and (res181.lower, res181.upper) == (5, 25)
    # monotone in the class group: verdict is determined by the ell-rank
    assert res181.ell_rank == ell_part(-724, 5).rank


def test_corollary_not_applicable_when_s_nonempty():
    cert = certify(RULES_38, -21)
    assert cert.report.overall is Overall.ADMISSIBLE
    assert cert.sandwich.verdict is SelmerVerdict.NOT_APPLICABLE


def test_the_traced_wrappers_agree_with_certify():
    # admissibility_check, selmer_lower_bound and corollary_sandwich redo the
    # curve-level work on each call, as the benchmark's tracer times them;
    # each is the matching part of one certificate
    for E, rules, d in ((E11A3, RULES_11A3, -181), (E11A3, RULES_11A3, -37), (E38, RULES_38, -21)):
        cert = certify(rules, d)
        assert admissibility_check(E, 5, d) == cert.report
        assert selmer_lower_bound(E, 5, d) == cert.bound
        assert corollary_sandwich(E, 5, d) == cert.sandwich
    assert admissibility_check(E11A3, 5, -13) == certify(RULES_11A3, -13).report
    with pytest.raises(PreconditionError, match="symbol.11"):
        selmer_lower_bound(E11A3, 5, -13)
    with pytest.raises(PreconditionError, match="symbol.11"):
        corollary_sandwich(E11A3, 5, -13)


def test_determinism():
    a = certify(twist_rules(hypothesis_check(E11A3, 5)), -37)
    b = certify(twist_rules(hypothesis_check(E11A3, 5)), -37)
    assert a == b
    assert twist_rules(hypothesis_check(E11A3, 5)).ssets[:2] == s_sets_by_definition(E11A3, 5)


def test_tate_curve_at_ell_branch():
    # split multiplicative at ell = 5 with a rational 5-torsion point: the
    # hypothesis check runs through the bad-reduction kernel branch and the
    # admissibility report carries the inertness clause at 5
    E = CurveQ(-4, -5, -5, 0, 0)
    from twistsel.reduction import ReductionKind, local_reduction

    red = local_reduction(E, 5)
    assert red.kind is ReductionKind.MULTIPLICATIVE_SPLIT and red.ord_j == -5
    rep = hypothesis_check(E, 5)
    assert rep.ok
    kernel = [c for c in rep.checks if c.clause_id == "hypothesis.kernel"]
    assert "bad reduction" in kernel[0].detail
    ordinary = [c for c in rep.checks if c.clause_id == "hypothesis.ordinary"]
    assert "vacuous" in ordinary[0].detail
    # d = -2 is 2 mod 4, d = -13: kronecker(-52, 5) = ? choose d by the clause
    found_inert = found_split = None
    rules = twist_rules(rep)
    for d in (-13, -17, -21, -29, -33, -37, -41, -53):
        rep_d = certify(rules, d).report
        clauses = {c.clause_id: c for c in rep_d.clauses}
        if "ell.inert" not in clauses:
            continue
        if clauses["ell.inert"].verdict.value == "pass" and found_inert is None:
            found_inert = d
        if clauses["ell.inert"].verdict.value == "fail" and found_split is None:
            found_split = d
    assert found_inert is not None and found_split is not None
    assert artin_symbol_quadratic(found_inert, 5) is ArtinClass.INERT
    assert artin_symbol_quadratic(found_split, 5) is ArtinClass.SPLIT


def test_ell_7_pipeline():
    # 7-torsion curve of conductor 26; 13 = -1 mod 7 sits in the exceptional set
    E26 = curve_from_string("[1,-1,1,-3,3]")
    assert hypothesis_check(E26, 7).ok
    rules = twist_rules(hypothesis_check(E26, 7))
    assert rules.ssets.s_tilde == (13,) and rules.ssets.s == (13,)
    cert = certify(rules, -5)
    assert cert.report.overall is Overall.ADMISSIBLE
    sb = cert.bound
    # the whole bound comes from the ray part: h(-20) = 2 has no 7-torsion
    assert sb.s_used == (13,) and sb.bound == 7
    assert ell_part(-20, 7).rank == 0
    assert sb.rank == ray_class_data(-20, (13,), 7).ell_rank


def test_scan_row_and_check_payload_read_one_certificate():
    # the scan's ell_rank and selmer_lb are the check's ray_rank and
    # selmer_lower_bound; an inadmissible d has neither, and its row names why
    rules = twist_rules(hypothesis_check(E26, 7))
    for d, undetermined in ((-5, False), (-1, True), (-13, False)):
        cert = certify(rules, d)
        row, payload = cert.scan_row(True), cert.to_dict()
        assert tuple(row) == SCAN_COLUMNS
        assert (row["d"], row["h"], row["failed_clauses"]) == (d, cert.h, cert.report.failed_clauses())
        assert row["ell_rank"] == payload.get("ray_rank")
        assert row["selmer_lb"] == payload.get("selmer_lower_bound")
        assert cert.is_undetermined is undetermined
        assert cert.scan_row(with_sandwich=False)["verdict"] == ("" if cert.bound else row["verdict"])
    assert row["verdict"] == "Inadmissible" and "ray_rank" not in payload


E26 = CurveQ(1, -1, 1, -3, 3)


def test_certify_counts_h_once_per_admissible_d(monkeypatch):
    # curve 26, ell = 7: S = {13}, so each admissible d takes the ray class
    # step, and d = -1 (D = -4, more units) is refused it; either way h is
    # counted once, and not at all for an inadmissible d
    counted = []
    count = _kernels.class_number

    def counting(D, tables=None):
        counted.append(D)
        return count(D, tables)

    for name, mod in list(sys.modules.items()):
        if name.startswith("twistsel"):
            for attr in [attr for attr, value in vars(mod).items() if value is count]:
                monkeypatch.setattr(mod, attr, counting)
    rules = twist_rules(hypothesis_check(E26, 7))
    certs = [certify(rules, d) for d in range(-400, 0)]
    admissible = [c.D for c in certs if c.report.overall is Overall.ADMISSIBLE]
    assert len(admissible) == 65 and counted == admissible
    assert certs[-1].D == -4 and certs[-1].bound.rank is None


@pytest.mark.parametrize("E, ell", [(E11A3, 5), (E26, 7)], ids=["11a3", "26"])
def test_torsion_proof_lifts_roots_and_checks_the_point_once(monkeypatch, E, ell):
    """The roots of psi_ell are lifted with no polynomial gcdex, and point_order
    checks the candidate point on the curve once, not at every addition."""
    from twistsel import polyzq
    from twistsel.curves import PointQ

    gcdex, checked = [], []
    fp_gcdex, on_curve = polyzq._fp_gcdex, PointQ.on_curve
    monkeypatch.setattr(polyzq, "_fp_gcdex", lambda *a: gcdex.append(a) or fp_gcdex(*a))
    monkeypatch.setattr(PointQ, "on_curve", lambda P, C: checked.append(P) or on_curve(P, C))
    rep = hypothesis_check(E, ell)
    assert rep.ok and rep.torsion_point is not None
    assert gcdex == []
    assert checked == [rep.torsion_point]


@pytest.mark.parametrize("E, ell", [(E11A3, 5), (E26, 7)], ids=["11a3", "26"])
def test_torsion_search_runs_no_factorizer(monkeypatch, E, ell):
    """The rational roots of psi_ell come from its roots at one small prime: no
    squarefree test, distinct- or equal-degree factorization, or bounded Zassenhaus."""
    from twistsel import divpoly, polyzq

    calls = []
    for mod, name in [(polyzq, "fp_ddf"), (polyzq, "fp_edf"), (polyzq, "fp_is_squarefree"),
                      (polyzq, "zx_factor_bounded"), (divpoly, "zx_factor_bounded")]:
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    rep = hypothesis_check(E, ell)
    assert rep.ok and rep.torsion_point is not None
    assert calls == []


def _fraction_constructions(f) -> int:
    """Fractions made while f runs, counted with sys.setprofile: calls of
    Fraction.__new__ and, where it exists, of Fraction._from_coprime_ints, which
    the arithmetic operators use in place of __new__ from CPython 3.12 on."""
    makers = (Fraction.__new__, getattr(Fraction, "_from_coprime_ints", None))
    codes, calls = {m.__code__ for m in makers if m is not None}, []
    sys.setprofile(lambda fr, event, _: event == "call" and fr.f_code in codes and calls.append(1))
    try:
        f()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("E, ell", [(E11A3, 5), (E26, 7)], ids=["11a3", "26"])
def test_hypothesis_check_of_an_integral_curve_runs_on_ints(E, ell):
    # 285 and 322 Fractions were made (CPython 3.11) when the order proof, the
    # transforms and the minimal model's (u, r, s, t) ran in Fractions on these curves
    assert _fraction_constructions(lambda: Fraction(1, 3) + Fraction(1, 5)) == 3  # sum counted
    assert _fraction_constructions(lambda: hypothesis_check(E, ell)) <= 100


def _differences_from_oracle(rules, ds, predicate=None):
    """What the rules get wrong against the per-d oracle: their S-sets, if
    those differ from the definition's, and each d whose report or D differs."""
    E, ell = rules.curve, rules.ell
    wrong = []
    if rules.ssets[:2] != s_sets_by_definition(E, ell, predicate):
        wrong.append("ssets")
    for d in ds:
        report, D = evaluate_admissibility(rules, d)
        want = admissibility_check_per_d(E, ell, d, predicate)
        if D is None:
            right_d = any(cid.startswith("domain.") for cid in want.failed_clauses())
        else:
            right_d = D == field_discriminant(d)
        if report.to_dict() != want.to_dict() or not right_d:
            wrong.append(d)
    return wrong


def _same_as_oracle(E, ell, ds, predicate=None):
    assert _differences_from_oracle(twist_rules(hypothesis_check(E, ell), predicate), ds, predicate) == []


@pytest.mark.parametrize("E, ell", [(E11A3, 5), (E26, 7)], ids=["11a3", "26"])
def test_rules_match_the_per_d_oracle(E, ell):
    # every integer d: non-squarefree, even, positive and non-coprime ones too
    _same_as_oracle(E, ell, [d for d in range(-3000, 3001) if d])


@pytest.mark.parametrize("E, ell", [(E11A3, 5), (E26, 7)], ids=["11a3", "26"])
def test_rules_match_the_per_d_oracle_far_out(E, ell):
    rng = random.Random(11)
    near = [-200000 - rng.randrange(20000) for _ in range(300)]
    far = [-100000000 - rng.randrange(10**6) for _ in range(100)]
    _same_as_oracle(E, ell, near + far)


@pytest.mark.parametrize(
    "E, ell, modulus",
    [(E11A3, 5, 11), (E11A3, 5, 25), (E38, 5, 11), (E26, 7, 29), (E26, 7, 49)],
    ids=["11a3-mod11", "11a3-mod25", "38-mod11", "26-mod29", "26-mod49"],
)
def test_rules_match_the_per_d_oracle_with_a_character(E, ell, modulus):
    chi = DirichletPredicate(modulus, ell, (1,))
    _same_as_oracle(E, ell, [d for d in range(-1500, 1501) if d], chi)


@pytest.mark.parametrize(
    "curve, ell",
    [
        ("[-4,-5,-5,0,0]", 5),  # split multiplicative at ell: the ell.inert clause
        ("[1,1,1,-10,-10]", 7),  # I4 at 3 and 5
        ("[0,-1,0,-4,4]", 5),  # additive at 2, I2 at 3
        ("[0,0,0,0,1]", 5),  # additive at 2 and 3 with ord_p(j) >= 0
        ("[1,0,0,-1,0]", 7),  # 13 = -1 mod 7
        ("[0,1,1,-9,-15]", 5),  # 19 = -1 mod 5: exempt from its symbol clause
        ("[-18,-19,-19,0,0]", 5),  # Tate normal form b = 19: 5 | ord_19(disc) keeps 19 out of S~
    ],
)
def test_rules_match_the_per_d_oracle_on_other_reduction_types(curve, ell):
    _same_as_oracle(curve_from_string(curve), ell, [d for d in range(-600, 601) if d])


def test_rules_refuse_what_the_oracle_refuses():
    for ell, d in ((3, -7), (5, 0)):
        with pytest.raises((UnsupportedError, InvalidParameterError)) as got:
            certify(twist_rules(hypothesis_check(E11A3, ell)), d)
        with pytest.raises(type(got.value)):
            admissibility_check_per_d(E11A3, ell, d)


def test_the_oracle_catches_a_planted_s_set_rule():
    # 3 is bad for y^2 = x^3 + 1 with ord_3(j) = +infinity, so it is never in S;
    # rules that put it there, exempt from its symbol clause, must be caught
    E = CurveQ(0, 0, 0, 0, 1)
    rules = twist_rules(hypothesis_check(E, 5))
    assert rules.ssets[:2] == ((), ())
    assert [(r.clause_id, r.p) for r in rules.symbols] == [("dyadic.ramified", 2), ("symbol.3", 3)]
    exempt = SymbolRule(
        "symbol.3",
        "prime 3 lies in the exceptional set; no symbol condition",
        3,
        None,
        "exempt: ramification is permitted here",
    )
    planted = rules._replace(
        ssets=rules.ssets._replace(s_tilde=(3,), s=(3,)),
        symbols=(rules.symbols[0], exempt),
    )
    ds = [d for d in range(-600, 601) if d]
    assert _differences_from_oracle(rules, ds) == []
    wrong = _differences_from_oracle(planted, ds)
    assert wrong[0] == "ssets" and len(wrong) > 1
