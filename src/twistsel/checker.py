"""Admissibility checker and certified Selmer divisibility verdicts.

Given a curve E/Q with a rational point of odd prime order ell and a twist
parameter d, this module computes the exceptional prime sets, checks every
admissibility clause (sign conditions, coprimality, quadratic symbols at the
bad primes sorted by reduction type), and emits the certified conclusions:
a lower bound ell^r | #Sel_ell(E^d, Q) through the tame ray class rank, and,
when the exceptional set above is empty, the two-sided class-group sandwich
with the nontriviality equivalence.

`hypothesis_check` looks for the torsion point first, and only then makes
the minimal model that every local fact is read on; its report carries it to
`twist_rules`, which builds the rules once per curve: the conductor, the
exceptional sets and the required Artin class at each bad prime.
`evaluate_admissibility` applies them to one d, reading only d and
the Kronecker symbols of its field discriminant. It is the one place where d
is found squarefree (by factoring it, or from a scan's sieve verdict) and D
derived. `certify` reads the same rules, so a scan does the curve-level work
once, and hands that D to the ray class layer.

Each result holds each fact once, and every clause comes from `_clause`. A
`ConditionReport` holds d's clauses and overall verdict; a `HypothesisReport`
its checks, from which `ok` and `undetermined` are read; a `SelmerBound` the
ray class rank, its bound and S_E, or why the rank is undetermined; and a
`SandwichResult` the verdict, with the class-group ell-rank r and the bounds
ell^r, ell^(2r) when S~_E is empty. A reason is derived when printed, from
`rules.ssets.s_tilde`, `Certificate.h` and `ell_rank`, not stored.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .curves import CurveQ, PointQ, check_twist_parameter, minimal_model
from .dirichlet import DirichletPredicate, minus_one_congruence_predicate
from .divpoly import ODD_TORSION_PRIMES, rational_ell_torsion_point
from .errors import InvalidParameterError, PreconditionError, ResourceError, UnsupportedError
from .intmath import is_prime, is_squarefree, kronecker
from .quadforms import class_number
from .rayclass import ray_class_data
from .reduction import (
    ReductionKind,
    SupersingularVerdict,
    bad_reductions,
    conductor_of,
    is_supersingular,
    local_reduction,
    x_has_pole_at,
)


class ArtinClass(Enum):
    SPLIT = "Split"
    INERT = "Inert"
    RAMIFIED = "Ramified"


class SSets(NamedTuple):
    """The exceptional bad-prime sets of the twist theorems.

    s_tilde: odd p | N with the ramification predicate and ell not dividing
    ord_p of the minimal discriminant; s: the subset with ord_p(j) < 0.
    """

    s_tilde: tuple[int, ...]
    s: tuple[int, ...]
    predicate_used: str


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    UNDETERMINED = "undetermined"


# the "pass" value of a verdict in output, and the verdict of such a value
_PASS_VALUE = {Verdict.PASS: True, Verdict.FAIL: False, Verdict.UNDETERMINED: None}
_VERDICT = {ok: verdict for verdict, ok in _PASS_VALUE.items()}


class Clause(NamedTuple):
    clause_id: str
    cite: str
    verdict: Verdict
    detail: str

    def to_dict(self) -> dict:
        return {
            "id": self.clause_id,
            "cite": self.cite,
            "pass": _PASS_VALUE[self.verdict],
            "detail": self.detail,
        }


def _clause(cid: str, cite: str, ok: bool | None, detail: str) -> Clause:
    """The clause cid, passed, failed or undetermined as ok is True, False or None."""
    return Clause(cid, cite, _VERDICT[ok], detail)


class Overall(Enum):
    ADMISSIBLE = "Admissible"
    INADMISSIBLE = "Inadmissible"
    UNDETERMINED = "Undetermined"


class ConditionReport(NamedTuple):
    curve: CurveQ
    ell: int
    d: int
    clauses: tuple[Clause, ...]
    overall: Overall

    def failed_clauses(self) -> list[str]:
        return [c.clause_id for c in self.clauses if c.verdict is Verdict.FAIL]

    def to_dict(self) -> dict:
        return {
            "curve": str(self.curve),
            "ell": self.ell,
            "d": self.d,
            "clauses": [c.to_dict() for c in self.clauses],
            "overall": self.overall.value,
        }


class HypothesisReport(NamedTuple):
    curve: CurveQ
    ell: int
    torsion_point: PointQ | None
    checks: tuple[Clause, ...]
    minimal: tuple[CurveQ, tuple] | None = None  # `minimal_model(curve)`, made only if P exists

    @property
    def ok(self) -> bool:
        """Every check passes."""
        return all(c.verdict is Verdict.PASS for c in self.checks)

    @property
    def undetermined(self) -> bool:
        """Some check could not be decided."""
        return any(c.verdict is Verdict.UNDETERMINED for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "curve": str(self.curve),
            "ell": self.ell,
            "torsion_point": str(self.torsion_point) if self.torsion_point else None,
            "checks": [c.to_dict() for c in self.checks],
            "ok": self.ok,
        }


# whether E is ordinary at ell, by the verdict of `is_supersingular`
_ORDINARY = {
    SupersingularVerdict.NO: True,
    SupersingularVerdict.YES: False,
    SupersingularVerdict.NOT_APPLICABLE: None,
}


def hypothesis_check(E: CurveQ, ell: int) -> HypothesisReport:
    """Curve-level hypotheses: a rational point of order ell that avoids the
    kernel of reduction at ell, and no supersingular reduction in the
    potentially good branch."""
    if ell < 5 or not is_prime(ell):
        raise UnsupportedError("the twist theorems need an odd prime ell >= 5")
    P = rational_ell_torsion_point(E, ell)
    cite = f"rational point of odd prime order {ell}"
    if P is None:
        if ell not in ODD_TORSION_PRIMES:
            detail = f"no rational point has prime order {ell} > 7 (Mazur); psi_{ell} is not built"
        else:
            detail = f"no rational root of the {ell}-division polynomial lifts to a rational point"
        return HypothesisReport(E, ell, None, (_clause("hypothesis.torsion", cite, False, detail),))
    checks = [_clause("hypothesis.torsion", cite, True, f"P = {P} has exact order {ell}")]
    E_min, transform = minimal = minimal_model(E)
    red = local_reduction(E_min, ell)  # the one reduction fact at ell that every check reads
    # the formal-group test on the minimal model detects the kernel of
    # reduction with bad reduction too
    if red.is_good:
        how = f"good reduction at {ell}; ord_{ell}(x(P)) on the minimal model decides"
    else:
        how = f"bad reduction at {ell} ({red.kodaira}); x-valuation test on the minimal model"
    cite = f"P not in the kernel of reduction mod {ell}"
    checks.append(_clause("hypothesis.kernel", cite, not x_has_pole_at(transform, P, ell), how))
    if red.ord_j_negative:
        ordinary, why = True, f"vacuous: ord_{ell}(j) < 0"
    else:
        ss = is_supersingular(E_min, red)
        ordinary, why = _ORDINARY[ss.verdict], ss.reason
    cite = f"E not supersingular mod {ell} when ord_{ell}(j) >= 0"
    checks.append(_clause("hypothesis.ordinary", cite, ordinary, why))
    return HypothesisReport(E, ell, P, tuple(checks), minimal)


class SymbolRule(NamedTuple):
    """The symbol clause at one bad prime p other than 2 and ell.

    want is the Artin class that d must have at p, with why as its reason;
    want is None when p lies in S_E and so is exempt.
    """

    p: int
    want: ArtinClass | None
    why: str


class TwistRules(NamedTuple):
    """The curve-level part of the admissibility clauses for (E, ell, predicate).

    Everything here is fixed by the curve: the conductor, the exceptional
    sets, which of the dyadic and ell clauses apply, and the symbol rule at
    each other bad prime. Only d and the quadratic symbols of D = disc
    Q(sqrt(d)) change from one twist to the next.
    """

    curve: CurveQ
    ell: int
    N: int
    ssets: SSets
    dyadic: bool  # N is even: primes above 2 must ramify
    ell_inert: bool  # ord_ell(j) < 0: d must be inert at ell
    symbols: tuple[SymbolRule, ...]


def twist_rules(hyp: HypothesisReport, predicate: DirichletPredicate | None = None) -> TwistRules:
    """The admissibility rules of (E, ell, predicate), built once per curve.

    hyp is `hypothesis_check(E, ell)`, passing or not; the rules are read on
    its minimal model, or on one made here when it holds none."""
    E, ell = hyp.curve, hyp.ell
    E_min = (hyp.minimal or minimal_model(E))[0]
    reductions = bad_reductions(E_min)  # every fact below about a bad prime is read from here
    N = conductor_of(reductions)[0]
    if predicate is None:
        pred = minus_one_congruence_predicate(ell)
        desc = pred.description
    elif predicate.ell != ell:
        raise InvalidParameterError("character order must equal ell")
    else:
        pred, desc = predicate.is_nonzero_at, predicate.describe()
    s_tilde = tuple(
        p for p, red in reductions.items() if p != 2 and pred(p) and red.ord_delta_min % ell
    )
    s = tuple(p for p in s_tilde if reductions[p].ord_j_negative)
    symbols = []
    for p, red in reductions.items():
        if p == 2 or p == ell:
            continue
        if p in s:
            symbols.append(SymbolRule(p, None, "exempt: ramification is permitted here"))
            continue
        if not red.ord_j_negative:
            want, why = ArtinClass.INERT, f"ord_{p}(j) >= 0"
        elif red.kind is ReductionKind.MULTIPLICATIVE_SPLIT:
            want, why = ArtinClass.INERT, f"split multiplicative at {p}"
        else:
            want, why = ArtinClass.SPLIT, f"ord_{p}(j) < 0, not split multiplicative at {p}"
        symbols.append(SymbolRule(p, want, why))
    ell_inert = ell in reductions and reductions[ell].ord_j_negative  # good at ell: ord_ell(j) >= 0
    return TwistRules(E, ell, N, SSets(s_tilde, s, desc), N % 2 == 0, ell_inert, tuple(symbols))


# the Artin class of a prime p in Q(sqrt(d)) from the Kronecker symbol (D/p)
_ARTIN_CLASS = {1: ArtinClass.SPLIT, -1: ArtinClass.INERT, 0: ArtinClass.RAMIFIED}


def evaluate_admissibility(
    rules: TwistRules, d: int, squarefree: bool | None = None
) -> tuple[ConditionReport, int | None]:
    """The report for the twist parameter d under the curve's rules, and the
    field discriminant D of Q(sqrt(d)); D is None when a domain clause fails,
    and then every symbol clause is undetermined.

    squarefree is a verdict on d already reached, as a scan's sieve reaches
    it; when it is None, d is factored here, after the cheap domain clauses.
    A d too hard to factor leaves squarefreeness undetermined when another
    domain clause already fails, and raises ResourceError otherwise.
    """
    check_twist_parameter(d)
    ell, N = rules.ell, rules.N
    clauses: list[Clause] = []

    def add(cid: str, cite: str, ok: bool | None, detail: str) -> None:
        clauses.append(_clause(cid, cite, ok, detail))

    g = math.gcd(d, ell * N)
    detail = f"d = {d}"
    if squarefree is None:
        try:
            squarefree = is_squarefree(d)
        except ResourceError as exc:
            if d < 0 and d % 4 == 3 and g == 1:
                raise
            detail += f"; undetermined: {exc}"
    add("domain.negative", "d < 0", d < 0, f"d = {d}")
    add("domain.squarefree", "d squarefree", squarefree, detail)
    add("domain.congruence", "d = 3 (mod 4)", d % 4 == 3, f"d mod 4 = {d % 4}")
    add("domain.coprime", "gcd(d, ell N) = 1", g == 1, f"gcd({d}, {ell}*{N}) = {g}")
    # a squarefree d = 3 (mod 4) has field discriminant 4d
    D = 4 * d if all(c.verdict is Verdict.PASS for c in clauses) else None

    def symbol(p: int) -> ArtinClass | None:
        return None if D is None else _ARTIN_CLASS[kronecker(D, p)]

    if rules.dyadic:
        sym2 = symbol(2)
        add(
            "dyadic.ramified",
            "primes above 2 in the conductor ramify in Q(sqrt(d))",
            None if sym2 is None else sym2 is ArtinClass.RAMIFIED,
            "automatic for d = 3 (mod 4): the field discriminant is 4d",
        )
    if rules.ell_inert:
        sym = symbol(ell)
        add(
            "ell.inert",
            f"ord_{ell}(j) < 0 forces d inert at {ell}",
            None if sym is None else sym is ArtinClass.INERT,
            f"symbol at {ell}: {sym.value if sym else 'skipped'}",
        )
    for rule in rules.symbols:
        p, want = rule.p, rule.want
        if want is None:
            cite = f"prime {p} lies in the exceptional set; no symbol condition"
            add(f"symbol.{p}", cite, True, rule.why)
            continue
        sym = symbol(p)
        add(
            f"symbol.{p}",
            f"quadratic symbol at {p} must be {want.value}",
            None if sym is None else sym is want,
            f"{rule.why}; symbol: {sym.value if sym else 'skipped'}",
        )
    if any(c.verdict is Verdict.FAIL for c in clauses):
        overall = Overall.INADMISSIBLE
    elif any(c.verdict is Verdict.UNDETERMINED for c in clauses):
        overall = Overall.UNDETERMINED
    else:
        overall = Overall.ADMISSIBLE
    return ConditionReport(rules.curve, ell, d, tuple(clauses), overall), D


def admissibility_check(
    E: CurveQ, ell: int, d: int, predicate: DirichletPredicate | None = None
) -> ConditionReport:
    """Clause-by-clause admissibility of the twist parameter d for (E, ell)."""
    return evaluate_admissibility(twist_rules(hypothesis_check(E, ell), predicate), d)[0]


class SelmerBound(NamedTuple):
    rank: int | None
    bound: int | None
    s_used: tuple[int, ...]
    undetermined_reason: str | None = None


class SelmerVerdict(Enum):
    NONTRIVIAL = "SelmerNontrivial"
    TRIVIAL = "SelmerTrivial"
    NOT_APPLICABLE = "NotApplicable"


class SandwichResult(NamedTuple):
    verdict: SelmerVerdict
    ell_rank: int | None = None
    lower: int | None = None
    upper: int | None = None


# the columns of a scan row, in output order
SCAN_COLUMNS = ("d", "D", "h", "ell_rank", "selmer_lb", "verdict", "failed_clauses")


class Certificate(NamedTuple):
    """Every per-d conclusion; h, bound and sandwich are None unless d is
    admissible, and D is None unless d passes the domain clauses.

    The output names of its fields are given here only: `to_dict` is the
    payload of `check`, and `scan_row` the row of a scan, keyed by SCAN_COLUMNS.
    """

    report: ConditionReport
    D: int | None = None
    h: int | None = None
    bound: SelmerBound | None = None
    sandwich: SandwichResult | None = None

    @property
    def is_undetermined(self) -> bool:
        """An admissibility clause or the ray class bound is undetermined."""
        bound = self.bound
        return self.report.overall is Overall.UNDETERMINED or bool(bound and bound.rank is None)

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        bound, sandwich = self.bound, self.sandwich
        if bound is not None:
            out["selmer_lower_bound"] = bound.bound
            out["ray_rank"] = bound.rank
            out["s_used"] = list(bound.s_used)
            out["verdict"] = sandwich.verdict.value
            if sandwich.lower is not None:
                out["bounds"] = [sandwich.lower, sandwich.upper]
            if bound.rank is None:
                out["undetermined_reason"] = bound.undetermined_reason
        return out

    def scan_row(self, with_sandwich: bool) -> dict:
        """The row of a scan: the ray-class rank and bound of an admissible d
        with the sandwich verdict (blank unless with_sandwich), or the overall
        verdict and failed clauses of any other d."""
        bound, report = self.bound, self.report
        if bound is None:
            cells = (None, None, report.overall.value, report.failed_clauses())
        else:
            verdict = self.sandwich.verdict.value if with_sandwich else ""
            cells = (bound.rank, bound.bound, verdict, [])  # an admissible d fails no clause
        return dict(zip(SCAN_COLUMNS, (report.d, self.D, self.h, *cells)))


def certify(rules: TwistRules, d: int, squarefree: bool | None = None) -> Certificate:
    """Admissibility, the Selmer lower bound and the sandwich from one class-group pass.

    One ray class computation over S_E gives both the bound and, through its
    h and class-group ell-rank, the sandwich: the sandwich needs the
    exceptional set S~_E empty, and S_E is a subset of it, so the modulus is
    trivial there. squarefree is passed on to `evaluate_admissibility`, and
    the ray class computation takes the D found there.
    """
    report, D = evaluate_admissibility(rules, d, squarefree)
    if report.overall is not Overall.ADMISSIBLE:
        return Certificate(report, D)
    ell, ssets = rules.ell, rules.ssets
    try:
        data = ray_class_data(D, ssets.s, ell)
    except (PreconditionError, UnsupportedError) as exc:
        # only a nonempty modulus can fail, so the sandwich is NotApplicable
        h = class_number(D)
        bound = SelmerBound(None, None, ssets.s, str(exc))
    else:
        h = data.h
        bound = SelmerBound(data.ell_rank, ell**data.ell_rank, ssets.s)
    if ssets.s_tilde:
        sandwich = SandwichResult(SelmerVerdict.NOT_APPLICABLE)
    else:
        r = data.cl_ell_rank
        verdict = SelmerVerdict.NONTRIVIAL if r > 0 else SelmerVerdict.TRIVIAL
        sandwich = SandwichResult(verdict, r, ell**r, ell ** (2 * r))
    return Certificate(report, D, h, bound, sandwich)


def selmer_lower_bound(
    E: CurveQ, ell: int, d: int, predicate: DirichletPredicate | None = None
) -> SelmerBound:
    """Certified divisor ell^r of #Sel_ell(E^d, Q): the tame ray class rank at S_E."""
    cert = certify(twist_rules(hypothesis_check(E, ell), predicate), d)
    if cert.bound is None:
        raise PreconditionError(
            f"d = {d} is not admissible for this curve and ell = {ell}: "
            + ", ".join(cert.report.failed_clauses() or ["undetermined clauses"])
        )
    return cert.bound


def corollary_sandwich(
    E: CurveQ, ell: int, d: int, predicate: DirichletPredicate | None = None
) -> SandwichResult:
    """Nontriviality equivalence and the two-sided bound, valid when the
    exceptional set is empty: ell^r | #Sel_ell(E^d, Q) | ell^(2r) with r the
    ell-rank of cl(Q(sqrt(d)))."""
    cert = certify(twist_rules(hypothesis_check(E, ell), predicate), d)
    if cert.sandwich is None:
        raise PreconditionError(f"d = {d} is not admissible: {cert.report.failed_clauses()}")
    return cert.sandwich
