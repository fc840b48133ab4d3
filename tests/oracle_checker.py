"""Per-d admissibility oracle used by the tests.

`admissibility_check_per_d` is the clause checker as it was before the
library built each curve's rules once: for every d it derives the exceptional
sets and the clause at each bad prime again, from the conductor and the
reduction data that `_curve_facts` keeps for the last few curves, and it takes
every quadratic symbol from `artin_symbol_quadratic`, which factors d again
for the field discriminant. The exceptional sets come from
`s_sets_by_definition`, which applies the ramification predicate and the two
valuation conditions to the conductor's primes, never from `twist_rules`. The
library's rules-then-evaluate path must give the same sets, and the same
report on every d.
"""

from __future__ import annotations

import math
from functools import lru_cache

from twistsel.checker import (
    ArtinClass,
    Clause,
    ConditionReport,
    Overall,
    Verdict,
)
from twistsel.curves import CurveQ, minimal_model
from twistsel.dirichlet import DirichletPredicate
from twistsel.errors import InvalidParameterError, UnsupportedError
from twistsel.intmath import is_prime, is_squarefree, kronecker
from twistsel.quadforms import field_discriminant
from twistsel.reduction import LocalReduction, ReductionKind, conductor, local_reduction


def artin_symbol_quadratic(d: int, p: int) -> ArtinClass:
    """Behavior of p in Q(sqrt(d)): the quadratic Artin symbol.

    Ramified iff p divides the field discriminant; otherwise Split exactly
    when the Kronecker symbol of the discriminant at p is +1 (for p = 2 this
    is the d mod 8 rule).
    """
    if not is_prime(p):
        raise InvalidParameterError(f"{p} is not prime")
    D = field_discriminant(d)
    if D % p == 0:
        return ArtinClass.RAMIFIED
    return ArtinClass.SPLIT if kronecker(D, p) == 1 else ArtinClass.INERT


@lru_cache(maxsize=4)
def _curve_facts(E: CurveQ) -> tuple[int, CurveQ, dict[int, LocalReduction]]:
    """N, the minimal model, and the reduction at each p | N on it, kept so that
    a sweep over d does not remake them."""
    E_min = minimal_model(E)[0]
    N, exps = conductor(E)
    return N, E_min, {p: local_reduction(E_min, p) for p in sorted(exps)}


def s_sets_by_definition(
    E: CurveQ, ell: int, predicate: DirichletPredicate | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(S~, S) of (E, ell, predicate), read from the definition.

    S~ holds the odd p | N at which the predicate holds (p = -1 mod ell, or
    chi(p) != 0 for a character chi of order ell) and ell does not divide
    ord_p of the minimal discriminant; S holds those p of S~ with ord_p(j) < 0.
    """
    if predicate is None:
        holds = lambda p: p % ell == ell - 1  # noqa: E731
    elif predicate.ell != ell:
        raise InvalidParameterError("character order must equal ell")
    else:
        holds = lambda p: math.gcd(p, predicate.modulus) == 1  # noqa: E731
    s_tilde, s = [], []
    for p, red in _curve_facts(E)[2].items():
        if p % 2 and holds(p) and red.ord_delta_min % ell != 0:
            s_tilde.append(p)
            if red.ord_j is not None and red.ord_j < 0:
                s.append(p)
    return tuple(s_tilde), tuple(s)


def admissibility_check_per_d(
    E: CurveQ, ell: int, d: int, predicate: DirichletPredicate | None = None
) -> ConditionReport:
    """Clause-by-clause admissibility of the twist parameter d for (E, ell)."""
    if ell < 5 or not is_prime(ell):
        raise UnsupportedError("the twist theorems need an odd prime ell >= 5")
    if not isinstance(d, int) or d == 0:
        raise InvalidParameterError("twist parameter must be a nonzero integer")
    N, E_min, reductions = _curve_facts(E)
    exempt = set(s_sets_by_definition(E, ell, predicate)[1])
    clauses: list[Clause] = []

    def add(cid: str, cite: str, ok: bool | None, detail: str) -> None:
        v = Verdict.UNDETERMINED if ok is None else (Verdict.PASS if ok else Verdict.FAIL)
        clauses.append(Clause(cid, cite, v, detail))

    add("domain.negative", "d < 0", d < 0, f"d = {d}")
    add("domain.squarefree", "d squarefree", is_squarefree(d), f"d = {d}")
    add("domain.congruence", "d = 3 (mod 4)", d % 4 == 3, f"d mod 4 = {d % 4}")
    g = math.gcd(d, ell * N)
    add("domain.coprime", "gcd(d, ell N) = 1", g == 1, f"gcd({d}, {ell}*{N}) = {g}")
    viable = all(c.verdict is Verdict.PASS for c in clauses)

    if N % 2 == 0:
        sym2 = artin_symbol_quadratic(d, 2) if viable else None
        add(
            "dyadic.ramified",
            "primes above 2 in the conductor ramify in Q(sqrt(d))",
            None if sym2 is None else sym2 is ArtinClass.RAMIFIED,
            "automatic for d = 3 (mod 4): the field discriminant is 4d",
        )

    red_ell = local_reduction(E_min, ell)
    if red_ell.ord_j_negative:
        sym = artin_symbol_quadratic(d, ell) if viable else None
        add(
            "ell.inert",
            f"ord_{ell}(j) < 0 forces d inert at {ell}",
            None if sym is None else sym is ArtinClass.INERT,
            f"symbol at {ell}: {sym.value if sym else 'skipped'}",
        )
    for p, red in reductions.items():
        if p == 2 or p == ell:
            continue
        if p in exempt:
            clauses.append(
                Clause(
                    f"symbol.{p}",
                    f"prime {p} lies in the exceptional set; no symbol condition",
                    Verdict.PASS,
                    "exempt: ramification is permitted here",
                )
            )
            continue
        if not red.ord_j_negative:
            want, why = ArtinClass.INERT, f"ord_{p}(j) >= 0"
        elif red.kind is ReductionKind.MULTIPLICATIVE_SPLIT:
            want, why = ArtinClass.INERT, f"split multiplicative at {p}"
        else:
            want, why = ArtinClass.SPLIT, f"ord_{p}(j) < 0, not split multiplicative at {p}"
        sym = artin_symbol_quadratic(d, p) if viable else None
        add(
            f"symbol.{p}",
            f"quadratic symbol at {p} must be {want.value}",
            None if sym is None else sym is want,
            f"{why}; symbol: {sym.value if sym else 'skipped'}",
        )
    if any(c.verdict is Verdict.FAIL for c in clauses):
        overall = Overall.INADMISSIBLE
    elif any(c.verdict is Verdict.UNDETERMINED for c in clauses):
        overall = Overall.UNDETERMINED
    else:
        overall = Overall.ADMISSIBLE
    return ConditionReport(E, ell, d, tuple(clauses), overall)
