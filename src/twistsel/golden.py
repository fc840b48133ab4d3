"""Built-in golden verification suite behind the verify-paper-examples command.

Each case reproduces one of the pinned reference computations: the cubic
quartic shape of the 3-division polynomial, the conductor-11 curve's local
data and 5-torsion, the degree-84 division polynomial pipeline on the large
13-torsion example (cubic factor, splitting of 2, root-of-unity exclusion,
ordinary reduction), and an end-to-end admissibility scan with the certified
class-group verdicts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .checker import Overall, SelmerVerdict, certify, hypothesis_check, twist_rules
from .curves import CurveQ, PointQ, minimal_model
from .divpoly import division_polynomial, psi_factor_shape
from .numfield import NO, dedekind_split, number_field, zeta_in_field
from .reduction import (
    ReductionKind,
    SupersingularVerdict,
    conductor,
    is_supersingular,
    local_reduction,
)

CURVE_11A3 = CurveQ(0, -1, 1, 0, 0)
CURVE_13TORS = CurveQ(0, 0, 0, 13674069, 324405221670)


class CaseResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _case_psi3_shape() -> CaseResult:
    a, b = 2, 3
    psi = division_polynomial(CurveQ(0, 0, 0, a, b), 3)
    expect = tuple(Fraction(c) for c in (-a * a, 12 * b, 6 * a, 0, 3))
    ok = psi.coeffs == expect
    return CaseResult(
        "psi3-quartic-shape", ok, "3x^4 + 6ax^2 + 12bx - a^2 on a short model"
    )


def _case_conductor11() -> CaseResult:
    E = CURVE_11A3
    checks = []
    checks.append(E.disc == -11)
    checks.append(E.j == Fraction(-4096, 11))
    checks.append(conductor(E)[0] == 11)
    red = local_reduction(E, 11)  # 11a3 is its own minimal model
    checks.append(red.kodaira == "I1")
    checks.append(red.kind is ReductionKind.MULTIPLICATIVE_SPLIT)
    # the torsion point (0, 0) of order 5, outside the kernel of reduction, ordinary at 5
    hyp = hypothesis_check(E, 5)
    checks.append(hyp.ok and hyp.torsion_point == PointQ(0, 0))
    return CaseResult(
        "conductor-11-curve",
        all(checks),
        "disc -11, j -4096/11, N = 11, split I1, 5-torsion (0,0) ordinary at 5",
    )


def _case_degree84_pipeline() -> CaseResult:
    E = CURVE_13TORS
    shape = psi_factor_shape(E, 13, 6)
    cubics = [list(g) for deg, g in shape.factors if deg == 3]
    if not cubics:
        return CaseResult("degree84-pipeline", False, "no cubic factor found in psi_13")
    K = number_field(cubics[0])
    split2 = dedekind_split(K, 2)
    ok_split = split2 != "Undetermined" and split2.shape == ((1, 1), (1, 1), (1, 1))
    ok_zeta = zeta_in_field(K, 13) == NO
    E_min = minimal_model(E)[0]
    ss = is_supersingular(E_min, local_reduction(E_min, 13))
    ok_ss = ss.verdict is SupersingularVerdict.NO
    ok = ok_split and ok_zeta and ok_ss
    return CaseResult(
        "degree84-pipeline",
        ok,
        f"cubic factor found; 2 splits completely: {ok_split}; "
        f"13th roots of unity excluded: {ok_zeta}; ordinary at 13: {ok_ss}",
    )


def _case_scan() -> CaseResult:
    E = CURVE_11A3
    hyp = hypothesis_check(E, 5)
    rules = twist_rules(hyp)
    c37, c13, c181 = (certify(rules, d) for d in (-37, -13, -181))
    # a certificate has a sandwich only when d is admissible
    s37, s181 = c37.sandwich, c181.sandwich
    checks = [
        hyp.ok,
        rules.ssets.s_tilde == (),
        s37 is not None and (s37.verdict, s37.lower, s37.upper) == (SelmerVerdict.TRIVIAL, 1, 1),
        c13.report.overall is Overall.INADMISSIBLE and "symbol.11" in c13.report.failed_clauses(),
        s181 is not None
        and (s181.verdict, s181.lower, s181.upper) == (SelmerVerdict.NONTRIVIAL, 5, 25),
    ]
    return CaseResult(
        "twist-scan",
        all(checks),
        "empty exceptional set; -37 trivial [1,1]; -13 rejected at 11; -181 nontrivial [5,25]",
    )


ALL_CASES = [
    _case_psi3_shape,
    _case_conductor11,
    _case_degree84_pipeline,
    _case_scan,
]


def run_golden_suite() -> list[CaseResult]:
    return [case() for case in ALL_CASES]
