"""Local reduction data: Tate's algorithm, conductors, point counts, supersingularity.

Tate's algorithm is implemented in full for every prime, including 2 and 3,
and runs on the global minimal model only: it refuses a model that is not
minimal at p instead of rescaling it. It works on a-invariant tuples, and
each point it moves to the origin (the singular point mod p, the multiple
root of the step-6 cubic) is a closed form in the invariants, as in Cremona,
Algorithms for Modular Elliptic Curves, 3.2, and Silverman, Advanced Topics,
IV.9.4. Conductor exponents come from the algorithm's exit points, never
from a global formula. The split / nonsplit test for multiplicative
reduction uses the -c6 square criterion (Legendre symbol at odd p, a 2-adic
unit-square check at p = 2). `bad_reductions` is the one walk over the bad
primes, that the conductor and the checker's per-prime rules read. Only
`conductor` makes a minimal model for its caller; every other function takes
the model (and `x_has_pole_at` the transform) it reads. Nothing is cached.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from ._kernels import count_points
from .curves import (
    CurveQ,
    PointQ,
    minimal_model,
    quadratic_twist,
    translated,
    weierstrass_invariants,
)
from .errors import InvalidParameterError, PreconditionError, TwistselError, UnsupportedError
from .intmath import factorint, is_prime, legendre, valuation

AP_PRIME_LIMIT = 10**6  # exhaustive point counting only; no Schoof


class ReductionKind(Enum):
    GOOD = "Good"
    MULTIPLICATIVE_SPLIT = "MultiplicativeSplit"
    MULTIPLICATIVE_NONSPLIT = "MultiplicativeNonsplit"
    ADDITIVE = "Additive"


class LocalReduction(NamedTuple):
    p: int
    ord_delta_min: int
    ord_j: int | None  # None encodes +infinity (j = 0)
    kind: ReductionKind
    kodaira: str
    conductor_exponent: int

    @property
    def is_good(self) -> bool:
        return self.kind is ReductionKind.GOOD

    @property
    def ord_j_negative(self) -> bool:
        return self.ord_j is not None and self.ord_j < 0


def _vp(n: int, p: int) -> int:
    return valuation(n, p) if n else 10**9


def local_reduction(E: CurveQ, p: int) -> LocalReduction:
    """Reduction data at the prime p, by Tate's algorithm on the model E given.

    E must be integral and minimal at p, as `curves.minimal_model`'s model is;
    a model that the algorithm finds non-minimal at p is refused with
    PreconditionError rather than rescaled.
    """
    if not is_prime(p):
        raise InvalidParameterError(f"p must be a prime, got {p}")
    if not E.is_integral():
        raise PreconditionError("Tate's algorithm needs an integral model")
    n = _vp(int(E.disc), p)
    if n == 0:
        kodaira, f = "I0", 0
    else:
        kodaira, f = _kodaira_symbol(tuple(int(a) for a in E.ainvs), p, n)
    c4 = int(E.c4)
    ord_j = 3 * _vp(c4, p) - n if c4 else None
    if f == 1:  # split iff -c6 is a square in Q_p; an odd 2-adic unit is one iff 1 mod 8
        minus_c6 = -int(E.c6)
        split = minus_c6 % 8 == 1 if p == 2 else legendre(minus_c6, p) == 1
        kind = ReductionKind.MULTIPLICATIVE_SPLIT if split else ReductionKind.MULTIPLICATIVE_NONSPLIT
    else:
        kind = ReductionKind.GOOD if f == 0 else ReductionKind.ADDITIVE
    return LocalReduction(p, n, ord_j, kind, kodaira, f)


def _kodaira_symbol(a: tuple, p: int, n: int) -> tuple[str, int]:
    """(Kodaira symbol, conductor exponent) of the model a at p, where n = ord_p(disc) > 0."""
    a1, a2, a3, a4, a6 = a
    b2, _, b6, _, c4, c6, _ = weierstrass_invariants(*a)
    if p < 5 and b2 % p != 0:  # x -> x + r moves b2 by 12 r, which is 0 mod 2 and mod 3
        return f"I{n}", 1
    # x -> x + r, y -> y + t moves the one singular point of the reduction to (0, 0)
    if p == 2:
        r, t = a4, a4 * (1 + a2 + a4) + a6
    elif p == 3:
        r = -b6
        t = a1 * r + a3
    else:  # the multiple root of 4x^3 + b2 x^2 + 2 b4 x + b6: triple iff p | c4
        r = -b2 * pow(12, -1, p) if c4 % p == 0 else -(c6 + b2 * c4) * pow(12 * c4, -1, p)
        t = -(a1 * r + a3) * pow(2, -1, p)
    a = translated(a, r % p, 0, t % p)
    b2, _, b6, b8, _, _, _ = weierstrass_invariants(*a)
    if b2 % p != 0:
        return f"I{n}", 1
    # additive reduction from here on
    if _vp(a[4], p) < 2:
        return "II", n
    if _vp(b8, p) < 3:
        return "III", n - 1
    if _vp(b6, p) < 3:
        return "IV", n - 2
    # normalize to v(a1) >= 1, v(a2) >= 1, v(a3) >= 2, v(a4) >= 2, v(a6) >= 3
    if p == 2:
        a = translated(a, 0, a[1] % 2, 0)
        t = 2 * ((a[4] // 4) % 2)
    else:
        a = translated(a, 0, (-a[0] * pow(2, -1, p)) % p, 0)
        t = p * ((-(a[2] // p) * pow(2, -1, p)) % p)
    a1, a2, a3, a4, a6 = a = translated(a, 0, 0, t)
    assert a1 % p == 0 and a2 % p == 0
    assert a3 % p**2 == 0 and a4 % p**2 == 0 and a6 % p**3 == 0
    # T^3 + b T^2 + c T + d mod p: w is minus its discriminant, and a multiple
    # root is a triple one iff x = 3c - b^2 vanishes too
    b, c, d = a2 // p, a4 // p**2, a6 // p**3
    w = 27 * d * d - b * b * c * c + 4 * b**3 * d - 18 * b * c * d + 4 * c**3
    x = 3 * c - b * b
    if w % p != 0:
        return "I0*", n - 4
    if x % p != 0:
        root = c if p == 2 else b * c if p == 3 else (b * c - 9 * d) * pow(2 * x, -1, p)
        return _type_in_star(translated(a, p * (root % p), 0, 0), p, n)
    root = b if p == 2 else -d if p == 3 else -b * pow(3, -1, p)
    a = translated(a, p * (root % p), 0, 0)
    # quadratic Y^2 + (a3/p^2) Y - a6/p^4
    beta = a[2] // p**2
    gamma = (-(a[4] // p**4)) % p
    if _quadratic_separable(1, beta, gamma, p):
        return "IV*", n - 6
    y1 = _quadratic_double_root(1, beta, gamma, p)
    a = translated(a, 0, 0, p**2 * y1)
    if _vp(a[3], p) < 4:
        return "III*", n - 7
    if _vp(a[4], p) < 6:
        return "II*", n - 8
    raise PreconditionError(f"model not minimal at {p}; Tate's algorithm needs a p-minimal model")


def _quadratic_separable(alpha: int, beta: int, gamma: int, p: int) -> bool:
    # alpha Y^2 + beta Y + gamma mod p, alpha a unit: distinct roots in the closure
    if p == 2:
        return beta % 2 == 1
    return (beta * beta - 4 * alpha * gamma) % p != 0


def _quadratic_double_root(alpha: int, beta: int, gamma: int, p: int) -> int:
    if p == 2:
        return (gamma * alpha) % 2
    return (-beta * pow(2 * alpha, -1, p)) % p


def _type_in_star(a: tuple, p: int, n: int) -> tuple[str, int]:
    # entered with v(a1) >= 1, v(a2) = 1, v(a3) >= 2, v(a4) >= 3, v(a6) >= 4
    a21 = a[1] // p % p
    mm = 1
    j = 1
    while True:
        if mm % 2 == 1:  # quadratic in Y: Y^2 + (a3/p^(j+1)) Y - a6/p^(2j+2)
            beta = a[2] // p ** (j + 1)
            gamma = (-(a[4] // p ** (2 * j + 2))) % p
            if _quadratic_separable(1, beta, gamma, p):
                return f"I{mm}*", n - 4 - mm
            y1 = _quadratic_double_root(1, beta, gamma, p)
            a = translated(a, 0, 0, p ** (j + 1) * y1)
        else:  # quadratic in X: (a2/p) X^2 + (a4/p^(j+2)) X + a6/p^(2j+3)
            beta = a[3] // p ** (j + 2)
            gamma = a[4] // p ** (2 * j + 3)
            if _quadratic_separable(a21, beta, gamma, p):
                return f"I{mm}*", n - 4 - mm
            x1 = _quadratic_double_root(a21, beta, gamma, p)
            a = translated(a, p ** (j + 1) * x1, 0, 0)
            j += 1
        mm += 1
        if mm > n:
            raise TwistselError("internal: I_n* loop failed to terminate")


def bad_reductions(E_min: CurveQ) -> dict[int, LocalReduction]:
    """Reduction data at each prime of bad reduction (each p dividing the
    discriminant of the global minimal model E_min), least p first: one run
    of Tate's algorithm each."""
    return {p: local_reduction(E_min, p) for p in sorted(factorint(int(E_min.disc)))}


def conductor_of(reductions: dict[int, LocalReduction]) -> tuple[int, dict[int, int]]:
    """Conductor N and its factorization {p: f_p}, read from `bad_reductions`."""
    exps = {p: red.conductor_exponent for p, red in reductions.items()}
    return math.prod(p**f for p, f in exps.items()), exps


def conductor(E: CurveQ) -> tuple[int, dict[int, int]]:
    """Conductor N and its factorization {p: f_p}, from Tate's algorithm at each bad prime."""
    return conductor_of(bad_reductions(minimal_model(E)[0]))


def ap(E: CurveQ, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - #E(F_p), counted on the model E given.

    E must be integral with p not dividing its disc, as the minimal model is
    at a prime of good reduction; no Tate's algorithm runs here.
    """
    if p > AP_PRIME_LIMIT:
        raise UnsupportedError(f"point counting is exhaustive and capped at p <= {AP_PRIME_LIMIT}")
    if not is_prime(p):
        raise InvalidParameterError(f"p must be a prime, got {p}")
    if not E.is_integral():
        raise PreconditionError("point counting needs an integral model")
    if int(E.disc) % p == 0:
        raise PreconditionError(f"bad reduction at {p}; a_p needs good reduction")
    coeffs = tuple(int(a) % p for a in E.ainvs)
    return p + 1 - count_points(*coeffs, p)


class SupersingularVerdict(Enum):
    YES = "Yes"
    NO = "No"
    NOT_APPLICABLE = "NotApplicable"


class SupersingularResult(NamedTuple):
    verdict: SupersingularVerdict
    reason: str


def is_supersingular(E_min: CurveQ, red: LocalReduction) -> SupersingularResult:
    """Supersingularity of the reduction of E mod ell, for ell = red.p >= 5.

    red is `local_reduction(E_min, ell)` on the minimal model E_min, both held by
    the caller. Decides via a_ell = 0 at good primes. The ord_ell(j) < 0
    branch is outside the hypothesis and is NotApplicable. Additive,
    potentially good reduction is resolved by one quadratic twist or not at
    all: a twist by a unit at ell keeps the Kodaira type, and one ramified at
    ell moves ord_ell of the minimal discriminant by 6 mod 12, so only I0*
    (ord 6) reaches good reduction, as the twist by ell does, on the minimal
    model made here. Every other type is NotApplicable.
    """
    ell = red.p
    if ell < 5:
        raise UnsupportedError("supersingularity test requires a prime ell >= 5")
    if red.ord_j_negative:
        return SupersingularResult(
            SupersingularVerdict.NOT_APPLICABLE, f"ord_{ell}(j) < 0; outside the hypothesis branch"
        )
    if red.is_good:
        model, how = E_min, "good reduction"
    elif red.kodaira == "I0*":
        model = minimal_model(quadratic_twist(E_min, ell))[0]
        how = f"good reduction after twist by {ell}"
    else:
        return SupersingularResult(
            SupersingularVerdict.NOT_APPLICABLE,
            f"additive reduction at {ell} not resolved by a quadratic twist",
        )
    a = ap(model, ell)  # ap refuses a model with bad reduction at ell
    verdict = SupersingularVerdict.YES if a == 0 else SupersingularVerdict.NO
    return SupersingularResult(verdict, f"{how}, a_{ell} = {a}")


def x_has_pole_at(transform: tuple, P: PointQ, ell: int) -> bool:
    """Whether ord_ell(x(P)) < 0 on the minimal model, for an affine point P of E.

    transform is the (u, r, s, t) to it from `curves.minimal_model`, so x' = (x - r) / u^2.
    With good or bad reduction at ell, this is P reducing to the point at infinity.
    x' is in lowest terms, so its valuation is negative iff ell divides its denominator.
    """
    u, r = transform[:2]
    return ((P.x - r) / u**2).denominator % ell == 0
