"""Tate's algorithm by search and F_p[x] gcds: the differential oracle for `reduction`.

This is the library's earlier implementation, kept as it was: a mutable
working model, the singular point mod p found by search at p <= 3 and as the
multiple root of 4x^3 + b2 x^2 + 2 b4 x + b6 (a gcd with its derivative) at
p >= 5, and the step-6 cubic's root structure read from a gcd in F_p[x].
`reduction.tate_algorithm` reaches each of those points by a closed formula
instead. Only the `LocalReduction` record is shared with the library.
"""

from __future__ import annotations

from twistsel.curves import CurveQ, translated, weierstrass_invariants
from twistsel.errors import InvalidParameterError, PreconditionError
from twistsel.intmath import is_prime, legendre, valuation
from twistsel.polyzq import fp_gcd
from twistsel.reduction import LocalReduction, ReductionKind


def _vp(n: int, p: int) -> int:
    return valuation(n, p) if n else 10**9


class _Model:
    """Mutable integral model used while running Tate's algorithm at one prime."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6")

    def __init__(self, a1, a2, a3, a4, a6):
        self.a1, self.a2, self.a3, self.a4, self.a6 = int(a1), int(a2), int(a3), int(a4), int(a6)

    def translate(self, r: int = 0, s: int = 0, t: int = 0) -> None:
        self.a1, self.a2, self.a3, self.a4, self.a6 = translated(
            (self.a1, self.a2, self.a3, self.a4, self.a6), r, s, t
        )

    def invariants(self) -> tuple[int, int, int, int, int, int, int]:
        """(b2, b4, b6, b8, c4, c6, disc) of the current model."""
        return weierstrass_invariants(self.a1, self.a2, self.a3, self.a4, self.a6)


def _singular_point(m: _Model, p: int, b2: int, b4: int, b6: int) -> tuple[int, int]:
    """A singular point of the reduction mod p, as integers in [0, p); b2, b4, b6 are m's."""
    if p <= 3:
        for x0 in range(p):
            for y0 in range(p):
                on = (
                    y0 * y0 + m.a1 * x0 * y0 + m.a3 * y0 - x0**3 - m.a2 * x0 * x0 - m.a4 * x0 - m.a6
                ) % p == 0
                dx = (m.a1 * y0 - 3 * x0 * x0 - 2 * m.a2 * x0 - m.a4) % p == 0
                dy = (2 * y0 + m.a1 * x0 + m.a3) % p == 0
                if on and dx and dy:
                    return x0, y0
        raise PreconditionError("no singular point found; reduction is good")
    # odd p >= 5: complete the square, then x0 is the multiple root of
    # g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 mod p.
    g = [b6 % p, (2 * b4) % p, b2 % p, 4 % p]
    gp = [g[1], (2 * g[2]) % p, (3 * g[3]) % p]
    h = fp_gcd(g, gp, p)
    if len(h) == 2:
        x0 = (-h[0] * pow(h[1], -1, p)) % p
    elif len(h) == 3:
        x0 = (-h[1] * pow(2 * h[2], -1, p)) % p
    else:
        raise PreconditionError("no multiple root; reduction is good")
    y0 = (-(m.a1 * x0 + m.a3) * pow(2, -1, p)) % p
    return x0, y0


def _cubic_root_structure(m: _Model, p: int) -> tuple[str, int]:
    """Root structure of P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3) mod p.

    Returns ("distinct", 0), ("double", root) or ("triple", root). The triple
    test is a characteristic-aware coefficient match; gcd degrees alone do not
    separate double from triple roots when p is 2.
    """
    c2 = m.a2 // p % p
    c1 = m.a4 // p**2 % p
    c0 = m.a6 // p**3 % p
    # triple root r: P = (T - r)^3, i.e. c2 = -3r, c1 = 3r^2, c0 = -r^3
    r = (-c2 * pow(3, -1, p)) % p if p != 3 else (-c0) % 3
    if c2 % p == (-3 * r) % p and c1 % p == (3 * r * r) % p and c0 % p == (-(r**3)) % p:
        return "triple", r
    g = fp_gcd([c0, c1, c2, 1], [c1, 2 * c2, 3], p)
    if len(g) == 1:
        return "distinct", 0
    if len(g) == 2:
        return "double", (-g[0]) % p
    if p == 2:  # gcd (T - r)^2 = T^2 + r^2; the double root is its constant term
        return "double", g[0] % 2
    raise PreconditionError("internal: unexpected multiplicity pattern in step-6 cubic")


def tate_algorithm(E: CurveQ, p: int) -> LocalReduction:
    """Reduction data at the prime p, by Tate's algorithm on a model minimal at p."""
    if not is_prime(p):
        raise InvalidParameterError(f"p must be a prime, got {p}")
    if not E.is_integral():
        raise PreconditionError("Tate's algorithm needs an integral model")
    n = _vp(int(E.disc), p)
    if n == 0:
        kodaira, f = "I0", 0
    else:
        m = _Model(*E.ainvs)
        kodaira, f = _kodaira_symbol(m, p, n, int(E.b2), int(E.b4), int(E.b6))
    c4 = int(E.c4)
    ord_j = 3 * _vp(c4, p) - n if c4 else None
    if f == 1:  # split iff -c6 is a square in Q_p; an odd 2-adic unit is one iff 1 mod 8
        minus_c6 = -int(E.c6)
        split = minus_c6 % 8 == 1 if p == 2 else legendre(minus_c6, p) == 1
        kind = ReductionKind.MULTIPLICATIVE_SPLIT if split else ReductionKind.MULTIPLICATIVE_NONSPLIT
    else:
        kind = ReductionKind.GOOD if f == 0 else ReductionKind.ADDITIVE
    return LocalReduction(p, n, ord_j, kind, kodaira, f)


def _kodaira_symbol(m: _Model, p: int, n: int, b2: int, b4: int, b6: int) -> tuple[str, int]:
    """(Kodaira symbol, conductor exponent) of m at p, where n = ord_p(disc) > 0."""
    x0, y0 = _singular_point(m, p, b2, b4, b6)
    m.translate(r=x0, t=y0)
    b2, _, b6, b8, _, _, _ = m.invariants()
    if b2 % p != 0:
        return f"I{n}", 1
    # additive reduction from here on
    if _vp(m.a6, p) < 2:
        return "II", n
    if _vp(b8, p) < 3:
        return "III", n - 1
    if _vp(b6, p) < 3:
        return "IV", n - 2
    # normalize to v(a1) >= 1, v(a2) >= 1, v(a3) >= 2, v(a4) >= 2, v(a6) >= 3
    if p == 2:
        s = m.a2 % 2
        m.translate(s=s)
        t = 2 * ((m.a6 // 4) % 2)
    else:
        s = (-m.a1 * pow(2, -1, p)) % p
        m.translate(s=s)
        t = p * ((-(m.a3 // p) * pow(2, -1, p)) % p)
    m.translate(t=t)
    assert m.a1 % p == 0 and m.a2 % p == 0
    assert m.a3 % p**2 == 0 and m.a4 % p**2 == 0 and m.a6 % p**3 == 0
    shape, root = _cubic_root_structure(m, p)
    if shape == "distinct":
        return "I0*", n - 4
    if shape == "double":
        m.translate(r=p * root)
        return _type_in_star(m, p, n)
    # triple root
    m.translate(r=p * root)
    # quadratic Y^2 + (a3/p^2) Y - a6/p^4
    beta = m.a3 // p**2
    gamma = (-(m.a6 // p**4)) % p
    if _quadratic_separable(1, beta, gamma, p):
        return "IV*", n - 6
    y1 = _quadratic_double_root(1, beta, gamma, p)
    m.translate(t=p**2 * y1)
    if _vp(m.a4, p) < 4:
        return "III*", n - 7
    if _vp(m.a6, p) < 6:
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


def _type_in_star(m: _Model, p: int, n: int) -> tuple[str, int]:
    # entered with v(a1) >= 1, v(a2) = 1, v(a3) >= 2, v(a4) >= 3, v(a6) >= 4
    a21 = m.a2 // p % p
    mm = 1
    j = 1
    while True:
        if mm % 2 == 1:  # quadratic in Y: Y^2 + (a3/p^(j+1)) Y - a6/p^(2j+2)
            beta = m.a3 // p ** (j + 1)
            gamma = (-(m.a6 // p ** (2 * j + 2))) % p
            if _quadratic_separable(1, beta, gamma, p):
                return f"I{mm}*", n - 4 - mm
            y1 = _quadratic_double_root(1, beta, gamma, p)
            m.translate(t=p ** (j + 1) * y1)
        else:  # quadratic in X: (a2/p) X^2 + (a4/p^(j+2)) X + a6/p^(2j+3)
            beta = m.a4 // p ** (j + 2)
            gamma = m.a6 // p ** (2 * j + 3)
            if _quadratic_separable(a21, beta, gamma, p):
                return f"I{mm}*", n - 4 - mm
            x1 = _quadratic_double_root(a21, beta, gamma, p)
            m.translate(r=p ** (j + 1) * x1)
            j += 1
        mm += 1
        if mm > n:
            raise PreconditionError("internal: I_n* loop failed to terminate")
