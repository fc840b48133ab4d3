"""Polynomial oracles used by the tests.

`zx_eval` is Horner evaluation of a coefficient list (lowest degree first).
`sylvester_resultant` is the determinant of the Sylvester matrix by Gaussian
elimination over Fraction, independent of the library's fraction-free
Bareiss elimination over Z[z].
`hensel_lift` and `_hensel_step` are the two-sided factor-tree lift: each
step lifts a factorization f = g h together with its Bezout pair, and the
tree splits where the running degree reaches half of deg f. The library
lifts each factor on its own against its cofactor instead.
`fp_pow_mod` is right-to-left binary powering in F_p[x] with a schoolbook
product and a schoolbook division at every step. `packed_pow_mod` powers
through the library's packed products instead: each product is one integer
multiplication, reduced through a power series inverse of the reversed
modulus.
`fp_ddf` is the per-degree distinct-degree factorization: at every degree
d it powers h -> h^p mod the remaining product and takes one gcd with
h - x. The library makes the powers mod f once, finds the whole part of
degree <= min(bound, n / 2) with one gcd and runs the per-degree gcds on
that part alone.
`fp_roots_by_evaluation` evaluates f and its derivative in integers at
every residue mod p and reduces the values once. The library reduces at each
Horner step and reads f' from the same pass.
`dedekind_index_divisible` is Dedekind's criterion with the factors of f
mod p lifted to the symmetric range, -p/2 < c <= p/2. The library lifts them
to [0, p).
`rational_roots_by_divisors` is the rational root theorem by brute force:
every a/b with b | lc f and a | the lowest nonzero coefficient is tried by
Fraction evaluation. The library lifts the roots of f at one small prime
instead. Its divisors come from trial division, so only small coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from twistsel.errors import InvalidParameterError
from twistsel.polyzq import (
    ZX,
    _fp_gcdex,
    _PackedMod,
    _zx_trunc,
    fp_divmod,
    fp_factor,
    fp_gcd,
    fp_monic,
    fp_mul,
    fp_sub,
    zx_add,
    zx_deg,
    zx_mul,
    zx_mul_scalar,
    zx_sub,
)


def zx_eval(f: list, x):
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def _det(M: list[list[Fraction]]) -> Fraction:
    M = [row[:] for row in M]
    n = len(M)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if M[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, n):
            factor = M[i][k] / M[k][k]
            for j in range(k, n):
                M[i][j] -= factor * M[k][j]
    return det


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) of nonzero integer polynomials: deg g rows of f, then deg f rows of g."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    if size == 0:
        return 1
    fh = [Fraction(c) for c in reversed(f)]
    gh = [Fraction(c) for c in reversed(g)]
    rows = [[Fraction(0)] * i + fh + [Fraction(0)] * (size - n - 1 - i) for i in range(m)]
    rows += [[Fraction(0)] * i + gh + [Fraction(0)] * (size - m - 1 - i) for i in range(n)]
    det = _det(rows)
    assert det.denominator == 1
    return int(det)


def _hensel_step(M: int, f: ZX, g: ZX, h: ZX, s: ZX, t: ZX):
    """One quadratic lift: from f = g h (mod m) to mod M, h monic, M dividing m^2."""
    e = _zx_trunc(zx_sub(f, zx_mul(g, h)), M)
    q, r = fp_divmod(zx_mul(s, e), h, M)
    G = _zx_trunc(zx_add(zx_add(g, zx_mul(t, e)), zx_mul(q, g)), M)
    H = _zx_trunc(zx_add(h, r), M)
    b = _zx_trunc(zx_sub(zx_add(zx_mul(s, G), zx_mul(t, H)), [1]), M)
    c, d = fp_divmod(zx_mul(s, b), H, M)
    S = _zx_trunc(zx_sub(s, d), M)
    T = _zx_trunc(zx_sub(zx_sub(t, zx_mul(t, b)), zx_mul(c, G)), M)
    return G, H, S, T


def hensel_lift(p: int, f: ZX, factors: list[list[int]], target: int) -> list[ZX]:
    """Lift the monic mod-p factors of f to monic factors mod p^target.

    The product of the lifted factors equals f / lc(f) made monic mod p^target.
    The factor tree splits where the running degree reaches half of deg f, so
    a single factor of high degree sits alone on one side and is lifted once.
    Each level lifts along the exponents ceil(target / 2^j), never past target.
    """
    r = len(factors)
    lc = f[-1]
    if r == 1:
        inv = pow(lc, -1, p**target)
        return [_zx_trunc(zx_mul_scalar(f, inv), p**target)]
    k, total = 0, 0
    while k < r - 1 and 2 * total < zx_deg(f):
        total += len(factors[k]) - 1
        k += 1
    g = [lc % p]
    for fac in factors[:k]:
        g = fp_mul(g, fac, p)
    h = [1]
    for fac in factors[k:]:
        h = fp_mul(h, fac, p)
    s, t = _fp_gcdex(g, h, p)
    G, H, S, T = g, h, s, t
    for j in reversed(range((target - 1).bit_length())):
        G, H, S, T = _hensel_step(p ** -(-target >> j), f, G, H, S, T)  # p^ceil(target/2^j)
    return hensel_lift(p, G, factors[:k], target) + hensel_lift(p, H, factors[k:], target)


def fp_pow_mod(f, e: int, m, p: int) -> list[int]:
    """f^e mod m over F_p, lc(m) prime to p, by schoolbook products and divisions."""
    out = [1]
    f = fp_divmod(f, m, p)[1]
    while e:
        if e & 1:
            out = fp_divmod(fp_mul(out, f, p), m, p)[1]
        f = fp_divmod(fp_mul(f, f, p), m, p)[1]
        e >>= 1
    return out


def packed_pow_mod(f, e, m, p):
    """f^e mod m over F_p, for a prime p and a nonzero m mod p; nonnegative e.

    The products are the library's packed integer products, reduced through
    a series inverse of rev(m) made once per call (polyzq._PackedMod).
    """
    m = fp_monic(m, p)
    n = len(m) - 1
    if n < 0:
        raise InvalidParameterError("division by zero polynomial")
    f = fp_divmod(f, m, p)[1]
    if e == 0 and n:
        return [1]
    if not f or n == 0:
        return []
    if n == 1:
        return [pow(f[0], e, p)]
    return _PackedMod(m, p).pow(f, e)


def fp_ddf(f, p, bound: int):
    """Distinct-degree factorization of a monic squarefree f: list of (product, degree).

    Each entry (g, d) with d <= bound is the product of the deg g / d
    irreducible factors of degree d. The search stops after degree bound
    (or n / 2). The cofactor left over, every irreducible factor of which
    has degree > bound, comes last as one entry (cofactor, deg cofactor).
    Each step is one powering h -> h^p mod the remaining product (by
    packed_pow_mod, checked against the schoolbook fp_pow_mod above) and
    one gcd.
    """
    out = []
    v = f[:]
    h = [0, 1]
    d = 0
    while zx_deg(v) >= 2 * (d + 1) and d < bound:
        d += 1
        h = packed_pow_mod(h, p, v, p)
        g = fp_gcd(fp_sub(h, [0, 1], p), v, p)
        if zx_deg(g) > 0:
            out.append((g, d))
            v = fp_divmod(v, g, p)[0]
            h = fp_divmod(h, v, p)[1]
    if zx_deg(v) > 0:
        out.append((v, zx_deg(v)))
    return out


def fp_roots_by_evaluation(f: list[int], p: int) -> list[tuple[int, int]]:
    """(r, f'(r) mod p) for each r in [0, p) with f(r) = 0 mod p."""
    df = [i * c for i, c in enumerate(f)][1:]
    return [(r, zx_eval(df, r) % p) for r in range(p) if zx_eval(f, r) % p == 0]


def dedekind_index_divisible(f: ZX, p: int) -> bool:
    """Whether p divides the index of Z[x]/(f) in its maximal order, f monic.

    With f = prod g_i^e_i mod p, g the product of the g_i and h = f / g mod p,
    both lifted to the symmetric range, p divides the index exactly when
    gcd((g h - f) / p, g, h) is nonconstant mod p.
    """
    _, parts = fp_factor(f, p)
    gbar, hbar = [1], [1]
    for gi, ei in parts:
        gbar = fp_mul(gbar, gi, p)
        for _ in range(ei - 1):
            hbar = fp_mul(hbar, gi, p)
    g, h = _zx_trunc(gbar, p), _zx_trunc(hbar, p)
    F = [c // p for c in zx_sub(zx_mul(g, h), f)]
    return zx_deg(fp_gcd(fp_gcd(F, g, p), h, p)) > 0


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small) | {n // k for k in small})


def rational_roots_by_divisors(f: list[int]) -> list[Fraction]:
    """The rational roots of a nonzero f in Z[x], least first."""
    low = next(i for i, c in enumerate(f) if c)
    f = f[low:]
    while not f[-1]:
        f = f[:-1]
    roots = {Fraction(0)} if low else set()
    for b in _divisors(f[-1]):
        for a in _divisors(f[0]):
            roots |= {x for x in (Fraction(a, b), Fraction(-a, b)) if zx_eval(f, x) == 0}
    return sorted(roots)
