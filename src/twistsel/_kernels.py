"""The hot enumeration kernels: point counting over F_p and reduced forms.

These are the only kernel implementations, pure Python on arbitrary-precision
integers. `BACKEND` is kept for provenance: it is exported as
`twistsel.KERNEL_BACKEND`, which benchmark records carry.
"""

from __future__ import annotations

import math

BACKEND = "python"


def count_points(a1: int, a2: int, a3: int, a4: int, a6: int, p: int) -> int:
    """#E(F_p) including infinity, for a Weierstrass model with good reduction at p.

    Exhaustive in x with a precomputed table of squares; O(p) time and memory.
    """
    if p == 2:
        count = 1
        for x in (0, 1):
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % 2
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y) % 2 == rhs:
                    count += 1
        return count
    # complete the square: z = 2y + a1 x + a3, z^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2 = (a1 * a1 + 4 * a2) % p
    b4 = (2 * a4 + a1 * a3) % p
    b6 = (a3 * a3 + 4 * a6) % p
    sq = bytearray(p)
    for z in range(0, p // 2 + 1):
        sq[z * z % p] = 1
    count = 1
    for x in range(p):
        g = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if g == 0:
            count += 1
        elif sq[g]:
            count += 2
    return count


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All primitive reduced binary quadratic forms of discriminant D < 0.

    Reduced: |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    forms = []
    amax = math.isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - D) % 2:
                continue
            t = b * b - D
            if t % (4 * a):
                continue
            c = t // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    return forms


def class_number(D: int) -> int:
    """h(D): count of primitive reduced forms of discriminant D < 0."""
    return len(reduced_forms(D))
