"""The hot enumeration kernels: point counting over F_p and reduced forms.

These are the only kernel implementations, pure Python on arbitrary-precision
integers. Point counting is exhaustive in x, O(p). The reduced forms of D are
found by sieving the values (b^2 - D)/4 with the square roots of D mod small
primes, in O~(sqrt|D|) steps rather than the |D|/3 of trying every (a, b).
`BACKEND` is kept for provenance: it is exported as
`twistsel.KERNEL_BACKEND`, which benchmark records carry.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError, ResourceError, UnsupportedError
from .intmath import primes_up_to, sqrt_mod

BACKEND = "python"

# the form sieve keeps about sqrt(|D|/3) lists: at |D| = 4 * 10^12 a call
# peaks near 160 MiB and takes 4-7 s on a 2-CPU host, and a d near -10^16
# would need several GiB
_MAX_ABS_DISC = 4 * 10**12


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


def _check_disc(D: int) -> None:
    if D >= 0:
        raise UnsupportedError("only negative discriminants are supported here")
    if D % 4 not in (0, 1):
        raise InvalidParameterError("a discriminant must be 0 or 1 mod 4")


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All primitive reduced binary quadratic forms of discriminant D < 0, sorted by (a, b).

    Reduced: |b| <= a <= c with b >= 0 whenever |b| = a or a = c.

    A sieve over b (Cohen, ch. 5.3): a reduced form (a, +-b, c) has
    0 <= b <= a <= sqrt(q_b) <= sqrt(|D|/3), where q_b = (b^2 - D)/4 = ac, so
    a is a divisor of q_b made of primes up to sqrt(|D|/3). An odd prime p
    divides q_b exactly when b = +-sqrt(D) mod p; these primes are sieved into
    per-b lists, and each q_b is split over them and 2. The cost is
    O~(sqrt|D|) steps, against about |D|/3 for trying every pair (a, b).

    Resource ceiling: |D| <= 4 * 10^12 (`_MAX_ABS_DISC`). Past it the call
    raises `ResourceError` before allocating anything.
    """
    _check_disc(D)
    if -D > _MAX_ABS_DISC:
        raise ResourceError(f"|D| = {-D} is past the form enumeration ceiling {_MAX_ABS_DISC}")
    amax = math.isqrt(-D // 3)
    sieved: list[list[int]] = [[] for _ in range(amax + 1)]
    for p in primes_up_to(amax)[1:]:
        s = sqrt_mod(D, p)
        if s is None:
            continue
        for r in {s, -s % p}:
            # b = r mod p and b = D mod 2
            for b in range(r + p * ((r - D) % 2), amax + 1, 2 * p):
                sieved[b].append(p)
    forms = []
    for b in range(D % 2, amax + 1, 2):
        q = (b * b - D) // 4
        lim = math.isqrt(q)
        # the divisors of q up to sqrt(q), one prime power at a time
        divisors = [1]
        m = q
        for p in [2, *sieved[b]] if q % 2 == 0 else sieved[b]:
            layer = divisors
            while layer and m % p == 0:
                m //= p
                layer = [x * p for x in layer if x * p <= lim]
                divisors += layer
        for a in divisors:
            if a < b:
                continue
            c = q // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append((a, b, c))
            if 0 < b < a != c:
                forms.append((a, -b, c))
    forms.sort()
    return forms


def class_number(D: int) -> int:
    """h(D): count of primitive reduced forms of discriminant D < 0."""
    return len(reduced_forms(D))
