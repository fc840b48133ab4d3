"""The hot kernels: point counting over F_p, and the class number of D.

These are the only kernel implementations, pure Python on arbitrary-precision
integers. Point counting is exhaustive in x, O(p). `class_number` counts the
primitive reduced forms of D by their first coefficient a, from a root count
that is multiplicative in a: one Legendre symbol and one slice operation per
prime up to sqrt(|D|/3), and the roots of the top 13% of those a, with no
form listed and O(sqrt|D|) bytes of memory. `reduced_forms` lists the forms by
sieving the values (b^2 - D)/4 with the square roots of D mod small primes, in
O~(sqrt|D|) steps; no library path calls it for h, and the tests keep it as
the count's differential oracle.
`BACKEND` is kept for provenance: it is exported as
`twistsel.KERNEL_BACKEND`, which benchmark records carry.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

from .errors import InvalidParameterError, ResourceError, UnsupportedError
from .intmath import primes_up_to, sqrt_mod

BACKEND = "python"

# at D = -3999999999903 on a 2-CPU x86-64 host, `class_number` takes 0.55 s
# with a tracemalloc peak of 15 MiB (O(sqrt|D|) bytes), and `reduced_forms`,
# which keeps about sqrt(|D|/3) lists, takes 5.2 s with a peak of 241 MiB
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


def check_disc(D: int) -> None:
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
    check_disc(D)
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


def _roots(D: int, p: int, e: int) -> list[int]:
    """Every x mod p^e with x^2 = D mod p^e (e >= 1), lifted one power of p at a time.

    A root x mod p^j with p not dividing 2x lifts in exactly one way (Hensel);
    otherwise x + t p^j is a root mod p^(j+1) for every t or for none, as
    x^2 = D mod p^(j+1) or not.
    """
    if p == 2 or D % p == 0:
        xs = [D % p]
    else:
        s = sqrt_mod(D, p)
        xs = [] if s is None else [s, p - s]
    q = p
    for _ in range(e - 1):
        lifted = []
        for x in xs:
            if p > 2 and x % p:
                lifted.append(x + (D - x * x) // q * pow(2 * x, -1, p) % p * q)
            elif (x * x - D) % (q * p) == 0:
                lifted += range(x, x + q * p, q)
        xs, q = lifted, q * p
    return xs


def _local_roots(D: int, p: int, k: int) -> list[int]:
    """The b mod p^k (mod 2^(k+1) at p = 2) that solve b^2 = D mod 4a and keep
    (a, b, (b^2 - D)/4a) primitive at p, for p^k || a.

    At p = 2 the congruence is mod 2^(k+2), and a root x mod 2^(k+2) and
    x + 2^(k+1) are the same b. The form is imprimitive at p when p | b and
    p | c, that is when b^2 = D mod p^(e+1) for the congruence's p^e; at
    k = 0 (p = 2, a odd) there is no such condition.
    """
    e, m = (k + 2, 2 ** (k + 1)) if p == 2 else (k, p**k)
    q = p**e
    return [x for x in _roots(D, p, e) if x < m and (k == 0 or x % p or (x * x - D) % (q * p))]


# rho(a) over the primes with one local factor for every k is 0 or 2^omega,
# and a <= sqrt(_MAX_ABS_DISC / 3) has at most 7 distinct prime factors
# (2 * 3 * ... * 19 > 1.2 * 10^6), so it fits in a byte
_DOUBLE = bytes(2 * i & 255 for i in range(256))
_ZERO = bytes(256)


def class_number(D: int) -> int:
    """h(D): the number of primitive reduced forms of discriminant D < 0, counted
    by their first coefficient a without listing them (Cohen, ch. 5.3).

    rho(a) = #{b in (-a, a] : b^2 = D mod 4a, gcd(a, b, c) = 1} is
    multiplicative in a. At p^k || a its factor is 1 + (D/p) when p does not
    divide D (at p = 2, D odd, that is 2 or 0 as D is 1 or 5 mod 8), and 1 at
    k = 1 and 0 above when p is ramified in a fundamental way: p || D for odd
    p, or D = 4m with m = 2, 3 mod 4 at p = 2. At the other p | D (p^2 | D,
    or D = 4m with m = 0, 1 mod 4 at p = 2) it is counted from the roots
    (`_local_roots`). A reduced form
    (a, b, c) has a <= sqrt(|D|/3), and for 4a^2 < |D| every counted b has
    c > a, so each gives exactly one reduced form: those a add rho(a), summed
    from a byte table built by slice operations, one per prime. Only the top
    band |D| <= 4a^2 <= 4|D|/3 lists its roots, by CRT over the prime powers
    of a, and keeps b when c > a, or c = a and b >= 0.

    Resource ceiling: |D| <= 4 * 10^12 (`_MAX_ABS_DISC`). Past it the call
    raises `ResourceError` before allocating anything.
    """
    check_disc(D)
    if -D > _MAX_ABS_DISC:
        raise ResourceError(f"|D| = {-D} is past the form enumeration ceiling {_MAX_ABS_DISC}")
    amax = math.isqrt(-D // 3)
    alow = math.isqrt((-D - 1) // 4)  # the largest a with 4a^2 < |D|
    # rho(a) from the primes with a constant local factor, and from p || D;
    # the special primes (2 | D, p^2 | D) are counted apart
    rho = bytearray([1]) * (amax + 1)
    rho[0] = 0
    special = []
    primes = primes_up_to(amax)
    for p in primes:
        r = D % p
        if r == 0 and ((D % 16 in (8, 12)) if p == 2 else D % (p * p)):
            # p ramified, with p || D, or 2 in a discriminant 4m, m = 2, 3 mod 4
            rho[p * p :: p * p] = rho[p * p :: p * p].translate(_ZERO)
        elif r == 0:
            special.append(p)
        elif (D % 8 == 1) if p == 2 else pow(r, (p - 1) // 2, p) == 1:
            rho[p::p] = rho[p::p].translate(_DOUBLE)
        else:
            rho[p::p] = rho[p::p].translate(_ZERO)
    # the valid roots b at each prime power, keyed by their modulus: p^k, or
    # 2^(k+1) for the power 2^k of a
    local: dict[int, list[int]] = {}
    parts = [(1, 1)]  # (a0, rho(a0)) for a0 <= alow made of special primes
    for p in special:
        k, pk, prime_to_p = 1, p, parts
        while pk <= amax:
            local[2 * pk if p == 2 else pk] = rs = _local_roots(D, p, k)
            if rs:
                parts = parts + [(a0 * pk, w * len(rs)) for a0, w in prime_to_p if a0 * pk <= alow]
            k, pk = k + 1, pk * p
    coprime = rho[: alow + 1]
    for p in special:
        coprime[p::p] = coprime[p::p].translate(_ZERO)
    view = memoryview(coprime)
    h = sum(w * sum(view[: alow // a0 + 1]) for a0, w in parts)
    # alow < a <= amax: list the roots b mod 2a, by CRT, and keep those of
    # reduced forms
    spf = array("I", bytes(4 * (amax + 1)))
    for p in reversed(primes[: bisect_right(primes, math.isqrt(amax))]):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, amax + 1, p))
    for a in range(alow + 1, amax + 1):
        if not rho[a]:
            continue
        k = (a & -a).bit_length() - 1
        m, mod = a >> k, 2 << k
        if (bs := local.get(mod)) is None:
            bs = local[mod] = _local_roots(D, 2, k)
        while m > 1 and bs:
            p = spf[m] or m
            k, pk, m = 1, p, m // p
            while m % p == 0:
                k, pk, m = k + 1, pk * p, m // p
            if (rs := local.get(pk)) is None:
                rs = local[pk] = _local_roots(D, p, k)
            inv = pow(mod, -1, pk)
            bs = [b + mod * ((r - b) * inv % pk) for b in bs for r in rs]
            mod *= pk
        for b in bs:
            if b > a:
                b -= 2 * a
            c = (b * b - D) // (4 * a)
            h += c > a or (c == a and b >= 0)
    return h
