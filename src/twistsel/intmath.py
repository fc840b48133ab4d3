"""Exact integer number theory: primality, factorization, the extended gcd, quadratic symbols.

Everything here is arbitrary precision and deterministic; the Pollard-rho
factorizer uses a fixed-seed Brent cycle so repeated runs agree bit for bit.
"""

from __future__ import annotations

import math
from itertools import compress

from .errors import InvalidParameterError, ResourceError

# Bases making Miller-Rabin deterministic below 3.3 * 10**24; above that the
# same bases act as a strong probable-prime test, ample at desk scale.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Brent rho squarings one factorint call may spend before ResourceError. Rho
# finds a prime factor q in about sqrt(q) squarings, so this splits factors up
# to about 10^10; spending it all on a 200-bit n takes 0.6 s (CPython 3.11, Xeon).
_RHO_STEPS = 2**20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(n + 1), sieve))


def _brent_rho(n: int, budget: list[int]) -> int:
    # Brent's variant with deterministic parameter sweep; n odd composite, not a prime power.
    # Each round of up to 2r squarings is charged to budget[0] before it runs.
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            budget[0] -= 2 * r
            if budget[0] < 0:
                raise ResourceError(
                    f"factoring a {n.bit_length()}-bit integer exceeded its work cap"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InvalidParameterError(f"factorization failed for {n}")


def _factor_walk(n: int):
    """Walk the factorization of n >= 1: yield (q, e) for each prime q found
    with the exponent e it carries, and None whenever a square factor shows
    before its primes are known (a perfect-power root, or a rho split (d, m/d)
    with gcd(d, m/d) > 1). The (q, e) pairs multiply to |n|; a prime may come
    more than once."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        e = 0
        while n % p == 0:
            e += 1
            n //= p
        if e:
            yield p, e
    budget = [_RHO_STEPS]
    stack = [(n, 1)] if n > 1 else []  # (cofactor, exponent it carries)
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            yield m, e
            continue
        root = _iroot_perfect_power(m)
        if root is not None:
            yield None
            b, k = root
            stack.append((b, e * k))
            continue
        d = _brent_rho(m, budget)
        if math.gcd(d, m // d) > 1:
            yield None
        stack.extend([(d, e), (m // d, e)])


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; factorint(+-1) = {}, n = 0 rejected."""
    if n == 0:
        raise InvalidParameterError("cannot factor 0")
    out: dict[int, int] = {}
    for piece in _factor_walk(abs(n)):
        if piece is not None:
            q, e = piece
            out[q] = out.get(q, 0) + e
    return dict(sorted(out.items()))


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton iteration from above."""
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _iroot_perfect_power(n: int) -> tuple[int, int] | None:
    """(b, k) with b**k == n and k least, or None; the least such k is prime."""
    for k in primes_up_to(n.bit_length()):
        b = _iroot(n, k)
        if b > 1 and b**k == n:
            return b, k
    return None


def is_squarefree(n: int) -> bool:
    """Whether no square > 1 divides n; False as soon as a square factor shows,
    so a visibly non-squarefree n needs no complete factorization."""
    if n == 0:
        return False
    return all(piece is not None and piece[1] == 1 for piece in _factor_walk(abs(n)))


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g, g = +-gcd(a, b): the extended Euclidean algorithm."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p), p an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n), n odd positive."""
    if n <= 0 or n % 2 == 0:
        raise InvalidParameterError("jacobi denominator must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for arbitrary integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v % 2 == 1 and a % 8 in (3, 5):
        result = -result
    return result * jacobi(a, n) if n > 1 else result


def valuation(n: int, p: int) -> int:
    """Exponent of p in n; n must be nonzero and p at least 2."""
    if n == 0:
        raise InvalidParameterError("valuation of 0 is undefined")
    if p < 2:
        raise InvalidParameterError(f"valuation needs a base of at least 2, got {p}")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def log_p(n: int, p: int) -> int:
    """Exact logarithm: the k with p**k == n; raises when n is not a power of p."""
    if p < 2 or n < 1 or p ** (k := valuation(n, p)) != n:
        raise InvalidParameterError(f"{n} is not a power of {p}")
    return k


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def squarefree_sieve(lo: int, hi: int) -> bytearray:
    """Flags for squarefreeness of lo..hi inclusive (indexed by n - lo): 1 for
    squarefree, 0 for a square factor. One byte per n, not one list slot."""
    size = hi - lo + 1
    flags = bytearray(b"\x01") * size
    for q in primes_up_to(math.isqrt(max(abs(lo), abs(hi)))):
        q2 = q * q
        for n in range(lo + (-lo) % q2, hi + 1, q2):
            flags[n - lo] = 0
    if 0 >= lo and 0 <= hi:
        flags[-lo] = 0
    return flags
