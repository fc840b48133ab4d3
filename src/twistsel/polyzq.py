"""Dense exact polynomial arithmetic over Z and F_p, with factorization over Q.

Polynomials are lists of coefficients, lowest degree first; nothing here
parses text. The roots of f mod p and f' at each are read in one scan
(fp_roots), and the rational roots of a squarefree f are lifted from its
simple roots at one small prime (zx_rational_roots). Products in F_p[x]
mod a fixed modulus pack each operand into one int (Kronecker
substitution), so a product is one big-integer multiplication, and reduce
by the modulus through a power series inverse of its reverse, made once
per modulus. The factorizer is Zassenhaus-style and
does only the work its degree bound can use:

- distinct-degree factorization makes x^(p^i) mod f once for each i up to
  the bound (or deg f / 2): one gcd of f with the product of the x^(p^i) - x
  finds the part of f whose factors have degree <= bound, and the
  per-degree gcds run on that part alone;
- it runs at the first good prime, and at a second only when the first
  leaves every modular factor of degree <= bound and at least three of them;
  the sets of subset sums of the degrees it finds are intersected, and when
  only 0 is left nothing is split or lifted;
- of the primes read, the one with fewer modular factors of degree <= bound
  is used, the first on a tie; no cost estimate enters the choice;
- at that prime only the factors of degree <= bound are split by
  equal-degree factorization; the product of the factors of higher degree
  stays one unsplit modular factor;
- each modular factor of degree <= bound is Hensel-lifted on its own, by
  Newton steps against its cofactor (a linear factor as a root, by scalar
  Newton steps on f), to the least power of p past a coefficient bound for
  the factors of degree <= bound: the lesser of Mignotte's and the one that
  follows from Fujiwara's root bound; the unsplit factor and the cofactors
  are never lifted;
- subsets whose total degree lies in the intersection are recombined.

Irreducible factors up to the bound are extracted, and the cofactor is
reported as a residual. This makes degree-84 inputs tractable. The complete
factorization factors the one squarefree part f / gcd(f, f') and reads each
multiplicity by exact division.
"""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction

from .errors import InvalidParameterError, ResourceError
from .intmath import is_prime

ZX = list  # integer coefficients, lowest degree first

_MAX_CANDIDATES = 2 * 10**6  # recombination work cap before ResourceError
_P_LIMIT = 10000  # largest prime tried as the factorization prime
_SLOT_CODES = {array(c).itemsize: c for c in "HILQ"}  # packed-product slot width -> typecode
_BIG_ENDIAN = array("H", [1]).tobytes()[0] == 0


# ---------------------------------------------------------------------------
# basic Z[x] operations


def zx_trim(f: ZX) -> ZX:
    while f and f[-1] == 0:
        f.pop()
    return f


def zx_deg(f: ZX) -> int:
    return len(f) - 1


def zx_add(f: ZX, g: ZX) -> ZX:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return zx_trim(out)


def zx_sub(f: ZX, g: ZX) -> ZX:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] -= c
    return zx_trim(out)


def zx_mul(f: ZX, g: ZX) -> ZX:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
    return out


def zx_mul_scalar(f: ZX, c: int) -> ZX:
    return [] if c == 0 else [c * a for a in f]


def zx_pow(f: ZX, e: int) -> ZX:
    out = [1]
    for _ in range(e):
        out = zx_mul(out, f)
    return out


def zx_compose(f: ZX, g: ZX) -> ZX:
    """f(g(x)), by Horner's rule; exact on int and Fraction coefficients."""
    out: ZX = []
    for c in reversed(f):
        out = zx_add(zx_mul(out, g), [c])
    return out


def zx_derivative(f: ZX) -> ZX:
    return zx_trim([i * c for i, c in enumerate(f)][1:])


def zx_content(f: ZX) -> int:
    c = 0
    for a in f:
        c = math.gcd(c, a)
    return c


def zx_primitive(f: ZX) -> tuple[int, ZX]:
    """(content with the sign of the leading coefficient, primitive part)."""
    if not f:
        return 0, []
    c = zx_content(f)
    if f[-1] < 0:
        c = -c
    return c, [a // c for a in f]


def zx_div_exact(f: ZX, g: ZX) -> ZX | None:
    """Quotient f / g over Z, or None when g does not divide f exactly."""
    if not g:
        raise InvalidParameterError("division by zero polynomial")
    f = f[:]
    if not f:
        return []
    if len(f) < len(g):
        return None
    q = [0] * (len(f) - len(g) + 1)
    lc = g[-1]
    for k in range(len(f) - len(g), -1, -1):
        head = f[k + len(g) - 1]
        if head % lc:
            return None
        coef = head // lc
        q[k] = coef
        if coef:
            for i, gc in enumerate(g):
                f[k + i] -= coef * gc
    return q if not any(f[: len(g) - 1]) else None


def zx_pseudo_rem(f: ZX, g: ZX) -> ZX:
    """prem(f, g): lc(g)^(deg f - deg g + 1) * f mod g."""
    f, g = f[:], g[:]
    df, dg = zx_deg(f), zx_deg(g)
    if dg < 0:
        raise InvalidParameterError("pseudo-remainder by zero")
    lc = g[-1]
    n = df - dg + 1
    while zx_deg(f) >= dg and f:
        shift = zx_deg(f) - dg
        head = f[-1]
        f = zx_sub(zx_mul_scalar(f, lc), zx_mul_scalar([0] * shift + g, head))
        n -= 1
    return zx_mul_scalar(f, lc ** max(n, 0))


def zx_gcd(f: ZX, g: ZX) -> ZX:
    """Primitive gcd over Z, positive leading coefficient; primitive PRS."""
    f, g = zx_trim(f[:]), zx_trim(g[:])
    if not f:
        return zx_primitive(g)[1]
    if not g:
        return zx_primitive(f)[1]
    cf, f = zx_primitive(f)
    cg, g = zx_primitive(g)
    c = math.gcd(abs(cf), abs(cg))
    if zx_deg(f) < zx_deg(g):
        f, g = g, f
    while g:
        r = zx_pseudo_rem(f, g)
        f, g = g, zx_primitive(r)[1] if r else []
    if zx_deg(f) == 0:
        return [c] if c else [1]
    return f


def zx_l2_norm_sq(f: ZX) -> int:
    return sum(c * c for c in f)


# ---------------------------------------------------------------------------
# F_p[x] operations (p prime; lists lowest degree first, coefficients in [0, p))


def fp_norm(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def fp_mul(f, g, p):
    return fp_norm(zx_mul(f, g), p)


def fp_divmod(f, g, p):
    """(q, r) with f = q g + r mod p, deg r < deg g; p may be any modulus prime to lc(g)."""
    if not g:
        raise InvalidParameterError("division by zero polynomial")
    f = f[:]
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 1)
    inv = pow(g[-1], -1, p)
    # only the head coefficient is reduced per step; the remainder once at the end
    for d in range(len(f) - 1 - dg, -1, -1):
        k = f[d + dg] * inv % p
        if k:
            q[d] = k
            for i in range(dg):
                f[i + d] -= k * g[i]
    return zx_trim(q), fp_norm(f[:dg], p)


def fp_gcd(f, g, p):
    f, g = fp_norm(f, p), fp_norm(g, p)
    while g:
        f, g = g, fp_divmod(f, g, p)[1]
    return fp_monic(f, p)


def fp_monic(f, p):
    f = fp_norm(f, p)
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _slot_bytes(n: int, p: int) -> int:
    """Bytes per slot for packed products of n coefficients in [0, p): room for n (p - 1)^2."""
    w = -(-(n * (p - 1) ** 2).bit_length() // 8)
    return next((size for size in (2, 4, 8) if w <= size and size in _SLOT_CODES), w)


class _PackedMod:
    """Products in F_p[x] mod a fixed monic m of degree n >= 2, by packed integers.

    Each product is one integer multiplication (Kronecker substitution): a
    polynomial of at most n coefficients in [0, p) is packed into one int, a
    coefficient to a fixed slot wide enough for n (p - 1)^2, so no slot of a
    product carries into the next. The product is unpacked with
    array.frombytes and reduced by one % p per coefficient. The remainder by m
    takes two more packed products: the quotient is the reversed top half
    times rev(m)^-1 mod x^(n - 1), a power series inverse made by Newton's
    iteration at the first product that needs it, once per modulus (von zur
    Gathen and Gerhard, Modern Computer Algebra, 9.1).
    """

    def __init__(self, m, p):
        self.m, self.p, self.n = m, p, len(m) - 1
        self.w = _slot_bytes(self.n, p)
        self.code = _SLOT_CODES.get(self.w)
        self.neg_m = self.pack([-c % p for c in m[:-1]])
        self.inv = None  # rev(m)^-1 mod x^(n-1), packed

    def pack(self, g) -> int:
        if self.code is None:
            w = self.w
            return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in g), "little")
        a = array(self.code, g)
        if _BIG_ENDIAN:
            a.byteswap()
        return int.from_bytes(a.tobytes(), "little")

    def slots(self, x: int, k: int):
        """The low k slots of x, each as an int in [0, 2^(8 w))."""
        w = self.w
        b = (x & ((1 << 8 * w * k) - 1)).to_bytes(k * w, "little")
        if self.code is None:
            return [int.from_bytes(b[i : i + w], "little") for i in range(0, k * w, w)]
        a = array(self.code)
        a.frombytes(b)
        if _BIG_ENDIAN:
            a.byteswap()
        return a

    def _inverse(self) -> int:
        p, n = self.p, self.n
        rev, inv = self.m[::-1], [1]  # rev(m) has constant term lc(m) = 1
        for j in reversed(range((n - 2).bit_length())):
            prec = -(-(n - 1) >> j)
            t = [-v % p for v in self.slots(self.pack(rev[:prec]) * self.pack(inv), prec)]
            t[0] = (t[0] + 2) % p
            inv = [v % p for v in self.slots(self.pack(inv) * self.pack(t), prec)]
        return self.pack(inv)

    def mul_mod(self, x: int, length: int) -> list[int]:
        """The packed product x of `length` slots, mod p and mod m, trimmed."""
        p, n = self.p, self.n
        c = [v % p for v in self.slots(x, length)]
        h = length - n  # quotient coefficients
        if h > 0:
            if self.inv is None:
                self.inv = self._inverse()
            q = [v % p for v in self.slots(self.pack(c[: n - 1 : -1]) * self.inv, h)]
            c = [(a + b) % p for a, b in zip(c, self.slots(self.pack(q[::-1]) * self.neg_m, n))]
        return zx_trim(c)

    def mul(self, f, g) -> list[int]:
        """f g mod m, for a nonzero f and a g reduced mod m."""
        return self.mul_mod(self.pack(f) * self.pack(g), len(f) + len(g) - 1)

    def pow(self, f, e: int) -> list[int]:
        """f^e mod m, for a nonzero f reduced mod m and e >= 1."""
        out, base = f, self.pack(f)
        for bit in bin(e)[3:]:
            x = self.pack(out)
            out = self.mul_mod(x * x, 2 * len(out) - 1)
            if bit == "1" and out:
                out = self.mul_mod(self.pack(out) * base, len(out) + len(f) - 1)
            if not out:
                return out
        return out


def fp_sub(f, g, p):
    return fp_norm(zx_sub(f, g), p)


def fp_derivative(f, p):
    return fp_norm([i * c for i, c in enumerate(f)][1:], p)


def fp_roots(f: ZX, p: int):
    """Yield (r, f'(r) mod p) for each root r of f mod p, least first.

    One Horner pass per residue gives f(r) and f'(r) together; a caller that
    has seen enough stops the scan by leaving its loop.
    """
    f = [c % p for c in reversed(f)]
    for r in range(p):
        v = d = 0
        for c in f:
            v, d = (v * r + c) % p, (d * r + v) % p
        if v == 0:
            yield r, d


def fp_is_squarefree(f, p):
    """Whether f is squarefree mod p: a nonzero constant is (a unit), zero is not."""
    f = fp_norm(f, p)
    if len(f) == 1:
        return True
    d = fp_derivative(f, p)
    return bool(d) and len(fp_gcd(f, d, p)) == 1


def fp_ddf(f, p, bound: int):
    """Distinct-degree factorization of a monic squarefree f: list of (product, degree).

    Each entry (g, d) with d <= bound is the product of the deg g / d
    irreducible factors of degree d. The search stops after degree bound,
    and the cofactor, whose irreducible factors all have degree > bound,
    comes last as one entry (cofactor, deg cofactor), which fp_edf returns
    unsplit. It stops after degree n / 2 in any case, where at most one
    factor is left, so bound = n finds every factor.

    The powers h_i = x^(p^i) mod f are made once, for i <= top = min(bound,
    n / 2), sharing one series inverse. A factor of degree d divides h_i - x
    exactly when d | i, so the gcd of f with the product of the h_i - x is
    the part of f of degree <= top: one gcd for the interval (von zur Gathen
    and Shoup, Comput. Complexity 2, 1992). The powers stop early, at i =
    last, where that product vanishes mod f. The per-degree gcds run on the
    part alone, with the h_d reduced mod it, for d < last: what is left then
    has degree last, or is one irreducible factor, and takes no gcd.
    """
    n = zx_deg(f)
    top = min(bound, n // 2)
    if top < 1:
        return [(f, n)] if n > 0 else []
    ring = _PackedMod(f, p)
    frobenius, acc = [[0, 1]], [1]
    while len(frobenius) <= top and acc:
        frobenius.append(ring.pow(frobenius[-1], p))
        acc = ring.mul(acc, fp_sub(frobenius[-1], [0, 1], p))
    last = len(frobenius) - 1
    v = fp_gcd(acc, f, p)
    cofactor = fp_divmod(f, v, p)[0]
    out = []
    d = 0
    while d + 1 < last and zx_deg(v) >= 2 * (d + 1):
        d += 1
        g = fp_gcd(fp_sub(fp_divmod(frobenius[d], v, p)[1], [0, 1], p), v, p)
        if zx_deg(g) > 0:
            out.append((g, d))
            v = fp_divmod(v, g, p)[0]
    if zx_deg(v) > 0:
        out.append((v, min(zx_deg(v), last)))
    if zx_deg(cofactor) > 0:
        out.append((cofactor, zx_deg(cofactor)))
    return out


def fp_edf(f, d, p, rng: random.Random):
    """Cantor-Zassenhaus split of monic squarefree f into its degree-d irreducible factors."""
    n = zx_deg(f)
    if n == d:
        return [f]
    ring = _PackedMod(f, p)
    while True:
        r = fp_norm([rng.randrange(p) for _ in range(n)], p)
        if zx_deg(r) < 1:
            continue
        g = fp_gcd(r, f, p)
        if not 0 < zx_deg(g) < n:
            if p == 2:
                # trace map: r + r^2 + r^4 + ... + r^(2^(d-1)) mod f
                acc = h = r
                for _ in range(d - 1):
                    acc = ring.pow(acc, 2)
                    h = fp_norm(zx_add(h, acc), 2)
            else:
                h = fp_sub(ring.pow(r, (p**d - 1) // 2), [1], p)
            g = fp_gcd(h, f, p)
            if not 0 < zx_deg(g) < n:
                continue
        return fp_edf(g, d, p, rng) + fp_edf(fp_divmod(f, g, p)[0], d, p, rng)


def fp_factor_squarefree(f, p) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over F_p, sorted.

    Raises InvalidParameterError when f is not squarefree mod p.
    """
    if not fp_is_squarefree(f, p):
        raise InvalidParameterError(f"polynomial is not squarefree mod {p}")
    return _fp_split(fp_ddf(f, p, zx_deg(f)), p)


def _fp_split(ddf, p) -> list[list[int]]:
    """The factors of each fp_ddf entry by fp_edf, sorted; the random source is seeded by p."""
    rng = random.Random(0x5EED ^ (p << 16))
    return sorted((h for g, d in ddf for h in fp_edf(g, d, p, rng)), key=lambda h: (len(h), h))


def _fp_squarefree_parts(f, p) -> list[tuple[list[int], int]]:
    # char-p squarefree decomposition; the p-th root step uses that Frobenius
    # fixes F_p, so g(x)^p = g(x^p) coefficientwise.
    out: list[tuple[list[int], int]] = []
    c = fp_gcd(f, fp_derivative(f, p), p)
    w = fp_divmod(f, c, p)[0]
    i = 1
    while zx_deg(w) > 0:
        y = fp_gcd(w, c, p)
        z = fp_divmod(w, y, p)[0]
        if zx_deg(z) > 0:
            out.append((z, i))
        w = y
        c = fp_divmod(c, y, p)[0]
        i += 1
    if zx_deg(c) > 0:
        root = [c[j] for j in range(0, len(c), p)]
        out.extend((g, m * p) for g, m in _fp_squarefree_parts(root, p))
    return out


def fp_factor(f, p) -> tuple[int, list[tuple[list[int], int]]]:
    """Complete factorization over F_p: (lc, [(monic irreducible, multiplicity)])."""
    f = fp_norm(f, p)
    if not f:
        raise InvalidParameterError("cannot factor the zero polynomial")
    lc = f[-1]
    f = fp_monic(f, p)
    out: list[tuple[list[int], int]] = []
    for part, mult in _fp_squarefree_parts(f, p):
        for g in fp_factor_squarefree(part, p):
            out.append((g, mult))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return lc, out


# ---------------------------------------------------------------------------
# Hensel lifting


def _zx_trunc(f: ZX, m: int) -> ZX:
    """Reduce coefficients into the symmetric residue system mod m."""
    out = []
    for c in f:
        c %= m
        if 2 * c > m:
            c -= m
        out.append(c)
    return zx_trim(out)


def _fp_gcdex(f, g, p):
    """(s, t) with s f + t g = 1 mod p for coprime f, g."""
    r0, r1 = fp_norm(f, p), fp_norm(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
        t0, t1 = t1, fp_sub(t0, fp_mul(q, t1, p), p)
    if zx_deg(r0) != 0:
        raise InvalidParameterError("gcdex of non-coprime polynomials")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def hensel_lift(p: int, f: ZX, factors: list[list[int]], target: int) -> list[ZX]:
    """Lift each monic mod-p factor g of f, on its own, to a monic factor mod p^target.

    The lift of g is the unique monic G = g mod p dividing f / lc(f) mod
    p^target, so when every modular factor of f is passed, the product of
    the lifts is f / lc(f) made monic mod p^target. Each lift takes Newton
    steps G += T (f mod G) mod G along the moduli p^ceil(target / 2^j), with
    T = (f div G)^-1 mod G, started by gcdex mod p and refreshed by
    T (2 - (f div G) T) mod G. Every product and division is by G, so a step
    costs O(deg f deg g) and the cofactor f / g is never formed. A linear g
    is x - r for a simple root r of f mod p, and its lift is x - R for the
    root R = r + O(p) of f mod p^target: each step is x <- x - f(x) / f'(x)
    mod the modulus, from one Horner pass that gives f(x) and f'(x).

    Raises InvalidParameterError when p divides lc(f), or a factor is not
    monic mod p, does not divide f mod p, or is not prime to f / g mod p.
    """
    if f[-1] % p == 0:
        raise InvalidParameterError(f"leading coefficient divisible by {p}")
    moduli = [p ** -(-target >> j) for j in reversed(range((target - 1).bit_length()))]
    f_mod = [fp_norm(f, M) for M in moduli]
    lifted = []
    for g in factors:
        g = fp_norm(g, p)
        if not g or g[-1] != 1:
            raise InvalidParameterError(f"factor is not monic mod {p}")
        if len(g) == 2:  # f'(r) = (f div g)(r) mod p, so r is simple iff g is prime to f div g
            x = -g[0]
            for M, fM in zip(moduli or [p], f_mod or [f]):
                v = d = 0
                for c in reversed(fM):
                    v, d = (v * x + c) % M, (d * x + v) % M
                if v % p:
                    raise InvalidParameterError(f"factor does not divide f mod {p}")
                if d % p == 0:
                    raise InvalidParameterError(f"factor and f / factor are non-coprime mod {p}")
                x = (x - v * pow(d, -1, M)) % M
            lifted.append(_zx_trunc([-x, 1], p**target))
            continue
        q, r = fp_divmod(f, g, p)
        if r:
            raise InvalidParameterError(f"factor does not divide f mod {p}")
        T, m = _fp_gcdex(q, g, p)[0], p
        for M, fM in zip(moduli, f_mod):
            q, r = fp_divmod(fM, g, M)
            if m > p:  # T, exact mod the previous modulus, is refreshed to mod m
                e = fp_divmod(zx_mul(q, T), g, m)[1]
                T = fp_divmod(zx_mul(T, zx_sub([2], e)), g, m)[1]
            g = fp_norm(zx_add(g, fp_divmod(zx_mul(T, r), g, M)[1]), M)
            m = M
        lifted.append(_zx_trunc(g, p**target))
    return lifted


# ---------------------------------------------------------------------------
# factorization over Z with a degree bound


def _good_primes(f: ZX):
    """The odd primes up to _P_LIMIT, least first, not dividing lc(f), where f stays squarefree."""
    found = False
    for p in range(3, _P_LIMIT + 1, 2):
        if is_prime(p) and f[-1] % p and fp_is_squarefree(f, p):
            found = True
            yield p
    if not found:
        raise ResourceError("no suitable factorization prime below threshold")


def _root_bound(f: ZX) -> int:
    """B = 2R, R the least power of two with R^i |lc f| >= |f_(n-i)| for 1 <= i <= n.

    Every complex root z of f has |z| < B (Fujiwara, Tohoku Math. J. 10,
    1916): at |z| >= 2R, sum_i |f_(n-i)| |z|^(n-i) <= |lc f| |z|^n sum_i
    (R / |z|)^i < |lc f| |z|^n. So a factor of f of degree k, a divisor of
    lc(f) times k of the linear factors x - z, has coefficients of modulus at
    most |lc f| (B + 1)^k and constant term at most |lc f| B^k. R is found
    from bit lengths, with one exact comparison per coefficient.
    """
    n = len(f) - 1
    lc = abs(f[-1])
    lc_bits = lc.bit_length()
    r = 0
    for i in range(1, n + 1):
        a = abs(f[n - i])
        if (lc << r * i) < a:
            r = max(r, -(-(a.bit_length() - lc_bits) // i))
            if (lc << r * i) < a:
                r += 1
    return 2 << r


def _lift_target(p: int, need: int) -> tuple[int, int]:
    """(t, p^t) for the least t with p^t >= need."""
    target, pl = 1, p
    while pl < need:
        target, pl = target + 1, pl * p
    return target, pl


def _degree_sums(ddf, bound: int) -> int:
    """Bit mask of the subset sums <= bound of the degrees of the modular factors."""
    sums, mask = 1, (1 << bound + 1) - 1
    for g, d in ddf:
        if d <= bound:
            for _ in range(zx_deg(g) // d):
                sums = (sums | sums << d) & mask
    return sums


def zx_factor_bounded(f: ZX, bound: int) -> tuple[list[ZX], ZX]:
    """Irreducible factors of degree <= bound of a primitive squarefree f, plus cofactor.

    Returns (factors, residual) with prod(factors) * residual = f exactly. The
    factors are primitive with positive leading coefficient, sorted.

    The work follows the bound. Only the bounded DDF runs at one or two good
    primes, least first: a factor of f over Q of degree k <= bound is a
    product of modular factors of total degree k at every prime, so k lies in
    the intersection of their sets of subset sums of degrees <= bound
    (Musser's degree analysis). When that leaves only 0, f has no factor of
    degree <= bound and nothing is split or lifted. A second prime is read
    only when the first leaves no modular factor of degree > bound and at
    least three of degree <= bound, and a third never: only then can a
    second degree set rule out every factor, or leave fewer factors to split
    and lift, at the cost of one more DDF. Only the prime with fewer
    modular factors of degree <= bound, the first on a tie, splits them; the
    product of the factors of higher degree stays one unsplit modular factor,
    which no recombination can use and which is never lifted. Each modular
    factor of degree <= bound is Hensel-lifted on its own to the least power
    of p past twice |lc f| times a coefficient bound for the factors of
    degree <= bound, the lesser of Mignotte's 2^bound ||f||_2 and
    (B + 1)^bound for the root bound B of _root_bound, and only subsets
    whose degree lies in the intersection are recombined. The result does
    not depend on the primes: the factors are the unique irreducible factors
    of f of degree <= bound.
    """
    f = zx_trim(f[:])
    n = zx_deg(f)
    if n < 1:
        return [], f
    bound = min(bound, n)
    # coefficient bound for a degree <= bound factor of f, times lc(f): the
    # lesser of Mignotte's and the one from the root bound
    bnd = min(2**bound * math.isqrt(zx_l2_norm_sq(f)) + 1, (_root_bound(f) + 1) ** bound)
    need = 2 * abs(f[-1]) * bnd + 1
    sums, reads = -1, []
    for p in _good_primes(f):
        ddf = fp_ddf(fp_monic(f, p), p, bound)
        sums &= _degree_sums(ddf, bound)
        if sums == 1:
            return [], f
        small = [(g, d) for g, d in ddf if d <= bound]
        reads.append((sum(zx_deg(g) // d for g, d in small), p, small))
        if len(reads) == 2 or len(small) < len(ddf) or reads[0][0] < 3:
            break
    _, p, small = min(reads, key=lambda r: r[0])
    target, pl = _lift_target(p, need)
    lifted = hensel_lift(p, f, _fp_split(small, p), target)
    return _recombine(f, lifted, pl, bound, sums)


def _recombine(f: ZX, lifted: list[ZX], pl: int, bound: int, sums: int):
    found: list[ZX] = []
    remaining = list(range(len(lifted)))
    degs = {i: zx_deg(lifted[i]) for i in remaining}
    budget = [_MAX_CANDIDATES]

    def try_subset(indices: list[int]) -> tuple[ZX, ZX] | None:
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceError(
                "factor recombination exceeded its work cap (non-squarefree input?)"
            )
        if not _trailing_test(f, [lifted[i][0] for i in indices], pl):
            return None
        g = [f[-1] % pl]
        for i in indices:
            g = fp_mul(g, lifted[i], pl)
        g = _zx_trunc(g, pl)
        _, g = zx_primitive(g)
        if zx_deg(g) < 1:
            return None
        q = zx_div_exact(f, g)
        if q is None:
            return None
        return g, q

    size = 1
    while remaining and size <= len(remaining):
        hit = False
        for combo in _combos_bounded(remaining, degs, size, bound, sums):
            res = try_subset(combo)
            if res is None:
                continue
            g, q = res
            found.append(g)
            f = q
            remaining = [i for i in remaining if i not in set(combo)]
            hit = True
            break
        if not hit:
            size += 1
    found.sort(key=lambda h: (zx_deg(h), h))
    return found, f


def _trailing_test(f: ZX, constants: list[int], pl: int) -> bool:
    """Whether the candidate lc(f) prod g_i mod pl may divide f, judged by constant terms.

    The g_i are the lifted factors, with constant terms `constants`. A true
    factor G of f = G Q of degree k gives the candidate lc(Q) G, whose
    constant term t = lc(Q) G(0) divides lc(f) f(0) = t lc(G) Q(0). Since
    |t| <= |lc f| B^k for the root bound B, and |t| is at most |lc f| times
    Mignotte's bound too, pl > 2 |t| keeps t exact, so no true factor fails.
    When f(0) = 0 every candidate passes.
    """
    if not f[0]:
        return True
    t = f[-1] % pl
    for c in constants:
        t = t * c % pl
    if 2 * t > pl:
        t -= pl
    return t != 0 and f[-1] * f[0] % t == 0


def _combos_bounded(indices, degs, size, bound, sums):
    """Subsets of the given size whose total degree is at most bound and in the bit mask sums."""
    idx = list(indices)

    def rec(start, chosen, total):
        if len(chosen) == size:
            if sums >> total & 1:
                yield list(chosen)
            return
        for k in range(start, len(idx)):
            i = idx[k]
            if total + degs[i] > bound:
                continue
            chosen.append(i)
            yield from rec(k + 1, chosen, total + degs[i])
            chosen.pop()

    yield from rec(0, [], 0)


def zx_factor(f: ZX) -> tuple[int, list[tuple[ZX, int]]]:
    """Complete factorization over Z: (content-with-sign, [(primitive factor, multiplicity)]).

    The irreducible factors are those of the squarefree part f / gcd(f, f'),
    found by one complete zx_factor_bounded; each multiplicity is read by
    exact division of f. The factors are sorted by (degree, coefficients).
    """
    f = zx_trim(f[:])
    if not f:
        raise InvalidParameterError("cannot factor the zero polynomial")
    c, f = zx_primitive(f)
    if zx_deg(f) == 0:
        return c, []
    part = zx_div_exact(f, zx_gcd(f, zx_derivative(f)))
    factors, residual = zx_factor_bounded(part, zx_deg(part))
    if zx_deg(residual) > 0:
        factors.append(zx_primitive(residual)[1])
    out: list[tuple[ZX, int]] = []
    for g in sorted(factors, key=lambda h: (zx_deg(h), h)):
        mult = 0
        while (q := zx_div_exact(f, g)) is not None:
            f, mult = q, mult + 1
        out.append((g, mult))
    return c, out


def zx_is_irreducible(f: ZX) -> bool:
    c, parts = zx_factor(f)
    return len(parts) == 1 and parts[0][1] == 1 and zx_deg(parts[0][0]) == zx_deg(zx_trim(f[:]))


# ---------------------------------------------------------------------------
# rational roots


def zx_rational_roots(f: ZX) -> list[Fraction]:
    """The rational roots of a squarefree f in Z[x], least first.

    p is the least odd prime not dividing lc = lc(f) at which every root of f
    mod p is simple, found by one fp_roots scan per prime, left at the first
    double root. Each root is lifted to the root R of f mod p^t > 2 |lc| B, B
    Fujiwara's root bound, and the candidate is (lc R mod p^t, in the
    symmetric range) / lc, kept if f vanishes there. A rational root a/b has
    b | lc, so it reduces mod p to a simple root, whose lift is unique
    (Hensel), and |lc a/b| < |lc| B < p^t / 2.
    """
    lc = f[-1]
    for p in (q for q in range(3, _P_LIMIT + 1, 2) if lc % q and is_prime(q)):
        roots = []
        for r, d in fp_roots(f, p):
            if d == 0:  # a double root mod p: try the next prime
                break
            roots.append(r)
        else:  # every root mod p is simple
            break
    else:
        raise ResourceError("no prime below threshold where every root is simple")
    target, pl = _lift_target(p, 2 * abs(lc) * _root_bound(f) + 1)
    found = []
    for g in hensel_lift(p, f, [[-r, 1] for r in roots], target):
        c = (pl // 2 - g[0] * lc) % pl - pl // 2  # lc R in the symmetric range
        k = math.gcd(c, lc) if lc > 0 else -math.gcd(c, lc)
        a, b = c // k, lc // k
        v, bk = 0, 1
        for coeff in reversed(f):  # b^n f(a / b)
            v, bk = v * a + coeff * bk, bk * b
        if v == 0:
            found.append(Fraction(a, b))
    return sorted(found)
