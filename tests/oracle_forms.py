"""Reduced-form oracles used by the tests, with a composition of their own.

Forms are (a, b, c) tuples, as in the library. Nothing here calls the
library's reduction or composition, so the oracles check it rather than
themselves:

- `reduce_form` normalizes b into (-a, a] by b mod 2a, recomputing c from
  the discriminant, and swaps (a, b, c) -> (c, -b, a) while a > c.
- `compose` is Dirichlet's united forms (Cox, *Primes of the Form x^2 + ny^2*,
  Lemma 3.2): g is first moved, by a matrix of determinant 1 found by
  search, to a form whose first coefficient is prime to a1; then B is the one
  value mod 2 a1 a2 with B = b1 mod 2a1 and B = b2 mod 2a2, found by trying
  each B = b1 + 2 a1 k (or b2 + 2 a2 k, whichever list is shorter). It covers
  every D, fundamental or not.

`reduced_forms_naive` is independent of the library's sieve: every pair
(a, b) with |b| <= a <= sqrt(|D|/3) is tried, about |D|/3 steps. Slow on
purpose; only correctness matters here. `is_reduced` checks the reduction
conditions directly, `inverse` negates b, and `form_order` counts
compositions up to the identity.
`torsion_subgroup` raises every form to the n-th power, the exhaustive check
on the library's Sylow walk, and `class_group_invariants` reads the
elementary divisors of cl(D) off the orders of all its forms.
"""

from __future__ import annotations

import math
from itertools import count


def disc(f: tuple[int, int, int]) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def principal_form(D: int) -> tuple[int, int, int]:
    """(1, b, c) with b = 0 or 1 as D is even or odd."""
    b = 0 if D % 4 == 0 else 1
    return (1, b, (b - D) // 4)


def is_reduced(f: tuple[int, int, int]) -> bool:
    """-a < b <= a <= c, with b >= 0 when a == c."""
    a, b, c = f
    if not (-a < b <= a <= c):
        return False
    return b >= 0 if a == c else True


def reduce_form(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """The reduced form properly equivalent to f (positive definite)."""
    D = disc(f)
    a, b, _ = f
    while True:
        b %= 2 * a  # (x, y) -> (x + k y, y) moves b by 2ka
        if b > a:
            b -= 2 * a
        c = (b * b - D) // (4 * a)
        if a < c or (a == c and b >= 0):
            return (a, b, c)
        a, b = c, -b  # (x, y) -> (-y, x)


def _move_a_prime_to(g: tuple[int, int, int], m: int) -> tuple[int, int, int]:
    """A form properly equivalent to g whose first coefficient is prime to m."""
    a, b, c = g
    if math.gcd(a, m) == 1:
        return g
    for r in count(1):
        for x in range(-r, r + 1):
            for y in (-r, r) if abs(x) < r else range(-r, r + 1):
                if math.gcd(x, y) != 1:
                    continue
                val = a * x * x + b * x * y + c * y * y
                if math.gcd(val, m) != 1:
                    continue
                # a second column (p, q) with x q - y p = 1
                if x == 0:
                    p, q = -y, 0
                else:
                    p = next(p for p in range(abs(x)) if (1 + y * p) % x == 0)
                    q = (1 + y * p) // x
                b2 = 2 * a * x * p + b * (x * q + y * p) + 2 * c * y * q
                return (val, b2, a * p * p + b * p * q + c * q * q)


def compose(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """The reduced form of the class [f][g], by Dirichlet's united forms."""
    D = disc(f)
    assert disc(g) == D
    a1, b1, _ = f
    a2, b2, _ = _move_a_prime_to(g, a1)
    if a2 > a1:  # search the shorter of the two progressions
        a1, b1, a2, b2 = a2, b2, a1, b1
    B = next(B for B in (b1 + 2 * a1 * k for k in range(a2)) if (B - b2) % (2 * a2) == 0)
    return reduce_form((a1 * a2, B, (B * B - D) // (4 * a1 * a2)))


def form_power(f: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    """f^n for n >= 0, by binary powering."""
    out = principal_form(disc(f))
    while n:
        if n & 1:
            out = compose(out, f)
        f = compose(f, f)
        n >>= 1
    return out


def inverse(f: tuple[int, int, int]) -> tuple[int, int, int]:
    """The inverse class: (a, -b, c), reduced."""
    a, b, c = f
    return reduce_form((a, -b, c))


def form_order(f: tuple[int, int, int]) -> int:
    """Order of the class of f in cl(D), by repeated composition."""
    one = principal_form(disc(f))
    g = reduce_form(f)
    n = 1
    while g != one:
        g = compose(g, f)
        n += 1
    return n


def reduced_forms_naive(D: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms (a, b, c) of discriminant D < 0, in (a, b) order."""
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


def torsion_subgroup(forms: list[tuple[int, int, int]], n: int) -> list[tuple[int, int, int]]:
    """The n-torsion of cl(D), given all of its reduced forms.

    Every element's order divides h = len(forms), so when gcd(n, h) = 1 the
    n-torsion is trivial and no power is taken.
    """
    one = principal_form(disc(forms[0]))
    if math.gcd(n, len(forms)) == 1:
        return [one]
    return [f for f in forms if form_power(f, n) == one]


def _divisor_chains(h: int, first: int = 1):
    """Every tuple d_1 | d_2 | ... of integers > 1 with product h and first | d_1."""
    if h == 1:
        yield ()
    for d in range(2, h + 1):
        if h % d == 0 and d % first == 0:
            for rest in _divisor_chains(h // d, d):
                yield (d, *rest)


def class_group_invariants(forms: list[tuple[int, int, int]]) -> tuple[int, ...]:
    """Elementary divisors d_1 | d_2 | ... of cl(D), given all of its reduced forms.

    The group Z/d_1 x Z/d_2 x ... has prod_i gcd(n, d_i) elements of order
    dividing n, and these counts for all n | h tell finite abelian groups of
    order h apart. So the one chain of divisors whose counts match the orders
    of the forms is the structure. Small h only: every chain is tried.
    """
    orders = [form_order(f) for f in forms]
    h = len(forms)
    counts = {n: sum(1 for k in orders if n % k == 0) for n in range(1, h + 1) if h % n == 0}
    (chain,) = [
        chain
        for chain in _divisor_chains(h)
        if all(math.prod(math.gcd(n, d) for d in chain) == c for n, c in counts.items())
    ]
    return chain
