"""Reduced-form oracles used by the tests.

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

from twistsel.quadforms import BQF, compose, form_power, principal_form


def is_reduced(f: BQF) -> bool:
    """-a < b <= a <= c, with b >= 0 when a == c."""
    if not (-f.a < f.b <= f.a <= f.c):
        return False
    return f.b >= 0 if f.a == f.c else True


def inverse(f: BQF) -> BQF:
    """The inverse class: (a, -b, c), reduced."""
    return BQF(f.a, -f.b, f.c).reduced()


def form_order(f: BQF) -> int:
    """Order of the class of f in cl(D), by repeated composition."""
    one = principal_form(f.disc)
    g = f.reduced()
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


def torsion_subgroup(forms: list[BQF], n: int) -> list[BQF]:
    """The n-torsion of cl(D), given all of its reduced forms.

    Every element's order divides h = len(forms), so when gcd(n, h) = 1 the
    n-torsion is trivial and no power is taken.
    """
    one = principal_form(forms[0].disc)
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


def class_group_invariants(forms: list[BQF]) -> tuple[int, ...]:
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
