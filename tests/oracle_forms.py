"""Reduced-form oracles used by the tests.

`reduced_forms_naive` is independent of the library's sieve: every pair
(a, b) with |b| <= a <= sqrt(|D|/3) is tried, about |D|/3 steps. Slow on
purpose; only correctness matters here. `is_reduced` checks the reduction
conditions directly, and `form_order` counts compositions up to the identity.
`torsion_subgroup` raises every form to the n-th power, the exhaustive check
on the library's Sylow walk.
"""

from __future__ import annotations

import math

from twistsel.quadforms import BQF, compose, form_power, principal_form


def is_reduced(f: BQF) -> bool:
    """-a < b <= a <= c, with b >= 0 when a == c."""
    if not (-f.a < f.b <= f.a <= f.c):
        return False
    return f.b >= 0 if f.a == f.c else True


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
