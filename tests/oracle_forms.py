"""Exhaustive reduced-form oracle used by the tests.

Independent of the library's sieve: every pair (a, b) with
|b| <= a <= sqrt(|D|/3) is tried, about |D|/3 steps. Slow on purpose; only
correctness matters here.
"""

from __future__ import annotations

import math


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
