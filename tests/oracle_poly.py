"""Polynomial oracles used by the tests.

`zx_eval` is Horner evaluation of a coefficient list (lowest degree first).
`sylvester_resultant` is the determinant of the Sylvester matrix by Gaussian
elimination over Fraction, independent of the library's fraction-free
Bareiss elimination over Z[z].
"""

from __future__ import annotations

from fractions import Fraction


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
