"""Correctness of the hot kernels against independent oracles."""

import pytest

from twistsel import _kernels
from twistsel.intmath import is_squarefree, kronecker
from oracle_ec import count_points_naive

CURVES = [
    (0, -1, 1, 0, 0),
    (0, 0, 1, -1, 0),
    (1, 1, 1, -10, -10),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
]


@pytest.mark.parametrize("ainvs", CURVES)
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 23, 41, 101])
def test_count_points_vs_naive(ainvs, p):
    reduced = tuple(a % p for a in ainvs)
    got = _kernels.count_points(*reduced, p)
    want = count_points_naive(ainvs, p)
    assert got == want


def _is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return is_squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and is_squarefree(D // 4)


def _analytic_class_number(D: int) -> int:
    """h(D) = w / (2 (2 - chi(2))) * sum_{1 <= a < |D|/2} chi(a), chi = (D/.) (Cohen, ch. 5)."""
    w = {-3: 6, -4: 4}.get(D, 2)
    total = sum(kronecker(D, a) for a in range(1, (-D + 1) // 2))
    num, den = w * total, 2 * (2 - kronecker(D, 2))
    assert num % den == 0
    return num // den


def test_class_number_matches_analytic_formula():
    checked = 0
    for D in range(-3, -1001, -1):
        if not _is_fundamental(D):
            continue
        h = _analytic_class_number(D)
        assert _kernels.class_number(D) == h, D
        assert len(_kernels.reduced_forms(D)) == h, D
        checked += 1
    assert checked == 305  # fundamental discriminants in [-1000, -3]


def test_known_class_numbers():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -24: 2,
             -31: 3, -39: 4, -47: 5, -71: 7, -95: 8, -148: 2, -163: 1, -5460: 16}
    for D, h in known.items():
        assert _kernels.class_number(D) == h, D
