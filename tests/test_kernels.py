"""Correctness of the hot kernels against independent oracles."""

import random
import time

import pytest

from twistsel import _kernels, quadforms
from twistsel.errors import InvalidParameterError, ResourceError, UnsupportedError
from twistsel.intmath import factorint, is_squarefree, kronecker
from oracle_ec import count_points_naive
from oracle_forms import reduced_forms_naive

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


def _seeded_discriminants(lo, hi, count, keep):
    rng = random.Random(2016)
    out = []
    while len(out) < count:
        D = -rng.randrange(lo, hi + 1)
        if D % 4 in (0, 1) and keep(D):
            out.append(D)
    return out


def test_class_number_matches_analytic_formula():
    small = [D for D in range(-3, -1001, -1) if _is_fundamental(D)]
    assert len(small) == 305  # fundamental discriminants in [-1000, -3]
    # larger D, where the first coefficients a of the reduced forms include
    # products of two or more primes and prime powers
    large = _seeded_discriminants(10**5, 2 * 10**5, 6, _is_fundamental)
    leading = {f[0] for D in large for f in _kernels.reduced_forms(D)}
    assert any(len(factorint(a)) >= 2 for a in leading)
    assert any(len(factorint(a)) == 1 and max(factorint(a).values()) >= 2 for a in leading)
    for D in small + large:
        h = _analytic_class_number(D)
        assert _kernels.class_number(D) == h, D
        assert len(_kernels.reduced_forms(D)) == h, D


def test_reduced_forms_match_exhaustive_oracle():
    # every discriminant in [-4000, -3], non-fundamental ones included
    for D in range(-3, -4001, -1):
        if D % 4 in (0, 1):
            assert _kernels.reduced_forms(D) == reduced_forms_naive(D), D
    large = _seeded_discriminants(10**6, 4 * 10**6, 8, lambda D: True)
    assert any(len(factorint(-D)) >= 4 for D in large)
    assert any(not _is_fundamental(D) for D in large)
    for D in large:
        assert _kernels.reduced_forms(D) == reduced_forms_naive(D), D


@pytest.mark.parametrize(
    "D, error",
    [
        (0, UnsupportedError),
        (5, UnsupportedError),
        (-1, InvalidParameterError),
        (-2, InvalidParameterError),
        (-1000013, InvalidParameterError),  # 3 mod 4
    ],
)
def test_reduced_forms_refuse_non_discriminants(D, error):
    for enumerate_forms in (
        _kernels.reduced_forms,
        _kernels.class_number,
        quadforms.reduced_forms,
        quadforms.class_number,
    ):
        with pytest.raises(error):
            enumerate_forms(D)


def test_reduced_forms_refuse_past_the_ceiling():
    """Just past the |D| ceiling the kernels raise before allocating the sieve."""
    D = -(_kernels._MAX_ABS_DISC + 4)
    for enumerate_forms in (_kernels.reduced_forms, _kernels.class_number):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="ceiling"):
            enumerate_forms(D)
        assert time.perf_counter() - start < 0.1


def test_known_class_numbers():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -24: 2,
             -31: 3, -39: 4, -47: 5, -71: 7, -95: 8, -148: 2, -163: 1, -5460: 16}
    for D, h in known.items():
        assert _kernels.class_number(D) == h, D
