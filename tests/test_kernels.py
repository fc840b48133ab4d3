"""Correctness of the hot kernels against independent oracles."""

import math
import random
import time
import tracemalloc

import pytest

from twistsel import _kernels, quadforms
from twistsel.errors import InvalidParameterError, ResourceError, UnsupportedError
from twistsel.intmath import factorint, is_prime, is_squarefree, kronecker
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


def test_class_number_matches_exhaustive_oracle():
    # the count against the exhaustive pair search, non-fundamental D included
    for D in range(-3, -4001, -1):
        if D % 4 in (0, 1):
            assert _kernels.class_number(D) == len(reduced_forms_naive(D)), D


def _prime_below(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


def test_class_number_matches_form_list():
    """The count against the list kernel on seeded D in [10^6, 10^8], with
    discriminants that are not fundamental at 2, at 3 and at a large prime."""
    rng = random.Random(20)
    seeded = _seeded_discriminants(10**6, 10**8, 16, lambda D: True)
    # 4 | D/4, and 9 | D
    seeded += [-16 * rng.randrange(10**5, 6 * 10**6) for _ in range(4)]
    seeded += [D for D in (-9 * rng.randrange(10**5, 10**7) for _ in range(12)) if D % 4 in (0, 1)][:4]
    # p^2 | D with p prime near sqrt(|D|/3): p^2 | D forces |D| >= 3 p^2, and
    # D = -3 p^2 puts p at the top, a = p, where (p, p, p) is imprimitive
    for size in (2 * 10**6, 3 * 10**7, 9 * 10**7):
        for m in (3, 4, 7, 8):
            p = _prime_below(math.isqrt(size // m))
            seeded.append(-m * p * p)
    # high powers of 2 and 3, lifted past a single Hensel step
    seeded += [-(2**20), -7 * 2**20, -(3**15), -4 * 3**14, -11 * 4**10]
    assert all(D % 4 in (0, 1) for D in seeded)
    assert any((D // 4) % 4 in (0, 1) for D in seeded if D % 4 == 0)
    assert sum(not _is_fundamental(D) for D in seeded) >= 20
    for D in seeded:
        assert _kernels.class_number(D) == len(_kernels.reduced_forms(D)), D


def test_local_roots_match_the_definition():
    """The roots at one prime power a = p^k against a search over (-a, a]."""
    for D in (-3, -12, -16, -36, -44, -48, -108, -128, -144, -400, -972, -1024, -2700, -3136, -3375):
        for p in (2, 3, 5, 7):
            for k in range(1, 6):
                a = p**k
                found = set()
                for b in range(-a + 1, a + 1):
                    if (b * b - D) % (4 * a) == 0 and math.gcd(math.gcd(a, b), (b * b - D) // (4 * a)) == 1:
                        found.add(b % (2 * a if p == 2 else a))
                assert sorted(_kernels._local_roots(D, p, k)) == sorted(found), (D, p, k)


def test_class_number_lists_no_forms(monkeypatch):
    def no_list(D):
        raise AssertionError("class_number listed the forms")

    monkeypatch.setattr(_kernels, "reduced_forms", no_list)
    known = {-3: 1, -4: 1, -20: 2, -36: 2, -5460: 16, -4000004: 1032}
    for D, h in known.items():
        assert _kernels.class_number(D) == h, D


def test_class_number_peak_memory_is_bounded():
    """One call's tracemalloc peak, the count against the list, at one D."""
    D = -400000003
    peaks = []
    for kernel in (_kernels.class_number, _kernels.reduced_forms):
        tracemalloc.start()
        try:
            kernel(D)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    count_peak, list_peak = peaks
    assert count_peak < 0.5 * 2**20
    assert count_peak < list_peak / 2


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
