import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from oracle_dirichlet import primitive_root
from twistsel import intmath
from twistsel.errors import InvalidParameterError
from twistsel.intmath import (
    _iroot,
    _iroot_perfect_power,
    factorint,
    is_prime,
    is_square,
    is_squarefree,
    jacobi,
    kronecker,
    legendre,
    log_p,
    primes_up_to,
    squarefree_sieve,
    valuation,
    xgcd,
)


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_xgcd_gives_a_bezout_identity(a, b):
    g, x, y = xgcd(a, b)
    assert x * a + y * b == g and abs(g) == math.gcd(a, b)


def test_primes_small():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [n for n in range(60) if is_prime(n)] == primes_up_to(59)


def test_is_prime_larger():
    assert is_prime(10**9 + 7)
    assert not is_prime(2**61 + 1)  # divisible by 3
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)


@given(st.integers(min_value=2, max_value=10**6))
def test_factorint_reconstructs(n):
    f = factorint(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factorint_bigger():
    n = 2**5 * 3 * 10**9 + 7  # arbitrary
    f = factorint(n)
    prod = 1
    for p, e in f.items():
        prod *= p**e
    assert prod == n
    assert factorint(-12) == {2: 2, 3: 1}
    with pytest.raises(InvalidParameterError):
        factorint(0)


def _prime_above(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def test_perfect_powers_of_large_primes():
    # exact integer roots: floats lose p**2 above 2**53 and overflow above 2**1024
    p = _prime_above(10**20)
    assert _iroot_perfect_power(p**2) == (p, 2)
    assert factorint(p**2) == {p: 2}
    assert factorint(p**3) == {p: 3}
    assert factorint(-(p**3) * 12) == {2: 2, 3: 1, p: 3}
    q = _prime_above(2**600)
    assert not is_squarefree(-(q * q))
    assert factorint(q**5) == {q: 5}


def test_perfect_power_root_is_factored_once(monkeypatch):
    calls = []
    rho = intmath._brent_rho
    monkeypatch.setattr(intmath, "_brent_rho", lambda n, budget: calls.append(n) or rho(n, budget))
    b = 1000003 * 1000033
    assert factorint(b**3) == {1000003: 3, 1000033: 3}
    assert calls == [b]


@given(st.integers(min_value=1, max_value=2**400), st.integers(min_value=2, max_value=12))
def test_iroot_is_floor_root(n, k):
    b = _iroot(n, k)
    assert b**k <= n < (b + 1) ** k


@given(st.integers(min_value=-300, max_value=300))
def test_squarefree_matches_definition(n):
    if n == 0:
        assert not is_squarefree(n)
        return
    naive = all(n % (k * k) for k in range(2, int(abs(n)) + 1) if k * k <= abs(n))
    assert is_squarefree(n) == naive


def test_squarefree_agrees_with_factorint():
    rng = random.Random(64)
    for _ in range(300):
        n = rng.randrange(1, 2**64)
        assert is_squarefree(n) == all(e == 1 for e in factorint(n).values())


def test_squarefree_stops_at_a_rho_split_sharing_a_factor(monkeypatch):
    # q^2 r with q, r primes above 10^6: rho may split off q, q r, q^2 or r;
    # the first two leave halves sharing q, the last two a perfect square
    shared = []
    rho = intmath._brent_rho

    def spy(m, budget):
        d = rho(m, budget)
        shared.append(intmath.math.gcd(d, m // d) > 1)
        return d

    monkeypatch.setattr(intmath, "_brent_rho", spy)
    rng = random.Random(6)
    for _ in range(12):
        q = _prime_above(rng.randrange(10**6, 10**7))
        r = _prime_above(rng.randrange(10**6, 10**7))
        if q == r:
            continue
        assert not is_squarefree(q * q * r)
        assert factorint(q * q * r) == {q: 2, r: 1}
        assert is_squarefree(q * r)
    assert any(shared)


def test_squarefree_sieve_agrees():
    # the second window lies near -10^9 and holds -31607^2, the square of the
    # largest prime the sieve reads there
    q2 = 31607**2
    for lo, hi in ((-100, -1), (-q2 - 200, -q2 + 199)):
        flags = squarefree_sieve(lo, hi)
        for n in range(lo, hi + 1):
            assert flags[n - lo] == is_squarefree(n), n
    assert not flags[-q2 - lo]


def test_squarefree_sieve_holds_one_byte_per_n():
    # a list of bools peaked at 7.6 MiB over this width; a bytearray needs 1 MB
    tracemalloc.start()
    try:
        flags = squarefree_sieve(-10**6, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(flags) == 10**6
    assert peak < 2 * 2**20, peak


@given(st.integers(min_value=-200, max_value=200))
def test_legendre_vs_jacobi(a):
    for p in (3, 5, 7, 11, 13):
        assert legendre(a, p) == jacobi(a, p) == kronecker(a, p)


def test_legendre_euler():
    # quadratic residues mod 11
    squares = {x * x % 11 for x in range(1, 11)}
    for a in range(1, 11):
        assert legendre(a, 11) == (1 if a in squares else -1)


def test_kronecker_at_2():
    # (D/2) for odd D follows the mod 8 rule
    # (a/2) = +1 for a = +-1 mod 8 and -1 for a = +-3 mod 8
    for D, want in ((1, 1), (7, 1), (9, 1), (3, -1), (5, -1), (-1, 1), (-7, 1), (-5, -1)):
        assert kronecker(D, 2) == want
    assert kronecker(4, 2) == 0


def test_log_p():
    assert log_p(5**60, 5) == 60
    assert log_p(1, 7) == 0
    for n, p in ((12, 2), (0, 3), (-8, 2), (8, 1)):
        with pytest.raises(InvalidParameterError):
            log_p(n, p)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-27, 3) == 3
    assert valuation(5, 7) == 0
    with pytest.raises(InvalidParameterError):
        valuation(0, 5)
    for base in (1, 0):
        with pytest.raises(InvalidParameterError, match="base of at least 2"):
            valuation(12, base)


def test_primitive_root():
    for p in (3, 5, 7, 11, 13, 101):
        g = primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1


def test_is_square():
    assert is_square(0) and is_square(49)
    assert not is_square(50) and not is_square(-4)
