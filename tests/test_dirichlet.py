import itertools
import math
import random
import time

import pytest

import oracle_dirichlet
from twistsel.dirichlet import DirichletPredicate, minus_one_congruence_predicate, unit_group_orders
from twistsel.errors import InvalidParameterError
from twistsel.intmath import is_prime


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 11, 12, 15, 16, 22, 24, 45, 77])
def test_unit_group_orders(n):
    gens, orders = oracle_dirichlet.unit_group(n)
    prod = 1
    for o in orders:
        prod *= o
    assert prod == euler_phi(n)
    for g, o in zip(gens, orders):
        assert math.gcd(g, n) == 1
        assert pow(g, o, n) == 1
        # o is the exact order
        for q in {2, 3, 5, 7, 11}:
            if o % q == 0:
                assert pow(g, o // q, n) != 1


def test_default_congruence_predicate():
    pred = minus_one_congruence_predicate(5)
    assert pred(19) and pred(29)
    assert not pred(11) and not pred(5)
    assert "mod 5" in pred.description


def test_character_mod_11_order_5():
    # (Z/11)* is cyclic of order 10; exponent 1 on the generator gives order 5
    chi = DirichletPredicate(11, 5, (1,))
    assert chi.is_nonzero_at(3) and chi.is_nonzero_at(2)
    assert not chi.is_nonzero_at(11)
    assert not chi.is_nonzero_at(22)


def test_character_wrong_order_rejected():
    with pytest.raises(InvalidParameterError):
        DirichletPredicate(11, 5, (0,))  # trivial
    with pytest.raises(InvalidParameterError):
        DirichletPredicate(7, 5, (1,))  # 5 does not divide 6 = ord(g)
    with pytest.raises(InvalidParameterError):
        DirichletPredicate(11, 4, (1,))  # order must be an odd prime


def test_imprimitive_rejected():
    # every order-5 character mod 22 is induced from one mod 11
    with pytest.raises(InvalidParameterError):
        DirichletPredicate(22, 5, (1,))


def test_character_mod_25_order_5():
    chi = DirichletPredicate(25, 5, (1,))
    assert chi.is_nonzero_at(2)
    assert not chi.is_nonzero_at(5)


def test_unit_group_orders_match_the_generators():
    for n in range(1, 2001):
        factors = unit_group_orders(n)
        assert tuple(order for _p, order in factors) == oracle_dirichlet.unit_group(n)[1], n
        assert [p for p, _order in factors] == sorted(p for p, _order in factors)
    with pytest.raises(InvalidParameterError, match="modulus must be positive"):
        unit_group_orders(0)


def _outcome(cls, f, ell, exponents):
    """The reduced exponents of an accepted character, or the refusal message."""
    try:
        return cls(f, ell, exponents).exponents
    except InvalidParameterError as exc:
        return str(exc)


def _exponent_vectors(ell, k, rng):
    """Every vector in [0, ell)^k when there are at most 200, else 40 seeded
    ones with entries in [-ell, 2 ell); then one too long and one too short."""
    if ell**k <= 200:
        yield from itertools.product(range(ell), repeat=k)
    else:
        for _ in range(40):
            yield tuple(rng.randrange(-ell, 2 * ell) for _ in range(k))
    yield (1,) * (k + 1)
    if k:
        yield (1,) * (k - 1)


def test_validation_matches_the_element_level_oracle():
    rng = random.Random(15)
    accepted = set()
    for f in range(-2, 601):
        k = len(oracle_dirichlet.unit_group(f)[1]) if f >= 1 else 1
        for ell in (2, 3, 5, 7, 11, 13):
            for exponents in _exponent_vectors(ell, k, rng):
                want = _outcome(oracle_dirichlet.DirichletPredicate, f, ell, exponents)
                assert _outcome(DirichletPredicate, f, ell, exponents) == want, (f, ell, exponents)
                if isinstance(want, tuple) and f not in accepted:
                    accepted.add(f)
                    chi = DirichletPredicate(f, ell, exponents)
                    old = oracle_dirichlet.DirichletPredicate(f, ell, exponents)
                    for p in range(-5, 2 * f):
                        assert chi.is_nonzero_at(p) == old.is_nonzero_at(p), (f, p)
    assert {11, 25, 49, 11 * 31, 25 * 11} <= accepted


def test_conductor_near_ten_to_the_thirteen_is_accepted_at_once():
    # 25 p q with p, q = 1 (mod 5) near 10^6: the element-level oracle would
    # tabulate all phi(f) ~ 2*10^13 units; the orders need one factorization
    p, q = (next(n for n in range(start, start + 10**4, 10) if is_prime(n))
            for start in (10**6 + 1, 10**6 + 10**3 + 1))
    start = time.perf_counter()
    chi = DirichletPredicate(25 * p * q, 5, (1, 1, 1))
    assert time.perf_counter() - start < 1
    assert not chi.is_nonzero_at(5) and not chi.is_nonzero_at(p) and not chi.is_nonzero_at(q)
    assert chi.is_nonzero_at(2) and chi.is_nonzero_at(11)
    with pytest.raises(InvalidParameterError, match="induced"):
        DirichletPredicate(25 * p * q, 5, (5, 1, 1))
