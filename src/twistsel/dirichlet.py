"""Dirichlet characters of odd prime order, used as ramification predicates.

A character of order ell on (Z/f)* corresponds to a cyclic degree-ell field
ramified exactly at the primes dividing the conductor; chi(p) = 0 iff p
ramifies there. The checker consumes only that vanishing predicate, but the
character data is validated in full: exact order ell and primitivity. Both
depend only on the orders of the cyclic factors of (Z/f)*, so validation
costs one factorization of f and builds no group element.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidParameterError
from .intmath import factorint, is_prime


def unit_group_orders(modulus: int) -> tuple[tuple[int, int], ...]:
    """(p, order) of each cyclic factor of (Z/modulus)*, primes ascending.

    2^e gives (2, 2) for e >= 2 and also (2, 2^(e-2)) for e >= 3; an odd p^e
    gives (p, (p-1) p^(e-1)).
    """
    if modulus < 1:
        raise InvalidParameterError("modulus must be positive")
    factors: list[tuple[int, int]] = []
    for p, e in factorint(modulus).items():
        if p != 2:
            factors.append((p, (p - 1) * p ** (e - 1)))
            continue
        if e >= 2:
            factors.append((2, 2))
        if e >= 3:
            factors.append((2, 2 ** (e - 2)))
    return tuple(factors)


class _DirichletPredicateTuple(NamedTuple):
    modulus: int
    ell: int
    exponents: tuple[int, ...]


class DirichletPredicate(_DirichletPredicateTuple):
    """Order-ell character chi mod f, given by exponents on the generators of (Z/f)*.

    chi(g_i) = zeta_ell ** exponents[i], one exponent per factor of
    unit_group_orders(f), in that order. The generators are -1, then 5, at
    2^e; at an odd p^e, the least primitive root g mod p, or g + p when
    g^(p-1) = 1 (mod p^2); each lifted to 1 mod the rest of f. The predicate
    used by the checker is chi(p) != 0, i.e. p does not divide the conductor.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, ell: int, exponents: tuple[int, ...]):
        if not is_prime(ell) or ell == 2:
            raise InvalidParameterError("character order must be an odd prime")
        factors = unit_group_orders(modulus)
        if len(exponents) != len(factors):
            raise InvalidParameterError(
                f"need {len(factors)} exponent(s) for the generators of (Z/{modulus})*"
            )
        self = super().__new__(cls, modulus, ell, tuple(e % ell for e in exponents))
        for e, (_p, order) in zip(self.exponents, factors):
            # chi(g)^order(g) must be 1: ell | e * order
            if (e * order) % ell:
                raise InvalidParameterError("exponents do not define a character on the group")
        if all(e == 0 for e in self.exponents):
            raise InvalidParameterError("character is trivial; order must be exactly ell")
        # chi is induced from f/p iff it is trivial on the kernel of
        # (Z/f)* -> (Z/(f/p))*. At p = 2 that kernel is trivial or a 2-group,
        # so an odd-order chi is trivial there. At odd p it is the whole factor
        # when p || f, and when p^2 | f (exactly when p | order) the subgroup
        # of order p, generated by g^(order/p) for any generator g.
        if modulus % 2 == 0 or any(
            e * (order // p if order % p == 0 else 1) % ell == 0
            for e, (p, order) in zip(self.exponents, factors)
        ):
            raise InvalidParameterError("character is induced from a smaller conductor")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

    def is_nonzero_at(self, p: int) -> bool:
        """chi(p) != 0, i.e. p is unramified in the attached cyclic field."""
        return math.gcd(p, self.modulus) == 1

    def describe(self) -> str:
        return f"order-{self.ell} character mod {self.modulus}"


def minus_one_congruence_predicate(ell: int):
    """The default ramification predicate: p = -1 (mod ell)."""

    def pred(p: int) -> bool:
        return p % ell == ell - 1

    pred.description = f"p ≡ -1 (mod {ell})"
    return pred
