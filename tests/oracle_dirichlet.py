"""Test oracle for order-ell Dirichlet characters: the element-level model of (Z/f)*.

This is how the library once validated a `--character`: `unit_group` lifts
generators of each prime-power factor (through `primitive_root`) to 1 mod the
rest of f, `_dlog_table` holds the exponent vector of every unit on them, and
`DirichletPredicate._is_primitive` scans every x in [1, f) for each p | f to
test whether the character is trivial on the kernel of (Z/f)* -> (Z/(f/p))*.
The library now validates from the orders of the cyclic factors alone; the
tests compare the two on results and on exact error messages. Time and
memory are O(f), so keep f at desk scale here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from twistsel.errors import InvalidParameterError
from twistsel.intmath import factorint, is_prime


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest primitive root mod the odd prime p."""
    if p == 2:
        return 1
    order_factors = list(factorint(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
        g += 1


@lru_cache(maxsize=None)
def unit_group(modulus: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators and their orders for (Z/modulus)*, assembled prime power by prime power."""
    if modulus < 1:
        raise InvalidParameterError("modulus must be positive")
    gens: list[int] = []
    orders: list[int] = []
    parts = factorint(modulus) if modulus > 1 else {}
    for p, e in parts.items():
        pe = p**e
        rest = modulus // pe
        if p == 2:
            if e == 1:
                continue
            locals_: list[tuple[int, int]] = [(-1 % pe, 2)]
            if e >= 3:
                locals_.append((5, 2 ** (e - 2)))
        else:
            g = primitive_root(p)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            locals_ = [(g, pe // p * (p - 1))]
        for g, order in locals_:
            # lift to a unit mod modulus that is 1 mod the complement
            if rest == 1:
                lifted = g % modulus
            else:
                inv = pow(pe, -1, rest)
                lifted = (g * rest * pow(rest, -1, pe) + 1 * pe * inv) % modulus
            gens.append(lifted)
            orders.append(order)
    return tuple(gens), tuple(orders)


@lru_cache(maxsize=None)
def _dlog_table(modulus: int) -> dict[int, tuple[int, ...]]:
    """Exponent vector of every unit mod modulus on the unit_group generators."""
    gens, orders = unit_group(modulus)
    table = {1 % modulus: tuple(0 for _ in gens)}
    # one generator at a time; sizes here are desk scale
    for i, g in enumerate(gens):
        current = dict(table)
        for elem, vec in current.items():
            x = elem
            v = list(vec)
            for _k in range(1, orders[i]):
                x = x * g % modulus
                v2 = list(v)
                v2[i] += 1
                if x not in table:
                    table[x] = tuple(v2)
                v = v2
    return table


@dataclass(frozen=True)
class DirichletPredicate:
    """Order-ell character chi mod f, given by exponents on unit_group(f) generators.

    chi(g_i) = zeta_ell ** exponents[i]. The predicate used by the checker is
    chi(p) != 0, i.e. p does not divide the conductor.
    """

    modulus: int
    ell: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.ell) or self.ell == 2:
            raise InvalidParameterError("character order must be an odd prime")
        gens, orders = unit_group(self.modulus)
        if len(self.exponents) != len(gens):
            raise InvalidParameterError(
                f"need {len(gens)} exponent(s) for the generators of (Z/{self.modulus})*"
            )
        object.__setattr__(self, "exponents", tuple(e % self.ell for e in self.exponents))
        for e, order in zip(self.exponents, orders):
            # chi(g)^order(g) must be 1: ell | e * order
            if (e * order) % self.ell:
                raise InvalidParameterError("exponents do not define a character on the group")
        if all(e == 0 for e in self.exponents):
            raise InvalidParameterError("character is trivial; order must be exactly ell")
        if not self._is_primitive():
            raise InvalidParameterError("character is induced from a smaller conductor")

    def _chi_exponent(self, n: int) -> int | None:
        """Exponent k with chi(n) = zeta^k, or None when gcd(n, f) > 1."""
        n %= self.modulus
        if math.gcd(n, self.modulus) != 1:
            return None
        vec = _dlog_table(self.modulus)[n]
        return sum(e * v for e, v in zip(self.exponents, vec)) % self.ell

    def _is_primitive(self) -> bool:
        for p in factorint(self.modulus):
            smaller = self.modulus // p
            # trivial on the kernel of (Z/f)* -> (Z/(f/p))* would mean chi is induced
            trivial = True
            for x in range(1, self.modulus):
                if x % smaller == 1 % smaller and self._gcd_one(x):
                    if self._chi_exponent(x):
                        trivial = False
                        break
            if trivial:
                return False
        return True

    def _gcd_one(self, x: int) -> bool:
        return math.gcd(x, self.modulus) == 1

    def is_nonzero_at(self, p: int) -> bool:
        """chi(p) != 0, i.e. p is unramified in the attached cyclic field."""
        return p % self.modulus != 0 and self._gcd_one(p)

    def describe(self) -> str:
        return f"order-{self.ell} character mod {self.modulus}"
