"""Class groups of imaginary quadratic fields via binary quadratic forms.

Forms (a, b, c) of discriminant D = b^2 - 4ac < 0 are all enumerated in
reduced shape (by the sieve in `_kernels`) and composed by Dirichlet
composition. Torsion is read inside Sylow subgroups: `sylow_subgroup` grows
the p-part of cl(D) from the m-th powers of a few forms, where h = p^k m, and
certifies it by its exact order p^k. The ell-torsion (`ell_part`) and the full
structure (`class_group_structure`) are counted there, not over all h forms.
Only imaginary discriminants: positive D would drag in infinite unit groups
on purpose left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernels import _check_disc
from ._kernels import class_number as _kernel_class_number
from ._kernels import reduced_forms as _kernel_reduced_forms
from .errors import InvalidParameterError, TwistselError
from .intmath import is_prime, is_squarefree, log_p


def field_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for squarefree d: d, or 4d when d != 1 mod 4."""
    if d in (0, 1) or not is_squarefree(d):
        raise InvalidParameterError("d must be a squarefree integer other than 0 and 1")
    return d if d % 4 == 1 else 4 * d


@dataclass(frozen=True)
class BQF:
    """Primitive positive definite binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.disc >= 0:
            raise InvalidParameterError("form must be positive definite with negative discriminant")
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise InvalidParameterError("form must be primitive")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def reduced(self) -> "BQF":
        a, b, c = self.a, self.b, self.c
        while True:
            if -a < b <= a <= c:
                break
            if b > a or b <= -a:
                # normalize: shift b into (-a, a]
                r = (a - b) // (2 * a)
                b, c = b + 2 * r * a, a * r * r + b * r + c
            if a > c:
                a, b, c = c, -b, a
        if a == c and b < 0:
            b = -b
        return BQF(a, b, c)

    def inverse(self) -> "BQF":
        return BQF(self.a, -self.b, self.c).reduced()

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def principal_form(D: int) -> BQF:
    _check_disc(D)
    k = D % 2
    return BQF(1, k, (k * k - D) // 4)


def compose(f: BQF, g: BQF) -> BQF:
    """Dirichlet composition, reduced; the group law of cl(D)."""
    if f.disc != g.disc:
        raise InvalidParameterError("forms must share a discriminant")
    if f.a > g.a:
        f, g = g, f
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2, c2 = g.a, g.b, g.c
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _v = _xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, u, v = _xgcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (c2 * d1 + r * (b2 + v2 * r)) // v1
    return BQF(a3, b3, c3).reduced()


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def form_power(f: BQF, n: int) -> BQF:
    out = principal_form(f.disc)
    base = f
    if n < 0:
        base = f.inverse()
        n = -n
    while n:
        if n & 1:
            out = compose(out, base)
        base = compose(base, base)
        n >>= 1
    return out


def reduced_forms(D: int) -> list[BQF]:
    """All primitive reduced forms of discriminant D < 0, sorted by (a, b)."""
    return [BQF(a, b, c) for a, b, c in _kernel_reduced_forms(D)]


def class_number(D: int) -> int:
    return _kernel_class_number(D)


def sylow_subgroup(forms: list[tuple[int, int, int]], p: int) -> list[BQF]:
    """The Sylow p-subgroup of cl(D), given all its reduced forms as (a, b, c) in (a, b) order.

    With h = p^k m and p not dividing m, the subgroup is the image of f -> f^m.
    The forms are walked in order and each new f^m joins the subgroup H found
    so far by its cosets H g^i, until |H| = p^k; only the forms walked are
    built as `BQF`s. The order p^k is known exactly from h = len(forms), so
    a walk that ends short of it raises instead of returning a subgroup.
    """
    h = len(forms)
    m, order = h, 1
    while m % p == 0:
        m, order = m // p, order * p
    a, b, c = forms[0]
    group = [principal_form(b * b - 4 * a * c)]
    members = set(group)
    for f in forms:
        if len(group) >= order:
            break
        g = form_power(BQF(*f), m)
        base, step = group[:], g
        while step not in members:
            coset = [compose(x, step) for x in base]
            group += coset
            members.update(coset)
            step = compose(step, g)
    if len(group) != order:
        raise TwistselError(f"internal: Sylow {p}-subgroup of order {len(group)}, expected {order}")
    return group


@dataclass(frozen=True)
class EllPart:
    """cl(D) enumerated once: its class number and its ell-torsion subgroup."""

    D: int
    ell: int
    h: int
    torsion: tuple[BQF, ...]

    @property
    def rank(self) -> int:
        return log_p(len(self.torsion), self.ell)


def ell_part(D: int, ell: int) -> EllPart:
    """The class number and ell-torsion of cl(D) from one enumeration of its forms.

    The torsion is sorted by (a, b). When ell does not divide h it is trivial
    and no form beyond the principal one is built.
    """
    if not is_prime(ell):
        raise InvalidParameterError("ell must be a prime")
    forms = _kernel_reduced_forms(D)
    h = len(forms)
    one = principal_form(D)
    if h % ell:
        return EllPart(D, ell, h, (one,))
    sylow = sylow_subgroup(forms, ell)
    # a Sylow subgroup of order ell is all ell-torsion
    torsion = sylow if len(sylow) == ell else [x for x in sylow if form_power(x, ell) == one]
    torsion.sort(key=lambda x: (x.a, x.b))
    return EllPart(D, ell, h, tuple(torsion))


@dataclass(frozen=True)
class ClassGroupData:
    D: int
    forms: tuple[BQF, ...]
    h: int
    structure: tuple[int, ...]  # elementary divisors d_1 | d_2 | ... | d_k

    def ell_rank(self, ell: int) -> int:
        return sum(1 for d in self.structure if d % ell == 0)


def class_group_structure(D: int) -> ClassGroupData:
    """Full structure of cl(D): forms, order, elementary divisors.

    Each p-part is read inside the Sylow p-subgroup: the number of cyclic
    factors of order divisible by p^k is log_p of #cl[p^k] / #cl[p^(k-1)].
    """
    triples = _kernel_reduced_forms(D)
    forms = tuple(BQF(a, b, c) for a, b, c in triples)
    h = len(forms)
    one = principal_form(D)
    structure: dict[int, list[int]] = {}
    n = h
    p = 2
    while n > 1:
        if n % p:
            p += 1 if p == 2 else 2
            continue
        # p-part: count p^k-torsion layer by layer inside the Sylow subgroup
        # exps[i] = number of cyclic p-factors of order >= p^(i+1)
        sylow = sylow_subgroup(triples, p)
        exps = []
        prev = 1
        # rest: the p^i-th powers x^(p^i) that are not yet trivial, x in the subgroup
        rest = [x for x in sylow if x != one]
        while rest:
            rest = [y for y in (form_power(x, p) for x in rest) if y != one]
            cnt = len(sylow) - len(rest)
            exps.append(log_p(cnt // prev, p))
            prev = cnt
        # exps is non-increasing; cyclic factor orders from the conjugate partition
        n_factors = exps[0] if exps else 0
        orders = [0] * n_factors
        for count in exps:
            for i in range(count):
                orders[i] += 1
        structure[p] = sorted(p**e for e in orders)
        while n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    # merge prime-power cyclic factors into elementary divisors
    divisors: list[int] = []
    parts = {p: list(reversed(v)) for p, v in structure.items()}
    while any(parts.values()):
        d = 1
        for p in parts:
            if parts[p]:
                d *= parts[p].pop(0)
        divisors.append(d)
    divisors.sort()
    return ClassGroupData(D, forms, h, tuple(divisors))


def ell_rank(D: int, ell: int) -> tuple[int, int]:
    """(r, ell^r) with r the ell-rank of cl(D), from the ell-torsion of its Sylow subgroup."""
    r = ell_part(D, ell).rank
    return r, ell**r
