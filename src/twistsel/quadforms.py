"""Class groups of imaginary quadratic fields via binary quadratic forms.

A form is a plain (a, b, c) int tuple: a x^2 + b xy + c y^2 of discriminant
D = b^2 - 4ac < 0. Tuples compare and hash as the classes need, and sort by
(a, b) among forms of one D. No form enters from outside: callers pass D,
checked where it enters (`_kernels.check_disc` in `principal_form` and the kernels,
`field_discriminant` for d), and every form is made here from that D. So
Dirichlet composition and reduction check nothing and build no object.

Of `_kernels` only the class number h is read, and it is counted there
without listing the forms. With h = p^k m, `sylow_subgroup` grows the p-part
of cl(D) from the m-th powers of the prime forms (q, b, c), q = 2, 3, 5, ...,
and certifies it by its order p^k; `ell_part` and `class_group_structure`
count torsion there, not over all h forms. Only imaginary discriminants:
positive D would drag in infinite unit groups on purpose left out.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._kernels import check_disc
from ._kernels import class_number as _kernel_class_number
from ._kernels import reduced_forms as _kernel_reduced_forms
from .errors import InvalidParameterError, TwistselError
from .intmath import factorint, is_prime, is_squarefree, log_p, sqrt_mod, xgcd


def field_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for squarefree d: d, or 4d when d != 1 mod 4."""
    if d in (0, 1) or not is_squarefree(d):
        raise InvalidParameterError("d must be a squarefree integer other than 0 and 1")
    return d if d % 4 == 1 else 4 * d


Form = tuple[int, int, int]


def reduce_form(f: Form) -> Form:
    """The reduced form properly equivalent to f: -a < b <= a <= c, and b >= 0 when a = c."""
    a, b, c = f
    while not -a < b <= a <= c:
        if b > a or b <= -a:
            # normalize: shift b into (-a, a]
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
    if a == c and b < 0:
        b = -b
    return a, b, c


def principal_form(D: int) -> Form:
    check_disc(D)
    k = D % 2
    return 1, k, (k * k - D) // 4


def compose(f: Form, g: Form) -> Form:
    """Dirichlet composition, reduced; the group law of cl(D)."""
    return reduce_form(compose_unreduced(f, g))


def compose_unreduced(f: Form, g: Form) -> Form:
    """Dirichlet composition before reduction: (a1 a2, B, C) when gcd(a1, a2, (b1 + b2)/2) = 1.

    Then it is the form of the ideal product [a1, (-b1 + sqrt(D))/2][a2, (-b2 + sqrt(D))/2]
    = [a1 a2, (-B + sqrt(D))/2] (Cohen, GTM 138, 5.2). f and g share their
    discriminant by construction: every form here is made from one D.
    """
    if f[0] > g[0]:
        f, g = g, f
    a1, b1, _c1 = f
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _v = xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, u, v = xgcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (c2 * d1 + r * (b2 + v2 * r)) // v1
    return a3, b3, c3


def form_power(f: Form, n: int) -> Form:
    """f^n for n >= 0, by binary powering."""
    a, b, c = f
    out = principal_form(b * b - 4 * a * c)
    base = f
    while n:
        if n & 1:
            out = compose(out, base)
        base = compose(base, base)
        n >>= 1
    return out


def reduced_forms(D: int) -> list[Form]:
    """All primitive reduced forms of discriminant D < 0, sorted by (a, b)."""
    return _kernel_reduced_forms(D)


def class_number(D: int) -> int:
    return _kernel_class_number(D)


def _prime_forms(D: int):
    """The reduced prime forms (q, b, (b^2 - D)/4q), b^2 = D mod 4q, for primes q <= |D|.

    b = D mod 2 is fixed by D mod 8 for q = 2, and is a square root of D mod
    q, or it plus q, for odd q. An inert q, or one with q^2 | D (no primitive
    form), is skipped. For a fundamental D the q <= sqrt(|D|/3) generate
    cl(D) (Cohen, GTM 138, 5.4).
    """
    for q in filter(is_prime, range(2, 1 - D)):
        s = {0: 0, 1: 1, 4: 2}.get(D % 8) if q == 2 else sqrt_mod(D, q)
        if s is None:
            continue
        b = s + q * ((s - D) % 2)
        c = (b * b - D) // (4 * q)
        if math.gcd(q, b, c) == 1:
            yield reduce_form((q, b, c))


def sylow_subgroup(D: int, h: int, p: int) -> list[Form]:
    """The Sylow p-subgroup of cl(D), given its class number h.

    With h = p^k m and p not dividing m, the subgroup is the image of f -> f^m.
    The prime forms are walked in order and each new f^m joins the subgroup H
    found so far by its cosets H g^i, until |H| = p^k. A walk that misses
    that order, as a wrong h makes it do, raises instead of returning.
    """
    m, order = h, 1
    while m % p == 0:
        m, order = m // p, order * p
    group = [principal_form(D)]
    members = set(group)
    for f in _prime_forms(D):
        if len(group) >= order:
            break
        g = form_power(f, m)
        base, step = group[:], g
        while step not in members:
            coset = [compose(x, step) for x in base]
            group += coset
            members.update(coset)
            step = compose(step, g)
    if len(group) != order:
        raise TwistselError(f"internal: Sylow {p}-subgroup of order {len(group)}, expected {order}")
    return group


class EllPart(NamedTuple):
    """cl(D) read once: its class number and its ell-torsion subgroup."""

    D: int
    ell: int
    h: int
    torsion: tuple[Form, ...]  # sorted

    @property
    def rank(self) -> int:
        return log_p(len(self.torsion), self.ell)


def ell_part(D: int, ell: int) -> EllPart:
    """The class number and ell-torsion of cl(D), from one count of h.

    The torsion is sorted by (a, b). When ell does not divide h it is trivial
    and no form beyond the principal one is built.
    """
    if not is_prime(ell):
        raise InvalidParameterError("ell must be a prime")
    h = class_number(D)
    one = principal_form(D)
    if h % ell:
        return EllPart(D, ell, h, (one,))
    sylow = sylow_subgroup(D, h, ell)
    # a Sylow subgroup of order ell is all ell-torsion
    torsion = sylow if len(sylow) == ell else [x for x in sylow if form_power(x, ell) == one]
    torsion.sort()
    return EllPart(D, ell, h, tuple(torsion))


class ClassGroupData(NamedTuple):
    D: int
    h: int
    structure: tuple[int, ...]  # elementary divisors d_1 | d_2 | ... | d_k


def class_group_structure(D: int) -> ClassGroupData:
    """Full structure of cl(D): order and elementary divisors.

    Each p-part is read inside the Sylow p-subgroup: the number of cyclic
    factors of order divisible by p^k is log_p of #cl[p^k] / #cl[p^(k-1)].
    """
    h = class_number(D)
    one = principal_form(D)
    parts = []  # for each p | h, the orders of its cyclic p-factors, largest first
    for p in factorint(h):
        # p-part: count p^k-torsion layer by layer inside the Sylow subgroup
        sylow = sylow_subgroup(D, h, p)
        sizes = [1]  # sizes[i] = #cl[p^i]
        # rest: the p^i-th powers x^(p^i) that are not yet trivial, x in the subgroup
        rest = [x for x in sylow if x != one]
        while rest:
            rest = [y for y in (form_power(x, p) for x in rest) if y != one]
            sizes.append(len(sylow) - len(rest))
        # exps[i] = number of cyclic p-factors of order >= p^(i+1), non-increasing;
        # the cyclic factor orders are its conjugate partition
        exps = [log_p(b // a, p) for a, b in zip(sizes, sizes[1:])]
        parts.append([p ** sum(1 for n in exps if n > i) for i in range(exps[0])])
    # merge prime-power cyclic factors into elementary divisors, largest with largest
    width = max(map(len, parts), default=0)
    divisors = sorted(math.prod(v[i] for v in parts if i < len(v)) for i in range(width))
    return ClassGroupData(D, h, tuple(divisors))


def ell_rank(D: int, ell: int) -> tuple[int, int]:
    """(r, ell^r) with r the ell-rank of cl(D), from the ell-torsion of its Sylow subgroup."""
    r = ell_part(D, ell).rank
    return r, ell**r
