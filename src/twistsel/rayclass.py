"""Tame ray class ell-ranks for imaginary quadratic fields.

For K = Q(sqrt(D)), D a negative fundamental discriminant, and a modulus
m = prod p O_K over odd unramified rational primes p distinct from ell, the
ray class group sits in

    1 -> (O/m)* / <-1>  ->  Cl_m  ->  Cl  ->  1.

Orders multiply along the sequence (the cardinality identity), and the exact
ell-rank of Cl_m needs one more ingredient: the connecting map
Cl[ell] -> (O/m)*/((O/m)*)^ell sending an ideal class [a] with a^ell = (alpha)
to alpha mod m. Forms carry it without ideal arithmetic. A form (a, b, c) with
gcd(a, m D) = 1 is the ideal a = [a, (-b + sqrt(D))/2], and its ell-th power
is the unreduced composition of ell copies of it: (a^ell, B, C), the ideal
[a^ell, (-B + sqrt(D))/2]. Its generator alpha comes from exact lattice
reduction (the unit group is just {+-1} once D is not -3 or -4). In each cyclic
component of (O/m)* of order divisible by ell, the coordinate of alpha is its
discrete logarithm to any fixed primitive ell-th root of unity: changing the
root scales a column by a unit of F_ell, which keeps the rank. The root is
taken from the alphas themselves, so none is searched for.

O_K is Z[omega] with omega^2 = t omega - n, and its norm form
x^2 + t xy + n y^2 is the principal form (1, t, n) of D, which every
function here reads t and n from. D is taken as given: its callers derive it
from d, which is where squarefreeness is decided.

Forms are plain (a, b, c) tuples, as in `quadforms`. None comes from the
caller: `ray_class_data` takes D, S and ell, `_validate` checks them where
they enter, and every form here is made from that D, so no form is checked
again.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    InvalidParameterError,
    PreconditionError,
    ResourceError,
    TwistselError,
    UnsupportedError,
)
from .intmath import is_prime, kronecker, sqrt_mod, xgcd
from .quadforms import EllPart, Form, compose_unreduced, ell_part, join, principal_form

# ---------------------------------------------------------------------------
# ideals of O_K as forms


def principal_generator(F: Form) -> tuple[int, int] | None:
    """Generator (x, y) of the ideal [a, (-b + sqrt(D))/2] of F = (a, b, c) if principal, else None.

    In Z[omega] coordinates the ideal is the lattice spanned by (a, 0) and
    (-(b + t)/2, 1). Lagrange-reduce it under the norm form, the principal
    form (1, t, n) of D = b^2 - 4ac; for D other than -3 and -4 the units are
    +-1, so the ideal is principal iff its shortest vector has norm a.
    """
    a, b, c = F
    _, t, n = principal_form(b * b - 4 * a * c)
    v1 = (a, 0)
    v2 = (-(b + t) // 2, 1)

    def N(v):
        return v[0] * v[0] + t * v[0] * v[1] + n * v[1] * v[1]

    def B(u, v):  # associated bilinear form
        return (N((u[0] + v[0], u[1] + v[1])) - N(u) - N(v)) // 2

    while True:
        if N(v1) > N(v2):
            v1, v2 = v2, v1
        n1 = N(v1)
        mu = (2 * B(v1, v2) + n1) // (2 * n1)  # nearest integer to B/n1
        w = (v2[0] - mu * v1[0], v2[1] - mu * v1[1])
        if N(w) >= N(v2):
            break
        v2 = w
    short = v1 if N(v1) <= N(v2) else v2
    if N(short) == a:
        return short
    return None


def form_with_coprime_a(f: Form, M: int) -> Form:
    """A properly equivalent form whose leading coefficient is coprime to M.

    The search covers the box 0 <= x < 40, |y| <= 40 only. Such a form always
    exists, so a box without one is a search limit, raised as ResourceError.
    """
    a, b, c = f
    if math.gcd(a, M) == 1:
        return f
    for x in range(0, 40):
        for y in range(-40, 41):
            if math.gcd(x, abs(y)) != 1:
                continue
            val = a * x * x + b * x * y + c * y * y
            if val == 0 or math.gcd(val, M) != 1:
                continue
            g, u, v = xgcd(x, y)
            if g < 0:  # xgcd returns g = -1 when y < 0; keep the determinant +1
                u, v = -u, -v
            # [[x, -v], [y, u]] has determinant xu + yv = 1
            p, q = -v, u
            b2 = 2 * (a * x * p + c * y * q) + b * (x * q + y * p)
            c2 = a * p * p + b * p * q + c * q * q
            return val, b2, c2
    raise ResourceError("no representative coprime to the modulus in the search box")


# ---------------------------------------------------------------------------
# the multiplicative group (O/m)*


class _Component(NamedTuple):
    """One cyclic factor of (O/m)*: O/p for an inert p, O/P = F_p for a prime P above a split p."""

    p: int
    r: int | None  # split: omega maps to r mod P; inert: None
    order: int

    def reduce(self, alpha: tuple[int, int]) -> tuple[int, int]:
        """alpha mod this factor's prime, in F_p[omega]; a split factor's elements are (x, 0)."""
        x, y = alpha
        if self.r is None:
            return (x % self.p, y % self.p)
        return ((x + y * self.r) % self.p, 0)


def _fq_mul(a, b, p, t, n):
    # multiply in F_p[omega]/(omega^2 - t omega + n)
    x1, y1 = a
    x2, y2 = b
    return ((x1 * x2 - n * y1 * y2) % p, (x1 * y2 + x2 * y1 + t * y1 * y2) % p)


def _fq_pow(a, e, p, t, n):
    out = (1, 0)
    while e:
        if e & 1:
            out = _fq_mul(out, a, p, t, n)
        a = _fq_mul(a, a, p, t, n)
        e >>= 1
    return out


def _components(one: Form, S: tuple[int, ...]) -> list[_Component]:
    """The cyclic factors of (O/m)*, for odd p in S unramified in K (as `_validate` ensures)."""
    _, t, n = one
    D = t * t - 4 * n
    comps: list[_Component] = []
    for p in S:
        if kronecker(D, p) == 1:
            # omega mod the two primes above p: the roots (t +- sqrt(D)) / 2 of x^2 - t x + n
            s = sqrt_mod(D % p, p)
            comps += [_Component(p, (t + e * s) * pow(2, -1, p) % p, p - 1) for e in (1, -1)]
        else:
            comps.append(_Component(p, None, p * p - 1))
    return comps


def _quotient_column(
    one: Form, comp: _Component, alphas: list[tuple[int, int]], ell: int
) -> list[int]:
    """Coordinates of the alphas in comp's order-ell quotient.

    Each alpha^(order/ell) is an ell-th root of unity. The first of them that
    is not 1 is primitive, ell being prime, and serves as zeta, so each is
    zeta^k for one k < ell, its coordinate. When all are 1, the column is zero.
    """
    _, t, n = one
    p = comp.p
    targets = [_fq_pow(comp.reduce(alpha), comp.order // ell, p, t, n) for alpha in alphas]
    zeta = next((z for z in targets if z != (1, 0)), None)
    if zeta is None:
        return [0] * len(alphas)
    logs = {}
    acc = (1, 0)
    for k in range(ell):
        logs[acc] = k
        acc = _fq_mul(acc, zeta, p, t, n)
    return [logs[z] for z in targets]


# ---------------------------------------------------------------------------
# the rank computation


def _ell_torsion_basis(part: EllPart) -> list[Form]:
    """A basis of cl(D)[ell] as an F_ell vector space: the torsion forms, in
    order, that each grow the span of those before them."""
    span = [principal_form(part.D)]
    members = set(span)
    return [f for f in part.torsion if join(span, members, f)]


def _matrix_rank_mod(rows: list[list[int]], ell: int) -> int:
    rows = [r[:] for r in rows if any(c % ell for c in r)]
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] % ell:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, ell)
        for i in range(len(rows)):
            if i != r and rows[i][c] % ell:
                factor = rows[i][c] * inv % ell
                rows[i] = [(x - factor * y) % ell for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


class RayClassData(NamedTuple):
    D: int
    S: tuple[int, ...]
    h: int
    unit_image_order: int  # order of the image of {+-1} in (O/m)*
    w_orders: tuple[int, ...]  # cyclic component orders of (O/m)*
    ray_class_number: int
    ell: int
    cl_ell_rank: int
    w_ell_dim: int
    delta_rank: int

    @property
    def ell_rank(self) -> int:
        return self.cl_ell_rank + self.w_ell_dim - self.delta_rank


def _validate(D: int, S: tuple[int, ...], ell: int) -> Form:
    """The principal form of D, once D, S and ell are checked."""
    one = principal_form(D)
    if D % 16 in (0, 4):
        raise InvalidParameterError("a field discriminant 4m must have m = 2 or 3 mod 4")
    if ell < 3 or not is_prime(ell):
        raise InvalidParameterError("ell must be an odd prime")
    if S and D in (-3, -4):
        raise UnsupportedError("nontrivial units: no ray modulus for D = -3 or D = -4")
    for p in S:
        if not is_prime(p):
            raise InvalidParameterError(f"modulus entry {p} is not prime")
        if p == 2:
            raise PreconditionError("primes above 2 violate the tameness assumptions")
        if p == ell:
            raise PreconditionError("the modulus must avoid ell (tame case only)")
        if kronecker(D, p) == 0:
            d = D if D % 4 else D // 4  # the squarefree d with Q(sqrt(d)) = K
            raise PreconditionError(f"{p} ramifies in Q(sqrt({d})); tame case needs unramified p")
    return one


def ray_class_data(D: int, S: tuple[int, ...], ell: int, h: int | None = None) -> RayClassData:
    """Ray class group data of K = Q(sqrt(D)) with modulus prod_{p in S} p O_K.

    D must be the fundamental discriminant of K. Its sign, its residue mod 4
    and, for even D = 4m, m mod 4 are checked here; an odd square factor
    (D = -36) is not, and stays the caller's contract. h is the class number
    when the caller has counted it, passed on to `ell_part`.
    """
    S = tuple(sorted(set(S)))
    one = _validate(D, S, ell)
    part = ell_part(D, ell, h)
    cl_rank = part.rank
    comps = _components(one, S)
    w_order = math.prod(comp.order for comp in comps)
    unit_image = 1 if not S else 2  # -1 = 1 mod m only for the empty modulus
    ray_h = part.h * w_order // unit_image
    ell_comps = [comp for comp in comps if comp.order % ell == 0]
    if not ell_comps or cl_rank == 0:
        delta_rank = 0
    else:
        alphas = []
        for f in _ell_torsion_basis(part):
            # gcd(a, D) = 1 makes a composition of f with itself the ideal power
            f = form_with_coprime_a(f, math.prod(S) * D)
            power = f
            for _ in range(ell - 1):
                power = compose_unreduced(power, f)
            if power[0] != f[0] ** ell:
                raise TwistselError("internal: ell-fold composition is not the ell-th ideal power")
            alpha = principal_generator(power)
            if alpha is None:
                raise TwistselError("internal: ell-th power of a torsion class not principal")
            alphas.append(alpha)
        # one column per component; a matrix and its transpose have one rank
        cols = [_quotient_column(one, comp, alphas, ell) for comp in ell_comps]
        delta_rank = _matrix_rank_mod(cols, ell)
    return RayClassData(
        D,
        S,
        part.h,
        unit_image,
        tuple(comp.order for comp in comps),
        ray_h,
        ell,
        cl_rank,
        len(ell_comps),
        delta_rank,
    )
