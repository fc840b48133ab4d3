"""Tame ray class ell-ranks for imaginary quadratic fields.

For K = Q(sqrt(d)), d < -4 squarefree, and a modulus m = prod p O_K over odd
unramified rational primes p distinct from ell, the ray class group sits in

    1 -> (O/m)* / <-1>  ->  Cl_m  ->  Cl  ->  1.

Orders multiply along the sequence (the cardinality identity), and the exact
ell-rank of Cl_m needs one more ingredient: the connecting map
Cl[ell] -> (O/m)*/((O/m)*)^ell sending an ideal class [a] with a^ell = (alpha)
to alpha mod m. Generators of principal ideals are found by exact lattice
reduction (the unit group is just {+-1} once d < -4), and the map's matrix is
assembled from order-ell discrete logarithms in each cyclic component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidParameterError, PreconditionError, UnsupportedError
from .intmath import factorint, is_prime, kronecker, primitive_root, sqrt_mod
from .quadforms import BQF, EllPart, _xgcd, compose, ell_part, field_discriminant, principal_form

# ---------------------------------------------------------------------------
# arithmetic in O_K = Z[omega]


@dataclass(frozen=True)
class QuadOrder:
    """Maximal order Z[omega] of Q(sqrt(d)): omega^2 = t*omega - n.

    The field discriminant D is derived once, at construction, which also
    checks that d is squarefree.
    """

    d: int
    D: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", field_discriminant(self.d))

    @property
    def t(self) -> int:  # trace of omega
        return 1 if self.d % 4 == 1 else 0

    @property
    def n(self) -> int:  # norm of omega
        return (1 - self.d) // 4 if self.d % 4 == 1 else -self.d

    def norm(self, x: int, y: int) -> int:
        return x * x + self.t * x * y + self.n * y * y

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        x1, y1 = a
        x2, y2 = b
        return (x1 * x2 - self.n * y1 * y2, x1 * y2 + x2 * y1 + self.t * y1 * y2)


@dataclass(frozen=True)
class Ideal:
    """Integral ideal c * [a, b + omega] in Hermite form; norm = a c^2."""

    order: QuadOrder
    a: int
    b: int
    c: int

    @property
    def norm(self) -> int:
        return self.a * self.c * self.c


def _hnf_from_generators(order: QuadOrder, gens: list[tuple[int, int]]) -> Ideal:
    """Hermite form of the Z-module spanned by the generators (must be an ideal)."""
    gens = [g for g in gens if g != (0, 0)]
    if not gens:
        raise InvalidParameterError("zero ideal")
    # reduce to [[ac, 0], [bc, c]] with rows (x, y) meaning x + y omega
    rows = [list(g) for g in gens]
    # step 1: gcd of y-components, tracking a vector achieving it
    vec = rows[0][:]
    for r in rows[1:]:
        if r[1] == 0:
            continue
        if vec[1] == 0:
            vec = r[:]
            continue
        g, u, v = _xgcd(vec[1], r[1])
        vec = [u * vec[0] + v * r[0], g]
    c = abs(vec[1])
    if vec[1] < 0:
        vec = [-vec[0], -vec[1]]
    xs = []
    for r in rows:
        if c:
            k = r[1] // c
            xs.append(r[0] - k * vec[0])
        else:
            xs.append(r[0])
    ac = 0
    for x in xs:
        ac = math.gcd(ac, x)
    if c == 0 or ac == 0:
        raise InvalidParameterError("generators do not span a rank-2 module")
    if ac % c or vec[0] % c:
        raise InvalidParameterError("module is not an ideal of the order")
    a = ac // c
    b = (vec[0] // c) % a
    return Ideal(order, a, b, c)


def ideal_mul(I: Ideal, J: Ideal) -> Ideal:
    o = I.order
    g1 = [(I.a * I.c, 0), (I.b * I.c, I.c)]
    g2 = [(J.a * J.c, 0), (J.b * J.c, J.c)]
    gens = [o.mul(u, v) for u in g1 for v in g2]
    return _hnf_from_generators(o, gens)


def ideal_pow(I: Ideal, k: int) -> Ideal:
    out = Ideal(I.order, 1, 0, 1)
    base = I
    while k:
        if k & 1:
            out = ideal_mul(out, base)
        base = ideal_mul(base, base)
        k >>= 1
    return out


def principal_generator(I: Ideal) -> tuple[int, int] | None:
    """Generator (x, y) of I when I is principal, else None.

    Lagrange-reduce the rank-2 lattice under the norm form; for d < -4 the
    units are +-1, so I is principal iff its shortest vector has norm N(I).
    """
    o = I.order
    v1 = (I.a * I.c, 0)
    v2 = (I.b * I.c, I.c)

    def N(v):
        return o.norm(v[0], v[1])

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
    if N(short) == I.norm:
        return short
    return None


def form_to_ideal(o: QuadOrder, f: BQF) -> Ideal:
    """The standard ideal [a, (-b + sqrt(D))/2] of a primitive form."""
    if o.d % 4 == 1:
        b0 = (-f.b - 1) // 2
    else:
        b0 = -f.b // 2
    return Ideal(o, f.a, b0 % f.a, 1)


def form_with_coprime_a(f: BQF, M: int) -> BQF:
    """An equivalent form whose leading coefficient is coprime to M."""
    if math.gcd(f.a, M) == 1:
        return f
    for x in range(0, 40):
        for y in range(-40, 41):
            if math.gcd(x, abs(y)) != 1:
                continue
            val = f.a * x * x + f.b * x * y + f.c * y * y
            if val == 0 or math.gcd(val, M) != 1:
                continue
            _g, u, v = _xgcd(x, y)
            # [[x, -v], [y, u]] has determinant xu + yv = 1
            p, q = -v, u
            b2 = 2 * (f.a * x * p + f.c * y * q) + f.b * (x * q + y * p)
            c2 = f.a * p * p + f.b * p * q + f.c * q * q
            return BQF(val, b2, c2)
    raise PreconditionError("no small representative coprime to the modulus")


# ---------------------------------------------------------------------------
# the multiplicative group (O/m)*


@dataclass(frozen=True)
class _Component:
    """One cyclic factor of (O/m)*: reduction map data plus a generator."""

    p: int
    kind: str  # "split" with a root r, or "inert"
    r: int  # split: omega maps to r mod p; inert: unused
    order: int
    gen: tuple[int, int]  # generator as an element of O/p


def _splitting_in_field(o: QuadOrder, p: int) -> tuple[str, tuple[int, ...]]:
    k = kronecker(o.D, p)
    if k == 0:
        return "ramified", ()
    if k == -1:
        return "inert", ()
    if p == 2:  # split at 2: D = 1 mod 8, and x^2 - x + n has both roots mod 2
        return "split", (0, 1)
    # roots of x^2 - t x + n: (t +- sqrt(D)) / 2 mod p
    s = sqrt_mod(o.D % p, p)
    inv2 = pow(2, -1, p)
    r1 = (o.t + s) * inv2 % p
    r2 = (o.t - s) * inv2 % p
    return "split", (r1, r2)


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


def _inert_generator(o: QuadOrder, p: int) -> tuple[int, int]:
    """Generator of F_(p^2)* realized inside O/p."""
    order = p * p - 1
    prime_factors = list(factorint(order))
    y = 1
    while True:
        for x in range(p):
            cand = (x, y)
            if all(_fq_pow(cand, order // q, p, o.t, o.n) != (1, 0) for q in prime_factors):
                return cand
        y += 1
        if y >= p:
            raise PreconditionError("internal: no generator found in F_p^2")


def _components(o: QuadOrder, S: tuple[int, ...]) -> list[_Component]:
    comps: list[_Component] = []
    for p in S:
        kind, roots = _splitting_in_field(o, p)
        if kind == "split":
            g = primitive_root(p)
            for r in roots:
                comps.append(_Component(p, "split", r, p - 1, (g, 0)))
        else:
            comps.append(_Component(p, "inert", 0, p * p - 1, _inert_generator(o, p)))
    return comps


def _component_dlog_mod_ell(o: QuadOrder, comp: _Component, alpha: tuple[int, int], ell: int) -> int:
    """Coordinate of alpha in comp's order-ell quotient, via a tiny discrete log."""
    p = comp.p
    if comp.kind == "split":
        a = (alpha[0] + alpha[1] * comp.r) % p
        g = comp.gen[0]
        q = comp.order // ell
        A = pow(a, q, p)
        G = pow(g, q, p)
        for k in range(ell):
            if pow(G, k, p) == A:
                return k
        raise PreconditionError("internal: discrete log failed in split component")
    a = (alpha[0] % p, alpha[1] % p)
    q = comp.order // ell
    A = _fq_pow(a, q, p, o.t, o.n)
    G = _fq_pow(comp.gen, q, p, o.t, o.n)
    acc = (1, 0)
    for k in range(ell):
        if acc == A:
            return k
        acc = _fq_mul(acc, G, p, o.t, o.n)
    raise PreconditionError("internal: discrete log failed in inert component")


# ---------------------------------------------------------------------------
# the rank computation


def _ell_torsion_basis(part: EllPart) -> list[BQF]:
    """A basis of cl(D)[ell] as an F_ell vector space."""
    one = principal_form(part.D)
    basis: list[BQF] = []
    span = {one}
    for f in part.torsion:
        if f in span:
            continue
        basis.append(f)
        new = set(span)
        for s in span:
            g = s
            for _ in range(part.ell - 1):
                g = compose(g, f)
                new.add(g)
        span = new
    return basis


def _matrix_rank_mod(rows: list[list[int]], ell: int) -> int:
    rows = [r[:] for r in rows if any(c % ell for c in r)]
    rank = 0
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
        rank += 1
        if r == len(rows):
            break
    return rank


@dataclass(frozen=True)
class RayClassData:
    d: int
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


def _validate(d: int, S: tuple[int, ...], ell: int) -> QuadOrder:
    if d >= 0:
        raise UnsupportedError("d must be a negative squarefree integer")
    try:
        o = QuadOrder(d)  # the one squarefree check of d
    except InvalidParameterError:
        raise UnsupportedError("d must be a negative squarefree integer") from None
    if ell < 3 or not is_prime(ell):
        raise InvalidParameterError("ell must be an odd prime")
    if S and d >= -4:
        raise UnsupportedError("nontrivial units: need d < -4 for a ray modulus")
    for p in S:
        if not is_prime(p):
            raise InvalidParameterError(f"modulus entry {p} is not prime")
        if p == 2:
            raise PreconditionError("primes above 2 violate the tameness assumptions")
        if p == ell:
            raise PreconditionError("the modulus must avoid ell (tame case only)")
        if kronecker(o.D, p) == 0:
            raise PreconditionError(f"{p} ramifies in Q(sqrt({d})); tame case needs unramified p")
    return o


def ray_class_data(d: int, S: tuple[int, ...], ell: int) -> RayClassData:
    """Ray class group data of K = Q(sqrt(d)) with modulus prod_{p in S} p O_K."""
    S = tuple(sorted(set(S)))
    o = _validate(d, S, ell)
    D = o.D
    part = ell_part(D, ell)
    cl_rank = part.rank
    comps = _components(o, S)
    w_order = 1
    for comp in comps:
        w_order *= comp.order
    unit_image = 1 if not S else 2  # -1 = 1 mod m only for the empty modulus
    ray_h = part.h * w_order // unit_image
    ell_comps = [comp for comp in comps if comp.order % ell == 0]
    if not ell_comps or cl_rank == 0:
        delta_rank = 0
    else:
        m = 1
        for p in S:
            m *= p
        basis = _ell_torsion_basis(part)
        rows = []
        for f in basis:
            f = form_with_coprime_a(f, m * ell)
            ideal = form_to_ideal(o, f)
            power = ideal_pow(ideal, ell)
            alpha = principal_generator(power)
            if alpha is None:
                raise PreconditionError("internal: ell-th power of a torsion class not principal")
            rows.append([_component_dlog_mod_ell(o, comp, alpha, ell) for comp in ell_comps])
        delta_rank = _matrix_rank_mod(rows, ell)
    return RayClassData(
        d,
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
