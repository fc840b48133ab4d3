"""Test oracles for small ray class groups.

Two independent reconstructions check the library's rank:

- `ray_class_oracle` builds Cl_m from scratch: prime ideals below a bound
  generate, relations come from elements congruent to 1 mod m with smooth
  norm, and the quotient's structure falls out of a Smith normal form.
- `connecting_rank_by_ideals` is the connecting map Cl[ell] -> (O/m)*/ell as
  the library once computed it: ideals in Hermite form, ell-th powers by
  ideal multiplication, and coordinates as discrete logarithms to a generator
  of each cyclic factor of (O/m)*. The library now takes the same map from
  forms alone, with any primitive ell-th root of unity as the base.

Caveat: `ray_class_oracle` assumes the prime ideals below qmax generate the
full ray class group, and that its search box finds every relation among
them. When the primes only generate a proper subgroup the reported order is
too small; when relations are missing it is too large (d = -2, S = (5, 7)
reports 1152 against 576). The tests therefore only trust runs whose order
matches the ray class number formula, which the library computes
independently.

`ideal_to_form` inverts `form_to_ideal`, so the tests can check ideal
arithmetic against form composition; it reduces with `oracle_forms`, not
the library. `QuadOrder` is O_K = Z[omega] with its norm form, built from
d; the library reads the same norm form off the principal form of D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from oracle_dirichlet import primitive_root
from oracle_forms import principal_form, reduce_form
from twistsel.errors import InvalidParameterError, PreconditionError
from twistsel.intmath import factorint, kronecker, log_p, sqrt_mod, xgcd
from twistsel.quadforms import ell_part, field_discriminant
from twistsel.rayclass import form_with_coprime_a


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


def ideal_to_form(I: Ideal) -> tuple[int, int, int]:
    """Reduced form (a, -(2b + t), c) of the ideal [a, b + omega], t the trace of omega."""
    o = I.order
    if o.d % 4 == 1:
        b = -(2 * I.b + 1)
    else:
        b = -2 * I.b
    c = (b * b - o.D) // (4 * I.a)
    return reduce_form((I.a, b, c))


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
        g, u, v = xgcd(vec[1], r[1])
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


def order_mul(o: QuadOrder, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    x1, y1 = a
    x2, y2 = b
    return (x1 * x2 - o.n * y1 * y2, x1 * y2 + x2 * y1 + o.t * y1 * y2)


def ideal_mul(I: Ideal, J: Ideal) -> Ideal:
    o = I.order
    g1 = [(I.a * I.c, 0), (I.b * I.c, I.c)]
    g2 = [(J.a * J.c, 0), (J.b * J.c, J.c)]
    gens = [order_mul(o, u, v) for u in g1 for v in g2]
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


def ideal_generator(I: Ideal) -> tuple[int, int] | None:
    """Generator (x, y) of I when I is principal, else None.

    Lagrange-reduce the rank-2 lattice under the norm form; for d other than
    -1 and -3 the units are +-1, so I is principal iff its shortest vector has norm N(I).
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


def form_to_ideal(o: QuadOrder, f: tuple[int, int, int]) -> Ideal:
    """The standard ideal [a, (-b + sqrt(D))/2] of a primitive form (a, b, c)."""
    a, b, _ = f
    if o.d % 4 == 1:
        b0 = (-b - 1) // 2
    else:
        b0 = -b // 2
    return Ideal(o, a, b0 % a, 1)


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


def connecting_rank_by_ideals(d: int, S: tuple[int, ...], ell: int) -> int:
    """Rank of Cl[ell] -> (O/m)*/ell on the ideal path, for m = prod S.

    Every nontrivial ell-torsion class, not only a basis, gives a row; the
    rank is read off the size of the rows' span in F_ell^k.
    """
    o = QuadOrder(d)
    S = tuple(sorted(set(S)))
    part = ell_part(o.D, ell)
    ell_comps = [comp for comp in _components(o, S) if comp.order % ell == 0]
    if not ell_comps or part.rank == 0:
        return 0
    m = math.prod(S)
    span = {(0,) * len(ell_comps)}
    for f in part.torsion:
        if f == principal_form(o.D):
            continue
        power = ideal_pow(form_to_ideal(o, form_with_coprime_a(f, m * ell)), ell)
        alpha = ideal_generator(power)
        if alpha is None:
            raise AssertionError(f"ell-th power of {f} is not principal")
        row = [_component_dlog_mod_ell(o, comp, alpha, ell) for comp in ell_comps]
        if tuple(row) not in span:
            span = {tuple((x + k * y) % ell for x, y in zip(s, row)) for s in span for k in range(ell)}
    return log_p(len(span), ell)


def smith_invariants(rows, ncols):
    """Invariant factors (> 1) of Z^ncols / row lattice, or None if not finite."""
    M = [r[:] for r in rows]
    iv = []
    r = c = 0
    while r < len(M) and c < ncols:
        piv = None
        for i in range(r, len(M)):
            for j in range(c, ncols):
                if M[i][j] and (piv is None or abs(M[i][j]) < abs(M[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        M[r], M[i0] = M[i0], M[r]
        for row in M:
            row[c], row[j0] = row[j0], row[c]
        dirty = True
        while dirty:
            dirty = False
            for i in range(len(M)):
                if i == r:
                    continue
                if M[i][c] % M[r][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    M[r], M[i] = M[i], M[r]
                    dirty = True
                elif M[i][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            for j in range(ncols):
                if j == c:
                    continue
                if M[r][j] % M[r][c]:
                    q = M[r][j] // M[r][c]
                    for row in M:
                        row[j] -= q * row[c]
                    for row in M:
                        row[c], row[j] = row[j], row[c]
                    dirty = True
                elif M[r][j]:
                    q = M[r][j] // M[r][c]
                    for row in M:
                        row[j] -= q * row[c]
        iv.append(abs(M[r][c]))
        r += 1
        c += 1
    if r < ncols:
        return None
    return [v for v in iv if v != 1]


def ray_class_oracle(d: int, S: tuple[int, ...], qmax: int = 40, steps: int = 40, max_rels: int = 400):
    """(order, invariant factors) of Cl_m for m = prod S, or (None, None) if incomplete."""
    o = QuadOrder(d)
    M = 1
    for p in S:
        M *= p
    gens = []
    for q in range(2, qmax):
        if any(q % r == 0 for r in range(2, q)):
            continue
        if q in S:
            continue
        kind, roots = _splitting_in_field(o, q)
        if kind == "ramified":
            continue
        if kind == "split":
            gens.append((q, roots[0]))
            gens.append((q, roots[1]))
        else:
            gens.append((q, None))
    idx = {g: i for i, g in enumerate(gens)}

    def val_vector(x, y):
        vec = [0] * len(gens)
        for q, e in factorint(o.norm(x, y)).items():
            if kronecker(o.D, q) == 0 or q in S:
                return None
            kind, roots = _splitting_in_field(o, q)
            if kind == "inert":
                key = (q, None)
                if key not in idx:
                    return None
                vec[idx[key]] += e // 2
            else:
                if (q, roots[0]) not in idx:
                    return None
                r1, r2 = roots
                xx, yy, ee, e1 = x, y, e, 0
                while ee > 0:
                    m1 = (xx + yy * r1) % q == 0
                    m2 = (xx + yy * r2) % q == 0
                    if m1 and m2:
                        xx //= q
                        yy //= q
                        e1 += 1
                        ee -= 2
                    elif m1:
                        e1 += ee
                        ee = 0
                    else:
                        ee = 0
                vec[idx[(q, r1)]] += e1
                vec[idx[(q, r2)]] += e - e1
        return vec

    rels = []
    for i in range(-steps, steps + 1):
        for j in range(-steps, steps + 1):
            x, y = 1 + M * i, M * j
            if (x, y) == (0, 0):
                continue
            v = val_vector(x, y)
            if v is not None:
                rels.append(v)
                if len(rels) >= max_rels:
                    break
        if len(rels) >= max_rels:
            break
    inv = smith_invariants(rels, len(gens))
    if inv is None:
        return None, None
    order = 1
    for v in inv:
        order *= v
    return order, inv
