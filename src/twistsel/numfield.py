"""Light number-field probes: Dedekind splitting, zeta tests, tower building.

No integral bases and no class groups of general fields; everything here is a
certified necessary-condition test or an exact polynomial computation on a
monogenic order Z[x]/(f). Undetermined is a value, not an error. The whole
torsion-field tower is built here: the short model's x-coordinate, the norm
resultant (`resultant_eliminate`) and the square root adjoined to it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .curves import CurveQ, minimal_model
from .divpoly import division_poly_primitive
from .errors import DegenerateTowerError, InvalidParameterError
from .intmath import is_prime, valuation
from .polyzq import (
    ZX,
    fp_factor,
    fp_gcd,
    fp_mul,
    fp_norm,
    fp_roots,
    zx_compose,
    zx_deg,
    zx_div_exact,
    zx_factor,
    zx_is_irreducible,
    zx_mul,
    zx_pow,
    zx_primitive,
    zx_sub,
    zx_trim,
)


class _NumberFieldDefTuple(NamedTuple):
    minpoly: tuple[int, ...]


class NumberFieldDef(_NumberFieldDefTuple):
    """A number field presented by a monic irreducible integer polynomial."""

    __slots__ = ()

    def __new__(cls, minpoly):
        f = list(minpoly)
        if zx_deg(f) < 1:
            raise InvalidParameterError("defining polynomial must be nonconstant")
        if f[-1] != 1:
            raise InvalidParameterError("defining polynomial must be monic")
        return super().__new__(cls, tuple(f))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1


def make_monic(f: ZX) -> ZX:
    """Monic integer polynomial with the same root field: c^(n-1) f(x/c) for c = lc(f)."""
    _, f = zx_primitive(zx_trim(f[:]))
    if not f:
        raise InvalidParameterError("the zero polynomial has no roots to define a field")
    n = zx_deg(f)
    c = f[-1]
    if c == 1:
        return f
    out = [f[i] * c ** (n - 1 - i) for i in range(n)] + [1]
    _, out = zx_primitive(out)
    return out


def number_field(f: ZX, check_irreducible: bool = True) -> NumberFieldDef:
    """NumberFieldDef from any irreducible integer polynomial (monicized if needed)."""
    g = make_monic(f)
    if check_irreducible and not zx_is_irreducible(g):
        raise InvalidParameterError("defining polynomial is reducible")
    return NumberFieldDef(tuple(g))


class SplittingShape(NamedTuple):
    """Shape [(e_i, f_i)] of p O_K = prod P_i^{e_i} with residue degrees f_i.

    `via` records how the shape was certified: "dedekind" when p does not
    divide the index of the polynomial order, "padic-roots" when the index
    test failed but a full set of p-adic roots settled the split shape.
    """

    p: int
    shape: tuple[tuple[int, int], ...]
    via: str = "dedekind"


UNDETERMINED = "Undetermined"


_PADIC_DEPTH = 64  # deepest residue-class recursion before a root count gives up


def _padic_root_count(f: ZX, p: int) -> int | None:
    """Number of distinct roots of a squarefree monic f in Z_p; None if too deep.

    Simple roots mod p lift uniquely (Hensel); multiple residue classes recurse
    on f(r + p t) with the p-power content removed. Squarefreeness bounds the
    recursion depth.
    """
    def count(g: ZX, depth: int) -> int | None:
        if depth > _PADIC_DEPTH:
            return None
        total = 0
        for r, d in fp_roots(g, p):
            if d:
                total += 1
                continue
            h = zx_compose(g, [r, p])
            shift = min(valuation(c, p) for c in h if c)
            h = [c // p**shift for c in h]
            sub = count(h, depth + 1)
            if sub is None:
                return None
            total += sub
        return total

    return count(f, 0)


def dedekind_split(K: NumberFieldDef, p: int) -> SplittingShape | str:
    """Splitting of p in O_K via the Dedekind criterion on the defining polynomial.

    Returns the shape when p does not divide the index [O_K : Z[alpha]], which
    Dedekind's criterion decides from the factors of f mod p and their plain
    lifts to Z[x] (coefficients in [0, p)): the criterion does not depend on
    the lift. When the index test fails, a certified p-adic root count can
    still decide the completely-split shape (p < deg K split completely
    forces p to divide the index of every generator, so no mod-p read-off
    exists); anything else is "Undetermined".
    """
    if not is_prime(p):
        raise InvalidParameterError(f"p must be a prime, got {p}")
    f = list(K.minpoly)
    _, parts = fp_factor(f, p)
    # Dedekind test: with fbar = prod gbar_i^{e_i}, g = prod g_i, h = fbar/g lifted,
    # p | index iff gcd((g h - f)/p, g, h) is nonconstant mod p. The lifts are
    # the plain ones, coefficients in [0, p): another lift adds a multiple of
    # hbar or gbar to (g h - f)/p mod p, which leaves the gcd as it is.
    gbar = [1]
    hbar = [1]
    for gi, ei in parts:
        gbar = fp_mul(gbar, gi, p)
        for _ in range(ei - 1):
            hbar = fp_mul(hbar, gi, p)
    Fbar = fp_norm([c // p for c in zx_sub(zx_mul(gbar, hbar), f)], p)
    d = fp_gcd(fp_gcd(Fbar, gbar, p), hbar, p)
    if zx_deg(d) > 0:
        roots = _padic_root_count(f, p)
        if roots == K.degree:
            return SplittingShape(p, ((1, 1),) * K.degree, via="padic-roots")
        return UNDETERMINED
    shape = tuple(sorted((ei, zx_deg(gi)) for gi, ei in parts))
    return SplittingShape(p, shape)


NO = "No"


def zeta_in_field(K: NumberFieldDef, ell: int) -> str:
    """One-sided membership test for an ell-th root of unity: "No" or "Undetermined".

    "No" is certified either by (ell - 1) not dividing the degree, or by a
    determined splitting of ell with no ramification index divisible by
    ell - 1 (the cyclotomic field is totally ramified above ell with
    e = ell - 1, so containment forces such an index).
    """
    if ell < 3 or not is_prime(ell):
        raise InvalidParameterError("ell must be an odd prime")
    if K.degree % (ell - 1) != 0:
        return NO
    split = dedekind_split(K, ell)
    if split == UNDETERMINED:
        return UNDETERMINED
    if all(e % (ell - 1) != 0 for e, _f in split.shape):
        return NO
    return UNDETERMINED


# ---------------------------------------------------------------------------
# towers: the norm resultant (fraction-free Bareiss on the Sylvester matrix)


def _bareiss_det(M: list[list[ZX]]) -> ZX:
    """Fraction-free (Bareiss) determinant over Z[z], without pivoting.

    Each pivot is a leading principal minor, so every one must be nonzero;
    `resultant_eliminate` guarantees that for its Sylvester matrices.
    """
    n = len(M)
    M = [row[:] for row in M]
    prev = [1]
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = zx_sub(zx_mul(M[i][j], M[k][k]), zx_mul(M[i][k], M[k][j]))
                M[i][j] = zx_div_exact(val, prev)
        prev = M[k][k]
    return M[n - 1][n - 1]


def resultant_eliminate(g: ZX, h: list[ZX]) -> ZX:
    """Res_t(g(t), h(t)) as a polynomial in z, for h in Z[z][t]: h[i] is the
    coefficient of t^i, and h[0] has a higher degree in z than any other.

    Entries of the Sylvester matrix live in Z[z]; Bareiss keeps everything
    exact. No pivot vanishes: with m = deg_t h, the k-th leading principal
    minor, k > m, has degree e (k - m) in z, e = deg_z h[0], with leading
    coefficient +-lc(g)^m lc(h[0])^(k - m), and the smaller ones are
    triangular with lc(g) on the diagonal.
    """
    g = zx_trim(g[:])
    h = [zx_trim(c[:]) for c in h]
    while h and not h[-1]:
        h.pop()
    n, m = zx_deg(g), len(h) - 1
    if n < 1:
        raise InvalidParameterError("base polynomial must be nonconstant")
    if m < 1:  # h constant in t: the norm form is h^n
        return zx_pow(h[0] if h else [], n)
    size = n + m
    gh = [[c] if c else [] for c in reversed(g)]
    hh = h[::-1]
    rows = []
    for i in range(m):
        rows.append([[]] * i + gh + [[]] * (size - n - 1 - i))
    for i in range(n):
        rows.append([[]] * i + hh + [[]] * (size - m - 1 - i))
    return _bareiss_det(rows)


def adjoin_sqrt(g: ZX, f: ZX) -> NumberFieldDef:
    """Defining polynomial of Q(alpha, sqrt(f(alpha))) for alpha a root of irreducible g.

    With beta = sqrt(f(alpha)), gamma = beta + k alpha is read from its norm
    form Res_t(g(t), (x - k t)^2 - f(t)) for k = 0, 1, ..., the first k at
    which that norm is squarefree. Then every irreducible factor of it defines
    Q(alpha, beta) (Trager, SYMSAC 1976), and the first of maximal degree in
    zx_factor's order, the one with the least coefficient sequence, is
    returned. At most n (2n - 1) values of k, n = deg g, give two of the 2n
    conjugates of gamma equal, so some k <= n (2n - 1) is squarefree. When
    f(alpha) is a square in Q(alpha) the degree drops to n.
    """
    g = zx_trim(g[:])
    f = zx_trim(f[:])
    if zx_deg(g) < 1:
        raise InvalidParameterError("base factor must be nonconstant")
    if not zx_is_irreducible(g):
        raise InvalidParameterError("base factor must be irreducible over Q")
    # degenerate tower: f = 0 mod g; g is irreducible, so by Gauss's lemma
    # its primitive part divides f over Z exactly when g divides f over Q
    if zx_div_exact(f, zx_primitive(g)[1]) is not None:
        raise DegenerateTowerError("f vanishes identically modulo g")
    f0, f1, f2, *rest = f + [0, 0]
    for k in range(zx_deg(g) * (2 * zx_deg(g) - 1) + 1):
        # (x - k t)^2 - f(t) in Z[x][t]
        h = [[-f0, 0, 1], [-f1, -2 * k], [k * k - f2]] + [[-c] for c in rest]
        _, parts = zx_factor(resultant_eliminate(g, h))
        if all(e == 1 for _, e in parts):
            best = max(parts, key=lambda t: zx_deg(t[0]))[0]
            return number_field(best, check_irreducible=False)
    raise AssertionError("unreachable: some shift k <= n (2n - 1) gives a squarefree norm")


def torsion_field_polynomial(E: CurveQ, ell: int, g: ZX) -> NumberFieldDef:
    """Defining polynomial of the field of a torsion point with x-coordinate in Q[t]/(g).

    g must be an irreducible factor of psi_ell in E's x-coordinate; the
    construction adjoins a root alpha of g and then the square root of the
    short-model cubic at alpha. Degenerates to a smaller field when that
    value is already a square.
    """
    g = zx_trim(g[:])
    if not zx_is_irreducible(g):
        raise InvalidParameterError("factor must be irreducible over Q")
    psi = division_poly_primitive(E, ell)
    if zx_div_exact(psi, g) is None:
        raise InvalidParameterError("factor does not divide psi_ell")
    # the short model y^2 = x^3 + A x + B, A = -27 c4 and B = -54 c6 of the
    # minimal model, has x_short = 36 x_min + 3 b2 = mu x + nu, as x_min = (x - r) / u^2
    Emin, (u, r, _s, _t) = minimal_model(E)
    A, B = -27 * int(Emin.c4), -54 * int(Emin.c6)
    mu = Fraction(36) / u**2
    nu = 3 * Emin.b2 - mu * r
    # move g to the short model's x-coordinate: roots map by x -> mu x + nu,
    # so g_short(t) = g((t - nu)/mu), cleared of denominators
    shifted = zx_compose([Fraction(c) for c in g], [-nu / mu, 1 / mu])
    lcm = math.lcm(*(c.denominator for c in shifted))
    g_short = zx_trim([int(c * lcm) for c in shifted])
    _, g_short = zx_primitive(g_short)
    return adjoin_sqrt(g_short, [B, A, 0, 1])
