"""Light number-field probes: Dedekind splitting, zeta tests, tower building.

No integral bases and no class groups of general fields; everything here is a
certified necessary-condition test or an exact polynomial computation on a
monogenic order Z[x]/(f). Undetermined is a value, not an error.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegenerateTowerError, InvalidParameterError
from .intmath import is_prime, valuation
from .polyzq import (
    ZX,
    fp_factor,
    fp_gcd,
    fp_mul,
    fp_norm,
    fp_roots,
    resultant_eliminate,
    zx_compose,
    zx_deg,
    zx_div_exact,
    zx_factor,
    zx_is_irreducible,
    zx_mul,
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


def adjoin_sqrt(g: ZX, f: ZX) -> NumberFieldDef:
    """Defining polynomial of Q(alpha, sqrt(f(alpha))) for alpha a root of irreducible g.

    Built from the norm form Res_t(g(t), x^2 - f(t)), then factored; the
    first irreducible factor of maximal degree in zx_factor's order, the one
    with the least coefficient sequence, is returned. When f(alpha) is a
    square in Q(alpha) the degree drops.
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
    h = resultant_eliminate(g, f)
    cand = zx_compose(h, [0, 0, 1])
    _, parts = zx_factor(cand)
    best = max(parts, key=lambda t: zx_deg(t[0]))[0]
    return number_field(best, check_irreducible=False)
