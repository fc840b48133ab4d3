"""Division polynomials, rational torsion points and factor shapes.

The n-th division polynomial is computed from the b-invariants of E's
integral model and rescaled back, so its roots are x-coordinates of n-torsion
in the input model's own coordinates. For odd n it is a polynomial in x of
degree (n^2 - 1)/2 with leading coefficient n; for even n the returned
x-polynomial carries the cofactor 2y + a1 x + a3. Rational torsion of odd
prime order ell is looked for only at 3, 5 and 7, as Mazur's theorem allows,
among the rational roots of psi_ell, which are read from its simple roots at
one small prime and lifted (`polyzq.zx_rational_roots`); bounded Zassenhaus
runs only for factor shapes. The torsion-field tower over a factor of psi_ell
is built in `numfield`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .curves import CurveQ, PointQ, integral_model, point_order, rational_sqrt
from .errors import InvalidParameterError, UnsupportedError
from .intmath import is_prime
from .polyzq import ZX, zx_deg, zx_factor_bounded, zx_mul, zx_primitive, zx_rational_roots, zx_sub

MAX_DIVPOLY_INDEX = 40
ODD_TORSION_PRIMES = (3, 5, 7)  # the odd prime orders of rational torsion over Q (Mazur)


def _t_poly(b: tuple[int, int, int, int], n: int) -> ZX:
    """x-part of the n-th division polynomial on a model with integral b-invariants.

    The recursion reads each lower index several times, so the table of
    t_k for this b lives for the call.
    """
    b2, b4, b6, b8 = b
    table: dict[int, ZX] = {
        1: [1],
        2: [1],
        3: [b8, 3 * b6, 3 * b4, b2, 3],
        4: [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2],
    }
    F = [b6, 2 * b4, b2, 4]  # (2y + a1 x + a3)^2 as a polynomial in x
    F2 = zx_mul(F, F)

    def t(k: int) -> ZX:
        if k not in table:
            m = k // 2
            if k % 2 == 1:
                a = zx_mul(t(m + 2), zx_mul(t(m), zx_mul(t(m), t(m))))
                c = zx_mul(t(m - 1), zx_mul(t(m + 1), zx_mul(t(m + 1), t(m + 1))))
                table[k] = zx_sub(zx_mul(F2, a), c) if m % 2 == 0 else zx_sub(a, zx_mul(F2, c))
            else:
                inner = zx_sub(
                    zx_mul(t(m + 2), zx_mul(t(m - 1), t(m - 1))),
                    zx_mul(t(m - 2), zx_mul(t(m + 1), t(m + 1))),
                )
                table[k] = zx_mul(t(m), inner)
        return table[k]

    return t(n)


class DivisionPoly(NamedTuple):
    """psi_n of a curve: x-polynomial (lowest degree first) plus an even-index flag."""

    n: int
    coeffs: tuple[Fraction, ...]
    even_cofactor: bool  # True: the full psi_n is (2y + a1 x + a3) * coeffs(x)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _scaled_t_poly(E: CurveQ, n: int) -> tuple[int, ZX]:
    """(m, t): the scale m of E's integral model, x_int = m^2 x, and the x-part t
    of psi_n on that model. psi_n in E's x-coordinate does not depend on m."""
    if not 1 <= n <= MAX_DIVPOLY_INDEX:
        raise UnsupportedError(f"division polynomial index must lie in [1, {MAX_DIVPOLY_INDEX}]")
    F, u = integral_model(E)  # u = 1 / m
    return Fraction(u).denominator, _t_poly((int(F.b2), int(F.b4), int(F.b6), int(F.b8)), n)


def division_polynomial(E: CurveQ, n: int) -> DivisionPoly:
    """The n-th division polynomial of E, 1 <= n <= 40, in E's own x-coordinate."""
    m, t = _scaled_t_poly(E, n)
    d = len(t) - 1
    m2 = Fraction(m) ** 2
    coeffs = tuple(Fraction(c) * m2 ** (j - d) for j, c in enumerate(t))
    return DivisionPoly(n, coeffs, n % 2 == 0)


def division_poly_primitive(E: CurveQ, n: int) -> ZX:
    """Primitive integer polynomial with the same roots as the x-part of psi_n.

    It is the primitive part of [t_j m^(2j)], which is m^(2 deg t) times the
    x-part of psi_n in E's own coordinates, made in integers throughout.
    """
    m, t = _scaled_t_poly(E, n)
    m2, scale, ints = m * m, 1, []
    for c in t:
        ints.append(c * scale)
        scale *= m2
    return zx_primitive(ints)[1]


def rational_ell_torsion_point(E: CurveQ, ell: int) -> PointQ | None:
    """A rational point of exact order ell, or None.

    Complete for ell in {3, 5, 7}, the only odd prime orders possible over Q
    (Mazur): there the rational roots of psi_ell are lifted to points. They are
    all found from psi_ell's simple roots at one small prime p (`polyzq.zx_rational_roots`):
    a root a/b has b | lc, so it reduces to one of them, which has one Hensel
    lift, and |lc a/b| < p^t / 2. Every other odd prime gets None by Mazur's
    theorem alone, without building psi_ell.
    """
    if ell < 3 or not is_prime(ell):
        raise InvalidParameterError("ell must be an odd prime")
    if ell not in ODD_TORSION_PRIMES:
        return None
    for x0 in zx_rational_roots(division_poly_primitive(E, ell)):
        # y^2 + (a1 x0 + a3) y = rhs(x0); the discriminant is F(x0) = psi_2^2 at x0
        s = E.a1 * x0 + E.a3
        disc = s * s + 4 * E.rhs(x0)
        root = rational_sqrt(disc)
        if root is None:
            continue
        P = PointQ(x0, (-s + root) / 2)
        if point_order(E, P, ell) == ell:
            return P
    return None


class FactorShape(NamedTuple):
    """Irreducible factors of psi_ell up to a degree bound, plus the unfactored cofactor."""

    ell: int
    degree_bound: int
    factors: tuple[tuple[int, tuple[int, ...]], ...]  # (degree, primitive factor)
    residual: tuple[int, ...]

    @property
    def residual_degree(self) -> int:
        return len(self.residual) - 1


def psi_factor_shape(E: CurveQ, ell: int, degree_bound: int) -> FactorShape:
    """Bounded-degree factor shape of psi_ell over Q."""
    if not (3 <= ell <= 13 and is_prime(ell)):
        raise UnsupportedError("factor shapes are supported for odd primes ell <= 13")
    if not 1 <= degree_bound <= 12:
        raise UnsupportedError("degree bound must lie in [1, 12]")
    psi = division_poly_primitive(E, ell)
    factors, residual = zx_factor_bounded(psi, degree_bound)
    return FactorShape(
        ell,
        degree_bound,
        tuple((zx_deg(g), tuple(g)) for g in factors),
        tuple(residual),
    )
