"""Brute-force finite-field elliptic curve oracle used by the tests.

Independent of the library: plain affine enumeration and a textbook group
law mod p. Slow on purpose; only correctness matters here.

`transform_point` moves a rational point by a change of coordinates, and
`add_points`, `negate_point` and `multiply_point` are the oracle's own group
law on rational points: the textbook chord-tangent formulas in Fractions,
each point checked on the curve at every addition, on the library's `CurveQ`
and `PointQ` records. `supersingular_by_twist_search` builds twists and
minimal models with the library, but never runs Tate's algorithm.
"""

from __future__ import annotations

from fractions import Fraction

from twistsel.curves import CurveQ, PointQ, minimal_model, quadratic_twist
from twistsel.errors import InvalidParameterError

INF = None


def reduce_curve(ainvs, p):
    return tuple(int(a) % p for a in ainvs)


def points(ainvs, p):
    """All points of E(F_p) including None for infinity."""
    a1, a2, a3, a4, a6 = reduce_curve(ainvs, p)
    pts = [INF]
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0:
                pts.append((x, y))
    return pts


def neg(ainvs, p, P):
    if P is INF:
        return INF
    a1, _a2, a3, _a4, _a6 = reduce_curve(ainvs, p)
    x, y = P
    return (x, (-y - a1 * x - a3) % p)


def add(ainvs, p, P, Q):
    if P is INF:
        return Q
    if Q is INF:
        return P
    a1, a2, a3, a4, _a6 = reduce_curve(ainvs, p)
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % p == 0:
        return INF
    if x1 == x2:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(2 * y1 + a1 * x1 + a3, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    nu = (y1 - lam * x1) % p
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
    y3 = (-(lam + a1) * x3 - nu - a3) % p
    return (x3, y3)


def mul(ainvs, p, n, P):
    R = INF
    Q = P
    while n:
        if n & 1:
            R = add(ainvs, p, R, Q)
        Q = add(ainvs, p, Q, Q)
        n >>= 1
    return R


def torsion_x_coords(ainvs, p, ell):
    """x-coordinates of the nonzero ell-torsion of E(F_p), by exhaustive search."""
    out = set()
    for P in points(ainvs, p):
        if P is INF:
            continue
        if mul(ainvs, p, ell, P) is INF:
            out.add(P[0])
    return out


def count_points_naive(ainvs, p):
    return len(points(ainvs, p))


def nonsingular_reduction_count(ainvs, p):
    """#E_ns(F_p) for a (possibly singular) reduction: skips singular points."""
    a1, a2, a3, a4, a6 = reduce_curve(ainvs, p)
    count = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p:
                continue
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            if fx == 0 and fy == 0:
                continue
            count += 1
    return count


def transform_point(P: PointQ, u, r, s, t) -> PointQ:
    """P in the coordinates of E.transform(u, r, s, t), x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    if P.is_infinity():
        return P
    u, r, s, t = map(Fraction, (u, r, s, t))
    x = (P.x - r) / u**2
    return PointQ(x, (P.y - s * u**2 * x - t) / u**3)


def add_points(E: CurveQ, P: PointQ, Q: PointQ) -> PointQ:
    """P + Q by the chord-tangent law on the long model; refuses a point off E."""
    if not P.on_curve(E) or not Q.on_curve(E):
        raise InvalidParameterError("point not on curve")
    if P.is_infinity():
        return Q
    if Q.is_infinity():
        return P
    if P == negate_point(E, Q):
        return PointQ.infinity()
    if P.x == Q.x:  # tangent at P: slope (3x^2 + 2 a2 x + a4 - a1 y) / (2y + a1 x + a3)
        num = 3 * P.x**2 + 2 * E.a2 * P.x + E.a4 - E.a1 * P.y
        slope = num / (2 * P.y + E.a1 * P.x + E.a3)
    else:
        slope = (Q.y - P.y) / (Q.x - P.x)
    x = slope**2 + E.a1 * slope - E.a2 - P.x - Q.x
    return negate_point(E, PointQ(x, P.y + slope * (x - P.x)))


def negate_point(E: CurveQ, P: PointQ) -> PointQ:
    if P.is_infinity():
        return P
    return PointQ(P.x, -P.y - E.a1 * P.x - E.a3)


def multiply_point(E: CurveQ, n: int, P: PointQ) -> PointQ:
    """nP by binary double-and-add over add_points; -P for negative n."""
    if n < 0:
        n, P = -n, negate_point(E, P)
    R = PointQ.infinity()
    Q = P
    while n:
        if n & 1:
            R = add_points(E, R, Q)
        Q = add_points(E, Q, Q)
        n >>= 1
    return R


def supersingular_by_twist_search(E: CurveQ, ell: int) -> tuple[str, str]:
    """(verdict, reason) of `reduction.is_supersingular`, by the search it once ran.

    ord_ell(j) < 0 is read from the denominator of j, good reduction from ell
    not dividing the minimal discriminant, and a_ell from a count of points.
    Other bad reduction tries eleven quadratic twists in order and takes the
    first with good reduction at ell.
    """
    if E.j.denominator % ell == 0:
        return "NotApplicable", f"ord_{ell}(j) < 0; outside the hypothesis branch"
    twists = (-1, ell, -ell, 2, -2, 2 * ell, -2 * ell, 3, -3, 3 * ell, -3 * ell)
    for d in (1, *twists):
        E_min, _ = minimal_model(E if d == 1 else quadratic_twist(E, d))
        if int(E_min.disc) % ell:
            a = ell + 1 - count_points_naive(E_min.ainvs, ell)
            how = "good reduction" if d == 1 else f"good reduction after twist by {d}"
            return ("Yes" if a == 0 else "No"), f"{how}, a_{ell} = {a}"
    return "NotApplicable", f"additive reduction at {ell} not resolved by a quadratic twist"
