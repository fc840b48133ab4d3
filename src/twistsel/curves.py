"""Exact Weierstrass curve arithmetic over Q.

Long models [a1,a2,a3,a4,a6] with rational coefficients, their standard
invariants, coordinate transformations, the order of a point, quadratic
twists, and global minimal models (Laska-Kraus-Connell). All arithmetic is
exact, and in ints wherever the model is integral; a float or a str is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidParameterError, TwistselError
from .intmath import factorint, is_square, is_squarefree, valuation


def format_rational(x: Fraction | int) -> str:
    """Canonical text form: plain integer, or "p/q" with q > 0 and gcd(p, q) = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """An optional "-" and decimal digits, then optionally "/" and a denominator
    whose first digit after any "0"s is 1-9; surrounding whitespace is ignored.
    A decimal digit is any Unicode one (str.isdecimal); 0 and 1-9 are ASCII."""
    s = s.strip()
    num, slash, den = s.removeprefix("-").partition("/")
    den = den.lstrip("0")
    if not num.isdecimal() or slash and not (den.isdecimal() and den[0] in "123456789"):
        raise InvalidParameterError(f"not a rational: {s!r}")
    return Fraction(-int(num) if s[0] == "-" else int(num), int(den) if slash else 1)


def _as_fraction(v) -> Fraction:
    """v, an int or a Fraction, as a Fraction; any other type (a float, a str) is refused."""
    if not isinstance(v, (int, Fraction)):
        raise InvalidParameterError(f"expected an int or a Fraction, got {type(v).__name__} {v!r}")
    return v if isinstance(v, Fraction) else Fraction(v)


def weierstrass_invariants(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, b8, c4, c6, disc) of a long model; exact on ints and on Fractions."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def translated(ainvs: tuple, r, s, t) -> tuple:
    """a-invariants after x = x' + r, y = y' + s x' + t (the u = 1 coordinate change)."""
    a1, a2, a3, a4, a6 = ainvs
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


class CurveQ:
    """Nonsingular long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    The b-, c-invariants and disc are computed once, when the model is made;
    equality, hashing, repr and pickling see only the a-invariants. A model
    is frozen: its slots are filled once, here, and never assigned again.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "b2", "b4", "b6", "b8", "c4", "c6", "disc")

    def __init__(self, a1, a2, a3, a4, a6) -> None:
        for name, a in zip(self.__slots__, (a1, a2, a3, a4, a6)):
            object.__setattr__(self, name, _as_fraction(a))
        if self.is_integral():  # the same values, 100x faster than in Fractions
            invariants = map(Fraction, weierstrass_invariants(*(a.numerator for a in self.ainvs)))
        else:
            invariants = weierstrass_invariants(*self.ainvs)
        for name, value in zip(self.__slots__[5:], invariants):
            object.__setattr__(self, name, value)
        if self.disc == 0:
            raise InvalidParameterError("singular model: discriminant is zero")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ainvs == other.ainvs

    def __hash__(self) -> int:
        return hash(self.ainvs)

    def __repr__(self) -> str:
        return "CurveQ(" + ", ".join(f"{n}={a!r}" for n, a in zip(self.__slots__, self.ainvs)) + ")"

    def __reduce__(self):
        return CurveQ, self.ainvs

    @property
    def ainvs(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def j(self) -> Fraction:
        return self.c4**3 / self.disc

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.ainvs)

    def rhs(self, x: Fraction) -> Fraction:
        """x^3 + a2 x^2 + a4 x + a6."""
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def transform(self, u, r, s, t) -> "CurveQ":
        """Model in the coordinates (x', y') with x = u^2 x' + r, y = u^3 y' + s u^2 x' + t;
        on an integral model, int (u, r, s, t) keep the translation in ints."""
        ints = self.is_integral() and all(type(v) is int for v in (u, r, s, t))
        u, r, s, t = (u, r, s, t) if ints else map(_as_fraction, (u, r, s, t))
        if u == 0:
            raise InvalidParameterError("transform scale u must be nonzero")
        moved = translated(tuple(a.numerator for a in self.ainvs) if ints else self.ainvs, r, s, t)
        return CurveQ(*(Fraction(a, u**w) for a, w in zip(moved, (1, 2, 3, 4, 6))))

    def __str__(self) -> str:
        return "[" + ",".join(format_rational(a) for a in self.ainvs) + "]"


class _PointQTuple(NamedTuple):
    x: Fraction | None
    y: Fraction | None


class PointQ(_PointQTuple):
    """Affine rational point (x, y) or the point at infinity."""

    __slots__ = ()

    def __new__(cls, x=None, y=None):
        if (x is None) != (y is None):
            raise InvalidParameterError("point needs both coordinates or neither")
        if x is not None:
            x, y = _as_fraction(x), _as_fraction(y)
        return super().__new__(cls, x, y)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

    @staticmethod
    def infinity() -> "PointQ":
        return PointQ()

    def is_infinity(self) -> bool:
        return self.x is None

    def on_curve(self, E: CurveQ) -> bool:
        if self.is_infinity():
            return True
        x, y = self.x, self.y
        return y * y + E.a1 * x * y + E.a3 * y == E.rhs(x)

    def __str__(self) -> str:
        if self.is_infinity():
            return "inf"
        return f"({format_rational(self.x)},{format_rational(self.y)})"


def curve_from_string(text: str) -> CurveQ:
    """Parse "[a1,a2,a3,a4,a6]" with integer or "p/q" entries."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InvalidParameterError(f"curve text must look like [a1,a2,a3,a4,a6]: {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 5:
        raise InvalidParameterError("curve text needs exactly five coefficients")
    return CurveQ(*(parse_rational(p) for p in parts))


def point_from_string(text: str) -> PointQ:
    """Parse "(x,y)" or "inf"."""
    text = text.strip()
    if text.lower() in ("inf", "infinity", "o"):
        return PointQ.infinity()
    if not (text.startswith("(") and text.endswith(")")):
        raise InvalidParameterError(f"point text must look like (x,y) or inf: {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise InvalidParameterError("point text needs exactly two coordinates")
    return PointQ(parse_rational(parts[0]), parse_rational(parts[1]))


def curve_invariants(E: CurveQ) -> dict[str, Fraction]:
    """The standard quantities b2, b4, b6, b8, c4, c6, disc, j."""
    return {
        "b2": E.b2,
        "b4": E.b4,
        "b6": E.b6,
        "b8": E.b8,
        "c4": E.c4,
        "c6": E.c6,
        "disc": E.disc,
        "j": E.j,
    }


# ---------------------------------------------------------------------------
# the order of a point


def point_order(E: CurveQ, P: PointQ, bound: int) -> int | None:
    """Smallest n <= bound with nP = infinity, or None if no such n exists.

    P is checked on E once, then moved to y^2 = x^3 - 27 m^4 c4 x - 54 m^6 c6 by
    x -> m^2 (36 x + 3 b2), y -> 108 m^3 (2y + a1 x + a3), m clearing c4's and c6's
    denominators. Torsion is integral there (Nagell-Lutz, Silverman AEC VIII.7.1): the
    multiples nP are made in ints, and the first non-integral one proves infinite order.
    """
    if not P.on_curve(E):
        raise InvalidParameterError("point not on curve")
    if P.is_infinity():
        return 1 if bound >= 1 else None
    m = _denominator_scale((4, 6), (E.c4, E.c6))
    x = m * m * (36 * P.x + 3 * E.b2)
    y = 108 * m**3 * (2 * P.y + E.a1 * P.x + E.a3)
    if x.denominator != 1:  # an integral x has an integral y, as y^2 = x^3 + A x + B
        return None
    A = -27 * m**4 * E.c4.numerator // E.c4.denominator
    xp, yp = xq, yq = x.numerator, y.numerator
    for n in range(2, bound + 1):  # (xq, yq) is (n - 1)P; make nP
        if xq == xp and yq + yp == 0:
            return n
        lam, rem = divmod(*((3 * xp * xp + A, 2 * yp) if xq == xp else (yq - yp, xq - xp)))
        if rem:
            return None
        x3 = lam * lam - xq - xp
        xq, yq = x3, lam * (xp - x3) - yp
    return None


# ---------------------------------------------------------------------------
# twists


def check_twist_parameter(d: int) -> None:
    """Refuse a twist parameter d that is not a nonzero integer."""
    if not isinstance(d, int) or d == 0:
        raise InvalidParameterError("twist parameter must be a nonzero integer")


def quadratic_twist(E: CurveQ, d: int) -> CurveQ:
    """Twist by the squarefree integer d: short model (a, b) -> (a d^2, b d^3).

    General models are first put in short form with a = -c4/48, b = -c6/864,
    which leaves a model that is already short untouched.
    """
    check_twist_parameter(d)
    if not is_squarefree(d):
        raise InvalidParameterError(f"twist parameter must be squarefree: {d}")
    a = -E.c4 / 48
    b = -E.c6 / 864
    return CurveQ(0, 0, 0, a * d * d, b * d**3)


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell)


def _kraus_ok_at_2(c4: int, c6: int) -> bool:
    # Kraus: a pair (c4, c6) comes from an integral model iff, at 2, either
    # c6 = -1 (mod 4), or c4 = 0 (mod 16) and c6 = 0 or 8 (mod 32).
    if c6 % 4 == 3:
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _kraus_ok_at_3(c6: int) -> bool:
    return c6 == 0 or valuation(c6, 3) != 2


def _model_from_c4c6(c4: int, c6: int) -> CurveQ:
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4 = (b2 * b2 - c4) // 24
    b6 = (-(b2**3) + 36 * b2 * b4 - c6) // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    E = CurveQ(a1, a2, a3, a4, a6)
    if E.c4 != c4 or E.c6 != c6:
        raise InvalidParameterError("invariant pair fails the integrality conditions")
    return E


def _denominator_scale(weights: tuple[int, ...], values: tuple[Fraction, ...]) -> int:
    """Least m > 0 with m^w x integral for every weight w and value x, paired in order."""
    need: dict[int, int] = {}
    for w, x in zip(weights, values):
        for q, e in factorint(x.denominator).items() if x.denominator > 1 else ():
            need[q] = max(need.get(q, 0), -(-e // w))  # ceil(e / w)
    return math.prod(q**e for q, e in need.items())


def integral_model(E: CurveQ) -> tuple[CurveQ, Fraction | int]:
    """(model, u) with integral model = E.transform(u, 0, 0, 0): (E, 1) if E is integral."""
    if E.is_integral():
        return E, 1
    u = Fraction(1, _denominator_scale((1, 2, 3, 4, 6), E.ainvs))
    return E.transform(u, 0, 0, 0), u


def minimal_model(E: CurveQ) -> tuple[CurveQ, tuple]:
    """Global minimal model and the (u, r, s, t) with E.transform(u, r, s, t) = E_min.

    The returned model is the canonical reduced one: a1, a3 in {0, 1} and
    a2 in {-1, 0, 1}. disc(E) / disc(E_min) = u^12; u, r, s, t are ints if E is integral.
    """
    E_int, u0 = integral_model(E)
    c4 = int(E_int.c4)
    c6 = int(E_int.c6)
    disc = int(E_int.disc)
    g = math.gcd(math.gcd(c4, c6), disc)
    u1 = 1
    for p in factorint(g) if g > 1 else ():
        d = min(
            valuation(c4, p) // 4 if c4 else 10**9,
            valuation(c6, p) // 6 if c6 else 10**9,
            valuation(disc, p) // 12,
        )
        if p == 2:
            while d > 0 and not _kraus_ok_at_2(c4 // 2 ** (4 * d), c6 // 2 ** (6 * d)):
                d -= 1
        elif p == 3:
            while d > 0 and not _kraus_ok_at_3(c6 // 3 ** (6 * d)):
                d -= 1
        u1 *= p**d
    E_min = _model_from_c4c6(c4 // u1**4, c6 // u1**6)
    # E_int -> E_min is integral (Silverman AEC VII.1.3(d)), then E -> E_int scales by u0
    (a1, a2, a3), (m1, m2, m3) = ((a.numerator for a in C.ainvs[:3]) for C in (E_int, E_min))
    s = (u1 * m1 - a1) // 2
    r = (u1**2 * m2 - a2 + s * a1 + s * s) // 3
    t = (u1**3 * m3 - a3 - r * a1) // 2
    u, r, s, t = u0 * u1, u0**2 * r, u0 * s, u0**3 * t
    if E.transform(u, r, s, t) != E_min:
        raise TwistselError("internal: minimal model transform mismatch")
    return E_min, (u, r, s, t)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if x is not a square."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    if not (is_square(n) and is_square(d)):
        return None
    return Fraction(math.isqrt(n), math.isqrt(d))
