import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_ec import add_points, multiply_point, negate_point
from twistsel.curves import (
    CurveQ,
    PointQ,
    curve_from_string,
    curve_invariants,
    format_rational,
    minimal_model,
    parse_rational,
    point_from_string,
    point_order,
    quadratic_twist,
    translated,
    weierstrass_invariants,
)
from twistsel.errors import InvalidParameterError

E11A3 = CurveQ(0, -1, 1, 0, 0)


def test_invariants_11a3():
    inv = curve_invariants(E11A3)
    assert inv["disc"] == -11
    assert inv["c4"] == 16
    assert inv["c6"] == -152
    assert inv["j"] == Fraction(-4096, 11)


def test_invariants_special_j():
    assert CurveQ(0, 0, 0, 1, 0).j == 1728  # c6 = 0
    assert CurveQ(0, 0, 0, 0, 1).j == 0  # c4 = 0


def test_singular_rejected():
    with pytest.raises(InvalidParameterError):
        CurveQ(0, 0, 0, 0, 0)
    with pytest.raises(InvalidParameterError):
        CurveQ(0, 0, 0, -3, 2)  # y^2 = (x-1)^2 (x+2)


small_rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def _cubic_disc(a, b, c, d):
    return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def _assert_invariant_identities(ainvs, invariants):
    """Identities that (b2, b4, b6, b8, c4, c6, disc) satisfy, none restating a formula."""
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6, b8, c4, c6, disc = invariants
    # completing the square: (a1 x + a3)^2 + 4 (x^3 + a2 x^2 + a4 x + a6) is the
    # cubic 4 x^3 + b2 x^2 + 2 b4 x + b6; four values of x fix a cubic
    for x in (-2, 0, 1, 3):
        assert (a1 * x + a3) ** 2 + 4 * (x**3 + a2 * x * x + a4 * x + a6) == (
            4 * x**3 + b2 * x * x + 2 * b4 * x + b6
        )
    assert 4 * b8 == b2 * b6 - b4 * b4
    assert c4**3 - c6**2 == 1728 * disc
    # disc is the discriminant of that cubic over 16
    assert 16 * disc == _cubic_disc(4, b2, 2 * b4, b6)


def _stored_invariants(E):
    return (E.b2, E.b4, E.b6, E.b8, E.c4, E.c6, E.disc)


@settings(max_examples=60)
@given(small_rationals, small_rationals, small_rationals, small_rationals, small_rationals)
def test_c4_c6_disc_identity(a1, a2, a3, a4, a6):
    try:
        E = CurveQ(a1, a2, a3, a4, a6)
    except InvalidParameterError:
        return
    _assert_invariant_identities(E.ainvs, _stored_invariants(E))
    assert E.j == E.c4**3 / E.disc


def test_integral_invariants_are_kept_by_translation():
    # the integral models Tate's algorithm runs on
    rng = random.Random(24)
    for _ in range(200):
        ainvs = tuple(rng.randint(-60, 60) for _ in range(5))
        before = weierstrass_invariants(*ainvs)
        _assert_invariant_identities(ainvs, before)
        r, s, t = (rng.randint(-9, 9) for _ in range(3))
        moved = translated(ainvs, r, s, t)
        assert all(type(a) is int for a in moved)
        after = weierstrass_invariants(*moved)
        _assert_invariant_identities(moved, after)
        assert after[4:] == before[4:]  # c4, c6, disc


def test_rational_invariants_scale_by_powers_of_u():
    rng = random.Random(25)

    def rational():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 6))

    checked = 0
    while checked < 60:
        try:
            E = CurveQ(*(rational() for _ in range(5)))
        except InvalidParameterError:
            continue
        u = rational() or Fraction(1, 2)
        r, s, t = rational(), rational(), rational()
        moved = CurveQ(*translated(E.ainvs, r, s, t))
        assert (moved.c4, moved.c6, moved.disc) == (E.c4, E.c6, E.disc)
        F = E.transform(u, r, s, t)
        _assert_invariant_identities(F.ainvs, _stored_invariants(F))
        assert (F.c4, F.c6, F.disc) == (E.c4 / u**4, E.c6 / u**6, E.disc / u**12)
        checked += 1


def test_equality_hash_repr_and_pickle_see_only_the_a_invariants():
    E = CurveQ(Fraction(1, 2), 0, Fraction(-3, 4), 0, 1)
    back = pickle.loads(pickle.dumps(E))
    assert back == E and _stored_invariants(back) == _stored_invariants(E)
    assert b"disc" not in pickle.dumps(E)
    assert repr(E) == f"CurveQ(a1={E.a1!r}, a2={E.a2!r}, a3={E.a3!r}, a4={E.a4!r}, a6={E.a6!r})"
    # a copy whose stored invariants disagree still equals and hashes as E
    twin = CurveQ(*E.ainvs)
    for name in ("b2", "b4", "b6", "b8", "c4", "c6", "disc"):
        object.__setattr__(twin, name, Fraction(0))
    assert twin == E and hash(twin) == hash(E)
    assert E != CurveQ(Fraction(1, 2), 0, Fraction(-3, 4), 0, 2)


def test_parse_and_format():
    E = curve_from_string("[0,-1,1,0,0]")
    assert E == E11A3
    assert str(E) == "[0,-1,1,0,0]"
    E2 = curve_from_string("[1/2,0,-3/4,0,1]")
    assert E2.a1 == Fraction(1, 2) and E2.a3 == Fraction(-3, 4)
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert format_rational(Fraction(4, -6)) == "-2/3"
    assert point_from_string("(0,0)") == PointQ(0, 0)
    assert point_from_string("inf").is_infinity()
    with pytest.raises(InvalidParameterError):
        curve_from_string("[1,2,3]")
    with pytest.raises(InvalidParameterError):
        parse_rational("1.5")
    assert parse_rational("1/01") == 1
    for text in ("1/0", "-3/00"):
        with pytest.raises(InvalidParameterError, match="not a rational"):
            parse_rational(text)
    with pytest.raises(InvalidParameterError, match="not a rational: '1/0'"):
        curve_from_string("[0,0,0,1/0,1]")


def test_parse_rational_matches_the_pattern_it_replaced():
    """Acceptance and value against the regular expression parse_rational used
    to match, over a seeded grammar of signs, digits and denominators."""
    pattern = re.compile(r"-?\d+(/0*[1-9]\d*)?")  # \d: Unicode Nd digits, as str.isdecimal
    signs = ["", "-", "+", "--", "-+"]
    numerators = ["", "0", "00", "7", "042", "1_000", "1.5", "\u0661\u0662", "1e3", " 1"]
    tails = ["", "/", "/0", "/00", "/2", "/007", "/\u0663", "/3\u0663", "/0\u0660", "/1_0"]
    tails += ["/1.5", "/-2", "/2/3", "1/"]
    spaces = ["", " ", "\t", "\n ", "\u3000"]
    rng = random.Random(28)
    accepted = rejected = 0
    for _ in range(3000):
        text = rng.choice(spaces) + rng.choice(signs) + rng.choice(numerators)
        text += rng.choice(tails) + rng.choice(spaces)
        if pattern.fullmatch(text.strip()):
            assert parse_rational(text) == Fraction(text.strip()), repr(text)
            accepted += 1
        else:
            with pytest.raises(InvalidParameterError, match="not a rational"):
                parse_rational(text)
            rejected += 1
    assert accepted > 150 and rejected > 1500
    assert parse_rational(" -\u0661\u0662/03\u0663 ") == Fraction(-12, 33)


def test_group_law_torsion_cycle():
    P = PointQ(0, 0)
    assert P.on_curve(E11A3)
    assert multiply_point(E11A3, 2, P) == PointQ(1, -1)
    assert multiply_point(E11A3, 3, P) == PointQ(1, 0)
    assert multiply_point(E11A3, 4, P) == PointQ(0, -1)
    assert multiply_point(E11A3, 5, P).is_infinity()
    assert point_order(E11A3, P, 12) == 5


def test_point_order_examples():
    E = CurveQ(0, 0, 0, 0, 1)
    assert point_order(E, PointQ(0, 1), 12) == 3
    assert point_order(E, PointQ.infinity(), 12) == 1
    # rank-positive example: (0,0) on 37a1 is non-torsion
    E37 = CurveQ(0, 0, 1, -1, 0)
    assert point_order(E37, PointQ(0, 0), 20) is None


def test_group_law_commutes_and_associates():
    E = CurveQ(0, 0, 1, -1, 0)  # rank 1, P = (0, 0) generates
    P = PointQ(0, 0)
    Q = multiply_point(E, 2, P)
    R = multiply_point(E, 3, P)
    assert add_points(E, P, Q) == add_points(E, Q, P)
    assert add_points(E, add_points(E, P, Q), R) == add_points(E, P, add_points(E, Q, R))
    assert add_points(E, P, negate_point(E, P)).is_infinity()


def test_off_curve_rejected():
    with pytest.raises(InvalidParameterError, match="not on curve"):
        point_order(E11A3, PointQ(2, 2), 5)
    with pytest.raises(InvalidParameterError):
        add_points(E11A3, PointQ(2, 2), PointQ(0, 0))


def test_minimal_model_scalings():
    E = CurveQ(0, 0, 0, -432, 8208)
    Emin, (u, r, s, t) = minimal_model(E)
    assert Emin == E11A3
    assert u == 6
    assert E.disc / Emin.disc == u**12
    E2 = CurveQ(0, 0, 0, -270000, 128250000)
    Emin2, (u2, *_rest) = minimal_model(E2)
    assert Emin2 == E11A3
    assert u2 == 30


def test_minimal_model_idempotent():
    Emin, (u, r, s, t) = minimal_model(E11A3)
    assert Emin == E11A3
    assert (u, r, s, t) == (1, 0, 0, 0)


def test_minimal_model_rational_input():
    E = CurveQ(0, 0, 0, Fraction(1, 16), Fraction(-1, 64))
    Emin, (u, _r, _s, _t) = minimal_model(E)
    assert Emin.is_integral()
    assert E.disc / Emin.disc == u**12


def test_transform_roundtrip_point():
    E = CurveQ(0, 0, 0, -432, 8208)
    Emin, (u, r, s, t) = minimal_model(E)
    # map a point through and check it lands on the minimal model
    x = Fraction(12)
    rhs = E.rhs(x)
    # pick a curve point by brute force over small x
    found = None
    for xi in range(-20, 50):
        from twistsel.curves import rational_sqrt

        root = rational_sqrt(E.rhs(Fraction(xi)))
        if root is not None:
            found = PointQ(xi, root)
            break
    assert found is not None
    image = E.transform_point(found, u, r, s, t)
    assert image.on_curve(Emin)


def test_quadratic_twist_short_models():
    Ex = CurveQ(0, 0, 0, 1, 0)
    assert quadratic_twist(Ex, -1) == CurveQ(0, 0, 0, 1, 0)
    E1 = CurveQ(0, 0, 0, 0, 1)
    assert quadratic_twist(E1, 2) == CurveQ(0, 0, 0, 0, 8)


def test_quadratic_twist_preserves_j():
    assert quadratic_twist(E11A3, -37).j == Fraction(-4096, 11)


def test_quadratic_twist_validation():
    with pytest.raises(InvalidParameterError):
        quadratic_twist(E11A3, 0)
    with pytest.raises(InvalidParameterError):
        quadratic_twist(E11A3, 12)


@pytest.mark.parametrize("curve", ["[0,-1,1,0,0]", "[0,0,1,-1,0]", "[1,1,1,-10,-10]",
                                   "[0,0,0,1,0]", "[0,0,0,0,1]"])
@pytest.mark.parametrize("d", [-7, -11, -35])
def test_twist_involution(curve, d):
    E = curve_from_string(curve)
    double = quadratic_twist(quadratic_twist(E, d), d)
    assert minimal_model(double)[0] == minimal_model(E)[0]
