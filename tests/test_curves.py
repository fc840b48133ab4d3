import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_ec import add_points, multiply_point, negate_point, transform_point
from twistsel import curves
from twistsel.curves import (
    CurveQ,
    PointQ,
    curve_from_string,
    curve_invariants,
    format_rational,
    integral_model,
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


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", "1", None, 1j])
def test_floats_and_strings_are_refused_where_they_enter(bad):
    # a float is not converted to its binary fraction, nor a str parsed: only
    # the parsers read text, and nothing reads floats
    with pytest.raises(InvalidParameterError, match="int or a Fraction"):
        CurveQ(bad, 0, 0, 0, 1)
    with pytest.raises(InvalidParameterError, match="int or a Fraction"):
        CurveQ(0, 0, 0, 1, bad)
    if bad is not None:  # PointQ() with no coordinates is the point at infinity
        with pytest.raises(InvalidParameterError, match="int or a Fraction"):
            PointQ(bad, 0)
        with pytest.raises(InvalidParameterError, match="int or a Fraction"):
            PointQ(0, bad)
    for urst in ((bad, 0, 0, 0), (1, 0, 0, bad)):
        with pytest.raises(InvalidParameterError, match="int or a Fraction"):
            E11A3.transform(*urst)
    assert CurveQ(True, Fraction(1, 3), 0, 0, 1).ainvs == (1, Fraction(1, 3), 0, 0, 1)


def _tate_normal_form(order: int, t: Fraction) -> tuple:
    """(b, c) of Tate's normal form y^2 + (1 - c) xy - b y = x^3 - b x^2, on
    which (0, 0) has the given order 4 <= order <= 12 (Kubert's table)."""
    if order == 4:
        return t, 0
    if order == 5:
        return t, t
    if order == 6:
        return t + t * t, t
    if order == 7:
        return t**3 - t**2, t**2 - t
    if order == 8:
        b = (2 * t - 1) * (t - 1)
        return b, b / t
    if order == 9:
        c = t * t * (t - 1)
        return c * (t * t - t + 1), c
    if order == 10:
        d = t * t / (t - (t - 1) ** 2)
        return (t * d - t) * d, t * d - t
    m = (3 * t - 3 * t * t - 1) / (t - 1)
    f, d = m / (1 - t), m + t
    return f * (d - 1) * d, f * (d - 1)


def _torsion_examples(rng, order: int):
    """Seeded curves with a point of the given order, most of them not integral."""
    made = 0
    while made < 4:
        t = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        if order == 1:
            args, P = (0, 0, t.numerator, -t, 0), PointQ.infinity()
        elif order == 2:  # y^2 = x^3 + t x^2 + b x
            args, P = (0, t, 0, rng.randint(1, 6), 0), PointQ(0, 0)
        elif order == 3:  # y^2 + a1 xy + t y = x^3
            args, P = (rng.randint(-3, 3), 0, t, 0, 0), PointQ(0, 0)
        else:
            try:
                b, c = _tate_normal_form(order, t)
            except ZeroDivisionError:
                continue
            args, P = (1 - c, -b, -b, 0, 0), PointQ(0, 0)
        try:
            E = CurveQ(*args)
        except InvalidParameterError:  # a singular member of the family
            continue
        made += 1
        yield E, P


def _oracle_order(E, P, bound):
    return next((n for n in range(1, bound + 1) if multiply_point(E, n, P).is_infinity()), None)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_point_order_matches_the_oracle_on_every_torsion_order(order):
    """Every order Mazur allows, on seeded models, most of them non-integral,
    and on their images under seeded (u, r, s, t) with a non-integral u, at a
    bound above the order and one below it."""
    rng = random.Random(3200 + order)
    for E, P in _torsion_examples(rng, order):
        assert _oracle_order(E, P, 12) == order
        u = Fraction(rng.randint(1, 4), rng.randint(1, 6))
        r, s, t = (Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3))
        for F, Q in ((E, P), (E.transform(u, r, s, t), transform_point(P, u, r, s, t))):
            assert point_order(F, Q, 12) == order, (F, Q)
            assert point_order(F, Q, order - 1) is None
            assert point_order(F, Q, 40) == _oracle_order(F, Q, 40)


def test_non_torsion_walk_stops_at_its_first_non_integral_multiple(monkeypatch):
    """On 37a1 the generator (0, 0) has infinite order. Its multiples on the
    short model y^2 = x^3 - 27 c4 x - 54 c6 (x -> 36 x + 3 b2) are integral up
    to some k, by the oracle's group law; the walk computes the slopes of 2P,
    ..., kP and stops there, at any bound that reaches k; a bound below k
    stops it at the slope of (bound)P."""
    E37 = CurveQ(0, 0, 1, -1, 0)
    P = PointQ(0, 0)
    short_x = [36 * multiply_point(E37, n, P).x + 3 * E37.b2 for n in range(1, 41)]
    k = next(n for n, x in enumerate(short_x, 1) if x.denominator > 1)
    assert k == 8
    slopes = []

    def counting_divmod(a, b):
        slopes.append((a, b))
        return divmod(a, b)

    monkeypatch.setattr(curves, "divmod", counting_divmod, raising=False)
    for bound in (k - 1, k, 20, 40):
        slopes.clear()
        assert point_order(E37, P, bound) is None
        assert len(slopes) == min(bound, k) - 1
    # scaled to a non-integral model the walk is the same
    slopes.clear()
    u = Fraction(1, 6)
    assert point_order(E37.transform(u, 0, 0, 0), transform_point(P, u, 0, 0, 0), 40) is None
    assert len(slopes) == k - 1
    # a non-integral starting point stops the walk before its first slope
    slopes.clear()
    assert point_order(E37, multiply_point(E37, k, P), 40) is None
    assert slopes == []


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


def test_integral_model_returns_an_integral_curve_as_it_is():
    assert integral_model(E11A3) == (E11A3, 1) and integral_model(E11A3)[0] is E11A3
    E = CurveQ(0, 0, 0, Fraction(1, 16), Fraction(-1, 64))
    F, u = integral_model(E)
    assert F.is_integral() and F == E.transform(u, 0, 0, 0) and u == Fraction(1, 2)


def test_minimal_model_of_an_integral_curve_is_reached_in_ints():
    """Seeded integral models that are not minimal: a minimal one moved by
    (1/k, r, s, t) with k, r, s, t integers. The transform back is found in
    ints, and it is the one that the Fraction path finds from a non-integral
    copy of E."""
    rng = random.Random(32)
    checked = 0
    while checked < 150:
        try:
            E_min = minimal_model(CurveQ(*(rng.randint(-20, 20) for _ in range(5))))[0]
        except InvalidParameterError:
            continue
        k = rng.randint(1, 6)
        r, s, t = (rng.randint(-30, 30) for _ in range(3))
        E = E_min.transform(Fraction(1, k), r, s, t)
        assert E.is_integral()
        got, (u1, r1, s1, t1) = minimal_model(E)
        assert got == E_min and all(type(v) is int for v in (u1, r1, s1, t1))
        assert E.transform(u1, r1, s1, t1) == E_min
        # E moved by x -> x + 1/2 is not integral, and is solved in Fractions
        F = E.transform(1, Fraction(1, 2), 0, 0)
        assert not F.is_integral()
        got_f, urst = minimal_model(F)
        assert got_f == E_min and urst == (u1, r1 - Fraction(1, 2), s1, t1)
        checked += 1


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
    image = transform_point(found, u, r, s, t)
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
