import math
import random
from fractions import Fraction

import pytest

from oracle_ec import multiply_point, torsion_x_coords
from oracle_poly import rational_roots_by_divisors, zx_eval
from twistsel import polyzq
from twistsel.curves import (
    CurveQ,
    PointQ,
    curve_from_string,
    point_order,
    quadratic_twist,
    rational_sqrt,
)
from twistsel.divpoly import (
    division_poly_primitive,
    division_polynomial,
    psi_factor_shape,
    rational_ell_torsion_point,
)
from twistsel.errors import InvalidParameterError, UnsupportedError
from twistsel.intmath import primes_up_to
from twistsel.numfield import torsion_field_polynomial
from twistsel.polyzq import (
    zx_deg,
    zx_derivative,
    zx_factor_bounded,
    zx_gcd,
    zx_mul,
    zx_primitive,
    zx_rational_roots,
)
from twistsel.reduction import local_reduction

E11A3 = CurveQ(0, -1, 1, 0, 0)
E_J0 = CurveQ(0, 0, 0, 0, 1)

SAMPLE_CURVES = [
    E11A3,
    E_J0,
    CurveQ(0, 0, 0, 1, 0),
    CurveQ(0, 0, 1, -1, 0),
    CurveQ(1, 1, 1, -10, -10),
]


def test_psi3_shape_short_model():
    for a, b in ((2, 3), (-1, 3), (0, 1), (1, 0), (-7, -11)):
        E = CurveQ(0, 0, 0, a, b)
        psi = division_polynomial(E, 3)
        assert psi.coeffs == tuple(Fraction(c) for c in (-a * a, 12 * b, 6 * a, 0, 3))


def test_psi_small_indices():
    psi1 = division_polynomial(E11A3, 1)
    assert psi1.coeffs == (Fraction(1),) and not psi1.even_cofactor
    psi2 = division_polynomial(E11A3, 2)
    assert psi2.coeffs == (Fraction(1),) and psi2.even_cofactor
    with pytest.raises(UnsupportedError):
        division_polynomial(E11A3, 0)
    with pytest.raises(UnsupportedError):
        division_polynomial(E11A3, 41)


def test_psi_degree_and_leading():
    rng = random.Random(7)
    curves = list(SAMPLE_CURVES)
    while len(curves) < 20:
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            curves.append(CurveQ(0, rng.randint(-2, 2), 0, a, b))
        except Exception:
            continue
    for E in curves:
        for ell in (3, 5, 7, 11, 13):
            psi = division_polynomial(E, ell)
            assert psi.degree == (ell * ell - 1) // 2
            assert psi.coeffs[-1] == ell


def test_psi_rational_model_matches_scaled():
    # psi of a rational model has the roots of the integral model scaled back
    E = CurveQ(0, 0, 0, Fraction(1, 16), Fraction(-1, 64))
    psi = division_polynomial(E, 3)
    assert psi.coeffs[-1] == 3
    # roots of psi correspond to 3-torsion x-coordinates: verify via the curve
    prim = division_poly_primitive(E, 3)
    from twistsel.polyzq import zx_factor_bounded

    linear, _ = zx_factor_bounded(prim, 1)
    for g in linear:
        x0 = Fraction(-g[0], g[1])
        s = E.a1 * x0 + E.a3
        disc = s * s + 4 * E.rhs(x0)
        from twistsel.curves import rational_sqrt

        root = rational_sqrt(disc)
        if root is not None:
            P = PointQ(x0, (-s + root) / 2)
            assert point_order(E, P, 3) == 3


def test_primitive_division_polynomial_matches_the_rational_one():
    """The integer route (t_j m^(2j), then the primitive part) against clearing the
    denominators of division_polynomial's Fraction coefficients."""
    curves = SAMPLE_CURVES + [
        CurveQ(0, 0, 0, Fraction(1, 16), Fraction(-1, 64)),
        CurveQ(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(7, 6), Fraction(-5, 9)),
        CurveQ(0, 0, 0, 13674069, 324405221670),
    ]
    for E in curves:
        for n in (1, 2, 3, 4, 5, 7, 8, 11, 13):
            coeffs = division_polynomial(E, n).coeffs
            den = math.lcm(*(c.denominator for c in coeffs))
            cleared = [int(c * den) for c in coeffs]
            content = math.gcd(*cleared)
            assert division_poly_primitive(E, n) == [c // content for c in cleared], (E, n)
    with pytest.raises(UnsupportedError):
        division_poly_primitive(E11A3, 41)


def test_finite_field_torsion_oracle():
    # roots of psi_ell mod p contain all x-coordinates of ell-torsion of E(F_p)
    for E in SAMPLE_CURVES:
        for ell in (3, 5, 7):
            prim = division_poly_primitive(E, ell)
            for p in primes_up_to(50):
                if not local_reduction(E, p).is_good or p == ell:
                    continue
                E_min = E  # sample curves are already minimal
                xs = torsion_x_coords(tuple(int(a) for a in E_min.ainvs), p, ell)
                for x in xs:
                    assert zx_eval(prim, x) % p == 0


def test_rational_torsion_examples():
    assert rational_ell_torsion_point(E11A3, 5) == PointQ(0, 0)
    assert rational_ell_torsion_point(E_J0, 5) is None
    assert rational_ell_torsion_point(E_J0, 3) == PointQ(0, 1)
    P = rational_ell_torsion_point(CurveQ(1, 1, 1, 0, 1), 5)
    assert P is not None and point_order(CurveQ(1, 1, 1, 0, 1), P, 5) == 5


def _psi_root_search(E: CurveQ, ell: int) -> list[PointQ]:
    """The torsion search that once ran at every ell up to 40: each rational
    root x0 of psi_ell with a rational y on E, kept if the oracle's group law
    gives it order ell."""
    linear, _ = zx_factor_bounded(division_poly_primitive(E, ell), 1)
    found = []
    for g in linear:
        x0 = Fraction(-g[0], g[1])
        s = E.a1 * x0 + E.a3
        root = rational_sqrt(s * s + 4 * E.rhs(x0))
        if root is not None and multiply_point(E, ell, PointQ(x0, (-s + root) / 2)).is_infinity():
            found.append(PointQ(x0, (-s + root) / 2))
    return found


E26 = CurveQ(1, -1, 1, -3, 3)
E13 = curve_from_string("[0,0,0,13674069,324405221670]")


def test_the_psi_root_search_finds_the_points_that_exist():
    for E, ell in ((E11A3, 5), (E26, 7)):
        found = _psi_root_search(E, ell)
        assert len(found) == (ell - 1) // 2 and rational_ell_torsion_point(E, ell) in found


@pytest.mark.parametrize("ell", [11, 13, 17])
def test_mazur_matches_the_psi_root_search(ell):
    # past 7 no psi_ell is built: Mazur's theorem answers, and the search
    # that used to run finds no point either
    for E in (E11A3, E26, E13):
        assert _psi_root_search(E, ell) == []
        assert rational_ell_torsion_point(E, ell) is None


def _kubert_curves(ell: int, ts):
    """Curves with the point (0, 0) of order ell: y^2 + a1 xy + a3 y = x^3 for
    ell = 3, and Tate's normal form E(b, c) with b = c = t for 5 and
    b = t^3 - t^2, c = t^2 - t for 7 (Kubert's table)."""
    for t in ts:
        if ell == 3:
            a1, a3 = t.numerator, t.denominator
            args = (a1, 0, a3, 0, 0)
        else:
            b, c = (t, t) if ell == 5 else (t**3 - t**2, t**2 - t)
            args = (1 - c, -b, -b, 0, 0)
        try:
            yield CurveQ(*args)
        except InvalidParameterError:  # a singular member of the family
            continue


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_rational_torsion_on_kubert_families_and_their_twists(ell):
    """The point found lies in <(0, 0)>, the whole rational ell-torsion, by the
    oracle's own group law; a twist by a non-square d has no rational point
    of order ell, since E(Q(sqrt d)) would hold all of E[ell] and so mu_ell
    (d = -3 is left out at ell = 3)."""
    rng = random.Random(28 + ell)
    ts = {Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(12)}
    found = 0
    for E in _kubert_curves(ell, sorted(ts - {0, 1})):
        P0 = PointQ(0, 0)
        assert multiply_point(E, ell, P0).is_infinity()
        multiples = {multiply_point(E, k, P0) for k in range(1, ell)}
        assert PointQ.infinity() not in multiples
        assert rational_ell_torsion_point(E, ell) in multiples, E
        for d in (-1, 2, -7):
            assert rational_ell_torsion_point(quadratic_twist(E, d), ell) is None, (E, d)
        found += 1
    assert found >= 6


def _linear_factor_roots(f):
    """Oracle: the roots of the linear factors from bounded Zassenhaus at bound 1."""
    return sorted(Fraction(-g[0], g[1]) for g in zx_factor_bounded(f, 1)[0])


def _product(*factors):
    out = [1]
    for g in factors:
        out = zx_mul(out, g)
    return zx_primitive(out)[1]


def _seeded_polys():
    """(kind, f): primitive squarefree f in Z[x] with small coefficients."""
    rng = random.Random(33)

    def linear(dens):
        b = rng.choice(dens)
        a = rng.choice([k for k in range(-12, 13) if math.gcd(k, b) == 1])
        return [-a, b]

    def no_real_root():  # a x^2 + b x + c with b^2 < 4 a c
        while True:
            a, b, c = rng.randint(1, 9), rng.randint(-6, 6), rng.randint(1, 9)
            if b * b < 4 * a * c:
                return [c, b, a]

    kinds = {
        # lc(f) with many small prime factors; its divisors are the denominators
        "lc-smooth": lambda: _product(linear([1, 2, 3, 5, 6, 7, 10]), [rng.randint(-9, 9), 0, 0, 210]),
        "denominators": lambda: _product(linear([2, 3, 4, 9]), linear([5, 6, 8]), no_real_root()),
        "zero-root": lambda: _product([0, 1], linear([1, 2, 3]), no_real_root()),
        "no-root": lambda: _product(no_real_root(), no_real_root()),
        # roots r and r + 105 meet mod 3, 5 and 7, so the root finder must move past them
        "double-mod-3-5-7": lambda: _product([-(r := rng.randint(-9, 9)), 1], [-(r + 105), 1], linear([1, 2])),
    }
    for kind, make in kinds.items():
        made = 0
        while made < 12:
            f = make()
            if zx_deg(zx_gcd(f, zx_derivative(f))) == 0:
                made += 1
                yield kind, f


def _spy_lift_prime(monkeypatch):
    primes = []
    lift = polyzq.hensel_lift
    monkeypatch.setattr(polyzq, "hensel_lift", lambda p, *a: primes.append(p) or lift(p, *a))
    return primes


def test_rational_roots_match_both_oracles(monkeypatch):
    primes = _spy_lift_prime(monkeypatch)
    for kind, f in _seeded_polys():
        primes.clear()
        want = rational_roots_by_divisors(f)
        assert zx_rational_roots(f) == want == _linear_factor_roots(f), (kind, f)
        assert zx_rational_roots([-c for c in f]) == want  # a negative leading coefficient
        assert (want == []) == (kind == "no-root")
        if kind == "double-mod-3-5-7":
            assert primes and primes[0] > 7, f
        if kind == "zero-root":
            assert Fraction(0) in want


def test_rational_roots_skip_the_primes_with_a_double_root(monkeypatch):
    # (x - 1)(x - 106)(2x + 3): 1 and 106 meet mod 3, 5 and 7; -3/2 meets 1 mod 5
    primes = _spy_lift_prime(monkeypatch)
    f = _product([-1, 1], [-106, 1], [3, 2])
    assert zx_rational_roots(f) == [Fraction(-3, 2), 1, 106]
    assert primes == [11]


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_rational_roots_of_psi_on_kubert_families_and_their_twists(ell):
    rng = random.Random(330 + ell)
    ts = {Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(10)}
    for E in _kubert_curves(ell, sorted(ts - {0, 1})):
        for C in (E, quadratic_twist(E, rng.choice([-1, 2, -7, 5]))):
            psi = division_poly_primitive(C, ell)
            assert zx_rational_roots(psi) == _linear_factor_roots(psi), (C, ell)
        assert zx_rational_roots(division_poly_primitive(E, ell)), E  # (0, 0) has order ell


def _fuzz_curves():
    """About 200 seeded curves: integral and not, E13-sized, bad at 3, 5, 7 and 11,
    and Kubert's curves with a point of order 3, 5 or 7 (rescaled, so large, too)."""
    rng = random.Random(3357)
    curves = []

    def add(*a):
        try:
            curves.append(CurveQ(*a))
        except InvalidParameterError:
            pass

    for _ in range(66):
        add(*(rng.randint(-9, 9) for _ in range(5)))
    for _ in range(30):
        add(*(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(5)))
    for _ in range(20):
        add(0, 0, 0, rng.randint(-10**8, 10**8), rng.randint(-10**12, 10**12))
    for p in (3, 5, 7, 11):
        for _ in range(8):
            add(rng.randint(-1, 1), rng.randint(-2, 2), 0, p * rng.randint(-9, 9), p * rng.randint(-9, 9))
    for ell in (3, 5, 7):
        ts = {Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3)) for _ in range(10)}
        for E in _kubert_curves(ell, sorted(ts - {0, 1})):
            curves += [E, E.transform(Fraction(1, rng.randint(2, 30)), rng.randint(-9, 9), 0, 0)]
    return curves + [E13, quadratic_twist(E13, -3)]


def test_rational_torsion_point_matches_the_psi_root_search_on_seeded_curves():
    curves = _fuzz_curves()
    assert 190 <= len(curves) <= 210
    found = {3: 0, 5: 0, 7: 0}
    for E in curves:
        for ell in (3, 5, 7):
            P, want = rational_ell_torsion_point(E, ell), _psi_root_search(E, ell)
            assert (P is None) == (want == []), (E, ell)
            assert P is None or P in want, (E, ell)
            found[ell] += P is not None
    assert min(found.values()) >= 8, found


def test_rational_torsion_excluded_by_counting():
    # cross-check: no 5-torsion on y^2 = x^3 + 1 because 5 divides neither
    # #E(F_7) nor #E(F_13)... actually gcd argument: 5 must divide both if present
    from twistsel.reduction import ap

    n7 = 7 + 1 - ap(E_J0, 7)
    n13 = 13 + 1 - ap(E_J0, 13)
    assert n7 % 5 != 0 or n13 % 5 != 0


def test_factor_shape_11a3():
    shape = psi_factor_shape(E11A3, 5, 2)
    assert [d for d, _ in shape.factors] == [1, 1]
    polys = [list(g) for _, g in shape.factors]
    assert [-1, 1] in polys and [0, 1] in polys
    assert shape.residual_degree == 10
    # product of factors times residual = primitive psi
    rebuilt = list(shape.residual)
    for _, g in shape.factors:
        rebuilt = zx_mul(rebuilt, list(g))
    assert rebuilt == division_poly_primitive(E11A3, 5)


def test_factor_shape_j0():
    shape = psi_factor_shape(E_J0, 3, 4)
    assert sorted(d for d, _ in shape.factors) == [1, 3]
    assert shape.residual_degree == 0
    with pytest.raises(UnsupportedError):
        psi_factor_shape(E11A3, 17, 6)
    with pytest.raises(UnsupportedError):
        psi_factor_shape(E11A3, 9, 6)
    with pytest.raises(UnsupportedError):
        psi_factor_shape(E11A3, 5, 13)


@pytest.mark.parametrize("curve", ["[0,-1,1,0,0]", "[0,0,1,-1,0]", "[0,0,0,0,1]",
                                   "[1,1,1,-10,-10]", "[1,1,1,0,1]"])
@pytest.mark.parametrize("d", [-7, -11])
def test_factor_shape_invariant_under_twist(curve, d):
    # the x-coordinates of E^d are those of E under an affine map over Q, so
    # psi_ell factors over Q into the same degrees
    E = curve_from_string(curve)
    for ell in (5, 7):
        before = psi_factor_shape(E, ell, 12)
        after = psi_factor_shape(quadratic_twist(E, d), ell, 12)
        assert [k for k, _ in after.factors] == [k for k, _ in before.factors]
        assert after.residual_degree == before.residual_degree


def test_torsion_field_polynomial_cases():
    # rational 5-torsion: the tower over g = x degenerates to degree 1
    K = torsion_field_polynomial(E11A3, 5, [0, 1])
    assert K.degree == 1
    # an irreducible quadratic factor of psi_5 for 11a3 gives a nontrivial tower
    shape = psi_factor_shape(E11A3, 5, 3)
    with pytest.raises(InvalidParameterError):
        torsion_field_polynomial(E11A3, 5, [0, -1, 1])  # reducible
    with pytest.raises(InvalidParameterError):
        torsion_field_polynomial(E11A3, 5, [1, 1, 1])  # irreducible but not a divisor
