"""Randomized cross-checks over many small curves, deterministic seeds.

Stresses the delicate paths: Tate's algorithm at 2 and 3, minimal models,
and the consistency relations between conductor exponents, discriminant
valuations and j-valuations.
"""

import random
from fractions import Fraction

from twistsel.curves import CurveQ, minimal_model, quadratic_twist
from twistsel.errors import InvalidParameterError
from twistsel.intmath import valuation
from twistsel.reduction import ReductionKind, conductor, local_reduction


def _random_curves(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ainvs = [rng.randint(-6, 6) for _ in range(5)]
        try:
            out.append(CurveQ(*ainvs))
        except InvalidParameterError:
            continue
    return out


def test_minimal_model_fuzz():
    for E in _random_curves(2024, 120):
        Emin, (u, r, s, t) = minimal_model(E)
        assert Emin.is_integral()
        assert E.transform(u, r, s, t) == Emin
        ratio = E.disc / Emin.disc
        assert ratio == u**12
        assert Emin.c4 ** 3 - Emin.c6 ** 2 == 1728 * Emin.disc
        # canonical reduced shape
        assert Emin.a1 in (0, 1) and Emin.a3 in (0, 1) and Emin.a2 in (-1, 0, 1)
        # idempotence
        again, (u2, *_rest) = minimal_model(Emin)
        assert again == Emin and u2 == 1


def test_local_reduction_fuzz():
    for E in _random_curves(77, 80):
        N, exps = conductor(E)
        Emin, _ = minimal_model(E)
        disc = int(Emin.disc)
        for p, f in exps.items():
            red = local_reduction(Emin, p)
            assert red.conductor_exponent == f
            assert red.ord_delta_min == valuation(disc, p)
            assert 1 <= f <= red.ord_delta_min
            if red.kind in (
                ReductionKind.MULTIPLICATIVE_SPLIT,
                ReductionKind.MULTIPLICATIVE_NONSPLIT,
            ):
                assert f == 1
                assert red.kodaira == f"I{red.ord_delta_min}"
                assert red.ord_j == -red.ord_delta_min
            else:
                assert f >= 2
                if p >= 5:
                    assert f == 2
        # good primes have f = 0 and vanish from the conductor
        for p in (2, 3, 5, 7):
            if p not in exps:
                assert local_reduction(Emin, p).is_good or valuation(disc, p) == 0


def _expected_type_p_ge_5(vc4, vdisc):
    # for p >= 5 on a minimal model the Kodaira type is determined by the
    # valuations of c4 and the discriminant (classical reduction tables)
    if vdisc == 0:
        return "I0"
    if vc4 == 0:
        return f"I{vdisc}"
    if vdisc == 2:
        return "II"
    if vdisc == 3:
        return "III"
    if vdisc == 4:
        return "IV"
    if vdisc == 6:
        return "I0*"
    if vdisc == 8:
        return "IV*"
    if vdisc == 9:
        return "III*"
    if vdisc == 10:
        return "II*"
    return f"I{vdisc - 6}*"  # vdisc = 6 + n with v(c4) = 2


def test_tate_valuation_table_p_ge_5():
    # independent determination of the type away from 2 and 3
    checked = 0
    for E in _random_curves(31337, 150):
        Emin, _ = minimal_model(E)
        c4 = int(Emin.c4)
        disc = int(Emin.disc)
        for p, f in conductor(E)[1].items():
            if p < 5:
                continue
            red = local_reduction(Emin, p)
            vc4 = valuation(c4, p) if c4 else 10**9
            want = _expected_type_p_ge_5(vc4, valuation(disc, p))
            assert red.kodaira == want, (str(Emin), p, red.kodaira, want)
            checked += 1
    assert checked >= 40


def test_wild_conductor_exponent_bounds():
    # f_2 <= 8 and f_3 <= 5 over Q
    for E in _random_curves(4242, 150):
        exps = conductor(E)[1]
        assert exps.get(2, 0) <= 8
        assert exps.get(3, 0) <= 5


def test_minimality_certificate():
    # no prime admits a further 12th-power reduction passing the integrality rules
    from twistsel.intmath import factorint

    for E in _random_curves(9090, 60):
        Emin, _ = minimal_model(E)
        c4, c6, disc = int(Emin.c4), int(Emin.c6), int(Emin.disc)
        for p in factorint(disc):
            if valuation(disc, p) < 12:
                continue
            if c4 and valuation(c4, p) < 4:
                continue
            if c6 and valuation(c6, p) < 6:
                continue
            # scaling down by p would have to break an integrality condition
            assert p in (2, 3), f"{Emin} not minimal at {p}"


def test_twist_then_minimalize_fuzz():
    rng = random.Random(5)
    for E in _random_curves(11, 25):
        d = rng.choice([-7, -11, -15, -19, -23])
        Ed = quadratic_twist(E, d)
        assert Ed.j == E.j
        # twisting twice returns to the original curve up to isomorphism
        back = quadratic_twist(Ed, d)
        assert minimal_model(back)[0] == minimal_model(E)[0]


def test_rational_coefficient_curves():
    rng = random.Random(99)
    count = 0
    while count < 20:
        nums = [rng.randint(-8, 8) for _ in range(5)]
        dens = [rng.choice([1, 2, 3, 4]) for _ in range(5)]
        try:
            E = CurveQ(*(Fraction(n, d) for n, d in zip(nums, dens)))
        except InvalidParameterError:
            continue
        count += 1
        Emin, (u, r, s, t) = minimal_model(E)
        assert Emin.is_integral()
        assert E.transform(u, r, s, t) == Emin
        conductor(E)  # must not raise
