import math
import random

import pytest
from oracle_poly import dedekind_index_divisible, sylvester_resultant, zx_eval

from twistsel.errors import DegenerateTowerError, InvalidParameterError
from twistsel.intmath import is_squarefree
from twistsel.numfield import (
    NO,
    UNDETERMINED,
    NumberFieldDef,
    SplittingShape,
    adjoin_sqrt,
    dedekind_split,
    make_monic,
    number_field,
    resultant_eliminate,
    zeta_in_field,
)
from twistsel.polyzq import fp_factor, zx_compose, zx_deg, zx_derivative, zx_factor, zx_gcd, zx_trim


def test_factor_poly_q_complete():
    content, factors = zx_factor([-1, 0, 0, 0, 1])
    assert content == 1
    assert [list(g) for g, _m in factors] == [[-1, 1], [1, 1], [1, 0, 1]]
    content2, factors2 = zx_factor([0, 12, 0, 0, 3])
    assert content2 == 3
    assert [list(g) for g, _m in factors2] == [[0, 1], [4, 0, 0, 1]]
    _, phi13 = zx_factor([1] * 13)
    assert len(phi13) == 1 and phi13[0][1] == 1


def test_make_monic():
    assert make_monic([4, 0, 3]) == [12, 0, 1]  # 3x^2+4 -> x^2+12 up to content
    assert make_monic([1, 1]) == [1, 1]


def test_number_field_validation():
    with pytest.raises(InvalidParameterError):
        number_field([-1, 0, 0, 0, 1])  # x^4 - 1 reducible
    K = number_field([-2, 0, 0, 1])
    assert K.degree == 3


def test_dedekind_quadratic_casework():
    # x^2 - d at p = 2 follows the d mod 8 rule whenever 2 does not divide the index
    for d in range(-200, 0):
        if not is_squarefree(d):
            continue
        K = NumberFieldDef((-d, 0, 1))
        split = dedekind_split(K, 2)
        if d % 4 in (2, 3):
            assert split != UNDETERMINED and split.shape == ((2, 1),), d
        elif d % 8 == 1:
            # maximal order is generated by (1+sqrt(d))/2; Z[sqrt(d)] has even
            # index, but the p-adic fallback still certifies the split shape
            assert split != UNDETERMINED and split.shape == ((1, 1), (1, 1)), d
        else:  # d = 5 mod 8: inert
            assert split == UNDETERMINED or split.shape == ((1, 2),), d


def test_dedekind_maximal_order_quadratic():
    # (1 + sqrt(-7))/2 has minimal polynomial x^2 - x + 2; 2 splits
    K = NumberFieldDef((2, -1, 1))
    split = dedekind_split(K, 2)
    assert split.shape == ((1, 1), (1, 1)) and split.via == "dedekind"


def test_dedekind_cubics():
    K = number_field([-2, 0, 0, 1])
    s5 = dedekind_split(K, 5)
    assert s5.shape == ((1, 1), (1, 2))
    # the classical inessential-discriminant-divisor cubic: the index test
    # fails at 2, but 2 does split completely and the root count certifies it
    K2 = number_field([8, -2, 1, 1])
    s2 = dedekind_split(K2, 2)
    assert s2 != UNDETERMINED
    assert s2.via == "padic-roots"
    assert s2.shape == ((1, 1), (1, 1), (1, 1))


def test_dedekind_undetermined_survives():
    # Z[2i] inside Q(i): index 2, and 2 does not split completely
    K = NumberFieldDef((4, 0, 1))
    assert dedekind_split(K, 2) == UNDETERMINED


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dedekind_split_matches_the_symmetric_lift_criterion(p):
    """dedekind_split, which lifts the factors mod p to [0, p), against the criterion
    on symmetric lifts: seeded monic squarefree f of degree 1 to 7, a third of them
    p^n g(x / p), whose order Z[p alpha] has index divisible by p once n >= 2."""
    rng = random.Random(p)
    counts = {True: 0, False: 0}
    while sum(counts.values()) < 150:
        n = rng.randint(1, 7)
        f = [rng.randint(-12, 12) for _ in range(n)] + [1]
        if rng.random() < 1 / 3:
            f = [c * p ** (n - i) for i, c in enumerate(f)]
        if zx_deg(zx_gcd(f, zx_derivative(f))) > 0:
            continue
        split = dedekind_split(NumberFieldDef(tuple(f)), p)
        divides = dedekind_index_divisible(f, p)
        counts[divides] += 1
        if divides:
            assert split in (UNDETERMINED, SplittingShape(p, ((1, 1),) * n, "padic-roots")), f
        else:
            _, parts = fp_factor(f, p)
            assert split == SplittingShape(p, tuple(sorted((e, zx_deg(g)) for g, e in parts))), f
    assert min(counts.values()) >= 30, counts


def test_zeta_in_field():
    K = NumberFieldDef((7, 0, 1))
    assert zeta_in_field(K, 5) == NO  # 4 does not divide 2
    cubic = number_field([-2, 0, 0, 1])
    assert zeta_in_field(cubic, 13) == NO  # 12 does not divide 3
    # the cyclotomic field itself is never ruled out
    for ell in (5, 7, 13):
        phi = NumberFieldDef((1,) * ell)
        assert zeta_in_field(phi, ell) == UNDETERMINED
    with pytest.raises(InvalidParameterError):
        zeta_in_field(K, 4)


def _z_minus(f):
    """z - f(t) in Z[z][t], the form the norm of f modulo g is read from."""
    return [[-f[0], 1]] + [[-c] for c in f[1:]]


def test_resultant():
    # the oracle: Res(x - a, g) = g(a)
    g = [3, 1, 2]
    for a in (-2, 0, 5):
        assert sylvester_resultant([-a, 1], g) == zx_eval(g, a)
    # Bareiss over Z[z] against Gaussian elimination over Q at integer points:
    # resultant_eliminate(g, h) at z0 is Res_t(g(t), h(z0, t)), for h = z - f(t)
    # and for the shifted square (z - k t)^2 - f(t) that adjoin_sqrt reads
    rng = random.Random(2016)
    for _ in range(40):
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [rng.choice([-2, -1, 1, 3])]
        f = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [rng.choice([-1, 1, 2])]
        k = rng.randint(1, 3)
        f0, f1, f2, *rest = f + [0, 0]
        shifted = [[-f0, 0, 1], [-f1, -2 * k], [k * k - f2]] + [[-c] for c in rest]
        h1, h2 = resultant_eliminate(g, _z_minus(f)), resultant_eliminate(g, shifted)
        for z0 in (-3, 0, 1, 7):
            assert zx_eval(h1, z0) == sylvester_resultant(g, [z0 - f[0]] + [-c for c in f[1:]])
            at_z0 = zx_trim([zx_eval(c, z0) for c in shifted])
            assert zx_eval(h2, z0) == sylvester_resultant(g, at_z0)


def test_resultant_eliminate():
    norm = lambda g, f: zx_compose(resultant_eliminate(g, _z_minus(f)), [0, 0, 1])
    assert norm([-1, 1], [1, 1, 0, 1]) == [-3, 0, 1]
    assert norm([1, 0, 1], [0, 1]) == [1, 0, 0, 0, 1]
    # degenerate square case: g = t - 2, f = t^3 + 1: z - 9
    assert resultant_eliminate([-2, 1], _z_minus([1, 0, 0, 1])) == [-9, 1]
    # h constant in t: the norm is h^deg g
    assert resultant_eliminate([-2, 0, 1], [[-3, 0, 1]]) == [9, 0, -6, 0, 1]


def test_adjoin_sqrt_examples():
    K = adjoin_sqrt([-1, 1], [1, 1, 0, 1])  # g = t-1, f = t^3+t+1: x^2 - 3
    assert list(K.minpoly) == [-3, 0, 1]
    K2 = adjoin_sqrt([-2, 1], [1, 0, 0, 1])  # f(2) = 9: degree drop
    assert list(K2.minpoly) == [-3, 1]
    K3 = adjoin_sqrt([1, 0, 1], [0, 1])  # g = t^2+1, f = t: x^4 + 1
    assert list(K3.minpoly) == [1, 0, 0, 0, 1]


def test_adjoin_sqrt_degree_invariant():
    # degree divides 2 deg g; equals it when f(alpha) is not a square
    cases = [([-1, 1], [1, 1, 0, 1], 2), ([-2, 1], [1, 0, 0, 1], 1), ([1, 0, 1], [0, 1], 4),
             ([-2, 0, 0, 1], [0, 1], 6)]
    for g, f, want in cases:
        K = adjoin_sqrt(g, f)
        assert (2 * zx_deg(g)) % K.degree == 0
        assert K.degree == want


def test_adjoin_sqrt_errors():
    with pytest.raises(InvalidParameterError):
        adjoin_sqrt([-1, 0, 1], [0, 1])  # reducible base
    with pytest.raises(DegenerateTowerError):
        adjoin_sqrt([0, 1], [0, 0, 1])  # f = t^2 vanishes mod g = t
    with pytest.raises(DegenerateTowerError):
        adjoin_sqrt([4, 2], [2, 1])  # g = 2t + 4 is not primitive; f = t + 2 vanishes mod g
    assert adjoin_sqrt([4, 2], [3, 1]).degree == 1  # f = t + 3 is 1 at t = -2


def test_adjoin_sqrt_keeps_alpha_when_f_alpha_has_fewer_conjugates():
    # f(alpha) rational: the norm of x^2 - f(alpha) is a square, so its
    # factor x^2 - 3 would be Q(sqrt 3) alone; beta + alpha generates Q(sqrt 2, sqrt 3)
    assert adjoin_sqrt([-2, 0, 1], [3]).minpoly == (1, 0, -10, 0, 1)
    assert adjoin_sqrt([-2, 0, 1], [1, 0, 1]).minpoly == (1, 0, -10, 0, 1)  # f(alpha) = 3
    # beta = +-alpha: the field is Q(sqrt 2) itself; k = 0 and 1 leave a repeated
    # root, and k = 2 gives alpha + beta in {+-3 sqrt 2, +-sqrt 2}
    assert adjoin_sqrt([-2, 0, 1], [2]).minpoly == (-18, 0, 1)
    # a cubic base with a rational f(alpha): Q(2^(1/3), sqrt c) has degree 6
    assert adjoin_sqrt([-2, 0, 0, 1], [5]).degree == 6


@pytest.mark.parametrize("a", [2, 3, -1, 5, -6])
def test_adjoin_sqrt_of_a_rational_over_a_quadratic_field(a):
    # the oracle: Q(sqrt a, sqrt c) has degree 2 when c or a c is a square, else 4
    for c in (-15, -3, -2, -1, 2, 3, 5, 6, 10, 12, 20):
        K = adjoin_sqrt([-a, 0, 1], [c])
        square = any(math.isqrt(v) ** 2 == v for v in (c, a * c) if v >= 0)
        assert K.degree == (2 if square else 4), (a, c)
        assert zx_factor(list(K.minpoly))[1] == [(list(K.minpoly), 1)]  # irreducible


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 15])
def test_dedekind_split_refuses_a_non_prime(p):
    # 4, 9 and 15 once failed inside an inverse mod p, and 0 divided by zero
    with pytest.raises(InvalidParameterError, match="must be a prime"):
        dedekind_split(NumberFieldDef((7, 0, 1)), p)


@pytest.mark.parametrize("ell", [2, 9, 15, 25])
def test_zeta_in_field_refuses_an_ell_that_is_not_an_odd_prime(ell):
    # the degree-8 field Q(zeta_15) passes the (ell - 1) | degree test at 9
    K = NumberFieldDef((1, -1, 0, 1, -1, 1, 0, -1, 1))
    with pytest.raises(InvalidParameterError, match="odd prime"):
        zeta_in_field(K, ell)


@pytest.mark.parametrize("make", [make_monic, number_field])
@pytest.mark.parametrize("f", [[], [0], [0, 0]])
def test_the_zero_polynomial_is_refused(make, f):
    with pytest.raises(InvalidParameterError, match="zero polynomial"):
        make(f)
