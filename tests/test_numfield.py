import random

import pytest
from oracle_poly import dedekind_index_divisible

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
    zeta_in_field,
)
from twistsel.polyzq import fp_factor, zx_deg, zx_derivative, zx_factor, zx_gcd


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
