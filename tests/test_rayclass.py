import math
import random

import pytest

from oracle_forms import disc, reduce_form
from oracle_rayclass import (
    QuadOrder,
    connecting_rank_by_ideals,
    form_to_ideal,
    ideal_generator,
    ideal_mul,
    ideal_pow,
    ideal_to_form,
    ray_class_oracle,
)
from twistsel.errors import InvalidParameterError, PreconditionError, ResourceError, UnsupportedError
from twistsel.intmath import is_prime, is_squarefree, kronecker
from twistsel.quadforms import compose, compose_unreduced, ell_rank, field_discriminant, reduced_forms
from twistsel.rayclass import form_with_coprime_a, principal_generator, ray_class_data


def test_spec_examples():
    # d = -5: D = -20
    assert ray_class_data(-20, (), 5).ell_rank == 0
    assert ray_class_data(-20, (11,), 5).ell_rank == 1
    assert ray_class_data(-20, (3,), 5).ell_rank == 0


def test_cardinality_identity_with_unit_count_oracle():
    # |Cl_m| * |image of -1| = h * |(O/m)*|, with |(O/m)*| counted by brute force
    for d in (-5, -13, -37):
        D = field_discriminant(d)
        split_p = next(p for p in (3, 7, 11, 13, 17, 19, 23, 29) if kronecker(D, p) == 1)
        inert_p = next(p for p in (3, 7, 11, 13, 17, 19, 23, 29) if kronecker(D, p) == -1)
        for p in (split_p, inert_p):
            data = ray_class_data(D, (p,), 5)
            o = QuadOrder(d)
            units = sum(
                1 for x in range(p) for y in range(p) if math.gcd(o.norm(x, y), p) == 1
            )
            w = 1
            for m in data.w_orders:
                w *= m
            assert w == units
            assert data.ray_class_number * data.unit_image_order == data.h * units


def test_empty_modulus_reduces_to_class_group():
    for d in (-5, -13, -23, -37, -47, -163):
        D = field_discriminant(d)
        for ell in (3, 5, 7):
            assert ray_class_data(D, (), ell).ell_rank == ell_rank(D, ell)[0]


def test_rank_against_relation_oracle():
    # independent reconstruction of Cl_m by relations + Smith form
    cases = [(-5, (3,), 5), (-23, (5,), 3), (-23, (7,), 3), (-31, (5,), 3)]
    for d, S, ell in cases:
        data = ray_class_data(field_discriminant(d), S, ell)
        order, invariants = ray_class_oracle(d, S)
        assert order is not None, (d, S)
        assert order == data.ray_class_number
        oracle_rank = sum(1 for v in invariants if v % ell == 0)
        assert oracle_rank == data.ell_rank, (d, S, ell, invariants)


def test_delta_correction_is_exercised():
    # d = -23, S = {5}: the class group C3 maps onto the ray part, cutting the
    # naive rank bound down by one
    data = ray_class_data(-23, (5,), 3)
    assert data.cl_ell_rank == 1 and data.w_ell_dim == 1
    assert data.delta_rank == 1
    assert data.ell_rank == 1


def test_preconditions():
    with pytest.raises(PreconditionError, match=r"5 ramifies in Q\(sqrt\(-5\)\)"):
        ray_class_data(-20, (5,), 3)  # ramified
    with pytest.raises(PreconditionError):
        ray_class_data(-20, (2,), 5)  # dyadic
    with pytest.raises(PreconditionError):
        ray_class_data(-7, (5,), 5)  # p = ell
    with pytest.raises(InvalidParameterError):
        ray_class_data(-20, (55,), 5)
    for D in (-3, -4):  # d = -3 and d = -1: units beyond +-1, with a nonempty modulus
        with pytest.raises(UnsupportedError, match="nontrivial units"):
            ray_class_data(D, (7,), 5)
    with pytest.raises(UnsupportedError):
        ray_class_data(5, (), 5)


def test_refuses_a_discriminant_not_maximal_at_2():
    # -12 and -80 are 4m with m = 1 or 0 mod 4: the orders Z[sqrt(-3)] and
    # Z[2 sqrt(-5)], not the rings of integers of their fields
    for D in (-12, -80):
        with pytest.raises(InvalidParameterError, match="m = 2 or 3 mod 4"):
            ray_class_data(D, (7,), 3)
        with pytest.raises(InvalidParameterError, match="m = 2 or 3 mod 4"):
            ray_class_data(D, (), 3)
    # an odd square factor is not checked: D = -36 = 9 * (-4) is the caller's contract
    assert ray_class_data(-36, (7,), 3).D == -36


def test_ideal_arithmetic_roundtrip():
    o = QuadOrder(-23)
    for f in reduced_forms(-23):
        ideal = form_to_ideal(o, f)
        assert ideal.norm == f[0]
        assert ideal_to_form(ideal) == f
    # multiplication matches composition on classes
    forms = reduced_forms(-23)
    f, g = forms[1], forms[2]
    prod_ideal = ideal_mul(form_to_ideal(o, f), form_to_ideal(o, g))
    assert ideal_to_form(prod_ideal) == compose(f, g)


def test_principal_generator():
    o = QuadOrder(-23)
    forms = reduced_forms(-23)
    f = forms[1]  # order 3 in the class group
    cube = ideal_pow(form_to_ideal(o, f), 3)
    alpha = ideal_generator(cube)
    assert alpha is not None
    assert o.norm(*alpha) == cube.norm
    # non-principal ideal has no generator
    assert ideal_generator(form_to_ideal(o, f)) is None


def test_principal_generator_of_an_unreduced_cube():
    # gcd(a, D) = 1: composing f with itself is the ideal cube, of norm a^3
    o = QuadOrder(-23)
    f = reduced_forms(-23)[1]
    g = compose_unreduced(compose_unreduced(f, f), f)
    assert g[0] == f[0] ** 3 and disc(g) == disc(f) == -23
    assert form_to_ideal(o, g) == ideal_pow(form_to_ideal(o, f), 3)  # the same lattice, not only the class
    alpha = principal_generator(g)
    assert alpha is not None and o.norm(*alpha) == g[0]
    assert principal_generator(f) is None


def test_form_with_coprime_a():
    forms = reduced_forms(-20)
    f = forms[1]  # (2, 2, 3)
    g = form_with_coprime_a(f, 2 * f[0])
    assert math.gcd(g[0], 2 * f[0]) == 1
    assert disc(g) == disc(f) and g[0] > 0 and math.gcd(*g) == 1
    assert reduce_form(g) == reduce_form(f)
    # (2, -1, 3) and its inverse (2, 1, 3) are distinct classes for D = -23:
    # the transform must have determinant +1, not -1
    f = (2, -1, 3)
    g = form_with_coprime_a(f, 2)
    assert g[0] % 2 == 1
    assert disc(g) == disc(f) and g[0] > 0 and math.gcd(*g) == 1
    assert reduce_form(g) == f


def test_form_with_coprime_a_reports_its_search_box_as_a_resource_limit():
    """Every value of (2, 1, 3) in the box has a prime factor below 10^4: a search
    limit (ResourceError, exit 1), not a failed hypothesis (PreconditionError, exit 2)."""
    M = math.prod(p for p in range(2, 10**4) if is_prime(p))
    with pytest.raises(ResourceError, match="search box"):
        form_with_coprime_a((2, 1, 3), M)


def test_connecting_rank_matches_the_ideal_path():
    # the form path against the ideal path it replaced, rank by rank
    rng = random.Random(14)
    near_million = [d for d in (-rng.randrange(10**6, 10**6 + 20000) for _ in range(60)) if is_squarefree(d)]
    small = [d for d in range(-5, -3001, -1) if is_squarefree(d)]
    cases = [(d, S, ell) for ell, S in ((3, (5,)), (7, (13,)), (3, (5, 7))) for d in small + near_million]
    # basis form (10, -2, 13) has gcd(a, D) = 2: a modulus without D keeps it, and its cube is not a^3
    cases.append((-129, (7,), 3))
    nonzero = 0
    for d, S, ell in cases:
        D = field_discriminant(d)
        if any(kronecker(D, p) == 0 for p in S):
            continue  # a ramified p is refused
        data = ray_class_data(D, S, ell)
        assert data.delta_rank == connecting_rank_by_ideals(d, S, ell), (d, S, ell)
        nonzero += data.delta_rank > 0
    assert nonzero > 100


def test_d_minus_2_takes_a_ray_modulus():
    # Z[sqrt(-2)] has units +-1 only, so D = -8 takes a modulus; h(-8) = 1, so the
    # ell-rank is that of (O/m)*/<-1>, which the relation oracle rebuilds
    # independently on these complete runs
    for S, ell, rank in (((3,), 5, 0), ((5,), 3, 1), ((7,), 5, 0), ((11,), 5, 2), ((13,), 7, 1)):
        data = ray_class_data(-8, S, ell)
        order, invariants = ray_class_oracle(-2, S)
        assert order == data.ray_class_number, (S, ell)
        assert data.ell_rank == sum(1 for v in invariants if v % ell == 0) == rank, (S, ell)
        assert data.delta_rank == connecting_rank_by_ideals(-2, S, ell) == 0
