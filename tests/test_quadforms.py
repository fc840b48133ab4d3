import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle_forms
from oracle_forms import (
    class_group_invariants,
    disc,
    form_order,
    inverse,
    is_reduced,
    reduced_forms_naive,
    torsion_subgroup,
)
from twistsel import _kernels, quadforms
from twistsel.errors import InvalidParameterError, TwistselError, UnsupportedError
from twistsel.intmath import is_squarefree
from twistsel.quadforms import (
    class_group_structure,
    class_number,
    compose,
    ell_part,
    ell_rank,
    field_discriminant,
    form_power,
    principal_form,
    reduce_form,
    reduced_forms,
    sylow_subgroup,
)


def _assert_reduced_of_disc(f, D):
    assert type(f) is tuple and len(f) == 3 and all(type(x) is int for x in f), f
    assert is_reduced(f) and disc(f) == D, (f, D)
    assert f[0] > 0 and math.gcd(*f) == 1, f


def test_reduced_forms_examples():
    assert reduced_forms(-3) == [(1, 1, 1)]
    assert reduced_forms(-20) == [(1, 0, 5), (2, 2, 3)]
    assert reduced_forms(-148) == [(1, 0, 37), (2, 2, 19)]
    with pytest.raises(UnsupportedError):
        reduced_forms(20)
    with pytest.raises(InvalidParameterError):
        reduced_forms(-21)  # 3 mod 4 is not a discriminant


def test_field_discriminant():
    assert field_discriminant(-7) == -7
    assert field_discriminant(-5) == -20
    assert field_discriminant(-37) == -148
    with pytest.raises(InvalidParameterError):
        field_discriminant(12)


def test_compose_identity_and_inverse():
    for D in (-20, -23, -47, -148, -231):
        one = principal_form(D)
        assert one == oracle_forms.principal_form(D)
        _assert_reduced_of_disc(one, D)
        for f in reduced_forms(D):
            assert compose(one, f) == f
            assert compose(f, inverse(f)) == one


def test_compose_example():
    f = (2, 2, 3)
    assert compose(f, f) == (1, 0, 5)


def test_reduction_is_canonical():
    f = (12, 23, 34)  # D = 529 - 4*12*34 = -1103
    r = reduce_form(f)
    _assert_reduced_of_disc(r, disc(f))
    assert r == oracle_forms.reduce_form(f)
    # reduction is the identity on reduced forms, and the same form for every
    # properly equivalent one: (a, b, c) -> (a, b + 2ka, ...) and (c, -b, a)
    for D in (-3, -4, -20, -23, -1103, -3299):
        for g in reduced_forms_naive(D):
            a, b, c = g
            assert reduce_form(g) == g
            assert reduce_form((c, -b, a)) == g
            for k in (-3, -1, 1, 5):
                assert reduce_form((a, b + 2 * k * a, a * k * k + b * k + c)) == g


def test_compose_matches_the_oracle_on_every_pair():
    """The library's composition against Dirichlet's united forms, every ordered pair.

    All D = 0, 1 mod 4 in [-1500, -3], non-fundamental ones included: 133538 pairs.
    """
    pairs = 0
    for D in range(-3, -1501, -1):
        if D % 4 not in (0, 1):
            continue
        forms = reduced_forms_naive(D)
        for f in forms:
            for g in forms:
                fg = compose(f, g)
                _assert_reduced_of_disc(fg, D)
                assert fg == oracle_forms.compose(f, g), (D, f, g)
                pairs += 1
    assert pairs == 133538


def test_class_group_closure_all_small_discs():
    for D in range(-3, -500, -1):
        if D % 4 not in (0, 1):
            continue
        forms = reduced_forms(D)
        h = len(forms)
        assert h == class_number(D)
        forms_set = set(forms)
        one = principal_form(D)
        assert one in forms_set
        for f in forms:
            _assert_reduced_of_disc(f, D)
            assert compose(f, inverse(f)) == one
            n = form_order(f)
            assert form_power(f, n) == one
            assert form_power(f, n + 1) == f
            _assert_reduced_of_disc(form_power(f, 2), D)
        # closure on a deterministic sample of pairs
        for f in forms[:5]:
            for g in forms[:5]:
                fg = compose(f, g)
                _assert_reduced_of_disc(fg, D)
                assert fg in forms_set


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-400, max_value=-3))
def test_compose_commutative_associative(D):
    if D % 4 not in (0, 1):
        return
    forms = reduced_forms(D)
    sample = forms[:4]
    for f in sample:
        for g in sample:
            assert compose(f, g) == compose(g, f)
            for k in sample:
                assert compose(compose(f, g), k) == compose(f, compose(g, k))


def test_class_group_structure_examples():
    assert class_group_structure(-23).structure == (3,)
    assert class_group_structure(-20).structure == (2,)
    assert class_group_structure(-4).h == 1
    assert class_group_structure(-47).structure == (5,)
    # C2 x C2: D = -84
    assert class_group_structure(-84).structure == (2, 2)
    # first 3-rank 2 discriminant
    assert class_group_structure(-3299).structure == (3, 9)


def test_structure_multiplies_to_h():
    for D in (-3, -20, -23, -47, -84, -148, -420, -480):
        data = class_group_structure(D)
        prod = 1
        for d in data.structure:
            prod *= d
        assert prod == data.h
        # divisor chain d1 | d2 | ...
        for a, b in zip(data.structure, data.structure[1:]):
            assert b % a == 0


def test_ell_rank_examples():
    assert ell_rank(-47, 5) == (1, 5)
    assert ell_rank(-20, 5) == (0, 1)
    assert ell_rank(-23, 3) == (1, 3)
    assert ell_rank(-3299, 3) == (2, 9)
    with pytest.raises(InvalidParameterError):
        ell_rank(-84, 4)  # the Sylow walk needs a prime; cl(-84) = C2 x C2


def _is_fundamental(D):
    if D % 4 == 1:
        return is_squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and is_squarefree(D // 4)


def test_ell_rank_matches_structure():
    # the single-ell torsion count (with its ell-does-not-divide-h shortcut)
    # against the layered all-primes structure and a form-order count
    both_cases = {ell: set() for ell in (2, 3, 5, 7)}
    for D in [D for D in range(-3, -2001, -1) if _is_fundamental(D)] + [-3299]:
        data = class_group_structure(D)
        orders = [form_order(f) for f in reduced_forms(D)]
        for ell in (2, 3, 5, 7):
            r, order = ell_rank(D, ell)
            assert r == sum(1 for d in data.structure if d % ell == 0)
            assert order == ell**r == sum(1 for n in orders if ell % n == 0)
            both_cases[ell].add(data.h % ell == 0)
    assert all(seen == {True, False} for seen in both_cases.values())


def _assert_ell_part_matches_oracle(D, ell):
    forms = reduced_forms(D)
    part = ell_part(D, ell)
    assert part.h == len(forms)
    assert list(part.torsion) == torsion_subgroup(forms, ell), (D, ell)
    return part


def test_ell_part_matches_exhaustive_torsion():
    """The Sylow walk against powering every form, on all small discriminants."""
    for D in range(-3, -4001, -1):
        if D % 4 in (0, 1):
            for ell in (3, 5, 7):
                _assert_ell_part_matches_oracle(D, ell)


def test_ell_part_matches_exhaustive_torsion_near_1e5():
    """Seeded D near -10^5, among them 3-rank 2 and Sylow orders ell^2 and more."""
    rng = random.Random(100003)
    rank2, deep = 0, {3: 0, 5: 0, 7: 0}
    for D in rng.sample(range(-101000, -99000), 400):
        if D % 4 not in (0, 1):
            continue
        for ell in (3, 5, 7):
            part = _assert_ell_part_matches_oracle(D, ell)
            rank2 += ell == 3 and part.rank == 2
            deep[ell] += part.h % ell**2 == 0
    assert rank2 >= 3 and min(deep.values()) >= 2, (rank2, deep)


def test_sylow_subgroup_certifies_its_order():
    D = -3299  # h = 27, cl = C3 x C9
    sylow = sylow_subgroup(D, 27, 3)
    assert len(sylow) == len(set(sylow)) == 27
    assert len(sylow_subgroup(D, 27, 2)) == 1
    # a wrong h = 28 asks for a Sylow 2-subgroup of order 4, which cl(-3299) lacks
    with pytest.raises(TwistselError, match="internal"):
        sylow_subgroup(D, 28, 2)


def _assert_class_group_matches_oracle(D):
    forms = reduced_forms_naive(D)
    data = class_group_structure(D)
    assert (data.h, data.structure) == (len(forms), class_group_invariants(forms)), D
    for ell in (2, 3, 5, 7):
        assert list(ell_part(D, ell).torsion) == torsion_subgroup(forms, ell), (D, ell)


def test_walk_past_sqrt_of_a_third_of_D():
    # non-fundamental D whose Sylow walk needs a prime form (q, b, c) with
    # q > sqrt(|D|/3): the primes up to that bound give no form or too few
    for D in (-64, -108, -2608, -4075):
        _assert_class_group_matches_oracle(D)


def test_class_group_layer_reads_only_h(monkeypatch):
    """`ell_part` and `class_group_structure` take h from the kernel, never its form list."""

    def no_list(D):
        raise AssertionError("the form list was read")

    monkeypatch.setattr(quadforms, "_kernel_reduced_forms", no_list)
    # trivial, C3, C2 x C2, C2^3, C3 x C9, C3 x C12, C2 x C10 and C105
    for D in (-3, -4, -23, -84, -420, -3299, -3896, -4000, -6719):
        _assert_class_group_matches_oracle(D)


def test_ell_part_does_not_power_every_form(monkeypatch):
    """The Sylow walk composes fewer than h times; powering every form took about 5h."""
    D = -6719  # h = 105 = 3 * 5 * 7
    h = _kernels.class_number(D)
    assert h >= 100 and h % 5 == 0
    calls = []
    compose_forms = quadforms.compose
    monkeypatch.setattr(quadforms, "compose", lambda f, g: calls.append(1) or compose_forms(f, g))
    part = ell_part(D, 5)
    assert part.rank == 1
    assert 0 < len(calls) < h


def test_ell_part_builds_no_form_when_ell_does_not_divide_h(monkeypatch):
    D = -6719
    assert _kernels.class_number(D) % 11
    one = principal_form(D)
    built = []
    # every form of the layer comes out of one of these three
    for name in ("principal_form", "compose_unreduced", "reduce_form"):
        make = getattr(quadforms, name)
        monkeypatch.setattr(quadforms, name, lambda *args, make=make: built.append(make(*args)) or built[-1])
    part = ell_part(D, 11)
    assert built == [one]
    assert part.torsion == (one,) and part.rank == 0
