import ast
import inspect
import random
from fractions import Fraction

import pytest

import oracle_tate
from oracle_ec import (
    multiply_point,
    nonsingular_reduction_count,
    supersingular_by_twist_search,
    transform_point,
)
from twistsel.curves import (
    CurveQ,
    PointQ,
    curve_from_string,
    minimal_model,
    quadratic_twist,
    translated,
)
from twistsel.errors import InvalidParameterError, PreconditionError, UnsupportedError
from twistsel.intmath import legendre, primes_up_to, valuation
from twistsel.reduction import (
    LocalReduction,
    ReductionKind,
    SupersingularVerdict,
    ap,
    bad_reductions,
    conductor,
    is_supersingular,
    local_reduction,
    x_has_pole_at,
)

E11A3 = CurveQ(0, -1, 1, 0, 0)

# (ainvs string, conductor, {p: kodaira}); conductors are published values
KNOWN = [
    ("[0,-1,1,0,0]", 11, {11: "I1"}),
    ("[0,0,1,-1,0]", 37, {37: "I1"}),
    ("[0,0,0,1,0]", 64, {2: "II"}),
    ("[0,0,0,-1,0]", 32, {2: "III"}),
    ("[1,1,1,-10,-10]", 15, {3: "I4", 5: "I4"}),
    ("[1,-1,0,-2,-1]", 49, {7: "III"}),
    ("[0,0,1,0,-7]", 27, {3: "IV*"}),
    ("[0,-1,0,-4,4]", 24, {2: "I1*", 3: "I2"}),
    ("[0,1,0,4,4]", 20, {2: "IV*", 5: "I2"}),
    ("[0,1,0,-3,1]", 256, {2: "III"}),
    ("[0,0,0,0,1]", 36, {2: "IV", 3: "III"}),
    ("[0,0,0,0,16]", 27, {3: "II"}),
    ("[1,0,0,-1,0]", 65, {5: "I1", 13: "I1"}),
    ("[1,1,1,0,1]", 38, {2: "I5", 19: "I1"}),
]


@pytest.mark.parametrize("curve,N,kodairas", KNOWN)
def test_known_conductors(curve, N, kodairas):
    E = curve_from_string(curve)
    got, exps = conductor(E)
    assert got == N
    for p, symbol in kodairas.items():
        assert local_reduction(E, p).kodaira == symbol


def test_local_reduction_11a3():
    red = local_reduction(E11A3, 11)
    assert red.kind is ReductionKind.MULTIPLICATIVE_SPLIT
    assert red.kodaira == "I1"
    assert red.conductor_exponent == 1
    assert red.ord_delta_min == 1
    assert red.ord_j == -1
    assert local_reduction(E11A3, 7).kind is ReductionKind.GOOD


@pytest.mark.parametrize("p", [0, 1, 4, 121, -11])
def test_non_prime_p_is_refused(p):
    # p = 1 once looped forever in valuation; 4 and 121 were reported as good reduction
    with pytest.raises(InvalidParameterError, match="must be a prime"):
        local_reduction(E11A3, p)


def test_split_flag_matches_point_count_oracle():
    # multiplicative reduction: #E_ns(F_p) = p - a_p with a_p = +1 split, -1 nonsplit
    cases = [(E11A3, 11), (curve_from_string("[1,1,1,-10,-10]"), 3),
             (curve_from_string("[1,1,1,-10,-10]"), 5),
             (quadratic_twist(E11A3, -5), 11),
             (curve_from_string("[1,1,1,0,1]"), 19)]
    for E, p in cases:
        E_min, _ = minimal_model(E)
        red = local_reduction(E_min, p)
        assert red.conductor_exponent == 1
        count = nonsingular_reduction_count(E_min.ainvs, p)
        a_p = p - count
        assert a_p in (1, -1)
        want_split = a_p == 1
        got_split = red.kind is ReductionKind.MULTIPLICATIVE_SPLIT
        assert got_split == want_split


def test_twist_flips_split_at_nonresidue():
    # (d/p) = -1 flips split <-> nonsplit at odd multiplicative p not dividing d
    curves = ["[0,-1,1,0,0]", "[0,0,1,-1,0]", "[1,1,1,-10,-10]", "[1,0,0,-1,0]", "[1,1,1,0,1]"]
    checked = 0
    for s in curves:
        E = curve_from_string(s)
        for p in bad_reductions(E):
            if p == 2 or local_reduction(E, p).conductor_exponent != 1:
                continue
            for d in (-7, -11, -19):
                if d % p == 0 or legendre(d, p) != -1:
                    continue
                before = local_reduction(E, p).kind
                after = local_reduction(minimal_model(quadratic_twist(E, d))[0], p).kind
                assert {before, after} == {
                    ReductionKind.MULTIPLICATIVE_SPLIT,
                    ReductionKind.MULTIPLICATIVE_NONSPLIT,
                }
                checked += 1
    assert checked >= 5


def test_conductor_exponent_bounds():
    for s, _N, _k in KNOWN:
        E = curve_from_string(s)
        E_min, _ = minimal_model(E)
        for p, f in conductor(E)[1].items():
            red = local_reduction(E, p)
            assert f <= red.ord_delta_min
            if red.kind in (ReductionKind.MULTIPLICATIVE_SPLIT, ReductionKind.MULTIPLICATIVE_NONSPLIT):
                assert f == 1
                assert red.ord_j == -red.ord_delta_min
            if red.kind is ReductionKind.ADDITIVE:
                assert f >= 2
                if p >= 5:
                    assert f == 2


def test_tate_on_nonminimal_model():
    # u = 6 scaling of 11a3: minimal at 11, where Tate agrees with 11a3, and not
    # minimal at 2 and 3, where Tate refuses it; on the minimal model it finds
    # good reduction there
    E = CurveQ(0, 0, 0, -432, 8208)
    res11 = local_reduction(E, 11)
    assert res11.kodaira == "I1" and res11.conductor_exponent == 1
    for p in (2, 3):
        with pytest.raises(PreconditionError, match=f"not minimal at {p}"):
            local_reduction(E, p)
        red = local_reduction(minimal_model(E)[0], p)
        assert red.kodaira == "I0" and red.conductor_exponent == 0


def _kodaira_class(symbol: str) -> str:
    """I_n (n >= 1), I_n* (n >= 1), or the symbol itself."""
    if symbol not in ("I0", "I0*") and symbol[1:].isdigit():
        return "I_n"
    if symbol != "I0*" and symbol[1:-1].isdigit():
        return "I_n*"
    return symbol


def _components(symbol: str) -> int:
    """m_p, the number of components of the special fibre, read from the Kodaira symbol."""
    if symbol.endswith("*") and symbol[1:-1].isdigit():
        return int(symbol[1:-1]) + 5
    if symbol[1:].isdigit():
        return max(int(symbol[1:]), 1)
    return {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}[symbol]


ADDITIVE_CLASSES = {"II", "III", "IV", "I0*", "I_n*", "IV*", "III*", "II*"}


def _seeded_integral_curves(p: int, rng: random.Random, count: int) -> list[CurveQ]:
    """Integral models with a_i = u p^e, e at most the weight of a_i and u small,
    so that every Kodaira type at p occurs; most are not minimal at p."""
    curves = []
    while len(curves) < count:
        ainvs = [rng.randint(-12, 12) * p ** rng.randint(0, w) for w in (1, 2, 3, 4, 6)]
        try:
            curves.append(CurveQ(*ainvs))
        except InvalidParameterError:
            continue
    return curves


def _outcome(tate, E: CurveQ, p: int):
    try:
        return tate(E, p)
    except (InvalidParameterError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def test_tate_matches_the_search_and_gcd_oracle():
    # the closed-form coordinate changes against singular-point search and
    # F_p[x] gcds, on each seeded model and its minimal model, at 2, 3, 5 and 7
    rng = random.Random(29)
    minimal_cases = 0
    seen = {p: set() for p in (2, 3, 5, 7)}
    for p in (2, 3, 5, 7):
        for E in _seeded_integral_curves(p, rng, 700):
            E_min = minimal_model(E)[0]
            for q in (2, 3, 5, 7):
                for model in (E, E_min):
                    got = _outcome(local_reduction, model, q)
                    assert got == _outcome(oracle_tate.tate_algorithm, model, q), (str(model), q)
                    if isinstance(got, LocalReduction):
                        seen[q].add(_kodaira_class(got.kodaira))
                    else:
                        seen[q].add(got[1].partition(";")[0])
                minimal_cases += 1
    assert minimal_cases >= 10**4
    for p, outcomes in seen.items():
        assert outcomes == ADDITIVE_CLASSES | {"I0", "I_n", f"model not minimal at {p}"}, p


@pytest.mark.parametrize("p", [2, 3])
def test_ogg_saito_formula_at_2_and_3(p):
    # ord_p(disc_min) = f_p + m_p - 1, with m_p the number of components of the fibre
    seen = set()
    for E in _seeded_integral_curves(p, random.Random(p), 1500):
        E_min = minimal_model(E)[0]
        red = local_reduction(E_min, p)
        n = valuation(int(E_min.disc), p)
        assert n == red.ord_delta_min == red.conductor_exponent + _components(red.kodaira) - 1
        seen.add(_kodaira_class(red.kodaira))
    assert seen == ADDITIVE_CLASSES | {"I0", "I_n"}


# a minimal curve of each Kodaira class at 2, 3 and 5
KODAIRA_EXAMPLES = [
    (2, "[1,0,1,0,0]", "I1"), (2, "[0,0,0,1,0]", "II"), (2, "[0,0,0,-1,0]", "III"),
    (2, "[0,0,0,0,1]", "IV"), (2, "[0,0,0,1,-2]", "I0*"), (2, "[0,0,0,1,2]", "I1*"),
    (2, "[0,0,0,0,4]", "IV*"), (2, "[0,-1,0,0,-4]", "III*"), (2, "[0,0,0,5,-10]", "II*"),
    (3, "[0,-1,0,1,0]", "I1"), (3, "[0,0,1,0,0]", "II"), (3, "[0,0,0,0,-1]", "III"),
    (3, "[0,0,1,0,2]", "IV"), (3, "[0,0,1,6,0]", "I0*"), (3, "[1,-1,0,9,0]", "I2*"),
    (3, "[0,0,1,0,-7]", "IV*"), (3, "[0,0,0,-27,0]", "III*"), (3, "[0,0,1,-27,-7]", "II*"),
    (5, "[0,-1,0,-1,0]", "I1"), (5, "[0,0,1,0,1]", "II"), (5, "[0,0,0,5,0]", "III"),
    (5, "[1,0,1,-1,-2]", "IV"), (5, "[0,0,0,25,0]", "I0*"), (5, "[1,1,0,-25,0]", "I1*"),
    (5, "[0,0,1,0,156]", "IV*"), (5, "[0,0,0,-125,0]", "III*"), (5, "[1,1,1,-13,-219]", "II*"),
]


def test_tate_runs_no_polynomial_arithmetic(monkeypatch):
    # every root Tate's algorithm needs has a closed form; none is found in F_p[x]
    from twistsel import polyzq, reduction

    imports = [
        node.module or "" for node in ast.walk(ast.parse(inspect.getsource(reduction)))
        if isinstance(node, ast.ImportFrom)
    ]
    assert not [m for m in imports if m.rpartition(".")[2] == "polyzq"]

    def refuse(*args):
        raise AssertionError("Tate's algorithm called polyzq")

    for name in ("fp_gcd", "fp_divmod"):
        monkeypatch.setattr(polyzq, name, refuse)
    for p, curve, symbol in KODAIRA_EXAMPLES:
        assert local_reduction(curve_from_string(curve), p).kodaira == symbol
    assert {_kodaira_class(s) for _, _, s in KODAIRA_EXAMPLES} == ADDITIVE_CLASSES | {"I_n"}


# multiplicative at 2 or 3, each with its Kodaira symbol there
MULTIPLICATIVE_AT_2_AND_3 = [
    (2, "[1,0,1,0,0]", "I1"), (2, "[1,1,1,0,1]", "I5"), (2, "[1,0,1,1,2]", "I4"),
    (3, "[0,-1,0,1,0]", "I1"), (3, "[0,-1,0,-4,4]", "I2"), (3, "[1,1,1,-10,-10]", "I4"),
]


@pytest.mark.parametrize("p,curve,symbol", MULTIPLICATIVE_AT_2_AND_3)
def test_tate_decides_multiplicative_reduction_at_2_and_3_unmoved(monkeypatch, p, curve, symbol):
    # x -> x + r moves b2 by 12 r, which is 0 mod 2 and mod 3, so p not dividing
    # b2 decides I_n there before any coordinate change
    from twistsel import reduction

    moves = []

    def counting(*args):
        moves.append(args)
        return translated(*args)

    monkeypatch.setattr(reduction, "translated", counting)
    red = local_reduction(curve_from_string(curve), p)
    assert (red.kodaira, red.conductor_exponent) == (symbol, 1) and moves == []


def test_bad_reductions_reads_the_minimal_model_once(monkeypatch):
    # the walk reads the model it is given; conductor makes that model once
    from twistsel import reduction

    E30 = curve_from_string("[1,0,1,1,2]")  # conductor 30: three bad primes
    calls = []

    def counting(E):
        calls.append(E)
        return minimal_model(E)

    monkeypatch.setattr(reduction, "minimal_model", counting)
    assert list(bad_reductions(minimal_model(E30)[0])) == [2, 3, 5]
    assert calls == []
    assert conductor(E30) == (30, {2: 1, 3: 1, 5: 1})
    assert calls == [E30]


def test_ap_examples():
    assert ap(E11A3, 2) == -2  # 5 points over F_2
    assert ap(CurveQ(0, 0, 0, 0, 1), 5) == 0
    assert ap(CurveQ(0, 0, 0, 1, 0), 3) == 0
    assert ap(E11A3, 5) == 1


def test_ap_preconditions():
    with pytest.raises(PreconditionError):
        ap(E11A3, 11)
    with pytest.raises(UnsupportedError):
        ap(E11A3, 10**6 + 3)
    with pytest.raises(PreconditionError, match="integral"):
        ap(CurveQ(0, 0, 0, Fraction(1, 2), 1), 5)


def test_ap_counts_on_the_model_given():
    # 11a3 scaled by u = 2: good reduction at 3 on this model, and 2 divides its
    # discriminant, so a_2 is read on the minimal model only
    E2 = CurveQ(0, -4, 8, 0, 0)
    assert ap(E2, 3) == ap(E11A3, 3) == -1
    with pytest.raises(PreconditionError, match="bad reduction at 2"):
        ap(E2, 2)
    assert ap(minimal_model(E2)[0], 2) == ap(E11A3, 2)


def test_hasse_bound():
    for s, _N, _k in KNOWN[:6]:
        E = curve_from_string(s)
        for p in primes_up_to(60):
            if local_reduction(E, p).is_good:
                assert ap(E, p) ** 2 <= 4 * p


def test_torsion_injects():
    # ell | #E(F_p) at good p for a curve with a rational ell-torsion point
    for p in primes_up_to(97):
        if p in (5, 11):
            continue
        if local_reduction(E11A3, p).is_good:
            assert (p + 1 - ap(E11A3, p)) % 5 == 0


def _supersingular(E, ell):
    E_min = minimal_model(E)[0]
    return is_supersingular(E_min, local_reduction(E_min, ell))


def test_supersingular_examples():
    assert _supersingular(CurveQ(0, 0, 0, 0, 1), 5).verdict is SupersingularVerdict.YES
    assert _supersingular(E11A3, 5).verdict is SupersingularVerdict.NO
    res = _supersingular(E11A3, 11)
    assert res.verdict is SupersingularVerdict.NOT_APPLICABLE
    with pytest.raises(UnsupportedError):
        _supersingular(E11A3, 3)


def test_supersingular_after_twist_resolution():
    # additive potentially good reduction resolved through a quadratic twist
    E = quadratic_twist(CurveQ(0, 0, 0, 0, 1), 5)  # additive at 5, ord_5(j) = 0
    red = local_reduction(E, 5)
    assert red.kind is ReductionKind.ADDITIVE and not red.ord_j_negative
    res = is_supersingular(E, red)
    assert res.verdict is SupersingularVerdict.YES  # same geometric fiber as y^2 = x^3 + 1


# (ord_ell(A), ord_ell(B)) of y^2 = x^3 + A x + B giving, for ell >= 5 and
# units drawn at random, I0 and then II, III, IV, I0*, IV*, III*, II*
TYPE_VALUATIONS = [(0, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 4), (3, 5), (4, 5)]


def _seeded_short_curves(ell: int, rng: random.Random, count: int) -> list[CurveQ]:
    """Short models at ell: half from TYPE_VALUATIONS, a third from any valuations
    up to (4, 5), the rest multiplicative (A = -3t^2, B = 2t^3 + ell^k w) or
    that twisted by ell, which is additive with ord_ell(j) < 0."""

    def unit():
        while True:
            u = rng.randint(-40, 40)
            if u % ell:
                return u

    curves = []
    while len(curves) < count:
        shape = rng.randrange(6)
        if shape < 5:
            a, b = rng.choice(TYPE_VALUATIONS) if shape < 3 else (rng.randint(0, 4), rng.randint(0, 5))
            A, B = ell**a * unit(), ell**b * unit()
        else:
            t, eps = unit(), ell ** rng.randint(1, 3) * unit()
            A, B = -3 * t * t, 2 * t**3 + eps
            if rng.randrange(2):
                A, B = A * ell**2, B * ell**3
        if 4 * A**3 + 27 * B * B:
            curves.append(CurveQ(0, 0, 0, A, B))
    return curves


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_supersingular_matches_the_twist_search(ell):
    # one twist by ell decides what the eleven-twist search decides, verdict and reason
    seen = set()
    for E in _seeded_short_curves(ell, random.Random(ell), 120):
        E_min = minimal_model(E)[0]
        red = local_reduction(E_min, ell)
        res = is_supersingular(E_min, red)
        assert (res.verdict.value, res.reason) == supersingular_by_twist_search(E, ell), str(E)
        if red.ord_j_negative:
            seen.add("multiplicative" if red.conductor_exponent == 1 else "ord_j < 0, additive")
        else:
            seen.add(red.kodaira)
    assert seen == {"I0", "II", "III", "IV", "I0*", "IV*", "III*", "II*",
                    "multiplicative", "ord_j < 0, additive"}


@pytest.mark.parametrize("curve,twists", [
    (CurveQ(1, 1, 1, -3, 1), 0),  # 50b1: additive at 5, not I0*
    (quadratic_twist(CurveQ(0, 0, 0, 0, 1), 5), 1),  # I0* at 5
])
def test_supersingular_builds_at_most_one_twist(monkeypatch, curve, twists):
    # and makes a minimal model for that twist only, once: the caller's is passed in
    from twistsel import reduction

    built, made = [], []

    def counting(E, d):
        built.append(d)
        return quadratic_twist(E, d)

    def counting_models(E):
        made.append(E)
        return minimal_model(E)

    monkeypatch.setattr(reduction, "quadratic_twist", counting)
    monkeypatch.setattr(reduction, "minimal_model", counting_models)
    _supersingular(curve, 5)
    assert built == [5] * twists
    assert made == [quadratic_twist(minimal_model(curve)[0], 5)] * twists


def test_kernel_of_reduction():
    P = PointQ(0, 0)
    transform = minimal_model(E11A3)[1]
    assert not x_has_pole_at(transform, P, 5)
    assert not x_has_pole_at(transform, PointQ(1, 0), 5)
    # multiply a generator into the kernel of reduction mod 5 on 37a1
    E37 = CurveQ(0, 0, 1, -1, 0)
    count5 = 5 + 1 - ap(E37, 5)
    Q = multiply_point(E37, count5, PointQ(0, 0))
    assert not Q.is_infinity()
    from twistsel.intmath import valuation

    assert valuation(Q.x.denominator, 5) > 0
    assert x_has_pole_at(minimal_model(E37)[1], Q, 5)


def test_pole_test_matches_the_oracle_image_point():
    """x_has_pole_at, reading the denominator of (x - r) / u^2, decides as the
    oracle's image of P on the minimal model does, with (u, r) ints and with
    Fractions. The models are 11a3 moved by seeded (u, r, s, t), so u carries
    ell often, r is integral when E is."""
    rng = random.Random(321)
    seen = set()
    for _ in range(400):
        ell = rng.choice((5, 7))
        u = ell ** rng.randint(0, 2) * rng.choice((1, 2, 3))
        r, s, t = (Fraction(rng.randint(-99, 99), rng.choice((1, 1, 2, 5))) for _ in range(3))
        E = E11A3.transform(Fraction(1, u), r, s, t)
        transform = minimal_model(E)[1]
        assert all(type(v) is int for v in transform) == E.is_integral()
        x = r + Fraction(ell ** rng.randint(0, 5) * rng.randint(-3, 3), rng.choice((1, 1, ell, 3)))
        P = PointQ(x, 0)  # the test reads x only; P need not lie on E
        got = x_has_pole_at(transform, P, ell)
        assert got == (transform_point(P, *transform).x.denominator % ell == 0)
        seen.add((got, E.is_integral() and x.denominator == 1))
    assert seen == {(True, True), (False, True), (True, False), (False, False)}
