import importlib.util
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_poly import fp_ddf as per_degree_ddf
from oracle_poly import fp_pow_mod as schoolbook_pow_mod
from oracle_poly import hensel_lift as tree_hensel_lift
from oracle_poly import fp_roots_by_evaluation, packed_pow_mod, zx_eval
from pinned_outputs import FACTOR_SHAPE_CURVES

from twistsel import polyzq
from twistsel.curves import CurveQ, curve_from_string
from twistsel.divpoly import division_poly_primitive, psi_factor_shape
from twistsel.errors import InvalidParameterError
from twistsel.intmath import is_prime
from twistsel.polyzq import (
    fp_ddf,
    fp_divmod,
    fp_factor,
    fp_factor_squarefree,
    fp_gcd,
    fp_is_squarefree,
    fp_monic,
    fp_mul,
    fp_norm,
    fp_roots,
    hensel_lift,
    _fp_split,
    zx_add,
    zx_compose,
    zx_deg,
    zx_derivative,
    zx_div_exact,
    zx_factor,
    zx_factor_bounded,
    zx_gcd,
    zx_is_irreducible,
    zx_mul,
    zx_pow,
    zx_primitive,
    zx_sub,
    zx_trim,
)

SYMPY = importlib.util.find_spec("sympy") is not None

small_polys = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6).map(
    lambda c: zx_trim(c)
)


@settings(max_examples=80)
@given(small_polys, small_polys)
def test_mul_div_roundtrip(f, g):
    if not f or not g:
        return
    prod = zx_mul(f, g)
    assert zx_div_exact(prod, g) == f
    assert zx_eval(prod, 3) == zx_eval(f, 3) * zx_eval(g, 3)


@settings(max_examples=40)
@given(small_polys, small_polys, small_polys)
def test_gcd_divides(f, g, h):
    if not f or not g or not h:
        return
    a, b = zx_mul(f, h), zx_mul(g, h)
    d = zx_gcd(a, b)
    assert zx_div_exact(a, d) is not None
    assert zx_div_exact(b, d) is not None
    if zx_deg(h) > 0:
        assert zx_deg(d) >= zx_deg(h) - 0  # h divides gcd up to content


def test_factor_x4_minus_1():
    c, parts = zx_factor([-1, 0, 0, 0, 1])
    assert c == 1
    assert parts == [([-1, 1], 1), ([1, 1], 1), ([1, 0, 1], 1)]


def test_factor_divpoly_like():
    c, parts = zx_factor([0, 12, 0, 0, 3])
    assert c == 3
    assert parts == [([0, 1], 1), ([4, 0, 0, 1], 1)]


def test_cyclotomic_13_irreducible():
    assert zx_is_irreducible([1] * 13)
    assert zx_factor([1] * 13) == (1, [([1] * 13, 1)])


def test_factor_with_multiplicity():
    f = zx_mul(zx_mul([-1, 1], [-1, 1]), [2, 1])
    c, parts = zx_factor(f)
    assert sorted(parts, key=lambda t: t[1]) == [([2, 1], 1), ([-1, 1], 2)]


def test_squarefree_decomposition_reconstructs():
    """zx_factor reads multiplicities off the squarefree part f / gcd(f, f'):
    (x + 1)^3 (x^2 + 3) comes back as those two factors with powers 3 and 1."""
    f = zx_mul(zx_pow([1, 1], 3), [3, 0, 1])
    c, parts = zx_factor(f)
    assert parts == [([1, 1], 3), ([3, 0, 1], 1)]
    rebuilt = [c]
    for g, m in parts:
        rebuilt = zx_mul(rebuilt, zx_pow(g, m))
    assert rebuilt == f


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_product_factors(seed):
    """Products of distinct irreducibles, each to a power 1 to 3, times a content of
    either sign and at times x: zx_factor rebuilds f, and where sympy is installed
    it gives sympy's factorization, in the same order."""
    rng = random.Random(seed)
    irreducibles = [
        [-1, 1], [1, 1], [1, 0, 1], [2, 1], [-3, 1], [1, 1, 1], [4, 0, 0, 1], [1, 3], [-2, 0, 1]
    ]
    chosen = rng.sample(irreducibles, k=rng.randint(1, 4)) + [[0, 1]] * rng.randint(0, 1)
    content = rng.choice([1, 2, 6, 12]) * rng.choice([1, -1])
    f, want = [content], {}
    for g in chosen:
        want[tuple(g)] = rng.randint(1, 3)
        f = zx_mul(f, zx_pow(g, want[tuple(g)]))
    c, parts = zx_factor(f)
    rebuilt = [c]
    for g, m in parts:
        rebuilt = zx_mul(rebuilt, zx_pow(g, m))
    assert rebuilt == f and c == content
    assert {tuple(g): m for g, m in parts} == want
    assert parts == sorted(parts, key=lambda t: (zx_deg(t[0]), t[0]))
    if SYMPY:
        assert (c, parts) == _factor_list_sympy(f)


# distinct irreducibles over Q, some not monic; with x^n - 2 (Eisenstein at 2)
# their products are squarefree and carry modular factors far above the bound
SMALL_IRREDUCIBLES = [
    [-1, 1],
    [1, 1],
    [2, 1],
    [1, 3],
    [1, 0, 1],
    [-2, 0, 1],
    [1, 1, 1],
    [-1, 0, 5],
    [4, 0, 0, 1],
    [1, -1, 0, 1],
    [1, 0, 0, 0, 1],
    [-1, -1, 0, 0, 0, 1],
]


def seeded_eisenstein_product(seed: int) -> list[int]:
    """(x^n - 2) times 2 to 5 distinct small irreducibles, n in [20, 40]."""
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    f = [-2] + [0] * (n - 1) + [1]
    for g in rng.sample(SMALL_IRREDUCIBLES, k=rng.randint(2, 5)):
        f = zx_mul(f, g)
    return f


@pytest.mark.parametrize("seed", range(6))
def test_bounded_matches_complete_factorization(seed):
    f = seeded_eisenstein_product(seed)
    c, parts = zx_factor(f)
    assert c == 1 and all(m == 1 for _, m in parts)
    for bound in (1, 2, 3, 6):
        factors, residual = zx_factor_bounded(f, bound)
        assert factors == [g for g, _ in parts if zx_deg(g) <= bound]
        rebuilt = residual
        for g in factors:
            rebuilt = zx_mul(rebuilt, g)
        assert rebuilt == f


def _first_good_primes(f, count):
    out, p = [], 2
    while len(out) < count:
        p += 1
        if is_prime(p) and f[-1] % p and fp_is_squarefree(f, p):
            out.append(p)
    return out


def _spy_ddf(monkeypatch):
    """Record the prime of every fp_ddf call zx_factor_bounded makes."""
    primes_used = []
    ddf = polyzq.fp_ddf
    monkeypatch.setattr(
        polyzq, "fp_ddf", lambda f, p, bound: primes_used.append(p) or ddf(f, p, bound)
    )
    return primes_used


def test_bounded_factorization_does_not_depend_on_the_prime(monkeypatch):
    """Any good prime gives the same factors and residual, from one modular factorization."""
    E = CurveQ(1, -1, 1, -3, 3)
    cases = [(seeded_eisenstein_product(seed), bound) for seed in range(6) for bound in (1, 2, 6)]
    cases += [(division_poly_primitive(E, ell), bound) for ell in (7, 13) for bound in (1, 6, 12)]
    good_primes = polyzq._good_primes
    primes_used = _spy_ddf(monkeypatch)
    for f, bound in cases:
        primes = _first_good_primes(f, 3)
        assert list(itertools.islice(good_primes(f), 3)) == primes
        results = []
        for p in primes:
            monkeypatch.setattr(polyzq, "_good_primes", lambda _f, p=p: iter([p]))
            primes_used.clear()
            results.append(zx_factor_bounded(f, bound))
            assert primes_used == [p]
        assert results[0] == results[1] == results[2]


def test_degree_analysis_at_a_second_prime_skips_splitting_and_lifting(monkeypatch):
    """psi_13 of curve 26 has 16 factors of degree <= 6 mod 3, none mod 5: bound 6
    reads both degree sets and stops, with no EDF and no Hensel lift."""
    primes_used = _spy_ddf(monkeypatch)

    def refuse(*args):
        raise AssertionError("split or lifted a factor")

    monkeypatch.setattr(polyzq, "fp_edf", refuse)
    monkeypatch.setattr(polyzq, "hensel_lift", refuse)
    psi = division_poly_primitive(CurveQ(1, -1, 1, -3, 3), 13)
    assert zx_factor_bounded(psi, 6) == ([], psi)
    assert primes_used == [3, 5]


@pytest.mark.parametrize("a, ell", [((0, -1, 1, 0, 0), 5), ((1, -1, 1, -3, 3), 7)])
def test_rational_torsion_factoring_reads_one_prime(monkeypatch, a, ell):
    """The bound-1 factoring behind `factor-shape --degree-bound 1` (the torsion
    search reads psi_ell's roots at one prime instead): cheap splitting and
    lifting of the linear factors stops the degree analysis at the first prime."""
    primes_used = _spy_ddf(monkeypatch)
    psi = division_poly_primitive(CurveQ(*a), ell)
    linear, _ = zx_factor_bounded(psi, 1)
    assert linear and all(zx_deg(g) == 1 for g in linear)
    assert primes_used == _first_good_primes(psi, 1)


def _spy_primes(monkeypatch):
    """Record the primes zx_factor_bounded reads, and the prime it lifts at."""
    primes_used, lifted_at = _spy_ddf(monkeypatch), []
    lift = polyzq.hensel_lift
    monkeypatch.setattr(
        polyzq, "hensel_lift", lambda p, f, fs, t: lifted_at.append(p) or lift(p, f, fs, t)
    )
    return primes_used, lifted_at


E13 = "[0,0,0,13674069,324405221670]"


def _e13_cubic():
    """The cubic factor of E13's psi_13 whose field the golden suite builds."""
    shape = psi_factor_shape(curve_from_string(E13), 13, 6)
    return next(list(g) for deg, g in shape.factors if deg == 3)


@pytest.mark.parametrize(
    "curve, ell, bound, read, lifted",
    [
        # factor-shape --degree-bound 1 on 11a3: the linear factors of psi_5
        ("[0,-1,1,0,0]", 5, 1, [3], [3]),
        # factor-shape --degree-bound 1 on curve 26: the linear factors of psi_7
        ("[1,-1,1,-3,3]", 7, 1, [3], [3]),
        # paper-examples: verify-paper-examples and the pinned factor shapes
        (E13, 13, 6, [5], [5]),
        (E13, "cubic", 3, [5], [5]),
        ("[0,-1,1,0,0]", 11, 6, [3], [3]),
        ("[0,-1,1,0,0]", 13, 6, [3], []),
        ("[1,-1,1,-3,3]", 11, 6, [3], []),
        ("[1,-1,1,-3,3]", 13, 6, [3, 5], []),
    ],
    ids=["11a3-psi5", "26-psi7", "E13-psi13", "E13-cubic", "11a3-psi11", "11a3-psi13",
         "26-psi11", "26-psi13"],
)
def test_workload_factoring_reads_the_pinned_primes(monkeypatch, curve, ell, bound, read, lifted):
    """Each factoring call reads these primes and lifts at this one (none when the
    degree sets rule out a factor of degree <= bound): the paper-examples workload's
    calls, and factor-shape --degree-bound 1 on the torsion curves."""
    f = _e13_cubic() if ell == "cubic" else division_poly_primitive(curve_from_string(curve), ell)
    primes_used, lifted_at = _spy_primes(monkeypatch)
    zx_factor_bounded(f, bound)
    assert (primes_used, lifted_at) == (read, lifted)


@pytest.mark.parametrize(
    "curve, ell, bound, lifted",
    [("[0,0,0,1,0]", 13, 12, 5), ("[1,-1,1,-3,3]", 7, 6, 3)],
    ids=["fewer-at-5", "tie"],
)
def test_degree_analysis_lifts_at_the_prime_with_fewer_small_factors(
    monkeypatch, curve, ell, bound, lifted
):
    """Both primes leave every modular factor of degree <= bound, so the analysis reads
    two, and splits and lifts at the one with fewer factors, the first on a tie. psi_13
    of [0,0,0,1,0] has 14 sextic factors mod 3 against 9 factors mod 5 (two cubic, one
    sextic, six of degree 12); psi_7 of curve 26 has 7 factors of degree <= 6 mod 3
    and mod 5."""
    f = division_poly_primitive(curve_from_string(curve), ell)
    counts = []
    for p in (3, 5):
        ddf = fp_ddf(fp_monic(f, p), p, bound)
        assert all(d <= bound for _, d in ddf)
        counts.append(sum(zx_deg(g) // d for g, d in ddf))
    assert counts == ([14, 9] if lifted == 5 else [7, 7])
    primes_used, lifted_at = _spy_primes(monkeypatch)
    zx_factor_bounded(f, bound)
    assert (primes_used, lifted_at) == ([3, 5], [lifted])


def test_recombination_skips_subsets_outside_the_degree_set():
    degs = {0: 1, 1: 1, 2: 2, 3: 3}
    sums = 1 | 1 << 3  # only degree 3 survived the degree analysis
    combos = [c for size in (1, 2, 3) for c in polyzq._combos_bounded(range(4), degs, size, 3, sums)]
    assert combos == [[3], [0, 2], [1, 2]]


@pytest.mark.parametrize("p", [2, 3, 5, 10007, 2**32 + 15])
def test_packed_powering_matches_schoolbook(p):
    """Packed products with series-inverse reduction against schoolbook powering,
    seeded: moduli of degree 1 to 120, half of them not monic (but mod 2), inputs
    not reduced."""
    assert is_prime(p)
    rng = random.Random(p)
    degrees = list(range(1, 13)) + [17, 31, 64, 84, 120]
    for n in degrees:
        for monic in (True, False):
            lc = 1 if monic or p == 2 else rng.randrange(2, p)
            m = [rng.randrange(p) for _ in range(n)] + [lc]
            f = [rng.randrange(-p, 2 * p) for _ in range(rng.randint(0, 2 * n + 2))]
            d = 1 + n % 2
            for e in (0, 1, p, (p**d - 1) // 2):
                assert packed_pow_mod(f, e, m, p) == schoolbook_pow_mod(f, e, m, p), (n, monic, e)
    # a product that vanishes mod m: x^3 = 0 mod x^2
    assert packed_pow_mod([0, 1], 3, [0, 0, 1], p) == schoolbook_pow_mod([0, 1], 3, [0, 0, 1], p) == []


def _factor_list_sympy(f):
    """(content, [(primitive factor, multiplicity)]) from sympy, sorted as zx_factor sorts."""
    sympy = pytest.importorskip("sympy")
    c, parts = sympy.Poly(list(reversed(f)), sympy.Symbol("x")).factor_list()
    out = [([int(a) for a in reversed(g.all_coeffs())], m) for g, m in parts]
    return int(c), sorted(out, key=lambda t: (zx_deg(t[0]), t[0]))


def test_factorization_matches_sympy():
    """sympy is an independent factorizer; the test is skipped where it is not installed."""
    pytest.importorskip("sympy")
    for seed in range(6):
        f = seeded_eisenstein_product(seed)
        assert zx_factor(f) == _factor_list_sympy(f)
    # psi_ell of 11a3 and of curve 26; E13's psi_13 is left to test_acceptance (slow in sympy)
    for a, ells in (((0, -1, 1, 0, 0), (5, 7, 11)), ((1, -1, 1, -3, 3), (7, 13))):
        E = CurveQ(*a)
        for ell in ells:
            psi = division_poly_primitive(E, ell)
            _, parts = _factor_list_sympy(psi)
            assert all(m == 1 for _, m in parts)
            for bound in (1, 6, 12):
                low = [g for g, _ in parts if zx_deg(g) <= bound]
                prod = [1]
                for g in low:
                    prod = zx_mul(prod, g)
                shape = psi_factor_shape(E, ell, bound)
                assert shape.factors == tuple((zx_deg(g), tuple(g)) for g in low)
                assert shape.residual == tuple(zx_div_exact(psi, prod))


@pytest.mark.parametrize("seed", range(4))
def test_factorization_with_a_root_at_zero_matches_sympy(seed):
    """Non-monic f with f(0) = 0, where recombination skips the trailing-coefficient test."""
    pytest.importorskip("sympy")
    rng = random.Random(seed)
    f = [0] * rng.randint(1, 3) + [rng.choice([2, 3, 6])]
    for g in rng.sample(SMALL_IRREDUCIBLES, k=rng.randint(3, 6)):
        f = zx_mul(f, g)
    f = zx_mul(f, [-3] + [0] * (rng.randint(8, 16) - 1) + [2])  # 2x^n - 3, irreducible
    assert f[0] == 0 and f[-1] not in (1, -1)
    # zx_factor sorts all its factors at once, as _factor_list_sympy does
    assert zx_factor(f) == _factor_list_sympy(f)


def test_recombination_rejects_candidates_by_trailing_coefficient(monkeypatch):
    """psi_13 of curve 26 is irreducible but has 16 factors mod p; the candidates that
    fail the constant-term test are never divided into f."""
    divisions = []
    divide = polyzq.zx_div_exact
    monkeypatch.setattr(polyzq, "zx_div_exact", lambda f, g: divisions.append(1) or divide(f, g))
    psi = division_poly_primitive(CurveQ(1, -1, 1, -3, 3), 13)
    assert zx_factor(psi) == (1, [(psi, 1)])
    assert len(divisions) < 100


def test_bounded_factorization_residual():
    f = zx_mul(zx_mul([-1, 1], [1, 0, 1]), [3, 1, 0, 0, 0, 1])
    factors, residual = zx_factor_bounded(f, 2)
    assert factors == [[-1, 1], [1, 0, 1]]
    rebuilt = residual
    for g in factors:
        rebuilt = zx_mul(rebuilt, g)
    assert rebuilt == f


def test_fp_factor_squarefree():
    # x^3 - 2 mod 5 = (x + 2)(x^2 + 3x + 4)
    assert fp_factor_squarefree([3, 0, 0, 1], 5) == [[2, 1], [4, 3, 1]]
    # mod 2 uses the trace-map splitter
    assert fp_factor_squarefree([1, 1, 0, 1], 2) == [[1, 1, 0, 1]]
    assert fp_factor_squarefree([0, 1, 1], 2) == [[0, 1], [1, 1]]
    # with a bound, the factors above it stay one product, sorted last
    f = fp_monic(seeded_eisenstein_product(3), 13)  # squarefree mod 13
    full = fp_factor_squarefree(f, 13)
    for bound in (1, 2, 4):
        low = [g for g in full if zx_deg(g) <= bound]
        high = [1]
        for g in full[len(low) :]:
            high = fp_mul(high, g, 13)
        assert zx_deg(high) > bound
        assert _fp_split(fp_ddf(f, 13, bound), 13) == low + [high]
    # (x - 1)^4 mod 11 is not squarefree: refused, not split into wrong factors
    with pytest.raises(InvalidParameterError):
        fp_factor_squarefree([1, 7, 6, 7, 1], 11)


def test_fp_divmod_at_prime_powers():
    """Division by a monic g mod m = p^k, as the Hensel step uses it: f = q g + r mod m."""
    rng = random.Random(7)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 13, 101))
        m = p ** rng.randint(1, 30)
        g = [rng.randrange(m) for _ in range(rng.randint(0, 8))] + [1]
        f = zx_trim([rng.randint(-m * m, m * m) for _ in range(rng.randint(0, 20))])
        q, r = fp_divmod(f, g, m)
        assert len(r) < len(g) and all(0 <= c < m for c in q + r)
        assert fp_norm(zx_sub(f, zx_add(zx_mul(q, g), r)), m) == []


def test_fp_is_squarefree():
    assert fp_is_squarefree([1], 5)  # nonzero constants are units
    assert fp_is_squarefree([3], 5)
    assert not fp_is_squarefree([], 5)
    assert not fp_is_squarefree([0, 0, 0, 0, 0, 1], 5)  # x^5: derivative 5x^4 = 0
    assert fp_is_squarefree([1, 0, 1], 5)  # x^2 + 1 = (x + 2)(x + 3) mod 5
    assert fp_factor_squarefree([3], 5) == []  # a unit has no irreducible factors


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_fp_roots_match_evaluation_at_every_residue(p):
    """fp_roots against f and f' evaluated in integers at each residue: seeded f with
    coefficients of either sign and above p, multiple roots, roots at 0, f = 0 mod p."""
    rng = random.Random(p)
    cases = [[], [p], [0, 1], [1], [-1, 0, 1], [0] * 3 + [p + 1], [1] + [0] * (p - 1) + [-1]]
    for _ in range(300):
        f = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(1, 9))]
        for _ in range(rng.randint(0, 3)):  # a root r of multiplicity 1 to 3
            f = zx_mul(f, zx_pow([-rng.randrange(p), 1], rng.randint(1, 3)))
        cases.append(zx_trim(f))
    for f in cases:
        assert list(fp_roots(f, p)) == fp_roots_by_evaluation(f, p), f
    assert list(fp_roots([], p)) == [(r, 0) for r in range(p)]


def test_fp_factor_with_multiplicity():
    assert fp_factor([1, 1, 1, 1], 2) == (1, [([1, 1], 3)])
    assert fp_factor([4, 4, 1], 3) == (1, [([2, 1], 2)])
    lc, parts = fp_factor([0, 0, 0, 2], 7)
    assert lc == 2 and parts == [([0, 1], 3)]


def test_hensel_lift_recovers_factors():
    cases = [
        (zx_mul(zx_mul([-1, 1], [1, 1]), [1, 0, 1]), 4, 4),  # (x-1)(x+1)(x^2+1)
        # (3x+1)(x^2+1)(x^20-2): linear and quadratic factors plus one unsplit
        # product, lifted to a target that is not a power of two
        (zx_mul(zx_mul([1, 3], [1, 0, 1]), [-2] + [0] * 19 + [1]), 2, 5),
    ]
    p = 7
    for f, bound, target in cases:
        modular = _fp_split(fp_ddf(fp_monic(f, p), p, bound), p)
        lifted = hensel_lift(p, f, modular, target)
        m = p**target
        assert [fp_norm(g, p) for g in lifted] == modular
        assert all(g[-1] == 1 for g in lifted)
        # product of lifted factors = f made monic mod p^target
        prod = [1]
        for g in lifted:
            prod = fp_mul(prod, g, m)
        inv = pow(f[-1], -1, m)
        assert prod == [c * inv % m for c in f]


def test_hensel_lift_matches_the_tree_lift():
    """Each factor lifted on its own equals the two-sided factor-tree lift."""
    rng = random.Random(15)
    cases, non_monic = 0, 0
    while cases < 120:
        p = rng.choice([3, 5, 7, 11, 13])
        f = [1]
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.choice([1, 2, 3, -4])]
            f = zx_mul(f, g)
        f = zx_trim(f)
        if zx_deg(f) < 1 or f[-1] % p == 0 or not fp_is_squarefree(f, p):
            continue
        cases += 1
        non_monic += f[-1] not in (1, -1)
        target = rng.randint(1, 12)
        bound = rng.choice([zx_deg(f), 1, 2, 3])
        modular = _fp_split(fp_ddf(fp_monic(f, p), p, bound), p)
        tree = tree_hensel_lift(p, f, modular, target)
        assert hensel_lift(p, f, modular, target) == tree
        small = [i for i, g in enumerate(modular) if zx_deg(g) <= bound]
        assert hensel_lift(p, f, [modular[i] for i in small], target) == [tree[i] for i in small]
    assert non_monic > 60


def test_hensel_lift_rejects_bad_factors():
    f = zx_mul(zx_mul([-1, 1], [1, 1]), [1, 0, 3])  # (x - 1)(x + 1)(3x^2 + 1), squarefree mod 5
    p = 5
    assert hensel_lift(p, f, [[4, 1], [1, 1]], 3) == [[-1, 1], [1, 1]]
    with pytest.raises(InvalidParameterError, match="not monic"):
        hensel_lift(p, f, [[3, 2]], 3)  # 2x + 3 = 2 (x - 1) mod 5
    with pytest.raises(InvalidParameterError, match="does not divide"):
        hensel_lift(p, f, [[2, 1]], 3)
    with pytest.raises(InvalidParameterError, match="leading coefficient"):
        hensel_lift(3, f, [[2, 1]], 3)
    square = zx_mul(f, [-1, 1])  # (x - 1)^2 (x + 1)(3x^2 + 1)
    for target in (1, 3):  # a double root: f'(1) = 0 mod 5, refused before any inverse
        with pytest.raises(InvalidParameterError, match="non-coprime"):
            hensel_lift(p, square, [[4, 1]], target)
    with pytest.raises(InvalidParameterError, match="non-coprime"):  # (x^2 + 2)^2 | f (3x^2 + 1)
        hensel_lift(p, zx_mul(f, [1, 0, 3]), [[2, 0, 1]], 3)


def _rational_roots(f):
    """The rational roots of f, f(0) != 0, by the rational root theorem: each is
    +-a/b with a dividing f(0) and b dividing the leading coefficient."""
    def divisors(n):
        return [k for k in range(1, abs(n) + 1) if n % k == 0]

    candidates = {Fraction(a, b) for a in divisors(f[0]) for b in divisors(f[-1])}
    candidates |= {-r for r in candidates}
    return {r for r in candidates if sum(c * r**i for i, c in enumerate(f)) == 0}


def test_linear_factors_match_the_rational_root_search():
    """zx_factor_bounded(f, 1), whose modular roots are lifted by Newton steps,
    finds exactly the rational roots a brute-force search finds."""
    rng = random.Random(28)
    cases = with_roots = 0
    while cases < 150:
        f = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-20, 20) for _ in range(rng.randint(0, 8))]
        f.append(rng.choice([1, 2, 3]))
        for _ in range(rng.randint(0, 3)):  # small roots a/b, so lc and f(0) stay small
            f = zx_mul(f, [rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3])])
        f = zx_primitive(f)[1]
        if f[-1] < 0:
            f = [-c for c in f]
        if zx_deg(f) < 1 or zx_deg(zx_gcd(f, zx_derivative(f))) > 0:
            continue
        cases += 1
        linear, residual = zx_factor_bounded(f, 1)
        assert all(zx_deg(g) == 1 for g in linear)
        assert sorted(Fraction(-g[0], g[1]) for g in linear) == sorted(_rational_roots(f)), f
        with_roots += bool(linear)
    assert with_roots > 75


def test_bounded_factorization_lifts_only_small_factors(monkeypatch):
    """psi_13 of the 13-torsion curve at bound 6: one lift, no factor above degree 6."""
    passed = []
    lift = polyzq.hensel_lift

    def spy(p, f, factors, target):
        passed.append([zx_deg(g) for g in factors])
        return lift(p, f, factors, target)

    monkeypatch.setattr(polyzq, "hensel_lift", spy)
    shape = psi_factor_shape(CurveQ(0, 0, 0, 13674069, 324405221670), 13, 6)
    assert len(passed) == 1
    assert passed[0] and max(passed[0]) <= 6
    assert shape.factors


def test_zx_compose_evaluates_f_at_g():
    # f(g(x)) has degree deg f * deg g, so agreeing at one more point than that is equality
    rng = random.Random(30)
    for _ in range(200):
        f = zx_trim([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        g = zx_trim([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
        if rng.randrange(2):
            f = [Fraction(c, rng.randint(1, 5)) for c in f]
            g = [Fraction(c, rng.randint(1, 5)) for c in g]
        h = zx_compose(f, g)
        assert not h or h[-1] != 0
        for x in range(-1, max(zx_deg(f), 0) * max(zx_deg(g), 0) + 1):
            assert zx_eval(h, x) == zx_eval(f, zx_eval(g, x)), (f, g)
    assert zx_compose([], [1, 2]) == [] and zx_compose([5], []) == [5]


def _rules_out_roots_from(f, B) -> bool:
    """|lc| B^n > sum_(i<n) |a_i| B^i, exactly: no root of f has modulus >= B."""
    n = zx_deg(f)
    return abs(f[-1]) * B**n > sum(abs(a) * B**i for i, a in enumerate(f[:-1]))


def _seeded_wide_polys(count):
    """Seeded integer polynomials of degree 1 to 90, coefficients up to 2^1200 in modulus."""
    rng = random.Random(1200)
    out = []
    for _ in range(count):
        n = rng.randint(1, 90)
        f = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 1200)) for _ in range(n)]
        f.append(rng.choice((-1, 1)) * (1 + rng.getrandbits(rng.randint(0, 1200))))
        out.append(f)
    return out


def test_root_bound_rules_out_every_larger_root():
    """B = 2R, R the least power of two with R^i |lc| >= |a_(n-i)|, and the exact
    inequality at B that puts every root inside |z| < B."""
    polys = [
        division_poly_primitive(curve_from_string(c), ell)
        for c in FACTOR_SHAPE_CURVES
        for ell in (3, 5, 7, 11, 13)
    ]
    polys += _seeded_wide_polys(200)
    polys += [[0, 1], [5, 1], [0, 0, 0, 7], [-(2**1200), 3]]
    for f in polys:
        B = polyzq._root_bound(f)
        R, n, lc = B // 2, zx_deg(f), abs(f[-1])
        assert B == 2 * R and R & (R - 1) == 0
        assert all(R**i * lc >= abs(f[n - i]) for i in range(1, n + 1))
        if R > 1:  # R is the least such power of two
            assert any((R // 2) ** i * lc < abs(f[n - i]) for i in range(1, n + 1))
        assert _rules_out_roots_from(f, B), f


def test_root_bound_covers_known_integer_roots():
    rng = random.Random(16)
    for _ in range(300):
        roots = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 80)) for _ in range(rng.randint(1, 12))]
        f = [rng.choice((1, 2, -3, 7))]
        for r in roots:
            f = zx_mul(f, [-r, 1])
        assert polyzq._root_bound(f) > max(abs(r) for r in roots), roots


def _near_bound_product(seed):
    """A squarefree product whose small factors have roots of modulus near B / 2.

    Roots +-r with r just below a power of two make R that power of two, so
    the roots sit near B / 2 = R and the lifted candidates lc(Q) G of the
    factors carrying them come close to the coefficient bound. Some inputs
    are not monic; 3x^n - 2 carries modular factors above any bound.
    """
    rng = random.Random(seed)
    r = 2 ** rng.randint(4, 60) - rng.randint(1, 5)
    s = r - rng.randint(1, 3)
    # pairwise coprime and irreducible: x^2 + (r + s) x + rs - 1 has discriminant
    # (r - s)^2 + 4 in {5, 8, 13}, and r^3 + 1 lies strictly between two cubes
    small = [[-r, 1], [r, 1], [-s, rng.choice((1, 3))], [s * s, 0, 1], [r * s - 1, r + s, 1]]
    small.append([-(r**3) - 1, 0, 0, 1])
    f = [-2] + [0] * (rng.randint(8, 20) - 1) + [3]
    for g in rng.sample(small, k=rng.randint(2, 4)):
        f = zx_mul(f, g)
    return f


@pytest.mark.parametrize("seed", range(8))
def test_factorization_near_the_root_bound_matches_sympy(seed):
    pytest.importorskip("sympy")
    f = _near_bound_product(seed)
    c, parts = _factor_list_sympy(f)
    assert all(m == 1 for _, m in parts)
    assert zx_factor(f) == (c, parts)
    for bound in (1, 2, 3, 6):
        factors, residual = zx_factor_bounded(f, bound)
        assert factors == [g for g, _ in parts if zx_deg(g) <= bound]
        rebuilt = residual
        for g in factors:
            rebuilt = zx_mul(rebuilt, g)
        assert rebuilt == f


def _seeded_squarefree(rng, p, n, max_factor_degree=None):
    """A monic squarefree polynomial mod p: random of degree n, or a product of random
    monic factors of degree <= max_factor_degree, of degree n where F_p has enough
    of them (a factor that would repeat one already taken is drawn again, 200 times
    at most). f is squarefree, so f h is exactly when h is and gcd(f, h) = 1: only
    the new factor h is tested, not the whole product."""
    if max_factor_degree is None:
        while True:
            f = [rng.randrange(p) for _ in range(n)] + [1]
            if fp_is_squarefree(f, p):
                return f
    f = [1]
    for _ in range(200):
        if zx_deg(f) >= n:
            break
        k = rng.randint(1, min(max_factor_degree, n - zx_deg(f)))
        h = [rng.randrange(p) for _ in range(k)] + [1]
        if fp_is_squarefree(h, p) and fp_gcd(f, h, p) == [1]:
            f = fp_mul(f, h, p)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 10007])
def test_bounded_ddf_matches_the_per_degree_oracle(p):
    """fp_ddf against the per-degree DDF, seeded squarefree inputs of degree 2 to 90:
    random ones, ones whose factors all have degree <= bound, and ones of degree
    <= 2 bound. Bound deg f, the one fp_factor_squarefree passes, and any bound
    > n / 2 find every factor; bound 0 finds nothing."""
    rng = random.Random(p)
    for bound in (1, 2, 3, 6, 12):
        cases = [_seeded_squarefree(rng, p, n) for n in (2, 5, 2 * bound, 2 * bound + 1, 40, 84, 90)]
        cases += [_seeded_squarefree(rng, p, n, bound) for n in (2 * bound + 1, 30, 84)]
        cases += [_seeded_squarefree(rng, p, n, k) for n, k in ((60, bound + 2), (rng.randint(2, 90), 3))]
        for f in cases:
            if zx_deg(f) >= 2:
                assert fp_ddf(f, p, bound) == per_degree_ddf(f, p, bound), (bound, f)
    for full in (True, False):
        cases = [_seeded_squarefree(rng, p, n) for n in (2, 3, 33, 61)]
        cases += [_seeded_squarefree(rng, p, n, k) for n, k in ((12, 1), (40, 4))]
        for f in cases:
            bound = zx_deg(f) if full else 40
            assert fp_ddf(f, p, bound) == per_degree_ddf(f, p, bound), (bound, f)
    for f in [[1], [rng.randrange(p), 1], _seeded_squarefree(rng, p, 12)]:
        assert fp_ddf(f, p, 0) == per_degree_ddf(f, p, 0) == ([(f, zx_deg(f))] if zx_deg(f) else [])


def test_lift_target_follows_the_root_bound(monkeypatch):
    """E13's psi_13 has coefficients of 1127 bits but two cubic factors of 40 bits: at
    bound 6 the lift stops at p^t with t <= 60, not at Mignotte's 5^490."""
    targets = []
    lift = polyzq.hensel_lift
    monkeypatch.setattr(
        polyzq, "hensel_lift", lambda p, f, fs, t: targets.append((p, t)) or lift(p, f, fs, t)
    )
    shape = psi_factor_shape(CurveQ(0, 0, 0, 13674069, 324405221670), 13, 6)
    assert [k for k, _ in shape.factors] == [3, 3]
    assert len(targets) == 1 and targets[0][1] <= 60


def test_bounded_ddf_takes_one_gcd_at_full_degree_per_prime(monkeypatch):
    """psi_13 of curve 26 at bound 6: besides the squarefree test, the DDF at 5, where
    no factor has degree <= 6, takes one gcd at degree 84, not one per degree. At 3
    every factor has degree 2 or 6, so x^(3^6) = x mod f, the product vanishes and
    its gcd with f is f at no cost; the per-degree steps on all of f then take two
    gcds at degree 84 (degrees 1 and 2, before the quadratic factors leave) and
    three at degree 78 (degrees 3 to 5): what is left at degree 6 takes none."""
    psi = division_poly_primitive(CurveQ(1, -1, 1, -3, 3), 13)
    gcds = []  # (p, inside fp_ddf, the larger degree) of each gcd
    inside = []
    gcd, ddf = polyzq.fp_gcd, polyzq.fp_ddf

    def spy_gcd(f, g, p):
        gcds.append((p, bool(inside), max(zx_deg(fp_norm(f, p)), zx_deg(fp_norm(g, p)))))
        return gcd(f, g, p)

    def spy_ddf(f, p, bound):
        inside.append(p)
        try:
            return ddf(f, p, bound)
        finally:
            inside.pop()

    monkeypatch.setattr(polyzq, "fp_gcd", spy_gcd)
    monkeypatch.setattr(polyzq, "fp_ddf", spy_ddf)
    assert zx_factor_bounded(psi, 6) == ([], psi)
    assert gcds == [(3, False, 84)] + [(3, True, 84)] * 3 + [(3, True, 78)] * 3 + [
        (5, False, 84),
        (5, True, 84),
    ]


@pytest.mark.parametrize(
    "curve, ell, p, bound",
    [("[1,-1,1,-3,3]", 13, 3, 6), ("[0,0,0,1,0]", 13, 3, 12), ("[1,-1,1,-3,3]", 13, 7, 6)],
)
def test_bounded_ddf_powers_each_frobenius_once(monkeypatch, curve, ell, p, bound):
    """x^(p^i) mod f is made once for each i <= bound, and the per-degree steps on the
    part of degree <= bound power nothing: that part is all of f in the first two
    cases, 12 of 84 degrees in the third. In the second every factor has degree 6,
    so x^(3^6) = x mod f and no higher power is made."""
    f = fp_monic(division_poly_primitive(curve_from_string(curve), ell), p)
    calls = []  # (modulus, input, exponent, output) of each powering
    power = polyzq._PackedMod.pow

    def spy(self, g, e):
        h = power(self, g, e)
        calls.append((self.m, g, e, h))
        return h

    monkeypatch.setattr(polyzq._PackedMod, "pow", spy)
    ddf = fp_ddf(f, p, bound)
    assert sum(zx_deg(g) for g, d in ddf if d <= bound) > 0
    # nothing is powered mod a factor of f
    assert all(m == f for m, _, _, _ in calls)
    # x -> x^p -> x^(p^2) -> ...: each power raises the one before
    assert len(calls) == (6 if curve == "[0,0,0,1,0]" else bound)
    assert all(e == p for _, _, e, _ in calls)
    assert [g for _, g, _, _ in calls] == [[0, 1]] + [h for _, _, _, h in calls[:-1]]
    monkeypatch.undo()
    assert ddf == per_degree_ddf(f, p, bound)
