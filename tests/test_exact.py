import random
from fractions import Fraction
from math import gcd, inf
from operator import add, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeforge import exact
from heckeforge.exact import (MAX_CONDUCTOR, MAX_PRIME, Cyclo, _cyclo,
                              _prime_factors, as_rational, check_bound,
                              check_prime, cyclotomic_poly, euler_phi,
                              exponent_sum, is_prime, join, power_within,
                              scalar, scalar_from_json, scalar_json, split,
                              vp)


def _divisors(m):
    """The divisors of m, ascending, by testing every d <= m."""
    return [d for d in range(1, m + 1) if m % d == 0]


def test_root_of_unity_inverse():
    z = Cyclo.zeta(5)
    assert z * z ** 4 == 1


def test_i_times_conjugate():
    i = Cyclo.zeta(4)
    assert (1 + i) * (1 - i) == 2


def test_sum_of_nontrivial_fifth_roots():
    acc = Cyclo.rational(0)
    for a in range(1, 5):
        acc = acc + Cyclo.zeta(5, a)
    assert acc == -1


def test_cross_conductor_identities():
    assert Cyclo.zeta(2) == -1
    assert Cyclo.zeta(6) == -(Cyclo.zeta(3) ** 2)
    assert Cyclo.zeta(4) ** 2 == -1
    # one element held at two conductors, zeta_3 = zeta_6^2 = zeta_6 - 1
    z3, z6 = Cyclo.zeta(3), Cyclo.zeta(6)
    assert z3.lift(6) == z3 and z3 == z3.lift(6) and not z3.lift(6) != z3
    assert z3 == z6 - 1 and z6 - z3 == 1 and 1 - z6 == -z3
    assert z3 != z6 and Fraction(1, 2) != z3 and z3 + Fraction(1, 2) != z6


def test_sum_difference_and_lift_reduce_once(monkeypatch):
    """+, - (either way round), cross-conductor == and lift place their
    operands in the lcm conductor and call _cyclo once: none lifts an
    operand, or negates one, before the sum, and == lifts at most one."""
    a = Cyclo(4, [Fraction(1, 2), Fraction(3)])
    b = Cyclo(6, [Fraction(-2, 3), Fraction(5, 9)])
    up = a.lift(12)
    calls = []

    def counting(m, acc, den=1):
        calls.append(m)
        return reduce(m, acc, den)

    reduce = exact._cyclo
    monkeypatch.setattr(exact, "_cyclo", counting)
    for op in (lambda: a + b, lambda: b + a, lambda: a - b, lambda: b - a,
               lambda: a == b, lambda: a != b, lambda: a.lift(12),
               lambda: up == a, lambda: a == up):
        calls.clear()
        op()
        assert calls == [12]


def test_reflected_operators_name_the_written_operator():
    """A float on the left of - or / is refused naming that operator, not
    a + it was rewritten to or a product with None."""
    z = Cyclo.zeta(3)
    with pytest.raises(TypeError, match=r"for -: 'float' and 'Cyclo'"):
        2.5 - z
    with pytest.raises(TypeError, match=r"for /: 'float' and 'Cyclo'"):
        2.5 / z


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert euler_phi(27) == 18


# References for the factorization-based exact layer: each shares no code
# with the implementation it checks.

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polys_multiply_to_x_m_minus_1():
    """prod over d | m of Phi_d = x^m - 1, for every m <= 400."""
    for m in range(1, 401):
        acc = [1]
        for d in _divisors(m):
            acc = _poly_mul(acc, cyclotomic_poly(d))
        assert acc == [-1] + [0] * (m - 1) + [1], m


def test_euler_phi_counts_the_units():
    for m in range(1, 601):
        assert euler_phi(m) == sum(1 for a in range(1, m + 1)
                                   if gcd(a, m) == 1), m


def test_prime_factors_match_brute_force():
    primes = [q for q in range(2, 3001)
              if all(q % d for d in range(2, q))]
    for m in range(1, 3001):
        assert _prime_factors(m) == tuple(q for q in primes if m % q == 0), m
    assert [p for p in range(-3, 3001) if is_prime(p)] == primes


def test_is_prime_refuses_above_its_bound():
    assert is_prime(999999999989)  # the largest prime below 10^12
    assert not is_prime(MAX_PRIME)
    with pytest.raises(ValueError, match="exceeds MAX_PRIME"):
        is_prime(MAX_PRIME + 1)


def test_check_bound_passes_the_bound_and_refuses_one_more():
    assert check_bound("x = 7", 7, "MAX_X", 7) == 7
    with pytest.raises(ValueError) as refused:
        check_bound("x = 8", 8, "MAX_X", 7)
    assert str(refused.value) == "x = 8 exceeds MAX_X = 7"
    with pytest.raises(ValueError, match="^p\\^s = 3\\^9 exceeds MAX_X = 7$"):
        check_bound("p^s = 3^9", None, "MAX_X", 7)


def test_power_within_forms_only_below_the_bit_length():
    """2^11 = 2048 is formed under 2500, whose bit length is 12; 2^12 and
    3^(10^9) are not, and |p| <= 1 is formed at any exponent."""
    assert power_within(2, 11, 2500) == 2048
    assert power_within(-7, 4, 2500) == 2401
    assert power_within(7, 5, 2500) == 16807
    for p, e in ((2, 12), (3, 10 ** 9), (-10 ** 20, 10 ** 9)):
        assert power_within(p, e, 2500) is None
    assert [power_within(p, 10 ** 9, 2500) for p in (-1, 0, 1)] == [1, 0, 1]
    # the pair (3, 10^9) is refused at once, by its closed form
    with pytest.raises(ValueError) as refused:
        check_bound("p^s = 3^1000000000", power_within(3, 10 ** 9, 2500),
                    "MAX_MODULUS", 2500)
    assert str(refused.value) == ("p^s = 3^1000000000 exceeds "
                                  "MAX_MODULUS = 2500")


def test_check_prime_names_p():
    check_prime(2)
    for p in (4, 1, 0, -3):
        with pytest.raises(ValueError) as refused:
            check_prime(p)
        assert str(refused.value) == f"p = {p} is not prime"
    with pytest.raises(ValueError) as refused:
        check_prime(MAX_PRIME + 1)
    assert str(refused.value) == ("p = 1000000000001 exceeds "
                                  "MAX_PRIME = 1000000000000")


def _random_cyclo(rng):
    m = rng.choice([1, 3, 4, 5, 8, 12])
    return Cyclo(m, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                     for _ in range(euler_phi(m))])


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (_random_cyclo(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def test_inverse_and_division():
    rng = random.Random(11)
    for _ in range(25):
        a = _random_cyclo(rng)
        if not a:
            continue
        assert a * a.inverse() == 1
        assert (a / a) == 1


def test_conjugation_is_ring_involution():
    rng = random.Random(13)
    for _ in range(20):
        a, b = _random_cyclo(rng), _random_cyclo(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


def test_vp_examples():
    assert vp(Fraction(24, 5), 2) == 3
    assert vp(0, 3) == inf
    assert vp(Fraction(9, 2), 3) == 2


def test_valuation_is_multiplicative():
    rng = random.Random(3)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        x = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
        y = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
        assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


def test_cyclo_valuation_is_content():
    x = Cyclo(5, [Fraction(2), Fraction(4), Fraction(8), Fraction(1, 2)])
    assert vp(x, 2) == -1
    assert vp(Cyclo.zeta(5), 3) == 0


def _vp_reference(x, p):
    """v_p of a nonzero Fraction, by dividing p out of it as a Fraction."""
    v = 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


def test_serialization_roundtrip():
    x = Cyclo(5, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)])
    blob = x.to_json()
    assert blob["m"] == 5 and blob["coeffs"][0] == "1/2"
    assert Cyclo.from_json(blob) == x


# Property tests for the integer-numerator Cyclo.  The reference below is
# the plain dense reduction over Fractions; the program's sparse integer
# path must give the same coefficient vectors.

PROPERTY = settings(max_examples=60, deadline=None)
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _dense_reduce(m, coeffs):
    """Reduce int or Fraction coefficients modulo Phi_m by dense long
    division; ints stay ints, as Phi_m is monic."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    c = list(coeffs)
    c += [0] * max(0, deg - len(c))
    for i in range(len(c) - 1, deg - 1, -1):
        lead = c[i]
        for j in range(deg + 1):
            c[i - deg + j] -= lead * phi[j]
    return tuple(c[:deg])


def _dense_lift(x, big_m):
    step = big_m // x.m
    coeffs = [Fraction(0)] * big_m
    for i, a in enumerate(x.c):
        coeffs[i * step] += a
    return _dense_reduce(big_m, coeffs)


def _dense_mul(a, b, m):
    """a * b at a common multiple m of both conductors."""
    prod = [Fraction(0)] * m
    for i, x in enumerate(_dense_lift(a, m)):
        for j, y in enumerate(_dense_lift(b, m)):
            prod[(i + j) % m] += x * y
    return _dense_reduce(m, prod)


@st.composite
def cyclos(draw, m=None):
    m = draw(st.integers(1, 60)) if m is None else m
    phi = euler_phi(m)
    return Cyclo(m, draw(st.lists(RATIONALS, min_size=phi, max_size=phi)))


@st.composite
def related(draw, count):
    """A conductor M <= 60 and `count` elements at divisors of M, at M
    itself half of the time."""
    big_m = draw(st.integers(1, 60))
    divs = st.sampled_from(_divisors(big_m))
    return big_m, [draw(cyclos(draw(st.one_of(st.just(big_m), divs))))
                   for _ in range(count)]


@st.composite
def same_conductor(draw, count):
    m = draw(st.integers(1, 60))
    return [draw(cyclos(m)) for _ in range(count)]


@PROPERTY
@given(cyclos())
def test_cyclo_is_normalised(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert x.c == tuple(Fraction(n, x.den) for n in x.num)


@PROPERTY
@given(cyclos(), st.sampled_from((2, 3, 5)), st.integers(-2, 3))
def test_cyclo_valuation_matches_the_coefficient_reference(x, p, k):
    """vp reads a Cyclo's integer numerators and denominator; the reference
    takes the least v_p of its nonzero Fraction coefficients.  Scaling by
    p^k gives numerators and denominators divisible by p."""
    y = Cyclo(x.m, [a * Fraction(p) ** k for a in x.c])
    want = min((_vp_reference(a, p) for a in y.c if a), default=inf)
    assert vp(y, p) == want
    assert vp(y.c[0], p) == (_vp_reference(y.c[0], p) if y.c[0] else inf)


@PROPERTY
@given(same_conductor(3))
def test_cyclo_field_axioms(xs):
    a, b, c = xs
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a - a == 0 and a * 1 == a and a + 0 == a


@PROPERTY
@given(cyclos())
def test_cyclo_inverse(x):
    if x:
        assert x * x.inverse() == 1
        assert x / x == 1


@PROPERTY
@given(related(2), RATIONALS)
def test_cyclo_arithmetic_matches_dense_reference(case, r):
    """Products, sums, differences (either way round, with a rational
    too) and equality across conductors and unequal denominators, against
    the dense reference at the common multiple M; a also taken as held at
    M."""
    big_m, (a, b) = case
    da, db = _dense_lift(a, big_m), _dense_lift(b, big_m)
    dr = (r,) + (0,) * (euler_phi(big_m) - 1)
    up = a.lift(big_m)
    assert up.c == da
    assert (a * b).lift(big_m).c == _dense_mul(a, b, big_m)
    for got, want in ((a + b, map(add, da, db)), (a - b, map(sub, da, db)),
                      (up - b, map(sub, da, db)), (b - up, map(sub, db, da)),
                      (a - r, map(sub, da, dr)), (r - a, map(sub, dr, da)),
                      (r + b, map(add, dr, db))):
        assert got.lift(big_m).c == tuple(want)
    for x, y, dx, dy in ((a, b, da, db), (b, a, db, da), (up, b, da, db),
                         (a, up, da, da), (a, r, da, dr), (r, a, dr, da)):
        assert (x == y) == (dx == dy) and (x != y) == (dx != dy)


def _reduction_cases():
    """(m, coefficients) for every m <= 120 at three lengths (below phi(m),
    in [phi(m), m) and 3m), and m = 210, 506, 1806 at length m."""
    rng = random.Random(1806)
    for m in range(1, 121):
        phi = euler_phi(m)
        for n in (rng.randrange(phi), rng.randrange(phi, max(phi + 1, m)),
                  3 * m):
            yield m, [rng.randint(-9, 9) for _ in range(n)]
    for m in (210, 506, 1806):
        yield m, [rng.randint(-9, 9) for _ in range(m)]


def test_reduction_matches_dense_division():
    """_cyclo reduces by wrapping mod x^m - 1, then the least prime's block
    of (x^m - 1)/(x^(m/q) - 1), then the fold through Phi_m; the dense
    long division shares none of that.  The inputs, and ten times them
    (a content shared with den), cover every branch: m = 1 and prime
    powers have no block step, and the lengths in [phi(m), m) end both at
    or below m - m/q (no top block) and above it (a partial one)."""
    seen = set()
    for m, f in _reduction_cases():
        want = _dense_reduce(m, f)
        primes = _prime_factors(m)
        if len(primes) > 1 and euler_phi(m) <= len(f) < m:
            seen.add(len(f) > m - m // primes[0])
        for scale in (1, 10):
            for den in (1, 6, 35):
                x = _cyclo(m, [scale * c for c in f], den)
                assert x.m == m and x.den > 0 and gcd(x.den, *x.num) == 1
                assert x.c == tuple(Fraction(scale * c, den) for c in want), m
    assert seen == {False, True}


@PROPERTY
@given(related(1))
def test_cyclo_equal_across_conductors(case):
    big_m, (x,) = case
    up = x.lift(big_m)
    assert up == x and x == up
    assert up - x == 0
    assert up.conj() == x.conj()
    assert up * up == x * x


def _eq_reference(x, r):
    """x == r as it was: r coerced to a rational Cyclo, lifted to x's
    conductor, and the fields compared."""
    other = Cyclo.rational(r).lift(x.m)
    return x.num == other.num and x.den == other.den


@st.composite
def rational_comparisons(draw):
    """(x, r): r an int or a Fraction; x a rational Cyclo held at a
    conductor up to 60, any Cyclo there, or r plus k zeta_m / r's
    denominator, k != 0, whose num[0] and den are r's."""
    r = draw(st.one_of(st.integers(-50, 50), RATIONALS))
    m = draw(st.integers(1, 60))
    zero = [0] * (euler_phi(m) - 1)
    x = draw(st.sampled_from([
        Cyclo(m, [r] + zero), draw(cyclos(m)),
        Cyclo(m, [r, Fraction(draw(st.integers(1, 9)), Fraction(r).denominator)]
              + zero[1:]) if zero else Cyclo.rational(r)]))
    return x, r


@PROPERTY
@given(rational_comparisons())
@example((Cyclo.rational(0), 0))
@example((Cyclo(12, [0, 0, 0, 0]), Fraction(0)))
@example((Cyclo(12, [Fraction(-3, 4), 0, 0, 0]), Fraction(-3, 4)))
@example((Cyclo.zeta(12) * Cyclo.zeta(12).conj() * Fraction(3, 4), Fraction(3, 4)))
@example((Cyclo(12, [Fraction(3, 4), Fraction(1, 4), 0, 0]), Fraction(3, 4)))
@example((Cyclo(6, [0, 5]), 0))
def test_eq_with_a_rational_matches_coerce_and_lift(case):
    x, r = case
    want = _eq_reference(x, r)
    assert (x == r) is want and (r == x) is want and (x != r) is (not want)


def test_eq_with_a_rational_reduces_nothing(monkeypatch):
    """An int or a Fraction is compared with the numerators as they are:
    no _cyclo reduction runs, at any conductor."""
    xs = [Cyclo.rational(2), Cyclo(12, [Fraction(3, 4), 0, 0, 0]),
          Cyclo(12, [Fraction(3, 4), Fraction(1, 4), 0, 0])]

    def refuse(*args):
        raise AssertionError("a _cyclo reduction")

    monkeypatch.setattr(exact, "_cyclo", refuse)
    assert [x == Fraction(3, 4) for x in xs] == [False, True, False]
    assert [x == 2 for x in xs] == [True, False, False]


@PROPERTY
@given(related(1))
def test_cyclo_json_roundtrip(case):
    big_m, (x,) = case
    up = x.lift(big_m)
    back = Cyclo.from_json(up.to_json())
    assert back == x
    assert back.to_json() == up.to_json()


def _reference_descend(x, d):
    """The former descent: solve for the coordinates of x over the lifted
    power basis of zeta_d by Fraction Gaussian elimination, or None."""
    phi_d = euler_phi(d)
    basis = [Cyclo.zeta(d, j).lift(x.m).c for j in range(phi_d)]
    rows = len(x.c)
    aug = [[basis[j][i] for j in range(phi_d)] + [x.c[i]] for i in range(rows)]
    piv_cols, r = [], 0
    for col in range(phi_d):
        piv = next((k for k in range(r, rows) if aug[k][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [v / aug[r][col] for v in aug[r]]
        for k in range(rows):
            if k != r and aug[k][col] != 0:
                c = aug[k][col]
                aug[k] = [v - c * w for v, w in zip(aug[k], aug[r])]
        piv_cols.append(col)
        r += 1
    if any(aug[k][phi_d] != 0 for k in range(r, rows)):
        return None
    coeffs = [Fraction(0)] * phi_d
    for row_idx, col in enumerate(piv_cols):
        coeffs[col] = aug[row_idx][phi_d]
    return Cyclo(d, coeffs)


def _reference_to_json(x):
    if x.is_rational():
        small = Cyclo.rational(x.as_rational())
    else:
        small = next((down for d in _divisors(x.m)[:-1]
                      if (down := _reference_descend(x, d)) is not None), x)
    return {"m": small.m, "coeffs": [str(c) for c in small.c]}


def test_reduced_finds_the_smallest_conductor():
    x = Cyclo.zeta(11, 3) + Fraction(1, 2) * Cyclo.zeta(11, 7) - 4
    up = x.lift(253)
    assert up.m == 253 and up.reduced().m == 11
    assert up.to_json() == x.to_json() == _reference_to_json(up)
    genuine = Cyclo.zeta(253) + Cyclo.zeta(11) * Cyclo.zeta(23, 5)
    assert genuine.reduced().m == 253
    assert genuine.to_json() == _reference_to_json(genuine)
    # Q(zeta_506) = Q(zeta_253): the minimal conductor is never 2 mod 4
    assert genuine.lift(506).reduced().m == 253
    assert genuine.lift(506).to_json() == genuine.to_json()
    assert Cyclo.zeta(22).reduced() == Cyclo.zeta(11, 6) * -1
    assert Cyclo.zeta(22).reduced().m == 11


def _gauss_period(m, gens):
    """The sum of zeta_m^h over the subgroup of (Z/m)^* that gens
    generate."""
    group, todo = {1}, [1]
    while todo:
        h = todo.pop()
        for g in gens:
            if (k := h * g % m) not in group:
                group.add(k)
                todo.append(k)
    return sum((Cyclo.zeta(m, h) for h in group), Cyclo.rational(0))


@pytest.mark.parametrize("m", [105, 210])
def test_reduced_matches_the_reference_on_gauss_periods(m):
    """The period of the units that are 1 mod d lies in Q(zeta_d); with
    -1 or 2 added to the group, it lies in a subfield of Q(zeta_d) that
    for most d is not cyclotomic."""
    conductors = set()
    for d in _divisors(m):
        kernel = [a for a in range(1, m) if gcd(a, m) == 1 and a % d == 1 % d]
        for extra in ([], [m - 1], [2]):
            x = _gauss_period(m, kernel + extra)
            assert x.to_json() == _reference_to_json(x)
            conductors.add(x.reduced().m)
    assert conductors == {1, 3, 5, 7, 15, 21, 35, 105}


def test_zeta_3_descends_from_210_in_several_steps():
    up = Cyclo.zeta(3).lift(210)
    assert up.m == 210
    assert up.reduced().m == 3 and up.reduced() == Cyclo.zeta(3)
    assert up.to_json() == {"m": 3, "coeffs": ["0", "1"]}
    # 1350 = 2 3^3 5^2: the primes 3 and 5 each take two steps
    assert Cyclo.zeta(3).lift(1350).to_json() == up.to_json()


@PROPERTY
@given(related(2))
def test_to_json_matches_former_reduction(case):
    big_m, (a, b) = case
    for x in (a.lift(big_m), (a + b).lift(big_m), (a * b).lift(big_m)):
        assert x.to_json() == _reference_to_json(x)


# `exact.scalar` replaced per-module branches on the scalar type.  Those
# branches are kept here as the reference: plain operators on
# `scalar(x)` must give the same value of the same type, and for a Cyclo
# the same (m, num, den).

def _former_divide(x, y):
    """The former modules._divide."""
    if isinstance(y, Cyclo):
        return Cyclo._coerce(x) * y.inverse()
    return Fraction(x) / y if not isinstance(x, Cyclo) else x * (1 / Fraction(y))


def _former_inverse(x):
    """The former distributions._inverse_scalar and the branch of
    LaurentPoly.unit_inverse."""
    return x.inverse() if isinstance(x, Cyclo) else 1 / Fraction(x)


def _former_dual_root(lam, q, n):
    """The former modules.dual_root."""
    return q ** (n - 1) / lam if not isinstance(lam, Cyclo) \
        else Cyclo.rational(q ** (n - 1)) * lam.inverse()


def _former_scalar_json(x):
    """The former cli._scalar_json and Distribution.to_json's scal."""
    return x.to_json() if isinstance(x, Cyclo) else str(Fraction(x))


def _same(a, b):
    if type(a) is not type(b) or a != b:
        return False
    return not isinstance(a, Cyclo) or (a.m, a.num, a.den) == (b.m, b.num, b.den)


SCALARS = st.one_of(st.integers(-50, 50), RATIONALS,
                    st.integers(1, 30).flatmap(cyclos))


@PROPERTY
@given(SCALARS)
def test_scalar_keeps_fractions_and_cyclos(x):
    s = scalar(x)
    if isinstance(x, int):
        assert type(s) is Fraction and s == x
    else:
        assert s is x
    assert scalar(str(x)) is None and scalar(float(1)) is None


@PROPERTY
@given(SCALARS, SCALARS)
def test_plain_division_matches_former_branches(x, y):
    if y == 0:
        for divide in (lambda: scalar(x) / y, lambda: _former_divide(x, y)):
            with pytest.raises(ZeroDivisionError):
                divide()
        return
    assert _same(scalar(x) / y, _former_divide(x, y))
    assert _same(x / scalar(y), _former_divide(x, y))
    assert _same(Fraction(7, 3) ** 2 / y, _former_dual_root(y, Fraction(7, 3), 3))
    assert _same(1 / scalar(y), _former_inverse(y))
    assert _same((1 / scalar(y)) * x, _former_divide(x, y))


@PROPERTY
@given(SCALARS)
def test_scalar_json_round_trip(x):
    blob = scalar_json(x)
    assert blob == _former_scalar_json(x)
    back = scalar_from_json(blob, "here")
    assert back == x and type(back) is type(scalar(x))
    assert scalar_json(back) == blob


@PROPERTY
@given(SCALARS)
def test_as_rational_reads_rational_cyclos(x):
    if isinstance(x, Cyclo) and not x.is_rational():
        with pytest.raises(ValueError):
            as_rational(x)
    else:
        r = as_rational(x)
        assert type(r) is Fraction and r == x


@pytest.mark.parametrize("v", [None, [1], "1/0", {"coeffs": ["1"]}, {"m": 3},
                               {"m": 3, "coeffs": ["1/0", "1"]}, "x",
                               {"m": 3, "coeffs": ["1"]},
                               {"m": MAX_CONDUCTOR, "coeffs": ["1"]}])
def test_scalar_from_json_names_the_place(v):
    with pytest.raises(ValueError, match=r"^levels\[0\]: not a scalar: "):
        scalar_from_json(v, "levels[0]")
    if not isinstance(v, str):
        with pytest.raises(TypeError):
            scalar_json(v)


@pytest.mark.parametrize("m", [0, -3, "3", True, 3.0, None, MAX_CONDUCTOR + 1,
                               10 ** 18 + 9])
def test_scalar_from_json_bounds_the_conductor(m):
    with pytest.raises(ValueError, match=r"^levels\[0\]: field 'm' = "):
        scalar_from_json({"m": m, "coeffs": ["1"]}, "levels[0]")


# exponent_sum against a per-term reference: each zeta_n^k * v a Cyclo
# product, then Cyclo sums lifted to a common conductor.

def _root_sum_reference(n, terms):
    acc = None
    for k, v in terms:
        term = Cyclo.zeta(n, k) * v
        acc = term if acc is None else acc + term
    return acc


def test_exponent_sum_of_all_roots_is_zero_at_the_lcm():
    got = exponent_sum(6, range(6), [Cyclo.zeta(4)] * 6)
    assert (got.m, got.num, got.den) == (12, (0,) * 4, 1)
    # zeta_3^2 / 2 + zeta_3^{-1} = (3/2) zeta_3^2
    den, items = split([Fraction(1, 2), 1])
    got = exponent_sum(3, [2, -1], items, den)
    assert got == Cyclo.zeta(3, 2) * Fraction(3, 2)


@st.composite
def exponent_sums(draw):
    """An n, exponents of any sign, and the items of `split` over some den:
    all ints, or ints and den-1 Cyclos at divisors of some M <= 60."""
    big_m = draw(st.integers(1, 60))
    divs = st.sampled_from(_divisors(big_m))
    n = draw(divs)
    values = (RATIONALS if draw(st.booleans())
              else st.one_of(RATIONALS, divs.flatmap(cyclos)))
    terms = draw(st.lists(st.tuples(st.integers(-2 * n, 2 * n), values),
                          min_size=1, max_size=12))
    den, items = split([v for _, v in terms])
    return n, [k for k, _ in terms], items, den, terms


@PROPERTY
@given(exponent_sums())
def test_exponent_sum_matches_the_per_term_path(case):
    """exponent_sum over split items and their den is, field for field, the
    per-term sum of zeta_n^k * v over the values themselves."""
    n, ks, items, den, terms = case
    got = exponent_sum(n, ks, items, den)
    want = _root_sum_reference(n, terms)
    assert (got.m, got.num, got.den) == (want.m, want.num, want.den)


@PROPERTY
@given(cyclos(), st.one_of(st.integers(-50, 50), RATIONALS).filter(bool))
def test_rational_operand_acts_on_each_coefficient(x, r):
    """x * r, r * x and x / r scale each power-basis coefficient, x + r and
    x - r move the zeta^0 one, all at x's conductor; the reference builds
    each from x.c through the constructor, sharing no code with the
    product loop."""
    c, q = x.c, Fraction(r)
    scaled = Cyclo(x.m, [a * q for a in c])
    assert (x * r).m == x.m
    for got, want in ((x * r, scaled), (r * x, scaled),
                      (x / r, Cyclo(x.m, [a / q for a in c])),
                      (x + r, Cyclo(x.m, [c[0] + q, *c[1:]])),
                      (x - r, Cyclo(x.m, [c[0] - q, *c[1:]]))):
        assert (got.m, got.num, got.den) == (want.m, want.num, want.den)


def _fields(x):
    return (x.m, x.num, x.den) if isinstance(x, Cyclo) else (type(x), x)


def test_split_brings_ints_and_fractions_over_one_denominator():
    assert split([]) == (1, [])
    assert split([0, Fraction(0), 3, -4]) == (1, [0, 0, 3, -4])
    den, items = split([Fraction(1, 2), Fraction(-5, 3), 0, -7])
    assert (den, items) == (6, [3, -10, 0, -42])
    assert all(type(v) is int for v in items)
    assert [_fields(join(v, den)) for v in items] == [
        _fields(Fraction(1, 2)), _fields(Fraction(-5, 3)),
        _fields(Fraction(0)), _fields(Fraction(-7))]


def test_split_scales_a_cyclo_to_integer_numerators():
    """A Cyclo's den enters the lcm, and its item keeps its conductor over
    den 1; the join gives back the same fields."""
    a = Cyclo(5, [Fraction(1, 2), Fraction(-3, 4), 0, Fraction(5)])
    b = Cyclo.rational(Fraction(-2, 9))
    values = [a, Fraction(1, 3), b, Cyclo.zeta(4, 3), 0]
    den, items = split(values)
    assert den == 36
    assert _fields(items[0]) == (5, (18, -27, 0, 180), 1)
    assert items[1] == 12 and items[4] == 0
    assert _fields(items[2]) == (1, (-8,), 1)
    assert _fields(items[3]) == (4, (0, -36), 1)
    assert [_fields(join(v, den)) for v in items] == [
        _fields(v) for v in (a, Fraction(1, 3), b, Cyclo.zeta(4, 3),
                             Fraction(0))]
    # all dens 1: each Cyclo is its own item
    z = Cyclo.zeta(3)
    assert split([z, 2])[1][0] is z


def test_join_of_a_cyclo_forms_one_result(monkeypatch):
    """join divides by den in the one _cyclo call that forms the result:
    no inverse and no product."""
    calls = []

    def counting(m, acc, den=1):
        calls.append((m, den))
        return reduce(m, acc, den)

    reduce = exact._cyclo
    s = Cyclo(5, [Fraction(6), Fraction(-4), 0, Fraction(2, 3)])
    monkeypatch.setattr(exact, "_cyclo", counting)
    got = join(s, 10)
    assert calls == [(5, 30)]
    assert _fields(got) == _fields(Cyclo(5, [Fraction(3, 5), Fraction(-2, 5),
                                             0, Fraction(1, 15)]))


@PROPERTY
@given(st.lists(SCALARS, max_size=6), st.integers(1, 40))
def test_split_then_join_gives_each_value_back(values, extra):
    """join(item, den) is the value, as a Fraction for an int or Fraction
    and at its own conductor for a Cyclo; over a larger denominator too."""
    den, items = split(values)
    assert all(den % (v.den if isinstance(v, Cyclo) else v.denominator) == 0
               for v in values)
    for v, item in zip(values, items):
        want = _fields(v if isinstance(v, Cyclo) else Fraction(v))
        assert _fields(join(item, den)) == want
        assert _fields(join(item * extra, den * extra)) == want
        if isinstance(v, Cyclo):
            assert item.m == v.m and item.den == 1
