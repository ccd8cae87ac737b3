from fractions import Fraction

import pytest

from heckeforge import gauss
from heckeforge.exact import Cyclo, euler_phi, vp


def quadratic_char(p):
    return next(c for c in gauss.all_characters(p, 1) if c.order() == 2)


def test_quadratic_squares():
    g5 = gauss.gauss_sum(quadratic_char(5))
    assert g5 * g5 == 5
    g3 = gauss.gauss_sum(quadratic_char(3))
    assert g3 * g3 == -3


def test_unit_group_generators():
    assert gauss.unit_group_generators(2, 1) == []
    assert gauss.unit_group_generators(2, 2) == [(3, 2)]
    gens8 = gauss.unit_group_generators(2, 3)
    assert gens8 == [(7, 2), (5, 2)]
    (g, order), = gauss.unit_group_generators(3, 2)
    assert order == 6


def _order(g, mod):
    k, x = 1, g
    while x != 1:
        x, k = x * g % mod, k + 1
    return k


def test_primitive_root_is_the_least_unit_of_full_order():
    """For every odd p^s <= MAX_MODULUS the generator is the least unit
    whose order, counted power by power, is phi(p^s)."""
    checked = 0
    for p in range(3, gauss.MAX_MODULUS + 1, 2):
        if any(p % d == 0 for d in range(3, p, 2)):
            continue
        s = 1
        while p ** s <= gauss.MAX_MODULUS:
            mod, phi = p ** s, (p - 1) * p ** (s - 1)
            least = next(g for g in range(2, mod)
                         if g % p and _order(g, mod) == phi)
            assert gauss.unit_group_generators(p, s) == [(least, phi)]
            checked, s = checked + 1, s + 1
    assert checked == 391


def test_unit_group_generators_check_bounds_first():
    with pytest.raises(ValueError, match="s = 0 must be at least 1"):
        gauss.unit_group_generators(3, 0)
    with pytest.raises(ValueError, match=r"p\^s = 3\^1000000000 exceeds"):
        gauss.unit_group_generators(3, 10 ** 9)
    with pytest.raises(ValueError, match=r"p\^s = 10{22} exceeds"):
        gauss.unit_group_generators(10 ** 22, 1)
    with pytest.raises(ValueError, match="p = 1 is not prime"):
        gauss.unit_group_generators(1, 10 ** 9)


def test_character_group_complete():
    for (p, s) in ((2, 1), (2, 2), (2, 3), (3, 2), (5, 1)):
        chars = gauss.all_characters(p, s)
        assert len(chars) == euler_phi(p ** s)
        trivials = [c for c in chars if c.is_trivial()]
        assert len(trivials) == 1


def test_multiplicativity_of_values():
    for chi in gauss.all_characters(3, 2):
        units = [a for a in range(9) if a % 3]
        for a in units:
            for b in units:
                assert chi.value(a * b) == chi.value(a) * chi.value(b)


def test_conductor_exponent():
    chars = gauss.all_characters(3, 2)
    conds = sorted(c.conductor_exponent() for c in chars)
    # (Z/9)^* has 6 characters: 1 trivial, 1 of conductor 3, 4 of conductor 9
    assert conds == [0, 1, 2, 2, 2, 2]


def _conductor_scan(chi):
    """The smallest t with chi(u) = 1 at every unit u = 1 mod p^t, read
    off the Cyclo values."""
    mod = chi.p ** chi.s
    units = [u for u in range(1, mod) if u % chi.p]
    return next(t for t in range(chi.s + 1)
                if all(chi.value(u) == 1 for u in units
                       if u % chi.p ** t == 1 % chi.p ** t))


@pytest.mark.parametrize("chi_p", [None, Cyclo.zeta(4), Cyclo.rational(3)])
def test_closed_form_conductor_is_the_scan(chi_p):
    """Every character mod p^s <= 27, and mod 2^5, 2^6, 3^4 and 7^2: the
    closed form in the last exponent is the scan's, on its p = 2, e = 0
    branch and at every valuation of e."""
    moduli = [(p, s) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
              for s in range(1, 5) if p ** s <= 27]
    for p, s in moduli + [(2, 5), (2, 6), (3, 4), (7, 2)]:
        for chi in gauss.all_characters(p, s, chi_p):
            want = _conductor_scan(chi)
            assert chi.conductor_exponent() == want, (p, s, chi)


def test_gauss_sum_rejects_trivial():
    trivial = next(c for c in gauss.all_characters(5, 1) if c.is_trivial())
    with pytest.raises(ValueError):
        gauss.gauss_sum(trivial)


def test_abs_value_squared_all_primitive():
    for (p, s) in ((2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                   (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)):
        if p ** s > 27:
            continue
        for chi in gauss.all_characters(p, s):
            if chi.conductor_exponent() != s:
                continue
            tau = gauss.classical_gauss_sum(chi)
            assert tau * tau.conj() == p ** s, (p, s, chi.exps)


def test_characteristic_two_conductor_eight():
    prims = [c for c in gauss.all_characters(2, 3)
             if c.conductor_exponent() == 3]
    assert len(prims) == 2
    for chi in prims:
        tau = gauss.classical_gauss_sum(chi)
        assert tau * tau.conj() == 8


def test_pair_product():
    # tau(chi) tau(chi^{-1}) = chi(-1) p^s for primitive chi
    for chi in gauss.all_characters(3, 2):
        s = chi.conductor_exponent()
        if s == 0:
            continue
        tau = gauss.classical_gauss_sum(chi)
        tau_inv = gauss.classical_gauss_sum(chi.inverse())
        assert tau * tau_inv == chi.value(9 - 1) * 3 ** s


def test_normalization_with_chi_p():
    chi = quadratic_char(5)
    chi_twisted = gauss.MultChar(5, 1, chi.exps, Cyclo.zeta(4))
    # G includes chi(p)^{-s}: twisting chi(p) by i divides G by i
    assert gauss.gauss_sum(chi_twisted) == gauss.gauss_sum(chi) * Cyclo.zeta(4) ** -1
    # the classical part is unchanged
    assert (gauss.classical_gauss_sum(chi_twisted)
            == gauss.classical_gauss_sum(chi))


def test_deeper_level_oracle():
    for (p, s) in ((3, 1), (3, 2), (5, 1), (2, 2)):
        for chi in gauss.all_characters(p, s):
            if chi.conductor_exponent() == 0:
                continue
            assert gauss.gauss_sum(chi) == gauss.gauss_sum_oracle(chi)


def test_every_gauss_sum_refuses_a_conductor_above_the_bound():
    """p = 53 with a character of order 52 has conductor lcm(52, 53) =
    2756 > MAX_MODULUS: the oracle and the twisted sum refuse it with
    gauss_sum's message, where the oracle used to form it."""
    chi = gauss.primitive_character(53, 1, 52)
    message = ("the Gauss sum's conductor lcm(N, p^t) = 2756 exceeds "
               "MAX_MODULUS = 2500")
    for refused in (gauss.classical_gauss_sum, gauss.gauss_sum,
                    gauss.gauss_sum_oracle,
                    lambda c: gauss.twisted_sum(c, Fraction(1, 53), 1)):
        with pytest.raises(ValueError) as exc:
            refused(chi)
        assert str(exc.value) == message


def test_additive_character_refuses_a_non_prime():
    with pytest.raises(ValueError, match="^p = 9 is not prime$"):
        gauss.AddChar(9)


def test_twisted_sum_examples():
    chi3 = quadratic_char(3)
    assert gauss.twisted_sum(chi3, Fraction(1), 2) == 0
    assert gauss.twisted_sum(chi3, Fraction(1, 3), 1) \
        == gauss.classical_gauss_sum(chi3)
    trivial = next(c for c in gauss.all_characters(3, 1) if c.is_trivial())
    with pytest.raises(ValueError):
        gauss.twisted_sum(trivial, Fraction(1, 3), 1)


def test_twisted_sum_rejects_c_below_minus_level():
    # psi(gamma / 9) is not a function of gamma mod 3
    with pytest.raises(ValueError, match=r"c = 1/9 .* -level = -1"):
        gauss.twisted_sum(quadratic_char(3), Fraction(1, 9), 1)


def test_twisted_sum_exhaustive_small():
    for p in (2, 3, 5):
        for level in (1, 2):
            for chi in gauss.all_characters(p, level):
                t = chi.conductor_exponent()
                if t == 0 or t > level:
                    continue
                for v in range(-level, 2):
                    for unit in (1, 1 + p):
                        c = Fraction(unit) * Fraction(p) ** v
                        val = gauss.twisted_sum(chi, c, level)
                        if v != -t:
                            assert val == 0, (p, level, c)
                        else:
                            assert val != 0


def test_twisted_sum_scaling_with_level():
    chi = quadratic_char(5)
    shallow = gauss.twisted_sum(chi, Fraction(1, 5), 1)
    deep = gauss.twisted_sum(chi, Fraction(1, 5), 2)
    assert deep == 5 * shallow


def test_birch_constants():
    chi = quadratic_char(5)
    out = gauss.birch_constants(2, 5, 1, 1, chi)
    assert out["exponents_global"]["gauss"] == 1
    assert out["exponents_local"]["gauss"] == 3
    assert out["exponents_local"]["N(f)"] == -1
    out3 = gauss.birch_constants(3, 5, 1, 1, chi)
    assert out3["exponents_global"]["gauss"] == 3
    assert out3["exponents_global"]["N(f)"] == -1
    # Euler factor at q=2, n=2: (1/2 * 3/4)^{-1} = 8/3
    chi2 = next(c for c in gauss.all_characters(2, 2)
                if c.conductor_exponent() == 2)
    out2 = gauss.birch_constants(2, 2, 2, 2, chi2)
    assert out2["euler_factor"] == Fraction(8, 3)
    with pytest.raises(ValueError):
        gauss.birch_constants(2, 5, 1, 2, chi)


def test_birch_constant_values_literal():
    # dual route: rebuild both constant bundles by literal arithmetic
    chi = quadratic_char(5)
    tau = gauss.classical_gauss_sum(chi)
    n, q, r, s = 2, 5, 1, 1
    euler = 1 / ((1 - Fraction(1, 5)) * (1 - Fraction(1, 25)))
    out = gauss.birch_constants(n, q, r, s, chi)
    want_local = euler * Fraction(5) ** -1 * Fraction(5) ** -3 * tau ** 3
    want_global = euler * Fraction(5) ** 0 * Fraction(5) ** -1 * tau ** 1
    assert out["c_local"] == want_local
    assert out["c_global"] == want_global


def test_additive_character():
    psi = gauss.AddChar(3)
    assert psi.value(Fraction(5)) == 1
    assert psi.value(Fraction(1, 3)) == Cyclo.zeta(3)
    assert psi.value(Fraction(2, 9)) == Cyclo.zeta(9, 2)
    import random
    rng = random.Random(4)
    for _ in range(50):
        x = Fraction(rng.randrange(-40, 40), rng.choice([1, 3, 9, 5]))
        y = Fraction(rng.randrange(-40, 40), rng.choice([1, 3, 27, 7]))
        assert psi.value(x + y) == psi.value(x) * psi.value(y)


def test_primitive_character_builds_only_characters_of_that_order(monkeypatch):
    built = []
    real = gauss.MultChar

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gauss, "MultChar", counting)
    # of the 500 characters mod 5^4 one has order 2, of conductor 5
    assert gauss.primitive_character(5, 4, 2) is None
    assert len(built) == 1
    chi = gauss.primitive_character(5, 2, 20)
    monkeypatch.undo()
    first = next(c for c in gauss.all_characters(5, 2)
                 if c.order() == 20 and c.conductor_exponent() == 2)
    assert chi.exps == first.exps


def test_character_values_live_at_the_conductor_of_their_order():
    for p, s in ((7, 2), (2, 4), (3, 3)):
        mod = p ** s
        for chi in gauss.all_characters(p, s):
            for a in range(1, mod):
                if a % p:
                    v = chi.value(a)
                    assert chi.order() % v.m == 0
                    assert v ** chi.order() == 1


# The rewritten sums against the former per-term summation: each term a
# Cyclo product chi.value(a) * psi.value(x), added one term at a time.

PRIME_POWERS_TO_27 = [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1),
                      (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
                      (23, 1)]


def _unit_sum_reference(chi, c, level):
    psi = gauss.AddChar(chi.p)
    acc = Cyclo.rational(0)
    for g in range(1, chi.p ** level):
        if g % chi.p:
            acc = acc + chi.value(g) * psi.value(c * g)
    return acc


def _twisted_closed_reference(chi, c, level, tau):
    p, t = chi.p, chi.conductor_exponent()
    if c == 0 or vp(c, p) != -t:
        return Cyclo.rational(0)
    a = c * Fraction(p) ** t
    return Fraction(p) ** (level - t) * chi.value(a).inverse() * tau


def _fields(x):
    return x.m, x.num, x.den


@pytest.mark.parametrize("p, s", PRIME_POWERS_TO_27)
def test_sums_match_the_per_term_summation(p, s):
    for chi in gauss.all_characters(p, s):
        t = chi.conductor_exponent()
        if t == 0:
            continue
        tau = _unit_sum_reference(chi, Fraction(1, p ** t), t)
        assert _fields(gauss.classical_gauss_sum(chi)) == _fields(tau)
        oracle = (chi.chi_p ** (-t) * _unit_sum_reference(
            chi, Fraction(1, p ** t), t + 1) * Fraction(1, p))
        assert _fields(gauss.gauss_sum_oracle(chi)) == _fields(oracle)
        # the twisted-sum-exhaustive grid of c, and c = 0
        for level in range(t, s + 1):
            grid = [Fraction(unit) * Fraction(p) ** v
                    for v in range(-level, 2) for unit in (1, 1 + p)]
            for c in grid + [Fraction(0)]:
                want = _unit_sum_reference(chi, c, level)
                assert (_fields(gauss.twisted_sum(chi, c, level))
                        == _fields(want)), (chi.exps, c, level)
                closed = _twisted_closed_reference(chi, c, level, tau)
                assert (_fields(gauss.twisted_sum_closed(chi, c, level))
                        == _fields(closed)), (chi.exps, c, level)


def test_power_takes_a_p_unit_fraction():
    for chi in gauss.all_characters(5, 2):
        n = chi.order()
        for a in (1, 2, 7, 24):
            for b in (3, 4, 26):
                x = Fraction(a, b)
                k = chi.power(x)
                assert k == chi.power(a * pow(b, -1, 25))
                assert k == (chi.power(a) - chi.power(b)) % n
                assert chi.value(x) == Cyclo.zeta(n, chi.power(a)) \
                    * Cyclo.zeta(n, chi.power(b)).inverse()
        for bad in (0, 5, 10, Fraction(5, 3), Fraction(2, 5), Fraction(1, 25)):
            with pytest.raises(ValueError, match="not a p-unit"):
                chi.power(bad)
            with pytest.raises(ValueError, match="not a p-unit"):
                chi.value(bad)


def test_discrete_log_table_is_built_once_per_modulus():
    chars = gauss.all_characters(7, 2)
    derived = [chars[1].inverse(), chars[1] * chars[2]]
    gens = gauss._dlog_table(7, 2)[0]
    assert all(chi.gens is gens for chi in chars + derived)


def test_characters_share_one_exponent_table(monkeypatch):
    """Building the 1458 characters mod 3^7 forms no exponent table and
    leaves no attribute of phi(3^7) entries; sums of two characters with
    the same exponents and different chi_p read one tuple."""
    before = gauss._exponents.cache_info().currsize
    chars = gauss.all_characters(3, 7)
    assert gauss._exponents.cache_info().currsize == before
    assert len(chars) == 1458
    for chi in chars:
        sizes = [len(v) for v in vars(chi).values() if hasattr(v, "__len__")]
        assert max(sizes) <= len(chi.gens), vars(chi)
    read, real = [], gauss._exponents

    def recording(*key):
        read.append(real(*key))
        return read[-1]

    monkeypatch.setattr(gauss, "_exponents", recording)
    plain = gauss.MultChar(7, 2, (5,))
    twisted = gauss.MultChar(7, 2, (5,), Cyclo.zeta(4))
    for chi in (plain, twisted):
        gauss.classical_gauss_sum(chi)
        chi.power(3)
    assert len(read) == 4 and all(table is read[0] for table in read)
    assert len(read[0]) == 49
