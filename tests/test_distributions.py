import json
import os
import random
from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeforge import distributions as dist
from heckeforge import gauss, modules
from heckeforge.exact import Cyclo, scalar_json, vp


def make_symbol(rng, p, M, kappa, d=1, tower=None):
    tower = tower or dist.QTower(p)
    base = {x: tuple(F(rng.randrange(-9, 10)) for _ in range(d))
            for x in tower.elements(M)}
    return dist.EigenSymbol(tower, kappa, M, base, list(range(d)))


def test_build_mu_constant_base():
    tower = dist.QTower(3)
    base = {x: (F(6),) for x in tower.elements(3)}
    sym = dist.EigenSymbol(tower, F(3), 3, base, [0])
    mu = dist.build_mu(sym, 1)
    ok, _ = dist.check_distribution_relation(mu)
    assert ok
    # constant data: the push-down multiplies by (p / kappa) each level
    assert mu.values[3][1] == (F(6) / F(27),)
    assert mu.values[2][1] == (F(6) * 3 / F(27),)


def test_build_mu_dirac_telescopes():
    tower = dist.QTower(3)
    x0 = 4
    base = {x: (F(1) if x == x0 else F(0),) for x in tower.elements(3)}
    sym = dist.EigenSymbol(tower, F(2), 3, base, [0])
    mu = dist.build_mu(sym, 1)
    ok, _ = dist.check_distribution_relation(mu)
    assert ok
    assert mu.values[1][x0 % 3] == (F(1, 8),)


def _build_mu_reference(sym, m0):
    """The literal push-down: B_M is the base data, B_m = kappa^{-1} times
    the sum of B_{m+1} over the lifts, and mu = kappa^{-m} B_m."""
    tower, kinv = sym.tower, 1 / sym.kappa
    data, values = dict(sym.base_data), {}
    for m in range(sym.base_level, m0 - 1, -1):
        if m < sym.base_level:
            data = {x: tuple(kinv * sum(col) for col in zip(
                        *(data[y] for y in tower.lifts(m)[x])))
                    for x in tower.elements(m)}
        values[m] = {x: tuple(kinv ** m * v for v in vec)
                     for x, vec in data.items()}
    return values


def _exact_fields(v):
    return ((Cyclo, v.m, v.num, v.den) if isinstance(v, Cyclo)
            else (type(v), v))


@pytest.mark.parametrize("kappa", [F(-3, 2), Cyclo.zeta(3) + 2])
@pytest.mark.parametrize("tower, depth", [(dist.QTower(2), 4),
                                          (dist.QTower(3), 3),
                                          (dist.AbstractTower(3, 2), 3)])
def test_build_mu_is_the_literal_push_down(kappa, tower, depth):
    """One kappa^{-M} scale of the plain sums gives, field for field, the
    values of scaling by kappa^{-1} at every level and by kappa^{-m}."""
    sym = make_symbol(random.Random(depth), tower.p, depth, kappa, d=2,
                      tower=tower)
    for m0 in (1, 2):
        got = dist.build_mu(sym, m0).values
        want = _build_mu_reference(sym, m0)
        assert list(got) == sorted(want)
        for m, level in want.items():
            assert {x: [_exact_fields(v) for v in vec]
                    for x, vec in got[m].items()} == {
                x: [_exact_fields(v) for v in vec]
                for x, vec in level.items()}, m


def test_relation_random_grid():
    rng = random.Random(1)
    for p, M in ((2, 4), (3, 4), (5, 3)):
        mu = dist.build_mu(make_symbol(rng, p, M, F(2), d=2), 1)
        ok, witness = dist.check_distribution_relation(mu)
        assert ok, (p, M, witness)


def test_relation_detects_corruption():
    rng = random.Random(2)
    mu = dist.build_mu(make_symbol(rng, 3, 3, F(2)), 1)
    vec = list(mu.values[2][4])
    vec[0] += 1
    mu.values[2][4] = tuple(vec)
    ok, witness = dist.check_distribution_relation(mu)
    assert not ok
    assert witness in ((4, 1), (1, 1))  # the broken coset surfaces below


def test_zero_eigenvalue_rejected():
    tower = dist.QTower(3)
    base = {x: (F(1),) for x in tower.elements(2)}
    with pytest.raises(ValueError):
        dist.EigenSymbol(tower, F(0), 2, base, [0])


def test_boundedness():
    rng = random.Random(3)
    tower = dist.QTower(3)
    base = {x: (F(rng.randrange(12)),) for x in tower.elements(3)}
    unit_sym = dist.EigenSymbol(tower, F(2), 3, base, [0])
    ok, _ = dist.check_boundedness(dist.build_mu(unit_sym, 1), 3)
    assert ok
    # slope-one eigenvalue with non-divisible data fails at depth
    base2 = {x: (F(1),) for x in tower.elements(3)}
    slope_sym = dist.EigenSymbol(tower, F(3), 3, base2, [0])
    bad, witness = dist.check_boundedness(dist.build_mu(slope_sym, 1), 3)
    assert not bad and witness is not None
    zero_sym = dist.EigenSymbol(
        tower, F(3), 3, {x: (F(0),) for x in tower.elements(3)}, [0])
    ok0, _ = dist.check_boundedness(dist.build_mu(zero_sym, 1), 3)
    assert ok0
    # a nonzero floor shifts the test
    scaled = {x: (F(9),) for x in tower.elements(3)}
    sym9 = dist.EigenSymbol(tower, F(2), 3, scaled, [0])
    okf, _ = dist.check_boundedness(dist.build_mu(sym9, 1), 3, floor=2)
    assert okf


def test_integration_total_mass_and_level_stability():
    rng = random.Random(4)
    tower = dist.QTower(5)
    mu = dist.build_mu(make_symbol(rng, 5, 3, F(3)), 1)
    trivial = next(c for c in tower.characters(1) if c.is_trivial())
    total = dist.integrate_character(mu, trivial)
    mass = sum(mu.values[1][x][0] for x in tower.elements(1))
    assert total == (mass,)


def test_integration_brute_force_oracle():
    rng = random.Random(5)
    tower = dist.QTower(5)
    mu = dist.build_mu(make_symbol(rng, 5, 3, F(2)), 1)
    for chi in tower.characters(2):
        got = dist.integrate_character(mu, chi)
        # independent re-summation one level deeper than the conductor
        brute = None
        for x in tower.elements(3):
            term = tuple(chi.value(x % 25) * v for v in mu.values[3][x])
            brute = term if brute is None else tuple(
                a + b for a, b in zip(brute, term))
        assert all(a == b for a, b in zip(got, brute))


def test_integration_conductor_too_deep():
    rng = random.Random(6)
    tower = dist.QTower(3)
    mu = dist.build_mu(make_symbol(rng, 3, 2, F(2)), 1)
    deep_chi = next(c for c in tower.characters(3)
                    if c.conductor_exponent() == 3)
    with pytest.raises(ValueError):
        dist.integrate_character(mu, deep_chi)


def test_dirac_integration():
    tower = dist.QTower(3)
    x0 = 7
    base = {x: (F(1) if x == x0 else F(0),) for x in tower.elements(2)}
    mu = dist.build_mu(dist.EigenSymbol(tower, F(1), 2, base, [0]), 1)
    for chi in tower.characters(2):
        assert dist.integrate_character(mu, chi)[0] == chi.value(x0)


def _char_power_reference(tower, chi, x):
    """The exponent of chi(x) by the per-element rule: chi.power(u) on the
    rational part, plus j c N/h for the class-group part."""
    if isinstance(tower, dist.QTower):
        return chi.power(x)
    (j, fin), (c, u) = chi, x
    big = tower.char_order(chi)
    return (j * c * (big // tower.h)
            + fin.power(u) * (big // fin.order())) % big


@pytest.mark.parametrize("tower, depth", [
    (dist.QTower(2), 4), (dist.QTower(3), 3), (dist.QTower(5), 2),
    (dist.AbstractTower(3, 2), 2), (dist.AbstractTower(3, 4), 2)])
def test_char_powers_are_the_per_element_exponents(tower, depth):
    """At every level m from the character's own level to the depth, the
    table lists, in elements(m) order, the reference exponent k < N, and
    zeta_N^k is the character's Cyclo value."""
    for s in range(1, depth + 1):
        for chi in tower.characters(s):
            big = tower.char_order(chi)
            for m in range(s, depth + 1):
                ks = tower.char_powers(chi, m)
                elements = tower.elements(m)
                assert list(ks) == [_char_power_reference(tower, chi, x)
                              for x in elements]
                assert all(0 <= k < big for k in ks)
                for x, k in zip(elements, ks):
                    assert Cyclo.zeta(big, k) == _char_value_reference(
                        tower, chi, x)


def test_fourier_inversion():
    rng = random.Random(7)
    for p in (2, 3, 5):
        mu = dist.build_mu(make_symbol(rng, p, 2, F(2)), 1)
        ok, x0 = dist.fourier_inversion_check(mu, 2)
        assert ok, (p, x0)


class _OffByOneTower(dist.QTower):
    """A rational tower whose exponent table is one too large at x = 2."""

    def char_powers(self, chi, m):
        ks = super().char_powers(chi, m)
        return [k + 1 if x == 2 else k
                for x, k in zip(self.elements(m), ks)]


def test_fourier_inversion_fails_on_wrong_character_exponents():
    """Fourier inversion holds for every function on the group, so the
    check tests the character and exponent arithmetic: one wrong exponent
    at one coset makes it fail on data it passes with the right ones."""
    mu = dist.build_mu(make_symbol(random.Random(7), 3, 2, F(2)), 1)
    assert dist.fourier_inversion_check(mu, 2) == (True, None)
    broken = dist.Distribution(_OffByOneTower(3), mu.nus, mu.values)
    assert dist.fourier_inversion_check(broken, 2)[0] is False


def test_abstract_tower():
    rng = random.Random(8)
    tower = dist.AbstractTower(3, 4)
    assert len(tower.elements(2)) == 4 * 6
    base = {x: (F(rng.randrange(-5, 6)),) for x in tower.elements(3)}
    mu = dist.build_mu(dist.EigenSymbol(tower, F(2), 3, base, [0]), 1)
    ok, _ = dist.check_distribution_relation(mu)
    assert ok
    ok2, _ = dist.fourier_inversion_check(mu, 2)
    assert ok2


def _vee_reference(tower, m, x, n):
    """(-1)^(n-1) x^(-1), the sign in the p-component, by brute force."""
    pm, sign = tower.p ** m, (-1) ** (n - 1)
    if isinstance(tower, dist.QTower):
        return next(y for y in range(pm) if x * y % pm == sign % pm)
    c, u = x
    return ((tower.h - c) % tower.h,
            next(v for v in range(pm) if u * v % pm == sign % pm))


@pytest.mark.parametrize("tower", [dist.QTower(3), dist.QTower(5),
                                   dist.AbstractTower(3, 4)])
def test_vee_is_the_involution_of_the_functional_equation(tower):
    for m in (1, 2, 3):
        elements = tower.elements(m)
        for n in (2, 3):
            image = [tower.vee(m, x, n) for x in elements]
            assert image == [_vee_reference(tower, m, x, n)
                             for x in elements]
            assert [tower.vee(m, y, n) for y in image] == list(elements)


# Every character integral of AbstractTower(3, 2) at depth 3 for one seeded
# symbol, pinned: no command prints the abstract tower's values.

ABSTRACT_INTEGRALS = os.path.join(os.path.dirname(__file__), "data",
                                  "abstract-tower-integrals.jsonl")


def _abstract_tower_integrals():
    """One JSON line per character (j, chi_fin) of C_3 = Z/2 x (Z/27)^*."""
    tower = dist.AbstractTower(3, 2)
    sym = make_symbol(random.Random(23), 3, 3, F(-3, 2), d=2, tower=tower)
    mu = dist.build_mu(sym, 1)
    return [json.dumps({"j": j, "exps": list(fin.exps), "integral": [
                scalar_json(v) for v in dist.integrate_character(mu, (j, fin))]})
            for j, fin in tower.characters(3)]


def test_abstract_tower_integrals_match_the_golden():
    with open(ABSTRACT_INTEGRALS) as fh:
        assert _abstract_tower_integrals() == fh.read().splitlines()


def test_kappa_hat_examples():
    val, info = dist.kappa_hat_value(3, 2, 1, 1, 0, F(2))
    assert val == 8 and info["nfchi_exponent"] == 4
    # n=2: first exponent term vanishes
    val2, info2 = dist.kappa_hat_value(2, 3, 2, 3, 1, F(1))
    assert info2["nfchi_exponent"] == 2 and val2 == 81
    val3, _ = dist.kappa_hat_value(3, 2, 1, 0, 0, F(1))
    assert val3 == 2  # N(f_chi)^{n(n-1)(n-2)/6} with unit eigenvalue


def test_involution_examples():
    t5 = dist.QTower(5)
    assert t5.vee(1, 2, 2) == 2  # -2^{-1} = 2 mod 5
    t3 = dist.QTower(3)
    for n in (2, 3, 4):
        for x in t3.elements(3):
            assert t3.vee(3, t3.vee(3, x, n), n) == x
    # odd n: plain inverse
    assert t3.vee(2, 4, 3) == pow(4, -1, 9)


def test_value_vee_reindexer():
    nus, fn = dist.value_vee_reindexer([-1, 0, 2])
    assert nus == (-2, 0, 1)
    assert fn((F(10), F(20), F(30))) == (F(30), F(20), F(10))


def test_functional_equation_synthetic():
    rng = random.Random(9)
    for p, n in ((3, 2), (3, 3), (5, 2), (5, 3)):
        q = F(p)
        lam = [F(v) for v in rng.sample([1, 2, 3, 5, 7], n)]
        lamp = [F(v) for v in rng.sample([1, 2, 3, 5, 7], n - 1)]
        kappa = (modules.kappa_of(lam[: n - 1], q)
                 * modules.kappa_of(lamp, q))
        kd, eta_n, eta_p = dist.dual_kappa_pair(n, q, lam, lamp)
        tower = dist.QTower(p)
        nus = [-1, 0, 1]
        base = {x: tuple(F(rng.randrange(-6, 7)) for _ in nus)
                for x in tower.elements(3)}
        sym = dist.EigenSymbol(tower, kappa, 3, base, nus)
        mu = dist.build_mu(sym, 1)
        mu.eigen = {"kappa": kappa, "eta_n": eta_n, "eta_prime": eta_p}
        mu_dual = dist.build_mu(dist.dual_symbol(sym, n, kd), 1)
        mu_dual.eigen = {"kappa": kd}
        out = dist.check_functional_equation(mu, mu_dual, n)
        assert out["ok"] and out["kappa_relation_ok"], (p, n, out)


def test_functional_equation_detects_corruption():
    rng = random.Random(10)
    p, n = 3, 2
    q = F(p)
    lam, lamp = [F(1), F(2)], [F(3)]
    kappa = modules.kappa_of(lam[:1], q) * modules.kappa_of(lamp, q)
    kd, eta_n, eta_p = dist.dual_kappa_pair(n, q, lam, lamp)
    sym = make_symbol(rng, p, 2, kappa)
    mu = dist.build_mu(sym, 1)
    mu.eigen = {"kappa": kappa, "eta_n": eta_n, "eta_prime": eta_p}
    mu_dual = dist.build_mu(dist.dual_symbol(sym, n, kd), 1)
    mu_dual.eigen = {"kappa": kd * 2}
    out = dist.check_functional_equation(mu, mu_dual, n)
    assert out["ok"] and out["kappa_relation_ok"] is False
    x0 = mu_dual.tower.elements(1)[0]
    vec = list(mu_dual.values[1][x0])
    vec[0] += 1
    mu_dual.values[1][x0] = tuple(vec)
    out2 = dist.check_functional_equation(mu, mu_dual, n)
    assert not out2["ok"] and out2["witness"] is not None


def test_functional_equation_abstract_tower():
    # the involution and dual push-down go through the tower protocol, so
    # the class-group generalization satisfies the same bookkeeping
    rng = random.Random(21)
    p, n, h = 3, 2, 2
    q = F(p)
    lam, lamp = [F(2), F(5)], [F(3)]
    kappa = modules.kappa_of(lam[:1], q) * modules.kappa_of(lamp, q)
    kd, eta_n, eta_p = dist.dual_kappa_pair(n, q, lam, lamp)
    tower = dist.AbstractTower(p, h)
    nus = [-1, 1]
    base = {x: tuple(F(rng.randrange(-6, 7)) for _ in nus)
            for x in tower.elements(2)}
    sym = dist.EigenSymbol(tower, kappa, 2, base, nus)
    mu = dist.build_mu(sym, 1)
    mu.eigen = {"kappa": kappa, "eta_n": eta_n, "eta_prime": eta_p}
    mu_dual = dist.build_mu(dist.dual_symbol(sym, n, kd), 1)
    mu_dual.eigen = {"kappa": kd}
    out = dist.check_functional_equation(mu, mu_dual, n)
    assert out["ok"] and out["kappa_relation_ok"]


def test_functional_equation_shape_mismatches():
    rng = random.Random(22)
    mu = dist.build_mu(make_symbol(rng, 3, 2, F(2), d=2), 1)
    # component index sets must be vee-compatible
    other = dist.build_mu(make_symbol(rng, 3, 2, F(2), d=1), 1)
    out = dist.check_functional_equation(mu, other, 2)
    assert not out["ok"] and "component" in out["witness"]
    # level ranges must agree
    shallow = dist.build_mu(make_symbol(rng, 3, 2, F(2), d=2), 2)
    dual_nus, _ = dist.value_vee_reindexer(mu.nus)
    shallow.nus = dual_nus
    out2 = dist.check_functional_equation(mu, shallow, 2)
    assert not out2["ok"] and "level" in out2["witness"]


def test_inversekappa_identity():
    rng = random.Random(11)
    for n in (2, 3):
        for _ in range(20):
            lam = [F(rng.randrange(1, 12)) for _ in range(n)]
            lamp = [F(rng.randrange(1, 12)) for _ in range(n - 1)]
            assert dist.verify_inversekappa(n, 5, lam, lamp)


def test_serialization_schema():
    rng = random.Random(12)
    mu = dist.build_mu(make_symbol(rng, 3, 2, F(2), d=2), 1)
    blob = mu.to_json()
    assert blob["p"] == 3
    assert [lvl["m"] for lvl in blob["levels"]] == [1, 2]
    first = blob["levels"][0]["cosets"][0]
    assert set(first) == {"x", "value"}
    assert len(first["value"]) == 2


def test_json_round_trip_with_cyclotomic_values():
    rng = random.Random(4)
    kappa = Cyclo.zeta(3) + 2
    sym = make_symbol(rng, 5, 3, kappa, d=2)
    mu = dist.build_mu(sym, 1)
    assert any(isinstance(v, Cyclo) for vec in mu.values[1].values()
               for v in vec)
    back = dist.Distribution.from_json(mu.to_json())
    assert back.values == mu.values and back.nus == mu.nus
    assert back.to_json() == mu.to_json()
    assert dist.check_distribution_relation(back) == (True, None)


@pytest.mark.parametrize("p, deepest", [(2, 11), (3, 7), (7, 4), (2477, 1)])
def test_tower_levels_stop_at_the_modulus_bound(p, deepest):
    """One level past the deepest is refused by p^m, and by its value
    where that was formed: 2^12 is not, as 12 is 2500's bit length."""
    tower = dist.QTower(p)
    assert len(tower.elements(deepest)) == (p - 1) * p ** (deepest - 1)
    shown = {2: "2^12", 3: "3^8 = 6561", 7: "7^5 = 16807",
             2477: "2477^2 = 6135529"}[p]
    with pytest.raises(ValueError) as refused:
        tower.elements(deepest + 1)
    assert str(refused.value) == (f"level {deepest + 1}: p^m = {shown} "
                                  "exceeds MAX_MODULUS = 2500")
    with pytest.raises(ValueError, match="MAX_MODULUS"):
        tower.elements(10 ** 9)


# The per-level tables are built once, shared by every equal tower and
# equal to a fresh enumeration.  Elements and lifts are checked at every
# level up to the MAX_MODULUS bound; characters and exponent tables
# up to a smaller depth, since the characters of (Z/3^7)^* alone hold
# 1458 unit-to-exponent tables of 1458 entries each.

TABLE_TOWERS = pytest.mark.parametrize("key, bound, depth", [
    (("Q", 2), 11, 8), (("Q", 3), 7, 5), (("Q", 5), 4, 3),
    (("A", 3, 2), 7, 4), (("A", 3, 4), 7, 3)],
    ids=["QTower(2)", "QTower(3)", "QTower(5)", "AbstractTower(3,2)",
         "AbstractTower(3,4)"])


def _tower(key):
    return dist.QTower(key[1]) if key[0] == "Q" else dist.AbstractTower(*key[1:])


def _units_reference(p, m):
    return [a for a in range(1, p ** m) if a % p]


def _elements_reference(tower, m):
    units = _units_reference(tower.p, m)
    if isinstance(tower, dist.QTower):
        return units
    return [(c, u) for c in range(tower.h) for u in units]


def _lifts_reference(tower, m, x):
    step = tower.p ** m
    if isinstance(tower, dist.QTower):
        return tuple(x + k * step for k in range(tower.p))
    c, u = x
    return tuple((c, u + k * step) for k in range(tower.p))


def _same_character(tower, chi):
    """An equal character built afresh: the tables are keyed by value."""
    if isinstance(tower, dist.QTower):
        return gauss.MultChar(chi.p, chi.s, chi.exps)
    j, fin = chi
    return j, gauss.MultChar(fin.p, fin.s, fin.exps)


def _character_key(chi):
    if isinstance(chi, tuple):
        j, fin = chi
        return j, fin.p, fin.s, fin.exps
    return chi.p, chi.s, chi.exps


@TABLE_TOWERS
def test_level_tables_are_built_once_and_shared(key, bound, depth):
    tower, fresh = _tower(key), _tower(key)
    for m in range(1, bound + 1):
        elements = tower.elements(m)
        assert isinstance(elements, tuple)
        assert elements is tower.elements(m) is fresh.elements(m)
        assert list(elements) == _elements_reference(tower, m)
        if m < bound:
            lifts = tower.lifts(m)
            assert isinstance(lifts, MappingProxyType)
            assert lifts is tower.lifts(m) is fresh.lifts(m)
            assert dict(lifts) == {x: _lifts_reference(tower, m, x)
                                   for x in elements}
            with pytest.raises(TypeError):
                lifts[elements[0]] = ()
    with pytest.raises(ValueError, match="exceeds MAX_MODULUS"):
        tower.elements(bound + 1)
    # the lifts of the deepest level would lie past the bound
    with pytest.raises(ValueError, match="exceeds MAX_MODULUS"):
        tower.lifts(bound)


@TABLE_TOWERS
def test_character_tables_are_built_once_and_shared(key, bound, depth):
    tower, fresh = _tower(key), _tower(key)
    h = getattr(tower, "h", None)
    for m in range(1, depth + 1):
        chars = tower.characters(m)
        assert isinstance(chars, tuple)
        assert chars is tower.characters(m) is fresh.characters(m)
        want = [_character_key(c) for c in gauss.all_characters(tower.p, m)]
        if h is not None:
            want = [(j, *c) for j in range(h) for c in want]
        assert [_character_key(c) for c in chars] == want
    for s in range(1, depth + 1):
        for chi in tower.characters(s):
            for m in range(s, depth + 1):
                ks = tower.char_powers(chi, m)
                assert isinstance(ks, tuple)
                assert ks is tower.char_powers(chi, m)
                assert ks is fresh.char_powers(_same_character(tower, chi), m)
                assert list(ks) == [_char_power_reference(tower, chi, x)
                                    for x in tower.elements(m)]


@pytest.mark.parametrize("tower", [dist.QTower(3), dist.AbstractTower(3, 2)])
def test_no_value_is_cached_on_a_distribution(tower):
    """The checks read mu.values afresh: a value changed in place after an
    integral changes the next integral, and breaks the relation."""
    mu = dist.build_mu(make_symbol(random.Random(11), 3, 3, F(2), d=2,
                                   tower=tower), 1)
    chi = next(c for c in tower.characters(3)
               if tower.char_conductor_level(c) == 3)
    before = dist.integrate_character(mu, chi)
    assert dist.check_distribution_relation(mu) == (True, None)
    x = tower.elements(3)[1]
    vec = list(mu.values[3][x])
    vec[1] += 1
    mu.values[3][x] = tuple(vec)
    after = dist.integrate_character(mu, chi)
    assert after[0] == before[0] and after[1] != before[1]
    assert dist.check_distribution_relation(mu)[0] is False


class _ForeignCharacters(dist.QTower):
    """A rational tower at p = 3 whose characters are those mod 5."""

    def characters(self, m):
        return tuple(gauss.all_characters(5, m))


def test_towers_are_values_that_share_their_tables():
    """Equal towers built afresh are equal, hash equal and return the same
    table objects; a subclass's tower is unequal, and its tables neither
    read nor fill the entries of the QTower it equals in fields."""
    for make in (lambda: dist.QTower(3), lambda: dist.AbstractTower(3, 2)):
        tower, fresh = make(), make()
        assert tower is not fresh
        assert tower == fresh and hash(tower) == hash(fresh)
        for table in ("elements", "lifts", "characters"):
            assert getattr(tower, table)(2) is getattr(fresh, table)(2)
        chi = tower.characters(2)[-1]
        assert tower.char_powers(chi, 2) is fresh.char_powers(chi, 2)
    assert dist.AbstractTower(3, 2) != dist.AbstractTower(3, 4)
    assert dist.AbstractTower(3, 2) != dist.QTower(3) != dist.QTower(5)
    rational, foreign = dist.QTower(3), _ForeignCharacters(3)
    assert foreign != rational and rational != foreign
    elements = dist.QTower.elements
    rational.elements(2)
    misses = elements.cache_info().misses
    ours = foreign.elements(2)
    assert elements.cache_info().misses == misses + 1
    assert ours == rational.elements(2) and ours is not rational.elements(2)
    assert foreign.elements(2) is ours
    assert foreign.characters(1) != rational.characters(1)


@pytest.mark.parametrize("q, order", [(5, 4), (5, 2), (7, 6), (7, 3)])
def test_a_character_of_another_prime_is_refused(q, order):
    chi = next(c for c in gauss.all_characters(q, 1) if c.order() == order)
    message = (f"a character mod {q}^1 on the tower of p = 3: the primes "
               f"{q} and 3 differ")
    rational = dist.build_mu(make_symbol(random.Random(12), 3, 2, F(2)), 1)
    abstract = dist.build_mu(make_symbol(random.Random(12), 3, 2, F(2),
                                         tower=dist.AbstractTower(3, 2)), 1)
    refusals = [(rational.tower.char_powers, chi, 1),
                (dist.integrate_character, rational, chi),
                (abstract.tower.char_powers, (1, chi), 1),
                (dist.integrate_character, abstract, (1, chi)),
                (dist.integrate_character, abstract, (0, chi))]
    for fn, *args in refusals:
        with pytest.raises(ValueError) as refused:
            fn(*args)
        assert str(refused.value) == message, (fn, args)
    foreign = dist.Distribution(_ForeignCharacters(3), rational.nus,
                                rational.values)
    with pytest.raises(ValueError) as refused:
        dist.fourier_inversion_check(foreign, 1)
    assert str(refused.value) == ("a character mod 5^1 on the tower of p = 3: "
                                  "the primes 5 and 3 differ")


@pytest.mark.parametrize("h", [0, -1, -7, 1.0, 2.5, True, "2", None])
def test_abstract_tower_refuses_a_class_group_order_below_1(h):
    """An h < 1 has no elements, so every check would pass vacuously."""
    with pytest.raises(ValueError) as refused:
        dist.AbstractTower(3, h)
    assert str(refused.value) == (f"h = {h!r}: the class-group order must "
                                  "be an int >= 1")


def test_kappa_hat_rejects_a_zero_eigenvalue():
    for zero in (0, F(0), Cyclo.rational(0)):
        with pytest.raises(ValueError, match="kappa kappa' = 0"):
            dist.kappa_hat_value(3, 2, 1, 1, 0, zero)
    val, _ = dist.kappa_hat_value(3, 2, 1, 1, 0, Cyclo.zeta(4))
    assert val == 16 * Cyclo.zeta(4, 3)


# Character integrals and Fourier inversion against a per-coset reference:
# chi(x) as a Cyclo, one Cyclo product chi(x) * mu(x) per coset, then Cyclo
# sums; chi(x0)^{-1} by Cyclo.inverse.

def _char_value_reference(tower, chi, x):
    if isinstance(tower, dist.QTower):
        return chi.value(x)
    j, fin = chi
    c, u = x
    if tower.h == 1:
        return fin.value(u)
    return Cyclo.zeta(tower.h, j * c) * fin.value(u)


def _weighted_sum_reference(pairs):
    acc = None
    for c, vec in pairs:
        term = tuple(c * v for v in vec)
        acc = term if acc is None else tuple(a + b for a, b in zip(acc, term))
    return acc


def _integrate_reference(mu, chi, m):
    return _weighted_sum_reference(
        (_char_value_reference(mu.tower, chi, x), mu.values[m][x])
        for x in mu.tower.elements(m))


def _fourier_reference(mu, m):
    tower = mu.tower
    chars = tower.characters(m)
    integrals = [_integrate_reference(mu, chi, m) for chi in chars]
    size = len(tower.elements(m))
    for x0 in tower.elements(m):
        acc = _weighted_sum_reference(
            (_char_value_reference(tower, chi, x0).inverse(), vec)
            for chi, vec in zip(chars, integrals))
        if any(a != size * b for a, b in zip(acc, mu.values[m][x0])):
            return False, x0
    return True, None


def _fields(vec):
    """Type, conductor, numerators and den of each entry."""
    return [_exact_fields(v) for v in vec]


# (tower, depth): rational towers at p = 2, 3, 5, 7 and abstract ones with
# a class-group part of order h = 1, 2, 3
REFERENCE_TOWERS = [(dist.QTower(2), 3), (dist.QTower(3), 2),
                    (dist.QTower(5), 2), (dist.QTower(7), 1),
                    (dist.AbstractTower(3, 1), 2), (dist.AbstractTower(2, 2), 3),
                    (dist.AbstractTower(3, 3), 2)]

SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _values(m):
    """Fractions, or Cyclos at conductor m."""
    if m == 1:
        return SMALL
    return st.builds(lambda k, a, b: Cyclo.zeta(m, k) * a + b,
                     st.integers(0, m - 1), SMALL, SMALL)


KAPPAS = [F(2), F(1, 3), Cyclo.zeta(4) + 1]


@st.composite
def symbols(draw):
    """Base data of Fractions or of Cyclos at one conductor 4, 5, 7 or 9:
    none divides the order of every character of these towers, so the
    sums are lifted past the character's own conductor."""
    tower, depth = draw(st.sampled_from(REFERENCE_TOWERS))
    values = _values(draw(st.sampled_from([1, 4, 5, 7, 9])))
    base = {x: (draw(values), draw(values)) for x in tower.elements(depth)}
    kappa = draw(st.sampled_from(KAPPAS))
    return dist.EigenSymbol(tower, kappa, depth, base, [0, 1])


def distributions():
    return symbols().map(lambda sym: dist.build_mu(sym, 1))


REFERENCE = settings(max_examples=25, deadline=None)


@REFERENCE
@given(distributions())
def test_integrals_match_the_per_coset_path(mu):
    tower = mu.tower
    for m in mu.levels:
        for chi in tower.characters(m):
            want = _integrate_reference(mu, chi, m)
            assert _fields(dist._integrate_at(mu, chi, m)) == _fields(want)
            got = dist.integrate_character(mu, chi)
            lvl = max(tower.char_conductor_level(chi), mu.levels[0])
            assert _fields(got) == _fields(_integrate_reference(mu, chi, lvl))


@REFERENCE
@given(distributions())
def test_fourier_inversion_matches_the_per_coset_path(mu):
    m = mu.levels[-1]
    assert (dist.fourier_inversion_check(mu, m) == _fourier_reference(mu, m)
            == (True, None))


@REFERENCE
@given(symbols())
def test_build_mu_on_drawn_symbols_is_the_literal_push_down(sym):
    for m0 in (1, sym.base_level):
        got = dist.build_mu(sym, m0).values
        want = _build_mu_reference(sym, m0)
        assert list(got) == sorted(want)
        for m, level in want.items():
            assert {x: _fields(vec) for x, vec in got[m].items()} == {
                x: _fields(vec) for x, vec in level.items()}, m


@REFERENCE
@given(symbols(), st.sampled_from([2, 3]), st.sampled_from(KAPPAS))
def test_dual_symbol_on_drawn_symbols_is_the_literal_scale(sym, n, kd):
    """base'(x) = (kd/k)^M vee(base(x^vee)), each value one product."""
    tower, big_m = sym.tower, sym.base_level
    dual = dist.dual_symbol(sym, n, kd)
    nus, reindex = dist.value_vee_reindexer(sym.nus)
    scale = (1 / sym.kappa) ** big_m * kd ** big_m
    want = {x: _fields(scale * v for v in reindex(
                sym.base_data[tower.vee(big_m, x, n)]))
            for x in tower.elements(big_m)}
    assert (dual.nus, dual.kappa, dual.base_level) == (nus, kd, big_m)
    assert {x: _fields(vec) for x, vec in dual.base_data.items()} == want


def test_build_mu_of_fractions_adds_and_multiplies_no_fractions(monkeypatch):
    """An all-Fraction symbol is summed and scaled on int numerators: each
    value is formed once, as a Fraction, with no Fraction product or sum."""
    sym = make_symbol(random.Random(4), 3, 3, F(-2, 3), d=2)
    want = _build_mu_reference(sym, 1)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counting(a, b, _op=getattr(F, name), _name=name):
            calls.append(_name)
            return _op(a, b)
        monkeypatch.setattr(F, name, counting)
    got = dist.build_mu(sym, 1).values
    monkeypatch.undo()
    assert not calls
    assert {m: {x: _fields(vec) for x, vec in level.items()}
            for m, level in got.items()} == {
        m: {x: _fields(vec) for x, vec in level.items()}
        for m, level in want.items()}


@pytest.mark.parametrize("make", [
    lambda t, base: dist.EigenSymbol(t, F(2), 2, base, [0, 0]),
    lambda t, base: dist.Distribution(t, [1, -1, 1], {}),
], ids=["eigen-symbol", "distribution"])
def test_a_repeated_nu_is_refused(make):
    """A repeated nu would send two components to one under nu -> -nu, and
    the functional equation would never read one of them."""
    tower = dist.QTower(3)
    base = {x: (F(x), F(7 * x + 1)) for x in tower.elements(2)}
    with pytest.raises(ValueError, match=r"field 'nus' = \[.*\] repeats a nu"):
        make(tower, base)


@pytest.mark.parametrize("nus", [["a"], [True], [1.5], [0, False]])
@pytest.mark.parametrize("make", [
    lambda t, base, nus: dist.EigenSymbol(t, F(2), 2, base, nus),
    lambda t, base, nus: dist.Distribution(t, nus, {}),
], ids=["eigen-symbol", "distribution"])
def test_a_nu_that_is_not_an_int_is_refused(make, nus):
    """nu -> -nu needs an int: a bool or a float would be reindexed, and a
    str would raise a bare TypeError in the functional equation."""
    tower = dist.QTower(3)
    base = {x: (F(x),) * len(nus) for x in tower.elements(2)}
    with pytest.raises(ValueError) as refused:
        make(tower, base, nus)
    assert str(refused.value).endswith(
        f"field 'nus' = {nus!r} must hold ints only")


# The checks on split levels against per-term references on the values
# read back as Fractions and Cyclos, as every check read them before the
# levels were stored split.

def _relation_reference(mu):
    levels = mu.levels
    for m in levels[:-1]:
        lifts, deeper = mu.tower.lifts(m), mu.values[m + 1]
        for x, vec in mu.values[m].items():
            acc = _weighted_sum_reference((1, deeper[y]) for y in lifts[x])
            if any(a != b for a, b in zip(acc, vec)):
                return False, (x, m)
    return True, None


def _integrate_character_reference(mu, chi):
    """The integral at the shallowest level above the conductor, or
    "unstable" where the next stored level gives another."""
    m = max(mu.tower.char_conductor_level(chi), mu.levels[0])
    out = _integrate_reference(mu, chi, m)
    if m + 1 in mu.values and any(
            a != b for a, b in zip(out, _integrate_reference(mu, chi, m + 1))):
        return "unstable"
    return _fields(out)


def _integrate_character_outcome(mu, chi):
    try:
        return _fields(dist.integrate_character(mu, chi))
    except ArithmeticError:
        return "unstable"


def _functional_equation_reference(mu, mu_dual, n):
    """The first (x, m) with (mu(x))^vee != mu_dual(x^vee), or None."""
    _, reindex = dist.value_vee_reindexer(mu.nus)
    for m in mu.levels:
        for x, vec in mu.values[m].items():
            got = mu_dual.values[m][mu.tower.vee(m, x, n)]
            if any(a != b for a, b in zip(reindex(vec), got)):
                return x, m
    return None


def _boundedness_reference(mu, p, floor):
    for m in mu.levels:
        for x, vec in mu.values[m].items():
            for nu, v in zip(mu.nus, vec):
                if v and vp(v, p) < floor:
                    return False, (x, m, nu, v)
    return True, None


def _assert_checks_match_the_references(mu, mu_dual, n):
    tower = mu.tower
    if len(mu.levels) > 1:
        assert (dist.check_distribution_relation(mu)
                == _relation_reference(mu))
    for m in mu.levels:
        for chi in tower.characters(m):
            assert (_fields(dist._integrate_at(mu, chi, m))
                    == _fields(_integrate_reference(mu, chi, m)))
            assert (_integrate_character_outcome(mu, chi)
                    == _integrate_character_reference(mu, chi))
        assert dist.fourier_inversion_check(mu, m) == _fourier_reference(mu, m)
    assert (dist.check_functional_equation(mu, mu_dual, n)["witness"]
            == _functional_equation_reference(mu, mu_dual, n))
    for floor in (-1, 0, 1):
        got = dist.check_boundedness(mu, tower.p, floor)
        want = _boundedness_reference(mu, tower.p, floor)
        assert got[:1] == want[:1] and str(got[1]) == str(want[1])
        if not got[0]:
            assert _fields(got[1][3:]) == _fields(want[1][3:])


# A value added to one component: 1, denominators that no drawn value or
# kappa has (7, 11), and a Cyclo that makes a rational level hold one
BUMPS = st.sampled_from([F(1), F(1, 7), F(-5, 11), Cyclo.zeta(3)])


@pytest.mark.parametrize("tower, depth", [
    (dist.QTower(2), 3), (dist.QTower(3), 2),
    (dist.AbstractTower(2, 2), 2), (dist.AbstractTower(3, 2), 2)])
@pytest.mark.parametrize("conductor", [1, 4, 9],
                         ids=["mixed-denominators", "cyclo-4", "cyclo-9"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_split_levels_match_the_per_term_references(tower, depth, conductor,
                                                    data):
    """Relation, integrals, Fourier inversion, functional equation and
    boundedness on the split levels give what the per-term references
    give on the values, before and after one value is bumped at one coset;
    the relation and the functional equation reject the bump there."""
    values = _values(conductor)
    base = {x: (data.draw(values), data.draw(values))
            for x in tower.elements(depth)}
    sym = dist.EigenSymbol(tower, data.draw(st.sampled_from(KAPPAS)), depth,
                           base, [0, 1])
    n = data.draw(st.sampled_from([2, 3]))
    mu = dist.build_mu(sym, 1)
    mu_dual = dist.build_mu(
        dist.dual_symbol(sym, n, data.draw(st.sampled_from(KAPPAS))), 1)
    _assert_checks_match_the_references(mu, mu_dual, n)
    m = data.draw(st.sampled_from(mu.levels))
    x = data.draw(st.sampled_from(tower.elements(m)))
    vec = list(mu.values[m][x])
    vec[0] += data.draw(BUMPS)
    mu.values[m][x] = tuple(vec)
    assert dist.check_distribution_relation(mu)[0] is False
    assert dist.check_functional_equation(mu, mu_dual, n)["witness"] == (x, m)
    _assert_checks_match_the_references(mu, mu_dual, n)


def test_a_write_with_a_new_denominator_is_seen_by_every_check():
    """mu.values[m][x] = vec with a denominator the level lacks brings the
    level over the lcm, and the next relation, integral, functional
    equation and boundedness check read the written value."""
    tower, n = dist.QTower(3), 2
    sym = make_symbol(random.Random(36), 3, 3, F(2), d=2)
    mu = dist.build_mu(sym, 1)
    mu_dual = dist.build_mu(dist.dual_symbol(sym, n, F(5)), 1)
    chi = next(c for c in tower.characters(2)
               if tower.char_conductor_level(c) == 2)
    before = dist._integrate_at(mu, chi, 2)
    assert dist.check_distribution_relation(mu) == (True, None)
    assert dist.check_functional_equation(mu, mu_dual, n)["ok"]
    assert dist.check_boundedness(mu, 3) == (True, None)
    x = tower.elements(2)[3]
    den = mu.numerators[2][0]
    assert den % 21
    vec = mu.values[2][x]
    written = (vec[0] + F(1, 21), vec[1])
    mu.values[2][x] = written
    assert mu.numerators[2][0] == den * 21
    assert mu.values[2][x] == written
    assert dist.check_distribution_relation(mu) == (False, (x % 3, 1))
    after = dist._integrate_at(mu, chi, 2)
    assert after[0] != before[0] and after[1] == before[1]
    assert after == _integrate_reference(mu, chi, 2)
    with pytest.raises(ArithmeticError, match="not level-stable"):
        dist.integrate_character(mu, chi)
    assert dist.check_functional_equation(mu, mu_dual, n)["witness"] == (x, 2)
    assert dist.check_boundedness(mu, 3) == (False, (x, 2, 0, written[0]))
    assert dist.fourier_inversion_check(mu, 2) == (True, None)


def test_fourier_inversion_reads_a_written_value():
    """Fourier inversion passes on any values, so it is shown a write
    through a tower with one wrong exponent, at x = 2: with no mass at 2
    only x0 = 2 fails; once a value is written there, x0 = 1 fails too."""
    rng = random.Random(36)
    tower = _OffByOneTower(3)
    level = {x: (F(rng.randrange(1, 9)), F(rng.randrange(-9, 9)))
             if x != 2 else (F(0), F(0)) for x in tower.elements(2)}
    mu = dist.Distribution(tower, [0, 1], {2: level})
    assert dist.fourier_inversion_check(mu, 2) == (False, 2)
    mu.values[2][2] = (F(1, 7), F(0))
    assert dist.fourier_inversion_check(mu, 2) == (False, 1)


@REFERENCE
@given(symbols().filter(lambda sym: isinstance(sym.tower, dist.QTower)))
def test_json_round_trip_of_split_levels(sym):
    """A distribution read back from its JSON has the same values, JSON
    and check results; with Fraction base data its values are the literal
    push-down's Fractions, field for field."""
    mu = dist.build_mu(sym, 1)
    back = dist.Distribution.from_json(mu.to_json())
    assert back.values == mu.values and back.to_json() == mu.to_json()
    if len(mu.levels) > 1:
        assert (dist.check_distribution_relation(back)
                == dist.check_distribution_relation(mu))
    want = _build_mu_reference(sym, 1)
    if all(type(v) is F for vec in sym.base_data.values() for v in vec) \
            and type(sym.kappa) is F:
        assert {m: {x: _fields(vec) for x, vec in back.values[m].items()}
                for m in back.levels} == {
            m: {x: _fields(vec) for x, vec in level.items()}
            for m, level in want.items()}
    else:
        assert {m: dict(level) for m, level in back.values.items()} == want
