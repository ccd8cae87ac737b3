"""Cases of the `distributions` suite, and the corrupted fixture."""

from fractions import Fraction

from heckeforge import distributions as dist
from heckeforge.suite import _ok, case


def _random_symbol(rng, p, M, kappa, d=2):
    tower = dist.QTower(p)
    nus = list(range(d))
    base = {}
    for x in tower.elements(M):
        base[x] = tuple(Fraction(rng.randrange(-9, 10)) for _ in nus)
    return dist.EigenSymbol(tower, kappa, M, base, nus)


@case("distributions", "relation-random")
def _case_dist_rel(rng):
    for p, M in ((2, 4), (3, 3), (5, 2)):
        sym = _random_symbol(rng, p, M, Fraction(2))
        mu = dist.build_mu(sym, 1)
        ok, witness = dist.check_distribution_relation(mu)
        if not ok:
            return _ok(False, {"p": p, "witness": witness})
    return _ok(True)


def _corrupted_relation(rng):
    """The distribution relation on a random mu with one value at level 2
    bumped by 1: (ok, witness) of `check_distribution_relation`."""
    sym = _random_symbol(rng, 3, 3, Fraction(2))
    mu = dist.build_mu(sym, 1)
    x0 = mu.tower.elements(2)[0]
    vec = list(mu.values[2][x0])
    vec[0] = vec[0] + 1
    mu.values[2][x0] = tuple(vec)
    return dist.check_distribution_relation(mu)


@case("distributions", "relation-detects-corruption")
def _case_dist_corrupt(rng):
    ok, witness = _corrupted_relation(rng)
    return _ok(not ok and witness is not None, {"witness": str(witness)})


@case("distributions", "boundedness")
def _case_dist_bounded(rng):
    # unit eigenvalue + integral data -> bounded; kappa = p fails at depth
    p = 3
    tower = dist.QTower(p)
    base = {x: (Fraction(rng.randrange(10)),) for x in tower.elements(3)}
    sym = dist.EigenSymbol(tower, Fraction(2), 3, base, [0])
    ok, _ = dist.check_boundedness(dist.build_mu(sym, 1), p)
    if not ok:
        return _ok(False, {"case": "unit"})
    base = {x: (Fraction(1 + rng.randrange(5)),) for x in tower.elements(3)}
    sym2 = dist.EigenSymbol(tower, Fraction(p), 3, base, [0])
    bad, witness = dist.check_boundedness(dist.build_mu(sym2, 1), p)
    if bad:
        return _ok(False, {"case": "slope-1 not detected"})
    zero_sym = dist.EigenSymbol(
        tower, Fraction(p), 3, {x: (Fraction(0),) for x in tower.elements(3)}, [0])
    ok0, _ = dist.check_boundedness(dist.build_mu(zero_sym, 1), p)
    return _ok(ok0, {"case": "zero"})


@case("distributions", "integration")
def _case_dist_integrate(rng):
    p = 5
    tower = dist.QTower(p)
    sym = _random_symbol(rng, p, 2, Fraction(3), d=1)
    mu = dist.build_mu(sym, 1)
    trivial = next(c for c in tower.characters(1) if c.is_trivial())
    total = dist.integrate_character(mu, trivial)
    mass = dist._vector_sum(mu.values[1][x] for x in tower.elements(1))
    if total != mass:
        return _ok(False, {"case": "total-mass"})
    quad = next(c for c in tower.characters(2)
                if c.conductor_exponent() == 2)
    got = dist.integrate_character(mu, quad)
    brute = dist._vector_sum(tuple(quad.value(x) * v for v in mu.values[2][x])
                             for x in tower.elements(2))
    return _ok(all(a == b for a, b in zip(got, brute)), {"case": "deep-sum"})


@case("distributions", "dirac-integration")
def _case_dirac(rng):
    p = 3
    tower = dist.QTower(p)
    x0 = 4  # a unit mod 9
    base = {x: (Fraction(1) if x == x0 else Fraction(0),)
            for x in tower.elements(2)}
    sym = dist.EigenSymbol(tower, Fraction(1), 2, base, [0])
    mu = dist.build_mu(sym, 1)
    for chi in tower.characters(2):
        got = dist.integrate_character(mu, chi)
        if got[0] != chi.value(x0):
            return _ok(False, {"exps": list(chi.exps)})
    return _ok(True)


@case("distributions", "fourier-inversion")
def _case_fourier(rng):
    for p in (2, 3, 5):
        sym = _random_symbol(rng, p, 2, Fraction(2), d=1)
        mu = dist.build_mu(sym, 1)
        ok, x0 = dist.fourier_inversion_check(mu, 2)
        if not ok:
            return _ok(False, {"p": p, "x0": x0})
    return _ok(True)


@case("distributions", "abstract-tower-relation")
def _case_abstract(rng):
    tower = dist.AbstractTower(3, 2)
    base = {x: (Fraction(rng.randrange(-5, 6)),) for x in tower.elements(3)}
    sym = dist.EigenSymbol(tower, Fraction(2), 3, base, [0])
    mu = dist.build_mu(sym, 1)
    ok, witness = dist.check_distribution_relation(mu)
    if not ok:
        return _ok(False, {"witness": str(witness)})
    ok2, x0 = dist.fourier_inversion_check(mu, 2)
    return _ok(ok2, {"x0": str(x0)})


@case("distributions", "kappa-hat")
def _case_kappa_hat(rng):
    val, info = dist.kappa_hat_value(3, 2, 1, 1, 0, Fraction(2))
    if not (val == 8 and info["nfchi_exponent"] == 4):
        return _ok(False, {"value": str(val)})
    val2, info2 = dist.kappa_hat_value(2, 3, 1, 2, 1, Fraction(1))
    if not (val2 == 3 and info2["nfchi_exponent"] == 1):
        return _ok(False, {"value": str(val2)})
    val3, _ = dist.kappa_hat_value(3, 2, 1, 0, 0, Fraction(1))
    return _ok(val3 == 2, {"value": str(val3)})


def corrupted_distribution_case(rng):
    """Deliberately failing fixture: asserts the relation on corrupted data."""
    ok, witness = _corrupted_relation(rng)
    return _ok(ok, {"witness": str(witness)})
