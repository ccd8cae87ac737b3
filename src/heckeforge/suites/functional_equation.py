"""Cases of the `functional-equation` suite."""

from fractions import Fraction

from heckeforge import distributions as dist
from heckeforge import modules
from heckeforge.suite import _ok, case
from heckeforge.suites.distributions import _random_symbol


@case("functional-equation", "involution")
def _case_involution(rng):
    tower = dist.QTower(5)
    # n = 2: 2 -> -inverse(2) = -3 = 2 mod 5
    if tower.vee(1, 2, 2) != 2:
        return _ok(False, {"case": "mod5"})
    t3 = dist.QTower(3)
    for n in (2, 3):
        for x in t3.elements(3):
            if t3.vee(3, t3.vee(3, x, n), n) != x:
                return _ok(False, {"case": "involution", "x": x, "n": n})
    return _ok(True)


def _fe_case(rng, n, p):
    q = Fraction(p)
    lam = [Fraction(v) for v in rng.sample([1, 2, 3, 5, 7], n)]
    lamp = [Fraction(v) for v in rng.sample([1, 2, 3, 5, 7], n - 1)]
    kappa = modules.kappa_of(lam[: n - 1], q) * modules.kappa_of(lamp, q)
    kd, eta_n, eta_p = dist.dual_kappa_pair(n, q, lam, lamp)
    tower = dist.QTower(p)
    nus = [-1, 0, 1]
    base = {x: tuple(Fraction(rng.randrange(-6, 7)) for _ in nus)
            for x in tower.elements(3)}
    sym = dist.EigenSymbol(tower, kappa, 3, base, nus)
    sym_dual = dist.dual_symbol(sym, n, kd)
    mu = dist.build_mu(sym, 1)
    mu.eigen = {"kappa": kappa, "eta_n": eta_n, "eta_prime": eta_p}
    mu_dual = dist.build_mu(sym_dual, 1)
    mu_dual.eigen = {"kappa": kd}
    out = dist.check_functional_equation(mu, mu_dual, n)
    return _ok(out["ok"] and out["kappa_relation_ok"],
               {"witness": str(out["witness"]),
                "kappa": out["kappa_relation_ok"]})


for _p, _n in ((3, 2), (3, 3), (5, 2), (5, 3)):
    case("functional-equation", f"synthetic-p{_p}-n{_n}", n=_n, p=_p)(
        _fe_case)


@case("functional-equation", "self-dual-fixture")
def _case_self_dual(rng):
    # odd n, palindromic base data, self-dual eigenvalue: fixed point
    p, n = 3, 3
    tower = dist.QTower(p)
    nus = [-1, 0, 1]
    base = {}
    for x in tower.elements(2):
        xv = tower.vee(2, x, n)
        if xv == x:
            a, b = Fraction(rng.randrange(-5, 6)), Fraction(rng.randrange(-5, 6))
            base[x] = (a, b, a)  # palindromic at self-inverse classes
        elif xv not in base:
            base[x] = tuple(Fraction(rng.randrange(-5, 6)) for _ in nus)
        else:
            base[x] = tuple(reversed(base[xv]))
    sym = dist.EigenSymbol(tower, Fraction(1), 2, base, nus)
    mu = dist.build_mu(sym, 1)
    out = dist.check_functional_equation(mu, mu, n)
    return _ok(out["ok"], {"witness": str(out["witness"])})


@case("functional-equation", "corrupted-detected")
def _case_fe_corrupt(rng):
    p, n = 3, 2
    q = Fraction(p)
    lam = [Fraction(1), Fraction(2)]
    lamp = [Fraction(3)]
    kappa = modules.kappa_of(lam[:1], q) * modules.kappa_of(lamp, q)
    kd, eta_n, eta_p = dist.dual_kappa_pair(n, q, lam, lamp)
    tower = dist.QTower(p)
    sym = _random_symbol(rng, p, 2, kappa, d=1)
    sym_dual = dist.dual_symbol(sym, n, kd)
    mu = dist.build_mu(sym, 1)
    mu.eigen = {"kappa": kappa, "eta_n": eta_n, "eta_prime": eta_p}
    mu_dual = dist.build_mu(sym_dual, 1)
    mu_dual.eigen = {"kappa": kd * 2}  # perturbed eigenvalue
    out = dist.check_functional_equation(mu, mu_dual, n)
    if out["kappa_relation_ok"]:
        return _ok(False, {"case": "eigenvalue perturbation missed"})
    x0 = mu_dual.tower.elements(1)[0]
    vec = list(mu_dual.values[1][x0])
    vec[0] += 1
    mu_dual.values[1][x0] = tuple(vec)
    out2 = dist.check_functional_equation(mu, mu_dual, n)
    return _ok(not out2["ok"] and out2["witness"] is not None,
               {"witness": str(out2["witness"])})


@case("functional-equation", "inversekappa")
def _case_fe_invkappa(rng):
    for n in (2, 3):
        for _ in range(10):
            lam = [Fraction(rng.randrange(1, 10)) for _ in range(n)]
            lamp = [Fraction(rng.randrange(1, 10)) for _ in range(n - 1)]
            if not dist.verify_inversekappa(n, 2, lam, lamp):
                return _ok(False, {"n": n})
    return _ok(True)
