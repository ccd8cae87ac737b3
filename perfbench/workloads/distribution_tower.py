"""distribution-tower: p-adic distributions built from seeded
eigen-symbols on ray-class towers, integrated against every character.

Uses the same `exact` layer as gauss-cyclotomic, but as many products of
small-conductor Cyclo elements and sums of Fraction vectors, so a Cyclo
rewrite that speeds up big sums but adds per-element cost shows here.

Inputs: for QTower p = 2, 3, 5 (depth 5, 3, 2) and AbstractTower(3, h=2)
(depth 3), a symbol with seeded base data in [-9, 9]^2 and a seeded
eigenvalue, and a Dirac symbol at a seeded unit x0; for (p, n) = (3, 2),
(3, 3), (5, 2), a symbol with seeded Hecke roots and its dual for the
functional equation.  The seed changes values, not sizes.
"""

import random
from fractions import Fraction

from heckeforge import distributions as dist
from heckeforge import gauss, modules

from oracle import char_values, close, require, to_complex

NAME = "distribution-tower"

# (kind, p, depth, Fourier inversion level).  Inversion makes |C|^2 Cyclo
# inverses: 0.8 s in one call at the abstract tower's depth 3, so it runs
# one level lower there.
TOWERS = [("Q", 2, 5, 5), ("Q", 3, 3, 3), ("Q", 5, 2, 2), ("A", 3, 3, 2)]
SHORT_TOWERS = [("Q", 3, 2, 2), ("A", 3, 2, 1)]
FE_CASES = [(3, 2), (3, 3), (5, 2)]
SHORT_FE_CASES = [(3, 2)]
ABSTRACT_H = 2
KAPPAS = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3)]


def _tower(kind, p):
    return dist.QTower(p) if kind == "Q" else dist.AbstractTower(p, ABSTRACT_H)


def build(seed, short=False):
    rng = random.Random(f"{NAME}:{seed}")
    towers = []
    for kind, p, depth, fourier in (SHORT_TOWERS if short else TOWERS):
        tower = _tower(kind, p)
        elements = tower.elements(depth)
        base = {x: (Fraction(rng.randrange(-9, 10)), Fraction(rng.randrange(-9, 10)))
                for x in elements}
        sym = dist.EigenSymbol(tower, rng.choice(KAPPAS), depth, base, [0, 1])
        x0 = rng.choice(elements)
        dirac = dist.EigenSymbol(
            tower, Fraction(1), depth,
            {x: (Fraction(int(x == x0)),) for x in elements}, [0])
        towers.append({"kind": kind, "p": p, "depth": depth,
                       "fourier": fourier, "tower": tower,
                       "sym": sym, "dirac": dirac, "x0": x0,
                       "chars": tower.characters(depth),
                       "corrupt_at": rng.randrange(len(tower.elements(1)))})
    fe = []
    for p, n in (SHORT_FE_CASES if short else FE_CASES):
        q = Fraction(p)
        lam = [Fraction(v) for v in rng.sample([1, 2, 3, 5, 7], n)]
        lamp = [Fraction(v) for v in rng.sample([1, 2, 3, 5, 7], n - 1)]
        kappa = modules.kappa_of(lam[: n - 1], q) * modules.kappa_of(lamp, q)
        kd, eta_n, eta_p = dist.dual_kappa_pair(n, q, lam, lamp)
        tower = dist.QTower(p)
        base = {x: tuple(Fraction(rng.randrange(-6, 7)) for _ in range(3))
                for x in tower.elements(3)}
        fe.append({"p": p, "n": n, "kd": kd,
                   "sym": dist.EigenSymbol(tower, kappa, 3, base, [-1, 0, 1]),
                   "eigen": {"kappa": kappa, "eta_n": eta_n, "eta_prime": eta_p}})
    return {"towers": towers, "fe": fe}


def corrupted(mu, m, index):
    """A copy of mu with one value at level m bumped by one."""
    values = {lvl: dict(level) for lvl, level in mu.values.items()}
    x = sorted(values[m], key=str)[index]
    vec = list(values[m][x])
    vec[0] += 1
    values[m][x] = tuple(vec)
    return dist.Distribution(mu.tower, mu.nus, values)


def _functional_equation(item):
    sym_dual = dist.dual_symbol(item["sym"], item["n"], item["kd"])
    mu = dist.build_mu(item["sym"], 1)
    mu.eigen = dict(item["eigen"])
    mu_dual = dist.build_mu(sym_dual, 1)
    mu_dual.eigen = {"kappa": item["kd"]}
    return mu, mu_dual, dist.check_functional_equation(mu, mu_dual, item["n"])


def run_round(inp, clock):
    out = {"towers": [], "fe": []}
    for t in inp["towers"]:
        mu = clock.call(dist.build_mu, t["sym"], 1)
        res = {"mu": mu,
               "relation": clock.call(dist.check_distribution_relation, mu),
               "integrals": [clock.call(dist.integrate_character, mu, chi)
                             for chi in t["chars"]],
               "fourier": clock.call(dist.fourier_inversion_check, mu, t["fourier"])}
        bad = corrupted(mu, 1, t["corrupt_at"])
        res["corrupted"] = clock.call(dist.check_distribution_relation, bad)
        mu_d = clock.call(dist.build_mu, t["dirac"], 1)
        res["dirac"] = [clock.call(dist.integrate_character, mu_d, chi)
                        for chi in t["chars"]]
        out["towers"].append(res)
    for item in inp["fe"]:
        out["fe"].append(clock.call(_functional_equation, item))
    return out


# ---------------------------------------------------------------------------
# the benchmark's own model of the towers, for the checks

def _units(p, m):
    return [a for a in range(1, p ** m) if a % p]


def _elements(t, m):
    if t["kind"] == "Q":
        return _units(t["p"], m)
    return [(c, u) for c in range(ABSTRACT_H) for u in _units(t["p"], m)]


def _lifts(t, m, x):
    p = t["p"]
    if t["kind"] == "Q":
        return [x + k * p ** m for k in range(p)]
    c, u = x
    return [(c, u + k * p ** m) for k in range(p)]


def _char_table(t, chi):
    """Own float values of a tower character on the elements at depth."""
    p, depth = t["p"], t["depth"]
    gens = gauss.unit_group_generators(p, depth)
    if t["kind"] == "Q":
        return char_values(p, depth, gens, chi.exps)
    j, fin = chi
    return char_values(p, depth, gens, fin.exps, ABSTRACT_H, j)


def check_relation(t, mu):
    """mu(x + p^m) = sum of mu over the lifts of x to level m + 1."""
    require(mu.levels == list(range(1, t["depth"] + 1)),
            f"levels {mu.levels}, want 1..{t['depth']}")
    for m in mu.levels[:-1]:
        for x in _elements(t, m):
            want = [sum(v) for v in zip(*(mu.value(m + 1, y)
                                          for y in _lifts(t, m, x)))]
            require(list(mu.value(m, x)) == want,
                    f"distribution relation fails at x={x} m={m}")


def check(inp, results):
    for t, res in zip(inp["towers"], results["towers"]):
        where = f"{t['kind']}-tower p={t['p']}"
        mu, depth = res["mu"], t["depth"]
        check_relation(t, mu)
        require(res["relation"][0], f"check_distribution_relation, {where}")
        require(res["fourier"][0], f"Fourier inversion, {where}")
        require(not res["corrupted"][0],
                f"planted corruption not detected, {where}")
        require(len(res["integrals"]) == len(t["chars"]) == len(_elements(t, depth)),
                f"one integral per character of C(p^{depth}), {where}")
        mass = [float(sum(v)) for v in zip(*(mu.value(1, x) for x in _elements(t, 1)))]
        for chi, got, dirac in zip(t["chars"], res["integrals"], res["dirac"]):
            table = _char_table(t, chi)
            want = [sum(table[x] * float(mu.value(depth, x)[k])
                        for x in _elements(t, depth)) for k in range(2)]
            for k in range(2):
                close(to_complex(got[k]), want[k],
                      f"integral of {chi} against the float sum, {where}")
            if all(abs(v - 1) < 1e-12 for v in table.values()):
                for k in range(2):
                    close(to_complex(got[k]), mass[k],
                          f"trivial character against the total mass, {where}")
            close(to_complex(dirac[0]), table[t["x0"]],
                  f"Dirac mass at {t['x0']} against chi(x0), {where}")
    for item, (mu, mu_dual, out) in zip(inp["fe"], results["fe"]):
        p, n = item["p"], item["n"]
        where = f"functional equation p={p} n={n}"
        require(out["ok"] and out["kappa_relation_ok"], where)
        for m in mu.levels:
            mod = p ** m
            for x in _units(p, m):
                vee = (-1) ** (n - 1) * pow(x, -1, mod) % mod
                want = dict(zip((-v for v in mu.nus), mu.value(m, x)))
                got = dict(zip(mu_dual.nus, mu_dual.value(m, vee)))
                require(got == want, f"mu_dual(x^vee) != mu(x)^vee at x={x} m={m}, {where}")
