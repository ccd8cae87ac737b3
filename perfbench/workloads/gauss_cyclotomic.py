"""gauss-cyclotomic: Gauss sums of primitive characters of conductor
p^s <= 27, p <= 23, in exact cyclotomic arithmetic.

Nearly all the time goes to `exact.Cyclo` products, reductions modulo
Phi_m and lifts at conductors up to m = 506 (order-22 characters mod 23
against zeta_23); no kernels, `RatMat` or `hecke`.

Inputs: for every conductor p^s and every order d of its primitive
characters, the seed picks one character of order d.  Characters of one
order are Galois conjugates, so the seed changes the inputs but not the
amount of work.  It also picks the units in the twist parameters c.
"""

import random
from fractions import Fraction

from heckeforge import gauss

from oracle import char_values, close, e, phi, require, to_complex

NAME = "gauss-cyclotomic"

PRIME_POWERS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                (5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
                (23, 1)]
# Bounds that keep a round near 4 s on the 2-core VM while every
# conductor still gets classical_gauss_sum: the oracle sums over units mod
# p^(s+1), about 0.3 s per call at p = 13 and 1.2 s at p = 19.
SHORT_MAX = 9          # --short: conductors p^s <= 9 only
ORACLE_MAX = 125       # gauss_sum against gauss_sum_oracle: p^(s+1) <= this
INVERSE_MAX = 19       # tau(chi^-1) as well: p^s <= this
TWIST_MAX = 13         # twisted_sum at two values of c: p^s <= this


class Item:
    """One character with the calls made on it."""

    def __init__(self, p, s, chi, twists):
        self.p, self.s, self.chi = p, s, chi
        self.inv = chi.inverse() if p ** s <= INVERSE_MAX else None
        self.oracle = p ** (s + 1) <= ORACLE_MAX
        self.twists = twists


def build(seed, short=False):
    rng = random.Random(f"{NAME}:{seed}")
    counts, items = {}, []
    for p, s in PRIME_POWERS:
        if short and p ** s > SHORT_MAX:
            continue
        chars = gauss.all_characters(p, s)
        prim = [c for c in chars if c.conductor_exponent() == s]
        counts[(p, s)] = (len(chars), len(prim))
        by_order = {}
        for chi in prim:
            by_order.setdefault(chi.order(), []).append(chi)
        for order in sorted(by_order):
            chi = rng.choice(by_order[order])
            twists = []
            if p ** s <= TWIST_MAX:
                a = rng.choice([u for u in range(1, p ** s) if u % p])
                b = rng.choice([u for u in range(1, p ** s) if u % p])
                # v_p(c) = -s gives p^0 chi(a)^-1 tau; v_p(c) = 1 - s gives 0
                twists = [Fraction(a, p ** s), Fraction(b, p ** (s - 1))]
            items.append(Item(p, s, chi, twists))
    return {"counts": counts, "items": items}


def run_round(inp, clock):
    out = []
    for it in inp["items"]:
        tau = clock.call(gauss.classical_gauss_sum, it.chi)
        res = {"tau": tau, "tau_inv": None, "g": None, "oracle": None}
        if it.inv is not None:
            res["tau_inv"] = clock.call(gauss.classical_gauss_sum, it.inv)
        if it.oracle:
            res["g"] = clock.call(gauss.gauss_sum, it.chi)
            res["oracle"] = clock.call(gauss.gauss_sum_oracle, it.chi)
        res["twisted"] = [clock.call(gauss.twisted_sum, it.chi, c, it.s)
                          for c in it.twists]
        out.append(res)
    return out


def _float_sum(vals, q, c, level, p):
    """sum over units x mod p^level of chi(x) exp(2 pi i c x), for chi
    given by its values `vals` on units mod q."""
    return sum(vals[x % q] * e(c * x) for x in range(1, p ** level) if x % p)


def check(inp, results):
    for (p, s), (n_all, n_prim) in inp["counts"].items():
        require(n_all == phi(p ** s), f"|dual of (Z/{p}^{s})^*| = {n_all}")
        want = phi(p ** s) - phi(p ** (s - 1))
        require(n_prim == want,
                f"{n_prim} primitive characters mod {p}^{s}, want {want}")
    require(len(results) == len(inp["items"]), "one result per character")
    for it, res in zip(inp["items"], results):
        p, s, q = it.p, it.s, it.p ** it.s
        where = f"p={p} s={s} exps={list(it.chi.exps)}"
        vals = char_values(p, s, gauss.unit_group_generators(p, s), it.chi.exps)
        want = _float_sum(vals, q, Fraction(1, q), s, p)
        tau = to_complex(res["tau"])
        close(tau, want, f"tau against the float sum, {where}")
        close(abs(tau) ** 2, q, f"|tau|^2 = p^s, {where}")
        if it.inv is not None:
            close(tau * to_complex(res["tau_inv"]), vals[q - 1] * q,
                  f"tau(chi) tau(chi^-1) = chi(-1) p^s, {where}")
        if it.oracle:
            close(to_complex(res["g"]), want, f"G(chi) with chi(p) = 1, {where}")
            require(res["g"] == res["oracle"],
                    f"gauss_sum != gauss_sum_oracle, {where}")
        require(len(res["twisted"]) == len(it.twists), "one result per twist")
        for c, got in zip(it.twists, res["twisted"]):
            close(to_complex(got), _float_sum(vals, q, c, s, p),
                  f"twisted sum at c={c}, {where}")
