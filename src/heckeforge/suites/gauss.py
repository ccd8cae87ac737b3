"""Cases of the `gauss` suite: characters and Gauss sums."""

from fractions import Fraction

from heckeforge import gauss
from heckeforge.suite import _ok, case


@case("gauss", "quadratic-gauss-sums")
def _case_quadratic(rng):
    chi5 = next(c for c in gauss.all_characters(5, 1)
                if c.order() == 2)
    g5 = gauss.gauss_sum(chi5)
    chi3 = next(c for c in gauss.all_characters(3, 1) if c.order() == 2)
    g3 = gauss.gauss_sum(chi3)
    return _ok(g5 * g5 == 5 and g3 * g3 == -3,
               {"g5sq": (g5 * g5).to_json(), "g3sq": (g3 * g3).to_json()})


@case("gauss", "absolute-value-squared")
def _case_absval(rng):
    for (p, s) in ((2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                   (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)):
        if p ** s > 27:
            continue
        for chi in gauss.all_characters(p, s):
            if chi.conductor_exponent() != s:
                continue
            tau = gauss.classical_gauss_sum(chi)
            if tau * tau.conj() != p ** s:
                return _ok(False, {"p": p, "s": s, "exps": list(chi.exps)})
    return _ok(True)


@case("gauss", "deeper-level-oracle")
def _case_oracle(rng):
    for (p, s) in ((3, 1), (3, 2), (5, 1), (2, 2), (2, 3)):
        for chi in gauss.all_characters(p, s):
            if chi.conductor_exponent() == 0:
                continue
            if gauss.gauss_sum(chi) != gauss.gauss_sum_oracle(chi):
                return _ok(False, {"p": p, "s": s, "exps": list(chi.exps)})
    return _ok(True)


@case("gauss", "twisted-sum-exhaustive")
def _case_twisted(rng):
    for p in (2, 3, 5):
        for l in (1, 2):
            for chi in gauss.all_characters(p, l):
                t = chi.conductor_exponent()
                if t == 0 or t > l:
                    continue
                for v in range(-l, 2):
                    for unit in (1, 1 + p):
                        c = Fraction(unit) * Fraction(p) ** v
                        try:
                            gauss.twisted_sum(chi, c, l)
                        except ArithmeticError:
                            return _ok(False,
                                       {"p": p, "l": l, "c": str(c)})
    return _ok(True)


@case("gauss", "character-group-complete")
def _case_dualcount(rng):
    from heckeforge.exact import euler_phi
    for (p, s) in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        chars = gauss.all_characters(p, s)
        if len(chars) != euler_phi(p ** s):
            return _ok(False, {"p": p, "s": s, "count": len(chars)})
    return _ok(True)


@case("gauss", "pair-product-mod-9")
def _case_pairproduct(rng):
    for chi in gauss.all_characters(3, 2):
        s = chi.conductor_exponent()
        if s == 0:
            continue
        tau = gauss.classical_gauss_sum(chi)
        tau_inv = gauss.classical_gauss_sum(chi.inverse())
        want = chi.value(-1 % 3 ** 2) * 3 ** s
        if tau * tau_inv != want:
            return _ok(False, {"exps": list(chi.exps)})
    return _ok(True)


@case("gauss", "birch-constant-exponents")
def _case_birch(rng):
    chi = next(c for c in gauss.all_characters(5, 1) if c.order() == 2)
    out = gauss.birch_constants(2, 5, 1, 1, chi)
    if out["exponents_global"]["gauss"] != 1:
        return _ok(False, {"case": "n2-gauss-exponent"})
    out3 = gauss.birch_constants(3, 5, 1, 1, chi)
    if out3["exponents_global"]["gauss"] != 3:
        return _ok(False, {"case": "n3-gauss-exponent"})
    chi2 = next(c for c in gauss.all_characters(2, 2)
                if c.conductor_exponent() == 2)
    out2 = gauss.birch_constants(2, 2, 2, 2, chi2)
    return _ok(out2["euler_factor"] == Fraction(8, 3),
               {"euler": str(out2["euler_factor"])})
