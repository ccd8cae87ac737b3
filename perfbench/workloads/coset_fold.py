"""coset-fold: Hecke operator expansions, folded sums and index counts on
GL_2 and GL_3 at Iwahori level p.

The time goes to `ratmat`, the integer kernels and the pairwise
Iwahori-membership fold of `hecke.CosetSum`; no `Cyclo` at all.

Inputs: fixed contexts (n, p) with n = 2, p <= 7 and n = 3, p <= 3, plus
seeded sums to fold: every coset of V_p and of V_1, each listed twice
under two representatives g k with k a seeded random Iwahori element,
with seeded nonzero coefficients.  The seed changes the representatives
and coefficients, not the number of cosets folded.
"""

import random
from fractions import Fraction
from math import gcd

from heckeforge import hecke
from heckeforge.matrices import GlnContext
from heckeforge.ratmat import RatMat

from oracle import CheckError, require

NAME = "coset-fold"

CONTEXTS = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3)]
SHORT_CONTEXTS = [(2, 2), (3, 2)]
# No single call may run long: at (3, 3) count_unipotent_index takes 1.5 s
# and count_gamma_index, enumerating GL_2(Z/3^3), 6 s.
INDEX_CONTEXTS = {(2, 2), (2, 3), (2, 5), (2, 7), (3, 2)}
# A*B folds |A| |B| products pairwise: 729 products take 1.4 s at (3, 3).
MAX_PRODUCTS = 256


def _random_iwahori(n, p, rng):
    """Upper unipotent * unit diagonal * lower unipotent with p | below."""
    def unit():
        return rng.choice([u for u in range(1, p * p) if u % p])
    up = [[1 if i == j else (rng.randrange(p * p) if j > i else 0)
           for j in range(n)] for i in range(n)]
    dg = [[unit() if i == j else 0 for j in range(n)] for i in range(n)]
    lo = [[1 if i == j else (p * rng.randrange(p) if i > j else 0)
           for j in range(n)] for i in range(n)]
    return (RatMat.from_rows(up) * RatMat.from_rows(dg)
            * RatMat.from_rows(lo))


def _fold_input(ctx, cs, rng):
    """Every coset of cs twice, under two random representatives, and the
    coefficient sums the fold must keep.  Both coefficients of a coset
    share a sign, so no sum cancels and every seed folds as many cosets."""
    pairs, keep = [], []
    for rep, _ in cs.pairs():
        sign = rng.choice([-1, 1])
        coeffs = [sign * rng.randrange(1, 4) for _ in range(2)]
        for c in coeffs:
            pairs.append((rep * _random_iwahori(ctx.n, ctx.p, rng), c))
        keep.append(sum(coeffs))
    rng.shuffle(pairs)
    return {"pairs": pairs, "keep": sorted(keep)}


def build(seed, short=False):
    rng = random.Random(f"{NAME}:{seed}")
    items = []
    for n, p in (SHORT_CONTEXTS if short else CONTEXTS):
        ctx = GlnContext(n, p, 1)
        items.append({"n": n, "p": p, "ctx": ctx,
                      "fold_a": _fold_input(ctx, hecke.expand_Vp(ctx), rng),
                      "fold_b": _fold_input(ctx, hecke.expand_V(ctx, 1), rng)})
    return {"items": items}


def _fold(ctx, a, b):
    """Fold both inputs, then convolve them when the product is small."""
    fa = hecke.CosetSum(ctx, a["pairs"])
    fb = hecke.CosetSum(ctx, b["pairs"])
    if len(a["keep"]) * len(b["keep"]) > MAX_PRODUCTS:
        return fa, fb, None
    return fa, fb, fa * fb


def run_round(inp, clock):
    out = []
    for it in inp["items"]:
        ctx, n = it["ctx"], it["n"]
        res = {"V": [clock.call(hecke.expand_V, ctx, nu) for nu in range(1, n)],
               "Vp": clock.call(hecke.expand_Vp, ctx),
               "fold": clock.call(_fold, ctx, it["fold_a"], it["fold_b"]),
               "U": [clock.call(hecke.expand_U, ctx, i) for i in range(1, n + 1)],
               "gritsenko": clock.call(hecke.verify_gritsenko, ctx),
               "commutativity": clock.call(hecke.verify_commutativity, ctx)}
        if (n, it["p"]) in INDEX_CONTEXTS:
            res["unipotent_index"] = clock.call(hecke.count_unipotent_index, ctx)
            res["gamma_index"] = clock.call(hecke.count_gamma_index, ctx)
        out.append(res)
    return out


# ---------------------------------------------------------------------------
# the benchmark's own integer arithmetic, for the checks

def _vp(x, p):
    """p-adic valuation of a nonzero int."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in m[1:]])
               for j in range(len(m)))


def _adjugate(m):
    n = len(m)
    return [[(-1) ** (i + j) * _det([row[:i] + row[i + 1:]
                                     for k, row in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


def _check_disjoint(cs, p, what):
    """No two representatives g, h of cs have g^-1 h in the Iwahori
    subgroup of level p.  With g = M/d integral over a denominator,
    g^-1 h = d adj(M) M' / (det(M) d'), tested entrywise by valuations."""
    forms = []
    for rep, _ in cs.pairs():
        rows = rep.rows()
        d = 1
        for x in (x for row in rows for x in row):
            d = d * x.denominator // gcd(d, x.denominator)
        m = [[int(x * d) for x in row] for row in rows]
        det = _det(m)
        forms.append((m, _vp(d, p), _adjugate(m), _vp(det, p),
                      _vp(det, p) - len(m) * _vp(d, p)))
    n = len(forms[0][0]) if forms else 0
    for i, (_, vdi, adj, vdet, unit) in enumerate(forms):
        for j in range(i + 1, len(forms)):
            m2, vdj, _, _, unit2 = forms[j]
            if unit != unit2:
                continue  # det(g^-1 h) is not a unit
            s = vdet + vdj - vdi
            if all(s + (k > l) <= 0
                   or sum(adj[k][t] * m2[t][l] for t in range(n))
                   % p ** (s + (k > l)) == 0
                   for k in range(n) for l in range(n)):
                raise CheckError(f"{what}: cosets {i} and {j} coincide")


def _total(cs):
    return sum(Fraction(c) for _, c in cs.pairs())


def check(inp, results):
    require(len(results) == len(inp["items"]), "one result per context")
    for it, res in zip(inp["items"], results):
        n, p = it["n"], it["p"]
        where = f"n={n} p={p}"
        for nu, cs in enumerate(res["V"], start=1):
            require(len(cs) == p ** (nu * (n - nu)),
                    f"|V_{nu}| = {len(cs)}, want p^(nu(n-nu)), {where}")
            _check_disjoint(cs, p, f"V_{nu} {where}")
        require(len(res["Vp"]) == p ** ((n + 1) * n * (n - 1) // 6),
                f"|V_p| = {len(res['Vp'])}, want p^((n+1)n(n-1)/6), {where}")
        _check_disjoint(res["Vp"], p, f"V_p {where}")

        a, b, ab = res["fold"]
        for cs, src, what in ((a, it["fold_a"], "V_p"), (b, it["fold_b"], "V_1")):
            require(sorted(c for _, c in cs.pairs()) == src["keep"],
                    f"fold of {what} kept the wrong cosets, {where}")
            _check_disjoint(cs, p, f"fold of {what} {where}")
        if ab is not None:
            require(_total(ab) == _total(a) * _total(b),
                    f"total(A*B) != total(A) total(B), {where}")
            _check_disjoint(ab, p, f"A*B {where}")

        for i, u in enumerate(res["U"], start=1):
            require(len(u) == p ** (n - i),
                    f"|U_{i}| = {len(u)}, want p^(n-i), {where}")
            _check_disjoint(u, p, f"U_{i} {where}")
        require(res["gritsenko"][0], f"Gritsenko factorization, {where}")
        require(res["commutativity"][0], f"commutativity, {where}")
        if "unipotent_index" in res:
            want = p ** ((n + 1) * n * (n - 1) // 6)
            require(res["unipotent_index"] == want,
                    f"unipotent index {res['unipotent_index']} != {want}, {where}")
            # enumerated gamma index: p - 1 at n = 2, p^2 (p-1)^2 at n = 3
            want = {2: p - 1, 3: p * p * (p - 1) ** 2}[n]
            require(res["gamma_index"][0] == want,
                    f"gamma index {res['gamma_index'][0]} != {want}, {where}")
