"""The verification suites behind `heckeforge verify`.

Each case is a named deterministic check (seeded RNG per case) returning
pass/fail plus a serializable witness.  Cases are dispatched to a worker
pool and reported in case-id order as JSON-ready dicts.
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from heckeforge import distributions as dist
from heckeforge import gauss, hecke, matrices, modules, weights
from heckeforge.exact import vp
from heckeforge.laurent import lvar
from heckeforge.matrices import GlnContext

SUITES = ("matrices", "hecke", "projections", "gauss", "weights",
          "distributions", "functional-equation")

_REGISTRY = []


def case(suite, name, **params):
    def deco(fn):
        _REGISTRY.append((suite, f"{suite}/{name}", fn, params))
        return fn
    return deco


def _ok(cond, witness=None):
    return ("pass", None) if cond else ("fail", witness)


# ---------------------------------------------------------------- matrices

@case("matrices", "h-f-entry-pattern")
def _case_hf_entries(rng):
    f = lvar("f")
    for n in range(2, 7):
        h1 = matrices.h_one(n)
        hf = matrices.h_matrix(n, f)
        for i in range(n):
            for j in range(n):
                want = h1.entries[i][j] * f ** (i - j)
                if not hf.entries[i][j] == want:
                    return _ok(False, {"n": n, "entry": [i, j]})
    return _ok(True)


@case("matrices", "inverseft-twist")
def _case_inverseft(rng):
    bad = [n for n in range(2, 7) if not matrices.verify_inverseft(n)]
    return _ok(not bad, {"failing_ranks": bad})


@case("matrices", "iota-involution")
def _case_iota(rng):
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        rows = [[Fraction(rng.randrange(-9, 10)) for _ in range(n)]
                for _ in range(n)]
        for i in range(n):
            rows[i][i] += 20  # keep it invertible
        g = matrices.RatMat.from_rows(rows)
        if matrices.iota_involution(matrices.iota_involution(g)) != g:
            return _ok(False, {"matrix": [[str(x) for x in r] for r in rows]})
    return _ok(True)


@case("matrices", "inverseh-symbolic")
def _case_inverseh_sym(rng):
    for n in (3, 4, 5):
        ok, details = matrices.verify_inverseh(n, symbolic=True)
        if not ok:
            return _ok(False, {"n": n})
    return _ok(True)


@case("matrices", "inverseh-numeric")
def _case_inverseh_num(rng):
    for _ in range(10):
        n = rng.choice([3, 4, 5])
        p = rng.choice([2, 3, 5])
        r = rng.choice([1, 2])
        while True:
            x = Fraction(rng.randrange(1, 40), rng.choice([1, 3, 7, 11]))
            if x.numerator % p and x.denominator % p:
                break
        ok, details = matrices.verify_inverseh(n, p, r, x, symbolic=False)
        if not (ok and details["w d n' w in I"] and details["n in I"]):
            return _ok(False, {"n": n, "p": p, "r": r, "x": str(x)})
    return _ok(True)


@case("matrices", "family-symbolic")
def _case_family_sym(rng):
    for n in (3, 4, 5):
        fam = matrices.family_symbolic(n)
        if not (fam["columns_ok"] and fam["det_pair_ok"]):
            return _ok(False, {"n": n})
    return _ok(True)


@case("matrices", "family-degenerate-zero")
def _case_family_zero(rng):
    # u = w = 0: h(u,w) must be exactly h^(1)
    for (n, p) in ((3, 2), (3, 3), (4, 2)):
        ctx = GlnContext(n, p, 1)
        fam = matrices.build_distribution_family(
            ctx, (0,) * (n - 1), (0,) * (n - 2))
        if fam["h(u,w)"] != matrices.h_one(n).to_ratmat():
            return _ok(False, {"n": n, "p": p})
        if not fam["identity_ok"]:
            return _ok(False, {"n": n, "p": p})
    return _ok(True)


def _epim_case(n, p):
    def fn(rng):
        ok, witness = matrices.verify_epimorphism(GlnContext(n, p, 1))
        return _ok(ok, {str(k): list(map(list, v)) for k, v in witness.items()}
                   if isinstance(witness, dict) else witness)
    return fn


for _n, _p in ((2, 2), (2, 3), (3, 2), (3, 3)):
    case("matrices", f"epimorphism-n{_n}-p{_p}", n=_n, p=_p)(
        _epim_case(_n, _p))


# ------------------------------------------------------------------- hecke

def _grits_case(n, p):
    def fn(rng):
        ok, details = hecke.verify_gritsenko(GlnContext(n, p, 1))
        return _ok(ok, {"coefficient": details["coefficient"]} if details else None)
    return fn


for _n, _p in ((2, 2), (2, 3), (3, 2), (3, 3)):
    case("hecke", f"gritsenko-n{_n}-p{_p}", n=_n, p=_p)(_grits_case(_n, _p))


def _vcount_case(n, p):
    def fn(rng):
        ctx = GlnContext(n, p, 1)
        for nu in range(n + 1):
            cs = hecke.expand_V(ctx, nu)
            if len(cs) != p ** (nu * (n - nu)):
                return _ok(False, {"op": f"V{nu}", "count": len(cs)})
            ok, pair = hecke.check_disjoint(cs)
            if not ok:
                return _ok(False, {"op": f"V{nu}", "overlap": pair})
        vp_sum = hecke.expand_Vp(ctx)
        want = p ** ((n + 1) * n * (n - 1) // 6)
        if len(vp_sum) != want:
            return _ok(False, {"op": "Vp", "count": len(vp_sum)})
        ok, pair = hecke.check_disjoint(vp_sum)
        return _ok(ok, {"op": "Vp", "overlap": pair} if not ok else None)
    return fn


for _n, _p in ((2, 2), (2, 3), (3, 2)):
    case("hecke", f"v-counts-n{_n}-p{_p}", n=_n, p=_p)(_vcount_case(_n, _p))


def _coverage_case(n, p, tag):
    def fn(rng):
        failures = hecke.check_coverage(GlnContext(n, p, 1), tag,
                                        samples=200, seed=rng.randrange(2 ** 30))
        return _ok(failures == 0, {"failures": failures})
    return fn


for _n, _p in ((2, 2), (2, 3), (3, 2)):
    for _tag in (["V1", "Vp", "Vp'"] + [f"U{i}" for i in range(1, _n + 1)]
                 + [f"T{nu}" for nu in range(1, _n + 1)]):
        case("hecke", f"coverage-n{_n}-p{_p}-{_tag}", n=_n, p=_p)(
            _coverage_case(_n, _p, _tag))


@case("hecke", "unit-element")
def _case_unit(rng):
    ctx = GlnContext(2, 2, 1)
    v1 = hecke.expand_V(ctx, 1)
    unit = hecke.unit_coset(ctx)
    return _ok(unit * v1 == v1 and v1 * unit == v1)


@case("hecke", "v1-squared-regression")
def _case_v1sq(rng):
    # regression: V_{p,1}^2 on GL_2 folds to p^2 distinct cosets, each once
    for p in (2, 3):
        ctx = GlnContext(2, p, 1)
        v1 = hecke.expand_V(ctx, 1)
        sq = v1 * v1
        counts = sorted(c for _, c in sq.pairs())
        if len(sq) != p * p or set(counts) != {1}:
            return _ok(False, {"p": p, "cosets": len(sq), "coeffs": counts})
    return _ok(True)


@case("hecke", "u1u2-equals-q-T2")
def _case_u1u2(rng):
    ctx = GlnContext(2, 2, 1)
    prod = hecke.expand_U(ctx, 1) * hecke.expand_U(ctx, 2)
    want = hecke.eps_T(ctx, 2).scale(2)
    return _ok(prod == want)


def _commut_case(n, p):
    def fn(rng):
        ok, pair = hecke.verify_commutativity(GlnContext(n, p, 1))
        return _ok(ok, {"pair": pair})
    return fn


for _n, _p in ((2, 2), (3, 2)):
    case("hecke", f"commutativity-n{_n}-p{_p}", n=_n, p=_p)(
        _commut_case(_n, _p))


@case("hecke", "satake-display")
def _case_satake(rng):
    # pinned n=2 displays, symmetry for n <= 4
    s1 = hecke.satake(2, 1)
    s2 = hecke.satake(2, 2)
    q, x1, x2 = lvar("q"), lvar("X1"), lvar("X2")
    if not (s1 == q * (x1 + x2) and s2 == q ** 3 * (x1 * x2)):
        return _ok(False, {"n": 2})
    if not hecke.satake(3, 0) == 1:
        return _ok(False, {"nu": 0})
    for n in range(2, 5):
        for nu in range(n + 1):
            s = hecke.satake(n, nu)
            swapped = s.rename({"X1": "X2", "X2": "X1"})
            cyc = s.rename({f"X{i}": f"X{i % n + 1}" for i in range(1, n + 1)})
            if not (swapped == s and cyc == s):
                return _ok(False, {"n": n, "nu": nu})
    return _ok(True)


@case("hecke", "satake-gl2-convolution")
def _case_satake_mult(rng):
    for p in (2, 3):
        c02, c11, consistent = hecke.gl2_satake_regression(p)
        if not (c02 == 1 and c11 == p + 1 and consistent):
            return _ok(False, {"p": p, "c02": c02, "c11": c11,
                               "transform": consistent})
    return _ok(True)


@case("hecke", "spherical-restriction")
def _case_restrict(rng):
    ctx = GlnContext(2, 2, 1)
    t1 = hecke.eps_T(ctx, 1)
    t0 = hecke.eps_T(ctx, 0)
    if len(t1) != 3 or len(t0) != 1:
        return _ok(False, {"T1": len(t1), "T0": len(t0)})
    if t1 == t0.scale(3):
        return _ok(False, {"reason": "images not distinguished"})
    t2 = hecke.eps_T(ctx, 2)
    want = matrices.RatMat.diagonal([Fraction(2), Fraction(2)])
    return _ok(len(t2) == 1 and hecke.CosetSum(
        ctx, [(want, 1)], folded=True) == t2)


@case("hecke", "shintani-degree")
def _case_shintani(rng):
    for n in (2, 3, 4):
        alphas = [Fraction(rng.randrange(1, 9)) for _ in range(n)]
        betas = [Fraction(rng.randrange(1, 9)) for _ in range(n - 1)]
        poly = hecke.shintani_lfactor(alphas, betas)
        deg = max(dict(k).get("T", 0) for k in poly.terms)
        if deg != n * (n - 1):
            return _ok(False, {"n": n, "degree": deg})
    try:
        hecke.shintani_lfactor([0, 1], [1])
        return _ok(False, {"reason": "zero parameter accepted"})
    except ValueError:
        pass
    return _ok(True)


def _indices_case(n, p):
    def fn(rng):
        out = hecke.count_indices(GlnContext(n, p, 1))
        honest_gamma = {2: p - 1, 3: p * p * (p - 1) ** 2}[n]
        good = (out["unipotent_match"]
                and out["gamma_index"] == honest_gamma
                and out.get("gamma_ratio_ok", True))
        return _ok(good, {k: v for k, v in out.items()})
    return fn


for _n, _p in ((2, 2), (2, 3), (3, 2), (3, 3)):
    case("hecke", f"indices-n{_n}-p{_p}", n=_n, p=_p)(_indices_case(_n, _p))


# ------------------------------------------------------------- projections

def _random_spectra_module(rng, n, dim, conjugate=True):
    base = [Fraction(rng.randrange(1, 12)) for _ in range(n)]
    while len(set(base)) != n:
        base = [Fraction(rng.randrange(1, 12)) for _ in range(n)]
    spectra = [base]
    for _ in range(dim - 1):
        s = base[:]
        rng.shuffle(s)
        spectra.append(s)
    conj = None
    if conjugate:
        conj = [[Fraction(1 if i == j else 0) for j in range(dim)]
                for i in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                conj[i][j] = Fraction(rng.randrange(-3, 4))
    mod = modules.HeckeModule.from_spectra(n, rng.choice([2, 3]), spectra, conj)
    return mod, base, spectra


@case("projections", "idempotent-equivariant")
def _case_proj_idem(rng):
    for n in (2, 3):
        for _ in range(20):
            mod, base, spectra = _random_spectra_module(rng, n, n)
            roots = modules.HeckeRoots(base, mod.q)
            vec = [Fraction(rng.randrange(-5, 6)) for _ in range(mod.dim)]
            try:
                pv = modules.project(vec, roots, mod)
            except ZeroDivisionError:
                continue
            if modules.project(pv, roots, mod) != pv:
                return _ok(False, {"n": n, "reason": "not idempotent"})
            for nu in range(1, n + 1):
                a = modules.project(modules.mat_vec(mod.V(nu), vec), roots, mod)
                b = modules.mat_vec(mod.V(nu), pv)
                if a != b:
                    return _ok(False, {"n": n, "reason": "not equivariant",
                                       "nu": nu})
            if not modules.in_eigenspace(pv, roots, mod):
                return _ok(False, {"n": n, "reason": "image escapes eigenspace"})
    return _ok(True)


@case("projections", "identity-on-eigenspace")
def _case_proj_ident(rng):
    for n in (2, 3):
        mod, _, spectra = _random_spectra_module(rng, n, n, conjugate=False)
        roots = modules.HeckeRoots(spectra[0], mod.q)
        vec = [Fraction(1 if k == 0 else 0) for k in range(mod.dim)]
        if modules.project(vec, roots, mod) != vec:
            return _ok(False, {"n": n})
    return _ok(True)


@case("projections", "project0-scalar-evaluation")
def _case_proj0_scalar(rng):
    # n=2, one root: Pi0 on the matching eigenvector multiplies by
    # lam1 q^{-1} eta_1 - eta_2; on the swapped spectrum it kills.
    q = Fraction(2)
    lam1, lam2 = Fraction(3), Fraction(5)
    mod = modules.HeckeModule.from_spectra(2, q, [[lam1, lam2], [lam2, lam1]])
    roots = modules.HeckeRoots([lam1, lam2], q, m=1)
    e1 = [Fraction(1), Fraction(0)]
    e2 = [Fraction(0), Fraction(1)]
    got1 = modules.project0(e1, roots, mod)
    scalar = lam1 / q * lam1 - lam1 * lam2 / q
    got2 = modules.project0(e2, roots, mod)
    return _ok(got1 == [scalar, 0] and got2 == [0, 0],
               {"got1": [str(x) for x in got1]})


@case("projections", "dual-hecke-roots")
def _case_dual_roots(rng):
    for n in (2, 3):
        for _ in range(10):
            mod, base, spectra = _random_spectra_module(rng, n, n)
            dual = mod.contragredient()
            vec = [Fraction(rng.randrange(-4, 5)) for _ in range(mod.dim)]
            lam = spectra[0][0]
            # build a vector annihilated by H(lam): any vector works on
            # permutation modules since lam appears in every spectrum
            if any(x != 0 for x in mod.apply_H(vec, lam)):
                return _ok(False, {"n": n, "reason": "test module broken"})
            lam_vee = modules.dual_root(lam, mod.q, n)
            if any(x != 0 for x in dual.apply_H(vec, lam_vee)):
                return _ok(False, {"n": n, "reason": "dual root fails"})
            ddual = dual.contragredient()
            if ddual.U != mod.U:
                return _ok(False, {"n": n, "reason": "not involutive"})
            # the top eta inverts: prod of dual roots gives eta_n^{-1}
            vee_all = modules.full_dual_roots(base, mod.q)
            eta = modules.HeckeRoots(base, mod.q).eta(n)
            eta_vee = modules.HeckeRoots(vee_all, mod.q).eta(n)
            if eta_vee * eta != 1:
                return _ok(False, {"n": n, "reason": "eta_n not inverted"})
    return _ok(True)


@case("projections", "recisums")
def _case_recisums(rng):
    return _ok(modules.verify_recisums(20))


@case("projections", "slope-data")
def _case_slopes(rng):
    s1 = modules.slope_data([Fraction(1)], [Fraction(1)], 0, 2, 2)
    if not (s1.kappa == 1 and s1.ordinary and s1.slope == 0):
        return _ok(False, {"case": "unit"})
    s2 = modules.slope_data([Fraction(2), Fraction(1)],
                            [Fraction(1), Fraction(1)], 0, 2, 2)
    if s2.kappa != 2:
        return _ok(False, {"case": "n3", "kappa": str(s2.kappa)})
    s3 = modules.slope_data([Fraction(0), Fraction(1)],
                            [Fraction(1), Fraction(1)], 0, 2, 2)
    return _ok(not s3.finite and s3.slope == vp(0, 2), {"case": "zero"})


@case("projections", "dual-projection-constant")
def _case_dual_proj(rng):
    for n in (2, 3):
        q = Fraction(2)
        lam_full = [Fraction(v) for v in rng.sample([1, 3, 5, 7, 9, 11], n)]
        lam_prime = [Fraction(v) for v in rng.sample([1, 3, 5, 7, 9, 11], n - 1)]
        left = modules.HeckeModule.from_spectra(
            n, q, _permutation_spectra(lam_full))
        right = modules.HeckeModule.from_spectra(
            n - 1, q, _permutation_spectra(lam_prime))
        pm = modules.ProductModule(left, right)
        vec = [[Fraction(1) for _ in range(right.dim)] for _ in range(left.dim)]
        ok, c, reason = modules.verify_dual_projection(pm, vec, lam_full, lam_prime)
        if not ok:
            return _ok(False, {"n": n, "reason": reason})
    return _ok(True)


def _permutation_spectra(base):
    import itertools as it
    return [list(p) for p in it.permutations(base)]


@case("projections", "inversekappa-on-roots")
def _case_invkappa(rng):
    for n in (2, 3):
        for _ in range(10):
            lam = [Fraction(rng.randrange(1, 9)) for _ in range(n)]
            lamp = [Fraction(rng.randrange(1, 9)) for _ in range(n - 1)]
            if not dist.verify_inversekappa(n, 3, lam, lamp):
                return _ok(False, {"n": n, "lam": [str(x) for x in lam]})
    return _ok(True)


# ------------------------------------------------------------------- gauss

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


# ----------------------------------------------------------------- weights

@case("weights", "purity-and-branching")
def _case_weights_basic(rng):
    ok1, w1 = weights.check_purity([3, 1, -1])
    ok2, _ = weights.check_purity([3, 2, 0])
    if not (ok1 and w1 == 2 and not ok2):
        return _ok(False, {"case": "purity"})
    if weights.branch([1, 0]) != [(0,), (1,)]:
        return _ok(False, {"case": "branch-10"})
    if weights.branch([2, 0]) != [(0,), (1,), (2,)]:
        return _ok(False, {"case": "branch-20"})
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        mu = sorted([rng.randrange(-6, 7) for _ in range(n)], reverse=True)
        if len(weights.branch(mu)) != weights.branch_count(mu):
            return _ok(False, {"case": "count", "mu": mu})
    return _ok(True)


@case("weights", "embedding-oracle")
def _case_emb_oracle(rng):
    # brute-force oracle: scan a window of twists and test interlacing
    def oracle(nu, mu):
        out = []
        check = tuple(-x for x in reversed(nu))
        for t in range(-30, 31):
            shifted = [c + t for c in check]
            if all(mu[i + 1] <= shifted[i] <= mu[i] for i in range(len(nu))):
                out.append(t)
        return out

    cases = [((0,), (1, 0)), ((0,), (4, 0)), ((1, -1), (1, 0, -1)),
             ((2, 0), (3, 1, -1))]
    for nu, mu in cases:
        if weights.emb_set(nu, mu) != oracle(nu, mu):
            return _ok(False, {"nu": nu, "mu": mu})
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        mu = sorted(rng.sample(range(-8, 9), n), reverse=True)
        nu = sorted(rng.sample(range(-8, 9), n - 1), reverse=True)
        if weights.emb_set(nu, mu) != oracle(nu, mu):
            return _ok(False, {"nu": nu, "mu": mu})
    return _ok(True)


@case("weights", "gl2-critical-family")
def _case_gl2_family(rng):
    for k in range(2, 21, 2):
        mu = [k - 2, 0]
        nu = [0]
        data = weights.critical_data(mu, nu)
        if len(data["emb"]) != k - 1:
            return _ok(False, {"k": k, "count": len(data["emb"])})
        if not data["bijection_ok"]:
            return _ok(False, {"k": k, "reason": "bijection"})
    return _ok(True)


@case("weights", "random-pure-pairs")
def _case_random_pure(rng):
    made = 0
    while made < 120:
        pair = _random_pure_pair(rng)
        if pair is None:
            continue
        mu, nu = pair
        made += 1
        data = weights.critical_data(mu, nu)
        emb = data["emb"]
        if emb and sorted(emb) != list(range(min(emb), max(emb) + 1)):
            return _ok(False, {"mu": mu, "nu": nu, "reason": "not interval"})
        wv = data["w"] + data["v"]
        if any((wv - t) not in emb for t in emb):
            return _ok(False, {"mu": mu, "nu": nu, "reason": "reflection"})
        if data["parity_ok"] and emb and data["bijection_ok"] is not True:
            return _ok(False, {"mu": mu, "nu": nu, "reason": "bijection"})
    return _ok(True)


def _random_pure_pair(rng, nmax=5):
    n = rng.randrange(2, nmax + 1)
    w = rng.randrange(-4, 10)
    half = [rng.randrange(-8, 9) for _ in range((n + 1) // 2)]
    mu = _pure_completion(half, w, n)
    if mu is None:
        return None
    v = rng.randrange(-4, 10)
    if (w - v) % 2:
        v += 1
    halfn = [rng.randrange(-8, 9) for _ in range(n // 2)]
    nu = _pure_completion(halfn, v, n - 1)
    if nu is None:
        return None
    return mu, nu


def _pure_completion(half, w, n):
    mu = [0] * n
    for i, x in enumerate(half):
        mu[i] = x
        mu[n - 1 - i] = w - x
    if n % 2 == 1:
        if w % 2:
            return None
        mu[n // 2] = w // 2
    if any(mu[i] <= mu[i + 1] for i in range(n - 1)):
        return None
    return mu


@case("weights", "parity-violation")
def _case_parity(rng):
    data = weights.critical_data([1, 0], [0])
    return _ok(not data["parity_ok"] and data["critical_set"] == [],
               {"emb": data["emb"]})


# ----------------------------------------------------------- distributions

def _random_symbol(rng, p, M, kappa, tower=None, d=2):
    tower = tower or dist.QTower(p)
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


@case("distributions", "relation-detects-corruption")
def _case_dist_corrupt(rng):
    sym = _random_symbol(rng, 3, 3, Fraction(2))
    mu = dist.build_mu(sym, 1)
    x0 = mu.tower.elements(2)[0]
    vec = list(mu.values[2][x0])
    vec[0] = vec[0] + 1
    mu.values[2][x0] = tuple(vec)
    ok, witness = dist.check_distribution_relation(mu)
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
    mass = None
    for x in tower.elements(1):
        v = mu.values[1][x]
        mass = v if mass is None else tuple(a + b for a, b in zip(mass, v))
    if total != mass:
        return _ok(False, {"case": "total-mass"})
    quad = next(c for c in tower.characters(2)
                if c.conductor_exponent() == 2)
    got = dist.integrate_character(mu, quad)
    brute = None
    for x in tower.elements(2):
        term = tuple(quad.value(x) * v for v in mu.values[2][x])
        brute = term if brute is None else tuple(
            a + b for a, b in zip(brute, term))
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


# ----------------------------------------------------- functional equation

@case("functional-equation", "involution")
def _case_involution(rng):
    tower = dist.QTower(5)
    # n = 2: 2 -> -inverse(2) = -3 = 2 mod 5
    if dist.involution_vee(tower, 1, 2, 2) != 2:
        return _ok(False, {"case": "mod5"})
    t3 = dist.QTower(3)
    for n in (2, 3):
        for x in t3.elements(3):
            y = dist.involution_vee(t3, 3, x, n)
            if dist.involution_vee(t3, 3, y, n) != x:
                return _ok(False, {"case": "involution", "x": x, "n": n})
    return _ok(True)


def _fe_case(p, n):
    def fn(rng):
        q = Fraction(p)
        lam = [Fraction(v) for v in rng.sample([1, 2, 3, 5, 7], n)]
        lamp = [Fraction(v) for v in rng.sample([1, 2, 3, 5, 7], n - 1)]
        kappa = (modules.kappa_of(lam[: n - 1], q)
                 * modules.kappa_of(lamp, q))
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
    return fn


for _p, _n in ((3, 2), (3, 3), (5, 2), (5, 3)):
    case("functional-equation", f"synthetic-p{_p}-n{_n}", n=_n, p=_p)(
        _fe_case(_p, _n))


@case("functional-equation", "self-dual-fixture")
def _case_self_dual(rng):
    # odd n, palindromic base data, self-dual eigenvalue: fixed point
    p, n = 3, 3
    tower = dist.QTower(p)
    nus = [-1, 0, 1]
    base = {}
    for x in tower.elements(2):
        xv = dist.involution_vee(tower, 2, x, n)
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


# --------------------------------------------------------------- the runner

def corrupted_distribution_case(rng):
    """Deliberately failing fixture: asserts the relation on corrupted data."""
    sym = _random_symbol(rng, 3, 3, Fraction(2))
    mu = dist.build_mu(sym, 1)
    x0 = mu.tower.elements(2)[0]
    vec = list(mu.values[2][x0])
    vec[0] = vec[0] + 1
    mu.values[2][x0] = tuple(vec)
    ok, witness = dist.check_distribution_relation(mu)
    return _ok(ok, {"witness": str(witness)})


def registry(include_corrupted_fixture=False):
    reg = list(_REGISTRY)
    if include_corrupted_fixture:
        reg.append(("distributions", "distributions/zz-corrupted-fixture",
                    corrupted_distribution_case, {}))
    return reg


def run_suite(suites=None, seed=0, jobs=1, include_corrupted_fixture=False,
              n_values=None, p_values=None, r_values=None):
    """Execute the selected suites; returns reports sorted by case id.

    n_values / p_values / r_values restrict the parameter-grid cases
    (cases without pinned parameters always run; every grid case lives at
    level r = 1).  Unselected suites contribute one skip record each, so
    nothing is ever silently dropped; grid cases excluded by the ranges
    are reported as skips too.  Deterministic for a fixed seed (timings
    aside).
    """
    selected = set(suites) if suites else set(SUITES)
    unknown = selected - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    reg = registry(include_corrupted_fixture)
    to_run, range_skips = [], []
    for (s, cid, fn, params) in reg:
        if s not in selected:
            continue
        if n_values is not None and "n" in params and params["n"] not in n_values:
            range_skips.append((s, cid))
            continue
        if p_values is not None and "p" in params and params["p"] not in p_values:
            range_skips.append((s, cid))
            continue
        if r_values is not None and "n" in params and params.get("r", 1) not in r_values:
            range_skips.append((s, cid))
            continue
        to_run.append((s, cid, fn))
    reports = []

    def execute(item):
        s, cid, fn = item
        rng = random.Random(f"{seed}:{cid}")
        t0 = time.perf_counter()
        try:
            status, witness = fn(rng)
        except Exception as exc:  # a crash is a failure with a witness
            status, witness = "fail", {"exception": repr(exc)}
        ms = round((time.perf_counter() - t0) * 1000, 3)
        return {"suite": s, "case": cid, "status": status,
                "witness": witness, "ms": ms}

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(execute, to_run))
    else:
        reports = [execute(item) for item in to_run]
    for s, cid in range_skips:
        reports.append({"suite": s, "case": cid, "status": "skip",
                        "witness": "outside configured n/p ranges", "ms": 0})
    for s in sorted(set(SUITES) - selected):
        reports.append({"suite": s, "case": f"{s}/(all)", "status": "skip",
                        "witness": None, "ms": 0})
    reports.sort(key=lambda rep: rep["case"])
    return reports
