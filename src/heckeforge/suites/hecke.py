"""Cases of the `hecke` suite: coset expansions, Satake and indices."""

from fractions import Fraction

from heckeforge import hecke, matrices
from heckeforge.laurent import lvar
from heckeforge.matrices import GlnContext
from heckeforge.suite import _ok, case


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
