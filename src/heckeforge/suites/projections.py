"""Cases of the `projections` suite: Hecke modules and their projectors."""

from fractions import Fraction

from heckeforge import modules
from heckeforge.exact import vp
from heckeforge.suite import _ok, case


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
            if not modules.verify_inversekappa(n, 3, lam, lamp):
                return _ok(False, {"n": n, "lam": [str(x) for x in lam]})
    return _ok(True)
