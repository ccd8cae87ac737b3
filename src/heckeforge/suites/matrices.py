"""Cases of the `matrices` suite: the distinguished GL(n) matrices."""

from fractions import Fraction

from heckeforge import matrices
from heckeforge.laurent import lvar
from heckeforge.matrices import GlnContext
from heckeforge.suite import _ok, case


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
