import copy
import pickle
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from heckeforge import hecke, matrices
from heckeforge.exact import as_rational, vp
from heckeforge.laurent import LaurentMatrix, LaurentPoly, lconst, lvar
from heckeforge.matrices import (GlnContext, build_distribution_family,
                                 det_pair_ok, family_symbolic, h_matrix, h_one,
                                 iota_involution, t_matrix, verify_epimorphism,
                                 verify_inverseft, verify_inverseh,
                                 weyl_longest)
from heckeforge.ratmat import RatMat
from test_laurent import assert_same_terms, reference_product


def test_standard_matrices_numeric():
    ctx = GlnContext(3, 2, 1)
    t = t_matrix(RatMat, ctx.n, ctx.f)
    assert t == RatMat.diagonal([Fraction(4), Fraction(2), Fraction(1)])
    h1 = h_one(RatMat, ctx.n)
    assert h1 == RatMat.from_rows([[0, 1, 1], [1, 0, 1], [0, 0, 1]])
    w = weyl_longest(RatMat, ctx.n)
    assert w == RatMat.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_h_f_by_conjugation():
    f = lvar("f")
    hf = h_matrix(LaurentMatrix, 3, f)
    want = LaurentMatrix([
        [0, f ** -1, f ** -2],
        [f, 0, f ** -1],
        [0, 0, 1],
    ])
    assert hf == want
    # entry pattern h^(f)_{ij} = h^(1)_{ij} f^{i-j} for 2 <= n <= 6
    for n in range(2, 7):
        h1 = h_one(LaurentMatrix, n)
        hfn = h_matrix(LaurentMatrix, n, f)
        for i in range(n):
            for j in range(n):
                assert hfn.entry(i, j) == h1.entry(i, j) * f ** (i - j)


def test_t_f_det_and_inverse():
    f = lvar("f")
    t = t_matrix(LaurentMatrix, 3, f)
    assert t.det() == f ** 3
    assert t.inverse() == LaurentMatrix.diagonal([f ** -2, f ** -1, lconst(1)])


def test_w_tilde_differs_from_w_n():
    wt = weyl_longest(RatMat, 2).j_embed() * weyl_longest(RatMat, 3)
    wn = weyl_longest(RatMat, 3)
    assert wt * wt.inverse() == RatMat.identity(3)
    # w~ = j(w_{n-1}) w_n differs from w_n in the GL_{n-1} block
    assert wt != wn


def test_is_iwahori_examples():
    p = 5
    assert RatMat.from_rows([[1, 0], [p, 1]]).is_iwahori(p, 1)
    assert not RatMat.from_rows([[1, 0], [1, 1]]).is_iwahori(p, 1)
    assert not RatMat.from_rows([[p, 0], [0, 1]]).is_iwahori(p, 1)
    assert RatMat.from_rows([[1, Fraction(1, 2)], [0, 1]]).is_iwahori(5, 1)


def test_iota_is_involution():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice([2, 3])
        rows = [[Fraction(rng.randrange(-6, 7)) for _ in range(n)]
                for _ in range(n)]
        for i in range(n):
            rows[i][i] += 17
        g = RatMat.from_rows(rows)
        assert iota_involution(iota_involution(g)) == g


def test_inverseft():
    for n in range(2, 7):
        assert verify_inverseft(n)
        assert verify_inverseft(n, f=Fraction(9))


def test_family_zero_parameters():
    # u = w = 0 degenerates h(u,w) to h^(1): last column all ones within
    # the block rows, first n-1 columns exactly those of h^(1)
    ctx = GlnContext(4, 3, 1)
    fam = build_distribution_family(ctx, (0, 0, 0), (0, 0))
    h1 = h_one(RatMat, 4)
    assert fam["h(u,w)"] == h1
    assert fam["last_column"] == [Fraction(1)] * 4
    assert fam["identity_ok"] and fam["det_pair_ok"]


def test_family_numeric_grid():
    rng = random.Random(9)
    for (n, p, r) in ((2, 2, 1), (3, 3, 1), (3, 2, 2), (4, 3, 1)):
        ctx = GlnContext(n, p, r)
        for _ in range(3):
            u = tuple(rng.randrange(p) for _ in range(n - 1))
            w = tuple(rng.randrange(p) for _ in range(n - 2))
            fam = build_distribution_family(ctx, u, w)
            assert fam["identity_ok"], (n, p, r, u, w)
            assert fam["correction_ok"]
            assert fam["columns_ok"]
            assert fam["det_pair_ok"]
            assert fam["k_iwahori"] and fam["k'_iwahori"]
            assert fam["det_relation_ok"]
            # det k lands in 1 + (f)
            assert vp(fam["det_k"] - 1, p) >= r


def test_family_symbolic_congruences():
    for n in (3, 4, 5):
        fam = family_symbolic(n)
        assert fam["columns_ok"]
        assert fam["det_pair_ok"]


@pytest.mark.parametrize("n, sizes", [(4, (62, 49, 418)),
                                      (5, (330, 247, 5410))])
def test_family_det_pair_matches_reference_product(n, sizes):
    """det(d) det(d'), the family's largest product, term for term.

    `det_pair_ok` forms only this product's terms of f-degree < 2; the full
    product stays here as the Laurent reference."""
    fam = family_symbolic(n)
    det_d, det_dp = fam["d(u,w)"].det(), fam["d'(u,w)"].det()
    prod = det_d * det_dp
    assert (len(det_d.terms), len(det_dp.terms), len(prod.terms)) == sizes
    assert_same_terms(prod.terms, reference_product(det_d, det_dp))


@pytest.mark.parametrize("n", [3, 4])
def test_det_pair_check_fails_on_a_planted_f_term(n):
    """u1 f added to one diagonal entry of d' puts u1 f, times a unit, into
    det(d) det(d') - 1, so the mod-f^2 check must fail."""
    fam = family_symbolic(n)
    d, d_prime = fam["d(u,w)"], fam["d'(u,w)"]
    assert det_pair_ok(d, d_prime)
    for i in range(n - 1):
        entries = [d_prime.entry(j, j) for j in range(n - 1)]
        entries[i] = entries[i] + lvar("u1") * lvar("f")
        assert not det_pair_ok(d, LaurentMatrix.diagonal(entries)), i


def test_epimorphism_surjective():
    for (n, p) in ((2, 2), (2, 3), (3, 2), (3, 3)):
        ok, witness = verify_epimorphism(GlnContext(n, p, 1))
        assert ok, (n, p)
        assert len(witness) == p
        # trivial class attained by u = w = 0
        assert witness[0] is not None


def test_epimorphism_trivial_class():
    ctx = GlnContext(3, 3, 1)
    fam = build_distribution_family(ctx, (0, 0), (0,))
    assert fam["det_k"] == 1


def test_inverseh_symbolic():
    for n in (3, 4, 5):
        ok, details = verify_inverseh(n, symbolic=True)
        assert ok, n
        assert details["det_jd_nprime"]


def test_inverseh_numeric_samples():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice([3, 4, 5])
        p = rng.choice([2, 3, 5])
        r = rng.choice([1, 2])
        while True:
            x = Fraction(rng.randrange(1, 60), rng.choice([1, 3, 7, 11, 13]))
            if x.numerator % p and x.denominator % p:
                break
        ok, details = verify_inverseh(n, p, r, x, symbolic=False)
        assert ok, (n, p, r, x)
        assert details["w d n' w in I"] and details["n in I"]


@pytest.mark.parametrize("symbolic", [True, False])
def test_inverseh_failure_returns_the_difference(monkeypatch, symbolic):
    """A corrector with entry (0, 1) off by one breaks the identity: the
    check fails and returns lhs - rhs, a matrix of the ring's class.  The
    lhs ends in the corrector, so the difference is nonzero in column 1
    and zero in every other column."""
    real = matrices.corrector_matrix

    def perturbed(M, n, f):
        g = real(M, n, f)
        rows = [[g.entry(i, j) for j in range(n)] for i in range(n)]
        rows[0][1] = rows[0][1] + 1
        return M.from_rows(rows)

    monkeypatch.setattr(matrices, "corrector_matrix", perturbed)
    n = 4
    if symbolic:
        ok, details = verify_inverseh(n, symbolic=True)
    else:
        ok, details = verify_inverseh(n, 3, 1, Fraction(2, 5), symbolic=False)
    diff = details["difference"]
    assert not ok and not details["ok"]
    assert type(diff) is (LaurentMatrix if symbolic else RatMat)
    assert any(diff.entry(i, 1) for i in range(n))
    assert not any(diff.entry(i, j) for i in range(n) for j in range(n) if j != 1)


def test_inverseh_rejects_rank_two():
    with pytest.raises(ValueError):
        verify_inverseh(2, symbolic=True)


@pytest.mark.parametrize("n, p, r", [(1, 2, 1), (2, 2, 0), (2, 1, 1),
                                     (2, 4, 1), (3, 9, 1)])
def test_context_rejects_bad_parameters(n, p, r):
    with pytest.raises(ValueError):
        GlnContext(n, p, r)


def test_context_is_a_value():
    ctx = GlnContext(3, 2)
    assert ctx == GlnContext(3, 2, 1) and hash(ctx) == hash(GlnContext(3, 2, 1))
    assert ctx != GlnContext(3, 2, 2) and ctx != (3, 2, 1)
    assert repr(ctx) == "GlnContext(n=3, p=2, r=1)"
    assert (ctx.f, ctx.pi) == (Fraction(2), Fraction(2))
    for name in ("n", "p", "r", "other"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, 5)
    with pytest.raises(AttributeError):
        del ctx.n
    assert (ctx.n, ctx.p, ctx.r) == (3, 2, 1)
    assert copy.copy(ctx) == pickle.loads(pickle.dumps(ctx)) == ctx


# ---------------------------------------------------------------------------
# one set of builders for both rings

def as_ratmat(m):
    """A LaurentMatrix of rational constants read as a RatMat, entry by
    entry: the reference the RatMat builders are checked against."""
    return RatMat.from_rows([[as_rational(m.entry(i, j).constant_value())
                              for j in range(m.n)] for i in range(m.n)])


@st.composite
def builder_points(draw):
    """(n, f, x, us, ws) at 3 <= n <= 5: rationals that are units at a p
    in {2, 3, 5}, n - 1 of them in us and n - 2 in ws."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(3, 5))
    prime_to_p = st.integers(-30, 30).filter(lambda a: a % p)
    unit = st.builds(Fraction, prime_to_p, prime_to_p.filter(lambda a: a > 0))
    us = draw(st.lists(unit, min_size=n - 1, max_size=n - 1))
    ws = draw(st.lists(unit, min_size=n - 2, max_size=n - 2))
    return n, draw(unit), draw(unit), us, ws


def _builders(M, c, n, f, x, us):
    """Every builder over M, its scalars mapped into M's ring by c."""
    return [weyl_longest(M, n), t_matrix(M, n, c(f)), h_one(M, n),
            h_matrix(M, n, c(f)), matrices.d_matrix(M, n, c(x)),
            matrices.upper_unipotent(M, n, [c(u) for u in us]),
            matrices.corrector_matrix(M, n, c(f)),
            matrices.conjugated_toeplitz(M, n, c(f), c(x)),
            matrices.dual_diag(M, n, c(x))]


@settings(max_examples=30, deadline=None)
@given(builder_points())
def test_builders_agree_across_rings(point):
    """Each builder over RatMat equals its LaurentMatrix of constants, and
    so do their inverses, transposes, j-embeddings, scalings and
    determinants, and the shared family core."""
    n, f, x, us, ws = point
    for got, want in zip(_builders(RatMat, Fraction, n, f, x, us),
                         _builders(LaurentMatrix, lconst, n, f, x, us)):
        assert got == as_ratmat(want)
        assert got.inverse() == as_ratmat(want.inverse())
        assert got.transpose() == as_ratmat(want.transpose())
        assert got.j_embed() == as_ratmat(want.j_embed())
        assert got.scale(x) == as_ratmat(want.scale(lconst(x)))
        assert got.det() == as_rational(want.det().constant_value())
    numeric = matrices._family(RatMat, n, f, us, ws)
    constant = matrices._family(LaurentMatrix, n, lconst(f),
                                [lconst(u) for u in us], [lconst(w) for w in ws])
    assert numeric.keys() == constant.keys()
    for key, got in numeric.items():
        if key == "last_column":
            assert got == [as_rational(v.constant_value()) for v in constant[key]]
        else:
            assert got == as_ratmat(constant[key]), key


def test_numeric_checks_make_no_laurent_product(monkeypatch):
    """The numeric checks build and multiply RatMats only: with every
    Laurent product refused, each still returns its verdict."""
    def refuse(*args):
        raise AssertionError("a Laurent product")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    monkeypatch.setattr(LaurentMatrix, "__mul__", refuse)
    with pytest.raises(AssertionError):
        lvar("f") * lvar("x")
    fam = build_distribution_family(GlnContext(3, 3, 1), (1, 2), (1,))
    assert fam["identity_ok"] and fam["correction_ok"] and fam["det_pair_ok"]
    ok, details = verify_inverseh(4, 3, 1, Fraction(2, 5), symbolic=False)
    assert ok and details["w d n' w in I"] and details["n in I"]
    assert verify_inverseft(4, f=Fraction(9))
    ctx = GlnContext(3, 2, 1)
    assert hecke.count_unipotent_index(ctx) == 16
    assert hecke.count_gamma_index(ctx)[0] == 4
