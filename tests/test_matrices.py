import copy
import pickle
import random
from fractions import Fraction

import pytest

from heckeforge.exact import vp
from heckeforge.laurent import LaurentMatrix, lconst, lvar
from heckeforge.matrices import (GlnContext, build_distribution_family,
                                 det_pair_ok, family_symbolic, h_matrix, h_one,
                                 iota_involution, j_delta, j_emb, t_matrix,
                                 verify_epimorphism, verify_inverseft,
                                 verify_inverseh, weyl_longest)
from heckeforge.ratmat import RatMat
from test_laurent import assert_same_terms, reference_product


def test_standard_matrices_numeric():
    ctx = GlnContext(3, 2, 1)
    t = t_matrix(ctx.n, lconst(ctx.f)).to_ratmat()
    assert t == RatMat.diagonal([Fraction(4), Fraction(2), Fraction(1)])
    h1 = h_one(ctx.n).to_ratmat()
    assert h1 == RatMat.from_rows([[0, 1, 1], [1, 0, 1], [0, 0, 1]])
    w = weyl_longest(ctx.n).to_ratmat()
    assert w == RatMat.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_h_f_by_conjugation():
    f = lvar("f")
    hf = h_matrix(3, f)
    want = LaurentMatrix([
        [0, f ** -1, f ** -2],
        [f, 0, f ** -1],
        [0, 0, 1],
    ])
    assert hf == want
    # entry pattern h^(f)_{ij} = h^(1)_{ij} f^{i-j} for 2 <= n <= 6
    for n in range(2, 7):
        h1 = h_one(n)
        hfn = h_matrix(n, f)
        for i in range(n):
            for j in range(n):
                assert hfn.entries[i][j] == h1.entries[i][j] * f ** (i - j)


def test_t_f_det_and_inverse():
    f = lvar("f")
    t = t_matrix(3, f)
    assert t.det() == f ** 3
    assert t.inverse() == LaurentMatrix.diagonal([f ** -2, f ** -1, lconst(1)])


def test_j_delta_and_w_tilde():
    g = LaurentMatrix([[1, 2], [0, 1]])
    jd = j_delta(g, lconst(Fraction(3)), 2)
    assert jd.entries[2][2] == lconst(9)
    wt = (j_emb(weyl_longest(2)) * weyl_longest(3)).to_ratmat()
    wn = weyl_longest(3).to_ratmat()
    assert wt * wt.inv() == RatMat.identity(3)
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
    h1 = h_one(4).to_ratmat()
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
        entries = [d_prime[j, j] for j in range(n - 1)]
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
