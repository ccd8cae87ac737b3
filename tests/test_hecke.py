import itertools
import json
import os
import random
import signal
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeforge import hecke, kernels
from heckeforge.laurent import lvar
from heckeforge.matrices import GlnContext, h_matrix
from heckeforge.ratmat import RatMat, SingularMatrixError
from test_cli import _deadline


def _ctx(n=2, p=2, r=1):
    return GlnContext(n, p, r)


def _one(rows, coeff=1):
    """A one-term sum rows K_I at (n, p, r) = (2, 2, 1)."""
    return hecke.CosetSum(_ctx(), [(RatMat.from_rows(rows), coeff)])


def test_coset_equality_examples():
    a = _one([[2, 0], [0, 1]])
    assert a == a
    assert a == _one([[2, 2], [0, 1]])  # differ by an integral unipotent
    # g^{-1} h = [[1, 1/2], [0, 1]] is not integral
    assert not a == _one([[2, 1], [0, 1]])


def test_coset_rejects_singular():
    with pytest.raises(SingularMatrixError):
        hecke.CosetSum(_ctx(), [(RatMat.from_rows([[1, 1], [1, 1]]), 1)])


def test_expand_v1_pinned():
    ctx = _ctx()
    cs = hecke.expand_V(ctx, 1)
    want = [RatMat.from_rows([[2, 0], [0, 1]]), RatMat.from_rows([[2, 1], [0, 1]])]
    assert len(cs) == 2
    assert cs == hecke.CosetSum(ctx, [(w, 1) for w in want])


# Three cosets of GL_2 at p = 2, level 1; A and A2 are one coset.
_A = RatMat.from_rows([[2, 0], [0, 1]])
_A2 = RatMat.from_rows([[2, 2], [0, 1]])
_B = RatMat.from_rows([[2, 1], [0, 1]])
_C = RatMat.from_rows([[1, 0], [0, 2]])


def test_every_sum_folds_a_repeated_coset():
    """A coset listed twice is one coset with coefficient 2; `folded` is
    accepted and changes nothing."""
    ctx = _ctx()
    for kwargs in ({}, {"folded": True}):
        cs = hecke.CosetSum(ctx, [(_A, 1), (_A2, 1)], **kwargs)
        assert len(cs) == 1 and cs.pairs() == [(_A, 2)]
        assert cs == hecke.CosetSum(ctx, [(_A2, 2)])


def test_check_disjoint_finds_a_coset_listed_twice():
    """The witness is (i, c): the first coset i of `pairs()` whose
    coefficient c is not 1."""
    ctx = _ctx()
    for reps, want in (([_A, _A2], (0, 2)), ([_A, _A2, _B], (0, 2)),
                       ([_B, _A, _A2], (1, 2)), ([_A, _B, _A2], (0, 2)),
                       ([_B, _A, _C, _A2, _A], (1, 3))):
        cs = hecke.CosetSum(ctx, [(g, 1) for g in reps])
        assert hecke.check_disjoint(cs) == (False, want)
    cs = hecke.CosetSum(ctx, [(g, 1) for g in (_A, _B, _C)])
    assert hecke.check_disjoint(cs) == (True, None)


def test_coverage_counts_a_probe_in_two_cosets(monkeypatch):
    ctx = _ctx()
    v1 = hecke.expand_V(ctx, 1)
    assert hecke.check_coverage(ctx, "V1", samples=20, seed=4) == 0
    # every coset listed twice: each probe lies in two listed cosets
    twice = hecke.CosetSum(ctx, v1.pairs() * 2)
    monkeypatch.setattr(hecke, "expand_operator", lambda ctx, tag: twice)
    assert hecke.check_coverage(ctx, "V1", samples=20, seed=4) == 20
    # one coset left out: the probes in it lie in none
    short = hecke.CosetSum(ctx, v1.pairs()[:1])
    monkeypatch.setattr(hecke, "expand_operator", lambda ctx, tag: short)
    assert 0 < hecke.check_coverage(ctx, "V1", samples=20, seed=4) < 20


def test_equal_cosets_unequal_coefficients():
    ctx = _ctx()
    a = hecke.CosetSum(ctx, [(_A, 1), (_B, 2)])
    assert not a == hecke.CosetSum(ctx, [(_A2, 2), (_B, 1)])
    assert not a == hecke.CosetSum(ctx, [(_A2, 1), (_B, 3)])
    assert a == hecke.CosetSum(ctx, [(_B, 2), (_A2, 1)])
    # a coset listed twice is one coset with coefficient 2
    dup = hecke.CosetSum(ctx, [(_A, 1), (_A2, 1)])
    assert not dup == hecke.CosetSum(ctx, [(_A, 1), (_B, 1)])


def test_cancelled_terms_are_dropped():
    ctx = _ctx()
    a = hecke.CosetSum(ctx, [(_A, 2), (_B, 1)])
    assert len(a + a.scale(-1)) == 0 and len(a.scale(0)) == 0
    diff = a + hecke.CosetSum(ctx, [(_A2, -2), (_C, 1)])
    assert diff == hecke.CosetSum(ctx, [(_B, 1), (_C, 1)])
    # a folded coset that cancels and comes back folds as new
    back = hecke.CosetSum(ctx, [(_A, 1), (_A2, -1), (_B, 1), (_A2, 3)])
    assert [c for _, c in back.pairs()] == [1, 3]
    assert len(back) == 2


def _same_coset_reference(g, h, ctx):
    """g K_I = h K_I, by the kernels' separate product and Iwahori test."""
    gi = g.inverse()
    prod = kernels.mat_mul(gi.num, h.num, ctx.n)
    return kernels.is_iwahori_scaled(prod, gi.den * h.den, ctx.n, ctx.p, ctx.r)


# ---------------------------------------------------------------------------
# the coset key against the product-then-test reference, at levels r >= 0
# (a GlnContext rejects r = 0, so the level is a plain namespace)

_KINDS = ("I_r", "I_r-1", "GL_n", "free")


def _random_plu(ints, pick, n, p, level, diagonal, permute):
    """P L D U / c: L lower unipotent with entries in p^level Z, D
    diagonal with entries from `diagonal()`, U upper unipotent, c a
    denominator prime to p, and P a permutation when `permute`.  `ints(a,
    b)` and `pick(seq)` draw the entries."""
    perm = pick(list(itertools.permutations(range(n)))) if permute else None
    rows = [[0] * n for _ in range(n)]
    lower, upper = RatMat.identity(n).rows(), RatMat.identity(n).rows()
    for i in range(n):
        rows[i][perm[i] if perm else i] = 1
        for j in range(i):
            lower[i][j] = p ** level * ints(-p * p, p * p)
            upper[j][i] = ints(-p * p, p * p)
    diag = RatMat.diagonal([diagonal() for _ in range(n)])
    k = (RatMat.from_rows(rows) * RatMat.from_rows(lower) * diag
         * RatMat.from_rows(upper))
    return k.scale(Fraction(1, pick([1, 7, 11, 13])))


def _random_coset_pair(ints, pick):
    """(kind, g, h, level).  g is P L D U over p^e times a prime other
    than p, D with entries of any valuation below 3; h = g k with k in
    I_r, in I_(r-1), or in GL_n(Z_p) and mostly outside I_r (the hard
    negatives), or h is drawn as g is."""
    n, p, r = pick([2, 3, 4]), pick([2, 3, 5]), ints(0, 3)
    units = [u for u in range(1, p ** 3) if u % p]

    def generic():
        den = p ** ints(0, 2)
        return _random_plu(
            ints, pick, n, p, 0,
            lambda: pick([1, -1]) * p ** ints(0, 2) * pick(units),
            True).scale(Fraction(1, den))

    g = generic()
    kind = pick(_KINDS)
    if kind == "free":
        h = generic()
    else:
        level = {"I_r": r, "I_r-1": max(r - 1, 0), "GL_n": 0}[kind]
        h = g * _random_plu(ints, pick, n, p, level, lambda: pick(units),
                            kind == "GL_n")
    return kind, g, h, types.SimpleNamespace(n=n, p=p, r=r)


def _same_key(g, h, level):
    n, p, r = level.n, level.p, level.r
    return (kernels.iwahori_coset_key(g.num, g.den, n, p, r)
            == kernels.iwahori_coset_key(h.num, h.den, n, p, r))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coset_key_equality_is_coset_equality(data):
    _, g, h, level = _random_coset_pair(
        lambda a, b: data.draw(st.integers(a, b)),
        lambda seq: data.draw(st.sampled_from(seq)))
    assert _same_key(g, h, level) == _same_coset_reference(g, h, level)


def test_coset_key_sweep_meets_every_outcome():
    """A seeded sweep over the same draws: each kind of h gives the
    outcomes it should, hard negatives in GL_n(Z_p) minus I_r included."""
    rng = random.Random(17)
    seen = set()
    for _ in range(1500):
        kind, g, h, level = _random_coset_pair(rng.randint, rng.choice)
        same = _same_coset_reference(g, h, level)
        assert _same_key(g, h, level) == same, (g, h, level)
        seen.add((kind, same))
    assert seen >= {("I_r", True), ("I_r-1", True), ("I_r-1", False),
                    ("GL_n", True), ("GL_n", False), ("free", False)}
    assert ("I_r", False) not in seen


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 4]], [[0, 0], [0, 0]], [[2, 4, 6], [1, 0, 1], [3, 4, 7]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
])
def test_coset_key_rejects_singular(rows):
    n = len(rows)
    for p, r in ((2, 0), (3, 1), (5, 2)):
        with pytest.raises(SingularMatrixError):
            kernels.iwahori_coset_key(sum(rows, []), 3, n, p, r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_triangular_key_is_the_general_key(data):
    """An upper triangular g = num/den takes the key's triangular path,
    and g l the general one, l lower unipotent in I_r with a nonzero
    corner, so g l is not triangular.  Both lie in one coset, so the keys
    agree.  The pivots are p^a u with units u other than 1 too, and den
    is p^e times a unit."""
    def ints(a, b):
        return data.draw(st.integers(a, b))

    n, p, r = ints(2, 4), data.draw(st.sampled_from([2, 3, 5])), ints(0, 3)
    units = [u for u in range(-p * p, p * p) if u % p]
    num = [0] * (n * n)
    for i in range(n):
        num[i * n + i] = p ** ints(0, 3) * data.draw(st.sampled_from(units))
        for j in range(i + 1, n):
            num[i * n + j] = ints(-p ** 3, p ** 3)
    den = p ** ints(0, 2) * data.draw(st.sampled_from([1, 7, -11, 13]))
    g = RatMat(n, num, den)
    lower = RatMat.identity(n).rows()
    for i in range(n):
        for j in range(i):
            lower[i][j] = p ** r * ints(-p, p)
    lower[n - 1][0] = p ** r * data.draw(st.sampled_from([-2, -1, 1, 2]))
    h = g * RatMat.from_rows(lower)
    assert any(h.num[i * n + j] for i in range(n) for j in range(i))
    assert (kernels.iwahori_coset_key(g.num, g.den, n, p, r)
            == kernels.iwahori_coset_key(h.num, h.den, n, p, r))


@pytest.mark.parametrize("rows", [
    [[0, 1], [0, 1]], [[1, 2], [0, 0]], [[0, 0], [0, 0]],
    [[2, 1, 3], [0, 0, 5], [0, 0, 1]], [[4, 1, 3], [0, 3, 5], [0, 0, 0]],
])
def test_triangular_key_rejects_a_zero_pivot(rows):
    """An upper triangular matrix with a zero on the diagonal is singular,
    and the triangular path says so at once, without taking v_p(0)."""
    def too_slow(signum, frame):
        pytest.fail("a zero pivot was not rejected within 5 s")

    n = len(rows)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        for p, r in ((2, 0), (3, 1), (5, 2)):
            with pytest.raises(SingularMatrixError):
                kernels.iwahori_coset_key(sum(rows, []), 1, n, p, r)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _tags(n, p):
    """Every operator tag at rank n, V_p and V_p' only up to 10^4 cosets:
    at (4, 3) they have 3^10 each, 5 s to list and key on a 2-core
    machine, and above MAX_ENUMERATION they are refused."""
    tags = ([f"V{k}" for k in range(n + 1)] + [f"T{k}" for k in range(n + 1)]
            + [f"U{k}" for k in range(1, n + 1)])
    if p ** ((n + 1) * n * (n - 1) // 6) <= 10 ** 4:
        tags += ["Vp", "Vp'"]
    return tags


@pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 4)
                                  for p in (2, 3, 5)])
def test_listed_cosets_carry_their_coset_key(n, p):
    """Every listed representative is a column Hermite form, so its
    `kernels.hermite_key`, which the expansion stores, is its
    `kernels.iwahori_coset_key`, at levels 1 to 3."""
    for r in (1, 2, 3):
        ctx = _ctx(n, p, r)
        for tag in _tags(n, p):
            for key, (rep, _) in hecke.expand_operator(ctx, tag).terms.items():
                assert key == kernels.iwahori_coset_key(
                    rep.num, rep.den, n, p, r), (tag, r, rep.rows())


@pytest.mark.parametrize("n, p, r", [(2, 2, 2), (2, 5, 3), (3, 2, 2),
                                     (3, 3, 3), (4, 2, 2)])
def test_vp_lists_each_coset_once_at_every_level(n, p, r):
    """V_p and V_p' list p^((n+1)n(n-1)/6) cosets at every level r, each
    once and together covering the double coset."""
    ctx = _ctx(n, p, r)
    for tag in ("Vp", "Vp'"):
        cs = hecke.expand_operator(ctx, tag)
        assert len(cs) == p ** ((n + 1) * n * (n - 1) // 6), tag
        assert hecke.check_disjoint(cs) == (True, None), tag
        assert hecke.check_coverage(ctx, tag, samples=50, seed=0) == 0, tag


def _coset_sums_reference(pairs, ctx):
    """[rep, sum of the coefficients listed at rep's coset] for each
    coset of `pairs` with a nonzero sum, cosets told apart by the
    reference test alone."""
    sums = []
    for g, c in pairs:
        for entry in sums:
            if _same_coset_reference(entry[0], g, ctx):
                entry[1] += c
                break
        else:
            sums.append([g, c])
    return [(g, c) for g, c in sums if c]


def _equal_reference(terms, other, ctx):
    """Brute force: the listings have the same per-coset coefficient
    sums, that is some bijection of their cosets pairs equal cosets with
    equal sums."""
    mine = _coset_sums_reference(terms, ctx)
    theirs = _coset_sums_reference(other, ctx)
    return len(mine) == len(theirs) and any(
        all(c == oc and _same_coset_reference(g, h, ctx)
            for (g, c), (h, oc) in zip(mine, perm))
        for perm in itertools.permutations(theirs))


def test_sum_equality_against_brute_force():
    """Listings with repeated cosets under random representatives:
    equality of the folded sums agrees with the reference on the
    per-coset coefficient sums."""
    ctx = _ctx()
    rng = random.Random(11)

    def rerep(g):
        up = RatMat.from_rows([[1, rng.randrange(4)], [0, 1]])
        lo = RatMat.from_rows([[1, 0], [2 * rng.randrange(4), 1]])
        return g * up * lo

    outcomes = set()
    for _ in range(300):
        terms = [(rng.choice([_A, _B, _C]), rng.choice([1, 2]))
                 for _ in range(rng.randrange(5))]
        other = [(rerep(g), c) for g, c in terms]
        rng.shuffle(other)
        if other and rng.random() < 0.5:
            i = rng.randrange(len(other))
            g, c = other[i]
            if rng.random() < 0.5:
                other[i] = (rerep(rng.choice([_A, _B, _C])), c)  # a coset
            else:
                other[i] = (g, 3 - c)  # a coefficient
        a = hecke.CosetSum(ctx, terms)
        b = hecke.CosetSum(ctx, other)
        want = _equal_reference(terms, other, ctx)
        assert (a == b) == want, (terms, other)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_expand_counts():
    assert len(hecke.expand_V(_ctx(3, 2), 1)) == 4
    assert len(hecke.expand_V(_ctx(3, 2), 2)) == 4
    assert len(hecke.expand_Vp(_ctx(3, 2))) == 16
    assert len(hecke.expand_operator(_ctx(3, 2), "Vp'")) == 16
    assert len(hecke.expand_U(_ctx(3, 2), 1)) == 4
    assert len(hecke.expand_U(_ctx(3, 2), 2)) == 2
    assert len(hecke.expand_U(_ctx(3, 2), 3)) == 1


@pytest.mark.parametrize("tag, n, p, r, count", [
    ("V1", 3, 2, 1, 4), ("V2", 3, 3, 1, 9), ("Vp", 3, 2, 1, 16),
    ("Vp'", 3, 2, 2, 16), ("U1", 3, 2, 1, 4),
    # T cosets: [n choose nu]_p
    ("T1", 3, 2, 1, 4 + 2 + 1), ("T2", 3, 2, 1, 7), ("T2", 4, 3, 1, 130),
])
def test_enumeration_bound_is_the_closed_form_count(monkeypatch, tag, n, p,
                                                    r, count):
    ctx = _ctx(n, p, r)
    monkeypatch.setattr(hecke, "MAX_ENUMERATION", count)
    cs = hecke.expand_operator(ctx, tag)
    assert len(cs) == count
    monkeypatch.setattr(hecke, "MAX_ENUMERATION", count - 1)
    with pytest.raises(ValueError, match="MAX_ENUMERATION"):
        hecke.expand_operator(ctx, tag)


def _brute_force_U(ctx, i):
    """U_i as the fold of u pi_i over every upper-unipotent u with entries
    mod p^2, each coset with coefficient 1: the reference for the closed
    form of `hecke.expand_U`."""
    n, p = ctx.n, ctx.p
    pi_i = RatMat.diagonal([p if j == i - 1 else 1 for j in range(n)])
    positions = [(a, b) for a in range(n) for b in range(a + 1, n)]
    folded = hecke.CosetSum(ctx)
    for vals in itertools.product(range(p * p), repeat=len(positions)):
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        for (a, b), v in zip(positions, vals):
            rows[a][b] = v
        folded._accumulate(RatMat.from_rows(rows) * pi_i, 1)
    return hecke.CosetSum(ctx, [(rep, 1) for rep, _ in folded.pairs()])


@pytest.mark.parametrize("n, p, r", [
    (2, 2, 1), (2, 3, 1), (2, 5, 1), (2, 7, 1), (3, 2, 1), (3, 3, 1),
    (3, 5, 1), (4, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2),
])
def test_expand_U_is_the_brute_force_fold(n, p, r):
    ctx = _ctx(n, p, r)
    for i in range(1, n + 1):
        cs = hecke.expand_U(ctx, i)
        assert len(cs) == p ** (n - i)
        assert all(c == 1 for _, c in cs.pairs())
        assert cs == _brute_force_U(ctx, i), i


def test_expand_U_beyond_the_brute_force():
    # (4, 3) has 3^12 brute-force candidates, more than MAX_ENUMERATION
    ctx = _ctx(4, 3)
    for i in range(1, 5):
        cs = hecke.expand_U(ctx, i)
        assert len(cs) == 3 ** (4 - i)
        assert hecke.check_disjoint(cs) == (True, None)
        assert hecke.check_coverage(ctx, f"U{i}", samples=50, seed=i) == 0


def test_unit_element():
    ctx = _ctx()
    unit = hecke.expand_V(ctx, 0)
    v1 = hecke.expand_V(ctx, 1)
    assert unit * v1 == v1
    assert v1 * unit == v1


def test_u1_u2_is_q_times_T2():
    ctx = _ctx()
    prod = hecke.expand_U(ctx, 1) * hecke.expand_U(ctx, 2)
    central = RatMat.diagonal([Fraction(2), Fraction(2)])
    want = hecke.CosetSum(ctx, [(central, 2)])
    assert prod == want


def test_v1_squared_regression():
    # p^2 distinct cosets [[p^2, c], [0, 1]], each with multiplicity one
    for p in (2, 3):
        ctx = _ctx(2, p)
        sq = hecke.expand_V(ctx, 1) * hecke.expand_V(ctx, 1)
        assert len(sq) == p * p
        assert all(c == 1 for _, c in sq.pairs())


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_convolve_with_an_invariant_right_factor_ignores_representatives(n, p):
    """Against a left K_I-invariant right factor (each V_nu), a product is
    unchanged when every left representative g is replaced by g k, k a
    random element of K_I, though the representatives themselves move."""
    ctx = _ctx(n, p)
    rng = random.Random(31 * n + p)
    left = hecke.expand_V(ctx, 1) + hecke.expand_U(ctx, 1).scale(3)
    moved = hecke.CosetSum(ctx, [(g * hecke._random_iwahori(ctx, rng), c)
                                 for g, c in left.pairs()])
    assert moved == left
    assert any(a.num != b.num for (a, _), (b, _)
               in zip(left.pairs(), moved.pairs()))
    for nu in range(n + 1):
        right = hecke.expand_V(ctx, nu)
        assert moved * right == left * right, nu
    # V_1 with the weight i + 1 on its i-th coset is not invariant
    weighted = hecke.CosetSum(ctx, [(g, i + 1) for i, (g, _)
                                    in enumerate(hecke.expand_V(ctx, 1).pairs())])
    assert not moved * weighted == left * weighted


def test_eps_T1_pinned():
    ctx = _ctx()
    t1 = hecke.eps_T(ctx, 1)
    assert len(t1) == 3
    expected = [
        RatMat.from_rows([[2, 0], [0, 1]]),
        RatMat.from_rows([[2, 1], [0, 1]]),
        RatMat.from_rows([[1, 0], [0, 2]]),
    ]
    for w in expected:
        assert any(_same_coset_reference(w, rep, ctx) for rep, _ in t1.pairs())


def _rank_mod_p(rows, p):
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m)):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [(x - c * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _spherical_T_reference(n, p, nu):
    """The former enumeration of spherical_T_reps: every triangular form
    with diagonal p^e, e in {0,1}^n summing to nu, and an entry in
    range(p) right of each scaled pivot, kept when its reduction mod p
    has rank n - nu."""
    reps = []
    for ones in itertools.combinations(range(n), nu):
        positions = [(a, b) for a in ones for b in range(a + 1, n)]
        for vals in itertools.product(range(p), repeat=len(positions)):
            rows = [[(p if i in ones else 1) if i == j else 0
                     for j in range(n)] for i in range(n)]
            for (a, b), v in zip(positions, vals):
                rows[a][b] = v
            if _rank_mod_p(rows, p) == n - nu:
                reps.append(rows)
    return reps


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("n, p", [(n, p) for n in range(1, 5)
                                  for p in (2, 3, 5)] + [(5, 2)])
def test_spherical_T_reps_match_the_rank_filter(n, p):
    """The direct construction lists the rank-filtered candidates, in
    their order, and there are [n choose nu]_p of them."""
    for nu in range(n + 1):
        reps = [rep.rows() for rep in hecke.spherical_T_reps(n, p, nu)]
        assert reps == _spherical_T_reference(n, p, nu)
        assert len(reps) == _gaussian_binomial(n, nu, p)


def _reference_expansion(n, p, tag):
    """The representatives of `tag` as four separate enumerations listed
    them before the expansions shared one: V_nu, U_i and T_nu filled
    triangular rows directly, and V_p, V_p' multiplied each
    u in U_n(Z_p) / t U_n(Z_p) t^{-1}, t = t_(p), by the generator:
    entry (i, j) of u runs over range(p^(j-i)) at every level r."""
    kind, k = (tag, None) if tag in ("Vp", "Vp'") else (tag[0], int(tag[1:]))
    reps = []
    if kind in ("Vp", "Vp'"):
        g = RatMat.diagonal([p ** (n - 1 - i + (kind == "Vp'"))
                             for i in range(n)])
        positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        ranges = [range(p ** (j - i)) for i, j in positions]
        for vals in itertools.product(*ranges):
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for (i, j), v in zip(positions, vals):
                rows[i][j] = v
            reps.append(RatMat.from_rows(rows) * g)
    elif kind == "U":
        for vals in itertools.product(range(p), repeat=n - k):
            rows = [[int(a == b) for b in range(n)] for a in range(n)]
            rows[k - 1][k - 1] = p
            rows[k - 1][k:] = vals
            reps.append(RatMat.from_rows(rows))
    elif kind == "V":
        for vals in itertools.product(range(p), repeat=k * (n - k)):
            rows = [[(p if i < k else 1) if i == j else 0 for j in range(n)]
                    for i in range(n)]
            it = iter(vals)
            for i in range(k):
                for j in range(k, n):
                    rows[i][j] = next(it)
            reps.append(RatMat.from_rows(rows))
    else:
        for ones in itertools.combinations(range(n), k):
            positions = [(a, b) for a in ones for b in range(a + 1, n)
                         if b not in ones]
            for vals in itertools.product(range(p), repeat=len(positions)):
                rows = [[(p if i in ones else 1) if i == j else 0
                         for j in range(n)] for i in range(n)]
                for (a, b), v in zip(positions, vals):
                    rows[a][b] = v
                reps.append(RatMat.from_rows(rows))
    return [(rep.num, rep.den) for rep in reps]


@pytest.mark.parametrize("n, p, r", [(n, p, r) for n in (2, 3, 4)
                                     for p in (2, 3, 5) for r in (1, 2)])
def test_expansions_list_the_reference_enumerations(n, p, r):
    """Every tag lists the reference's matrices, in its order, each with
    coefficient 1."""
    ctx = _ctx(n, p, r)
    for tag in _tags(n, p):
        pairs = hecke.expand_operator(ctx, tag).pairs()
        assert all(c == 1 for _, c in pairs), tag
        assert [(rep.num, rep.den) for rep, _ in pairs] == \
            _reference_expansion(n, p, tag), tag
    if r == 1:
        for nu in range(n + 1):
            assert [(rep.num, rep.den) for rep in
                    hecke.spherical_T_reps(n, p, nu)] == \
                _reference_expansion(n, p, f"T{nu}"), nu


def test_eps_injectivity_spotcheck():
    ctx = _ctx()
    t0 = hecke.eps_T(ctx, 0)
    t1 = hecke.eps_T(ctx, 1)
    assert not t1 == t0.scale(3)
    assert not t1 == t0


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_gritsenko(n, p):
    ok, details = hecke.verify_gritsenko(GlnContext(n, p, 1))
    assert ok, details


def test_commutativity():
    for (n, p) in ((2, 2), (3, 2)):
        ok, pair = hecke.verify_commutativity(GlnContext(n, p, 1))
        assert ok, pair


def test_u_products_are_order_normalized():
    # The monoid-restricted U_i coset lists are not left-invariant under
    # the full Iwahori subgroup, so the raw order-swapped fold differs;
    # every formula downstream consumes increasing-index products, whose
    # normal forms against the commuting V-family are what
    # verify_commutativity pins down.
    ctx = _ctx()
    u1, u2 = hecke.expand_U(ctx, 1), hecke.expand_U(ctx, 2)
    v2 = hecke.expand_V(ctx, 2)
    assert u1 * u2 == v2.scale(2)
    assert not (u2 * u1) == (u1 * u2)


def test_disjointness_and_coverage():
    for (n, p) in ((2, 2), (3, 2)):
        ctx = GlnContext(n, p, 1)
        for tag in ["V1", "Vp", "Vp'"]:
            cs = hecke.expand_operator(ctx, tag)
            ok, pair = hecke.check_disjoint(cs)
            assert ok, (tag, pair)
            assert hecke.check_coverage(ctx, tag, samples=50, seed=1) == 0
        assert hecke.check_coverage(ctx, "U1", samples=50, seed=2) == 0
        assert hecke.check_coverage(ctx, "T1", samples=50, seed=3) == 0


def test_expand_operator_validation():
    ctx = GlnContext(2, 3, 1)
    cs = hecke.expand_operator(ctx, "V1")
    assert len(cs) == 3
    assert hecke.check_disjoint(cs) == (True, None)
    assert hecke.check_coverage(ctx, "V1", samples=50, seed=0) == 0
    for tag in ("W9", ""):
        with pytest.raises(ValueError):
            hecke.expand_operator(ctx, tag)


def test_satake_pinned_displays():
    q, x1, x2 = lvar("q"), lvar("X1"), lvar("X2")
    assert hecke.satake(2, 1) == q * (x1 + x2)
    assert hecke.satake(2, 2) == q ** 3 * x1 * x2
    assert hecke.satake(4, 0) == 1


def _elementary_symmetric_via_generating_function(n, nu):
    """Oracle: coefficient of Y^nu in prod (1 + X_i Y)."""
    from heckeforge.laurent import LaurentPoly
    y = lvar("Y")
    prod = LaurentPoly.const(1)
    for i in range(1, n + 1):
        prod = prod * (1 + lvar(f"X{i}") * y)
    out = LaurentPoly.const(0)
    for key, coeff in prod.terms.items():
        d = dict(key)
        if d.get("Y", 0) == nu:
            rest = tuple(sorted((k, v) for k, v in d.items() if k != "Y"))
            out = out + LaurentPoly({rest: coeff})
    return out


def test_satake_against_generating_function():
    for n in range(2, 5):
        for nu in range(n + 1):
            want = (lvar("q") ** (nu * (nu + 1) // 2)
                    * _elementary_symmetric_via_generating_function(n, nu))
            assert hecke.satake(n, nu) == want


def _former_satake(n, nu):
    """Satake built by summing the C(n, nu) monomials one at a time."""
    from heckeforge.laurent import LaurentPoly
    out = LaurentPoly.const(0)
    for comb in itertools.combinations(range(n), nu):
        term = LaurentPoly.const(1)
        for i in comb:
            term = term * lvar(f"X{i+1}")
        out = out + term
    return lvar("q", nu * (nu + 1) // 2) * out


def test_satake_matches_the_summed_terms():
    for n in range(0, 12):
        for nu in range(n + 1):
            got, want = hecke.satake(n, nu), _former_satake(n, nu)
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(type(v) is Fraction for v in got.terms.values())


@pytest.mark.parametrize("n, nu, count", [(6, 3, 20), (7, 2, 21), (9, 9, 1)])
def test_satake_bound_is_the_term_count(monkeypatch, n, nu, count):
    monkeypatch.setattr(hecke, "MAX_ENUMERATION", count)
    assert len(hecke.satake(n, nu).terms) == count
    monkeypatch.setattr(hecke, "MAX_ENUMERATION", count - 1)
    with pytest.raises(ValueError, match=(
            rf"^satake: C\(n, nu\) = C\({n}, {nu}\) = {count} terms "
            rf"exceeds MAX_ENUMERATION = {count - 1}$")):
        hecke.satake(n, nu)


def test_satake_bound_for_large_n():
    # C(n, nu) >= n for 0 < nu < n, and C(n, 0) = 1
    with pytest.raises(ValueError, match=r"C\(n, nu\) = C\(100001, 1\) "
                       r"terms exceeds MAX_ENUMERATION = 100000$"):
        hecke.satake(100001, 1)
    assert hecke.satake(10 ** 6, 0) == 1


def test_count_indices_enumerates_each_level_once(monkeypatch):
    seen = []
    count = hecke.count_gamma_index

    def counting(ctx):
        seen.append(ctx.r)
        return count(ctx)

    monkeypatch.setattr(hecke, "count_gamma_index", counting)
    out = hecke.count_indices(_ctx(2, 3, 1))
    assert seen == [1, 2] and out["gamma_ratio_ok"]


def test_satake_gl2_convolution_regression():
    for p in (2, 3):
        c02, c11, consistent = hecke.gl2_satake_regression(p)
        assert c02 == 1
        assert c11 == p + 1
        assert consistent


@pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], [[3, 1], [0, 0]],
                                  [[1, 0, 0], [0, 0, 1], [0, 1, 1]]])
def test_satake_transform_refuses_a_zero_diagonal_entry(rows):
    """v_p of a zero diagonal entry is +inf: the transform raises at once
    instead of dividing p out of 0 forever or giving an infinite
    exponent."""
    rep = RatMat.from_rows(rows)
    with _deadline(5, rows):
        for p in (2, 3):
            with pytest.raises(ValueError, match=r"entry \((\d), \1\) is 0"):
                hecke.satake_halfdensity_at([(rep, 1)], len(rows), p)


def test_shintani_examples():
    a1, a2, b = Fraction(2), Fraction(3), Fraction(5)
    poly = hecke.shintani_lfactor([a1, a2], [b])
    t = lvar("T")
    want = (1 - a1 * b * t) * (1 - a2 * b * t)
    assert poly == want
    with pytest.raises(ValueError):
        hecke.shintani_lfactor([Fraction(0), a2], [b])
    deep = hecke.shintani_lfactor([1, 2, 3], [1, 5])
    assert max(dict(k).get("T", 0) for k in deep.terms) == 6


def test_index_counts():
    out = hecke.count_indices(GlnContext(3, 2, 1))
    assert out["unipotent_index"] == 16
    assert out["unipotent_match"]
    # the orbit-counted pullback subgroup index, which the stated
    # absolute formula overshoots (4 against 32)
    assert out["gamma_index"] == 4
    assert not out["gamma_match"]
    out2 = hecke.count_indices(GlnContext(2, 3, 1))
    assert out2["unipotent_index"] == 3
    assert out2["gamma_index"] == 2
    assert out2["gamma_ratio_ok"]


# ---------------------------------------------------------------------------
# literal enumerations of the two indices, the references for the orbit
# counts of hecke.count_unipotent_index and hecke.count_gamma_index

def _unipotent_index_by_fold(ctx):
    """[U_n(O) : t_(f) U_n(O) t_(f)^{-1}] by folding every upper unipotent
    with entries below p^(r(n-1)).

    u and s lie in one coset when every entry (i, j) above the diagonal of
    s^{-1} u has valuation at least r (j - i): for an entry x/den that is
    x % p^(r (j - i) + v_p(den)) == 0.  Each kept s is inverted once."""
    n, p, r = ctx.n, ctx.p, ctx.r
    positions = [(i, j) for i in range(n) for j in range(n) if i < j]
    checks = [(i * n + j, p ** (r * (j - i))) for (i, j) in positions]
    maxmod = p ** (r * (n - 1))
    inverses = []
    for vals in itertools.product(range(maxmod), repeat=len(positions)):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(positions, vals):
            rows[i][j] = v
        u = RatMat.from_rows(rows)
        for s_inv in inverses:
            d = s_inv * u
            scale = p ** kernels.vp_int(d.den, p)
            if all(d.num[k] % (mod * scale) == 0 for k, mod in checks):
                break
        else:
            inverses.append(u.inverse())
    return len(inverses)


def _iwahori_residues(m, p, r, mod):
    """Integer rows of every level-p^r Iwahori matrix of GL_m mod `mod`,
    for m in {1, 2}: unit diagonal and lower-left entry 0 mod p^r."""
    units = [a for a in range(mod) if a % p]
    if m == 1:
        for a in units:
            yield [[a]]
        return
    assert m == 2
    for a in units:
        for d in units:
            for c in range(0, mod, p ** r):
                for b in range(mod):
                    yield [[a, b], [c, d]]


def _gamma_index_by_enumeration(ctx):
    """(index, |I|, |K(f)|) over Z/p^{nr} for n in {2, 3}: every
    _iwahori_residues g counts towards |I|, and towards |K(f)| when
    h^{-1} j(g) h lies in K_I."""
    n, p, r = ctx.n, ctx.p, ctx.r
    hf = h_matrix(RatMat, n, ctx.f)
    hfi = hf.inverse()
    count_i = count_k = 0
    for rows in _iwahori_residues(n - 1, p, r, p ** (n * r)):
        count_i += 1
        if (hfi * RatMat.from_rows(rows).j_embed() * hf).is_iwahori(p, r):
            count_k += 1
    assert count_i % count_k == 0
    return count_i // count_k, count_i, count_k


def _gamma_subgroup_size(p, r, level_exp):
    """|K(f)| mod p^{level_exp} at n = 3 from its congruences: c = 0 mod
    f^2, a = 1 mod f, d = 1 - c/f mod f^2, b free."""
    mod = p ** level_exp
    c_choices = mod // p ** min(2 * r, level_exp)
    a_choices = mod // p ** min(r, level_exp)
    d_choices = mod // p ** min(2 * r, level_exp)
    return c_choices * a_choices * d_choices * mod


def _iwahori_count(n, p, r):
    """|I| mod p^{nr}: phi(p^{2r}) at n = 2 and phi(p^{3r})^2 p^{3r-r}
    p^{3r} at n = 3, from units on the diagonal and a lower-left entry
    0 mod p^r."""
    q = p ** (n * r)
    phi = q - q // p
    return phi if n == 2 else phi ** 2 * (q // p ** r) * q


def _assert_orbits_are_the_enumerations(ctx):
    """Both orbit counts equal the literal enumerations, whose |I| is the
    closed count; returns the enumerated (index, |I|, |K(f)|)."""
    enumerated = _gamma_index_by_enumeration(ctx)
    assert hecke.count_gamma_index(ctx)[0] == enumerated[0]
    assert enumerated[1] == _iwahori_count(ctx.n, ctx.p, ctx.r)
    assert hecke.count_unipotent_index(ctx) == _unipotent_index_by_fold(ctx)
    return enumerated


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2),
                                 (3, 3)])
def test_enumerated_index_closed_forms(n, p):
    """At r = 1 the orbit-counted [I : K(f)] is p - 1 at n = 2 and
    p^{4r-2} (p-1)^2 = p^2 (p-1)^2 at n = 3, as the literal enumeration
    finds; at n = 3 |K(f)| is the count from its congruences.  The
    unipotent index matches its stated formula.  Criterion 03 compares
    the gamma index with the stated absolute formula instead, and stays
    red."""
    ctx = GlnContext(n, p, 1)
    want = p - 1 if n == 2 else p ** (4 * ctx.r - 2) * (p - 1) ** 2
    index, _, size_k = _assert_orbits_are_the_enumerations(ctx)
    assert index == want
    if n == 3:
        assert _gamma_subgroup_size(p, 1, 3) == size_k
    assert hecke.count_unipotent_index(ctx) == hecke.index_formulas(ctx)["unipotent"]


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2)])
def test_gamma_orbit_index_at_two_levels(p, r):
    """At n = 3 the orbit-counted index is p^{4r-2} (p-1)^2 at two levels,
    where the stated formula has N(f)^5 = p^{5r}."""
    index = hecke.count_gamma_index(GlnContext(3, p, r))[0]
    assert index == p ** (4 * r - 2) * (p - 1) ** 2


@pytest.mark.parametrize("n,p,r", [(3, 5, 1), (3, 7, 1), (3, 3, 2),
                                   (3, 2, 3), (4, 2, 1)],
                         ids=["5-1", "7-1", "3-2", "2-3", "n4-2-1"])
def test_n3_orbit_indices_beyond_the_enumerations(n, p, r):
    """The orbit-counted gamma index is the stated formula times the
    volume (1 - 1/p)^(n-1) p^(-r(n-1)(n-2)/2) of I_{n-1}(p^r), and the
    unipotent index is its stated formula, up to 6561 cosets, where the
    literal enumerations cannot reach.  At n = 3 the volume form is
    p^{4r-2} (p-1)^2 and p^{4r}; at (4, 2, 1) it is 256 and 1024."""
    ctx = GlnContext(n, p, r)
    formulas = hecke.index_formulas(ctx)
    volume = ((1 - Fraction(1, p)) ** (n - 1)
              / Fraction(p) ** (r * (n - 1) * (n - 2) // 2))
    assert hecke.count_gamma_index(ctx)[0] == formulas["gamma"] * volume
    assert hecke.count_unipotent_index(ctx) == formulas["unipotent"]
    if n == 3:
        assert formulas["gamma"] * volume == p ** (4 * r - 2) * (p - 1) ** 2
        assert formulas["unipotent"] == p ** (4 * r)
    else:
        assert (formulas["gamma"] * volume, formulas["unipotent"]) == (256, 1024)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_n2_gamma_orbit_index_at_four_levels(p):
    """At n = 2 the orbit-counted gamma index is N(f) (p-1)/p, f = p^r,
    for r in 1..4."""
    for r in range(1, 5):
        index = hecke.count_gamma_index(GlnContext(2, p, r))[0]
        assert index == p ** r * (p - 1) // p, r


@pytest.mark.parametrize("n,p,r", [(2, 5, 1), (3, 2, 1), (3, 2, 2)])
def test_gamma_candidates_are_iwahori(n, p, r):
    """The enumeration counts every candidate towards |I| without a
    membership test, so each must be in the Iwahori subgroup."""
    m = n - 1
    seen = 0
    for rows in _iwahori_residues(m, p, r, p ** (n * r)):
        assert kernels.is_iwahori_scaled(sum(rows, []), 1, m, p, r), rows
        seen += 1
    assert seen


@pytest.mark.parametrize("n,p,r", [(2, 2, 2), (2, 2, 3), (2, 3, 2),
                                   (2, 5, 2), (2, 7, 2)])
def test_gamma_iwahori_count_above_level_one(n, p, r):
    _assert_orbits_are_the_enumerations(GlnContext(n, p, r))


def test_orbit_reaches_each_coset_once_per_generator():
    """Each generator permutes a closed orbit, so every coset's
    coefficient is the number of generators, plus one at the start."""
    ctx = GlnContext(3, 3, 1)
    index, cosets = hecke.count_gamma_index(ctx)
    coeffs = [c for _, c in cosets.pairs()]
    assert len(coeffs) == index == 36
    assert coeffs[1:] == [coeffs[0] - 1] * (index - 1)


def test_smith_type():
    assert hecke.smith_type(RatMat.diagonal([Fraction(4), Fraction(1)]), 2) == (0, 2)
    assert hecke.smith_type(RatMat.from_rows([[2, 1], [0, 2]]), 2) == (0, 2)
    assert hecke.smith_type(RatMat.diagonal([Fraction(2), Fraction(2)]), 2) == (1, 1)


# ---------------------------------------------------------------------------
# the fold's output, pinned: tests/data/coset-fold.jsonl holds pairs() of
# these sums (representatives, coefficients and their order) as the
# pairwise fold made them before the coset key replaced it

FOLD_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                           "coset-fold.jsonl")


def _fold_golden_lines():
    c32 = _ctx(3, 2)
    v1, v2 = hecke.expand_V(c32, 1), hecke.expand_V(c32, 2)
    t1 = hecke.spherical_T_reps(2, 3, 1)
    cases = [
        ("V1*V2 n=3 p=2 r=1", (v1 * v2).pairs()),
        ("V2*V1 n=3 p=2 r=1", (v2 * v1).pairs()),
        ("eps_T2 n=3 p=3 r=1", hecke.eps_T(_ctx(3, 3), 2).pairs()),
        ("gamma-orbit n=3 p=2 r=2",
         hecke.count_gamma_index(_ctx(3, 2, 2))[1].pairs()),
        ("spherical T1*T1 n=2 p=3", hecke.spherical_convolve(t1, t1, 2, 3)),
    ]
    return "".join(json.dumps({"case": name, "cosets": [
        {"matrix": [[str(x) for x in row] for row in rep.rows()],
         "coefficient": str(coeff)} for rep, coeff in pairs]}) + "\n"
        for name, pairs in cases)


def test_fold_output_is_pinned():
    with open(FOLD_GOLDEN) as fh:
        assert _fold_golden_lines() == fh.read()
