"""Coset-sum engine for the Iwahori-level Hecke algebra.

Right cosets g K_I are held by exact rational representatives, each with
a canonical key, `kernels.iwahori_coset_key`: two representatives lie in
one coset g K_I (level p^r) exactly when their keys are equal.  The key
is the one coset-equality rule.  A `CosetSum` is one dict from that key
to [rep, coeff], so every sum is folded; folds, sum equality,
disjointness, coverage and the index counts all read it.  Each index is
an orbit size: the number of cosets `CosetSum.orbit` reaches from one
coset under left multiplication by generators of the group.  Coverage
is an orbit too: an expansion lists exactly the cosets of its double
coset when its key set is the orbit's, under the elementary matrices
of `_group_generators`, which reach every coset of K_I, of K_B or of
GL_n(Z_p) from a diagonal start.  At level r = 0 (`_spherical_context`)
the same key folds modulo GL_n(Z_p), so one `CosetSum` serves the
spherical cosets too.  Every operator expansion is one enumeration of
upper triangular cosets, `_triangular_reps`, over the blocks that
`_operator` describes; each listed matrix is a column Hermite form,
keyed by `kernels.hermite_key`.
"""

import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

from heckeforge import kernels
from heckeforge.exact import (MAX_ENUMERATION, check_bound, power_within,
                              scalar, vp)
from heckeforge.laurent import LaurentPoly, lconst, lvar
from heckeforge.matrices import GlnContext, t_matrix
from heckeforge.ratmat import RatMat


class CosetSum:
    """Formal integer (or rational) combination of right cosets, folded.

    `terms` is one insertion-ordered dict from the canonical coset key,
    `kernels.iwahori_coset_key`, to [rep, coeff] with coeff nonzero: two
    representatives lie in one coset exactly when their keys are equal,
    so every sum holds each coset once and a fold is one dict lookup per
    coset.  A key is formed once, when its representative first enters a
    sum; sums built from stored terms copy it along.  `folded` is
    accepted and ignored: every sum folds."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, pairs=(), folded=False):
        self.ctx = ctx
        self.terms = {}  # coset key -> [rep, coeff]
        for rep, coeff in pairs:
            self._accumulate(rep, coeff)

    def _key(self, rep):
        ctx = self.ctx
        return kernels.iwahori_coset_key(rep.num, rep.den, ctx.n, ctx.p, ctx.r)

    def _accumulate(self, rep, coeff, key=None):
        """Add coeff * rep K_I, into the term of that coset if there is
        one; a coset whose coefficient cancels is deleted, and comes back
        last if it is added again.  `key` is rep's key when the caller
        already holds it."""
        if key is None:
            key = self._key(rep)
        term = self.terms.get(key)
        if term is None:
            if coeff:
                self.terms[key] = [rep, coeff]
            return
        term[1] += coeff
        if not term[1]:
            del self.terms[key]

    def pairs(self):
        return [(rep, coeff) for rep, coeff in self.terms.values()]

    def _with_terms(self, terms):
        """A sum over this context holding the key -> [rep, coeff] dict
        `terms`."""
        out = CosetSum(self.ctx)
        out.terms = terms
        return out

    @classmethod
    def orbit(cls, ctx, start, gens):
        """The cosets x start K_I, x a word in `gens`, by breadth-first
        closure: each generator times each listed representative goes
        through `_accumulate`, coefficient 1, so a term's coefficient
        counts the products that reached it, plus one for the start.  The
        representatives of new cosets are listed in the order they are
        met.

        This is the orbit of start K_I under the closed group G that
        `gens` generate topologically, provided its stabiliser in G is
        open: an open subgroup's cosets are open, and each meets the
        dense subgroup that `gens` generate.  No inverses are needed: a
        generator permutes a finite orbit, and a permutation's inverse is
        one of its powers.  The search closes only on a finite orbit."""
        out = cls(ctx, [(start, 1)])
        terms = out.terms
        reps = [start]
        for rep in reps:  # reps grows as new cosets are met
            for g in gens:
                x = g * rep
                size = len(terms)
                out._accumulate(x, 1)
                if len(terms) > size:
                    reps.append(x)
        return out

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        if not isinstance(other, CosetSum):
            return NotImplemented
        out = self._with_terms({key: list(t) for key, t in self.terms.items()})
        for key, (rep, coeff) in other.terms.items():
            out._accumulate(rep, coeff, key)
        return out

    def scale(self, c):
        if not c:
            return CosetSum(self.ctx)
        return self._with_terms({key: [rep, c * k]
                                 for key, (rep, k) in self.terms.items()})

    def convolve(self, other):
        """Pairwise products of representatives, folded by coset key: a
        function of self's cosets only when `other` is left K_I-invariant
        (as an `expand_V` sum is), else of self's representatives too."""
        out = CosetSum(self.ctx)
        for a, ca in self.terms.values():
            for b, cb in other.terms.values():
                out._accumulate(a * b, ca * cb)
        return out

    __mul__ = convolve

    def __eq__(self, other):
        """Equal coset key -> coefficient maps."""
        if not isinstance(other, CosetSum):
            return NotImplemented
        theirs = other.terms
        return (self.terms.keys() == theirs.keys()
                and all(theirs[key][1] == coeff
                        for key, (_, coeff) in self.terms.items()))

    def __repr__(self):
        return f"CosetSum({len(self)} cosets)"


# ---------------------------------------------------------------------------
# operator expansions

# MAX_ENUMERATION, imported from exact and read under this module's name,
# bounds the cosets (V_nu, V_p, V_p', U_i, T_nu) one expansion may list;
# their count, a sum of block sizes p^e, is checked block by block first.
# The most entries one listed matrix may hold, a bound of its own: an
# operator with one coset (V0, T0, U<n>, T<n>) passes the count at any n.
MAX_MATRIX_ENTRIES = 100_000


def _operator(n, p, kind, k=None):
    """The operator `kind` (index k) at (n, p) as blocks of upper
    triangular cosets: (what, g, blocks).

    A block with exponents e holds the matrices with diagonal p^(e_a)
    and, at each (a, b), a < b, with e_a > e_b, the entry x p^(e_b) for
    x in range(p^(e_a - e_b)); every other entry is 0.  Each is in
    column Hermite form, so `kernels.hermite_key` keys it.  blocks()
    yields each block's (e, log_p of its size) lazily.  V_nu, U_i and
    eps(T_nu) have e = 1 exactly at the pivot rows: range(nu), {i-1}, or
    each nu-subset in `itertools.combinations` order.  V_p has one
    block, e = (n-1, ..., 1, 0), the cosets u t_(pi) K over u in
    U_n(O) / t U_n(O) t^{-1}, at every level; V_p' shifts e by 1.
    diag(p^g) generates the double coset, and `what` names the operator
    and its closed-form count for a refusal."""
    if kind in ("Vp", "Vp'"):
        e = [n - 1 - a + (kind == "Vp'") for a in range(n)]
        size = (n + 1) * n * (n - 1) // 6
        return (f"{kind} at n = {n}, p = {p}: "
                f"p^((n+1)n(n-1)/6) = {p}^{size} cosets",
                e, lambda: [(e, size)])
    if kind == "U":
        if not 1 <= k <= n:
            raise ValueError("1 <= i <= n required")
        what = f"U_{k} at n = {n}, p = {p}: p^(n-i) = {p}^{n - k} cosets"
        gen = (k - 1,)
    elif not 0 <= k <= n:
        raise ValueError("0 <= nu <= n required")
    elif kind == "V":
        what = (f"V_{k} at n = {n}, p = {p}: p^(nu(n-nu)) = "
                f"{p}^{k * (n - k)} cosets")
        gen = range(k)
    else:
        what = (f"T_{k} at n = {n}, p = {p}: [n choose nu]_p = "
                f"[{n} choose {k}]_{p} cosets")
        gen = range(n - k, n)  # diag(1_{n-nu}, pi 1_nu), the last block

    def blocks():
        for ones in ([gen] if kind != "T"
                     else itertools.combinations(range(n), k)):
            e = [0] * n
            for a in ones:
                e[a] = 1
            # count the places (a, b): a the j-th pivot, b > a no pivot
            yield e, sum(n - 1 - a - (len(ones) - 1 - j)
                         for j, a in enumerate(ones))

    return what, [int(a in gen) for a in range(n)], blocks


def _triangular_reps(n, p, kind, k=None):
    """The representatives of `_operator(n, p, kind, k)`, block by
    block; within a block the places run in row-major order, the last
    varying fastest.  The count is checked against MAX_ENUMERATION
    before any block's places are listed, then the n^2 entries of one
    matrix against MAX_MATRIX_ENTRIES.  A rank n above MAX_MATRIX_ENTRIES
    fails the latter before any list of length n is formed."""
    if n <= MAX_MATRIX_ENTRIES:
        what, _, blocks = _operator(n, p, kind, k)
        total = 0
        for _, size in blocks():
            pe = power_within(p, size, MAX_ENUMERATION)
            total = check_bound(what, None if pe is None else total + pe,
                                "MAX_ENUMERATION", MAX_ENUMERATION)
    check_bound(f"{n} x {n} matrices: n^2 = {n * n} entries", n * n,
                "MAX_MATRIX_ENTRIES", MAX_MATRIX_ENTRIES)
    for e, _ in blocks():
        diag = [p ** x for x in e]
        base = [0] * (n * n)
        for a in range(n):
            base[a * n + a] = diag[a]
        places = [(a, b) for a in range(n) if e[a]
                  for b in range(a + 1, n) if e[a] > e[b]]
        ranges = [range(p ** (e[a] - e[b])) for a, b in places]
        slots = [(a * n + b, diag[b]) for a, b in places]
        for vals in itertools.product(*ranges):
            num = list(base)
            for (i, scale), x in zip(slots, vals):
                num[i] = x * scale
            yield RatMat(n, num, 1, normalized=True)


def _expand(ctx, kind, k=None):
    """The listed cosets, each added with coefficient 1 and keyed by
    `kernels.hermite_key`: every listed matrix is a Hermite form.  A coset
    listed twice folds to coefficient 2, which `check_disjoint` reports."""
    n, r = ctx.n, ctx.r
    out = CosetSum(ctx)
    for rep in _triangular_reps(n, ctx.p, kind, k):
        out._accumulate(rep, 1, kernels.hermite_key(rep.num, n, r))
    return out


def _parse_tag(tag):
    """(kind, index) of 'V0'..'Vn', 'U1'..'Un', 'T0'..'Tn', 'Vp', "Vp'"."""
    if tag in ("Vp", "Vp'"):
        return tag, None
    indexed = re.fullmatch(r"([VUT])([0-9]+)", tag)
    if indexed is None:
        raise ValueError(f"unknown operator tag {tag!r}")
    return indexed[1], int(indexed[2])


def expand_V(ctx, nu):
    """V_{p,nu}: block matrices [[pi 1_nu, A],[0, 1_{n-nu}]], A mod p."""
    return _expand(ctx, "V", nu)


def expand_Vp(ctx):
    """V_p: u t_(pi) K over u in U_n(O)/t U_n(O) t^{-1}."""
    return _expand(ctx, "Vp")


def expand_U(ctx, i):
    """U_i: the cosets u pi_i K_I over the p^(n-i) upper-unipotent u
    whose only off-diagonal entries lie in row i-1, each in range(p).

    pi_i^{-1} w pi_i divides row i-1 of w by p, so for unipotent u, u'
    the cosets u pi_i K_I and u' pi_i K_I agree exactly when row i-1 of
    u^{-1} u' is divisible by p, at every level r.  Two listed u differ
    there mod p.  Any u, with x the entries right of the diagonal in its
    row i-1 and M its lower-right (n-i) x (n-i) block, shares the coset
    of the listed u with entries x M^{-1} mod p."""
    return _expand(ctx, "U", i)


def eps_T(ctx, nu):
    """epsilon(T_nu) as an Iwahori coset sum: the triangular right-coset
    representatives g of the spherical double coset K diag(1_{n-nu},
    pi 1_nu) K, K = GL_n(Z_p), read as cosets g K_I, distinct since
    K_I-equality implies K-equality.

    Each has diagonal p^{e_i}, e in {0,1}^n summing to nu, and an entry
    in range(p) at each (a, b), a < b, with e_a = 1 and e_b = 0; these
    are the triangular forms whose reduction mod p has rank n - nu, and
    there are [n choose nu]_p of them.  At a level-0 context
    (`_spherical_context`) the same listing is the spherical one, folded
    modulo K."""
    return _expand(ctx, "T", nu)


def expand_operator(ctx, tag):
    """Expand a Hecke operator tag: 'V0'..'Vn', 'U1'..'Un', 'Vp', "Vp'",
    'T0'..'Tn', each through the one triangular enumeration.  The
    decomposition is checked by check_coverage, which runs
    check_disjoint."""
    return _expand(ctx, *_parse_tag(tag))


# ---------------------------------------------------------------------------
# verifications

def verify_commutativity(ctx):
    """V_nu V_mu = V_mu V_nu as folded sums (all pairs), plus the U-family
    normal forms U_1 ... U_nu = q^{nu(nu-1)/2} V_{p,nu}.

    The V-operators are genuine two-sided cosets and commute literally.
    The monoid-restricted U_i representatives are not left-invariant under
    the full Iwahori subgroup, so a raw order-swapped fold of U_i U_j is
    not the algebra product; the U-family enters every downstream formula
    through increasing-index products, and those are pinned against the
    commuting V-family here.
    """
    Vs = [expand_V(ctx, nu) for nu in range(ctx.n + 1)]
    for a in range(len(Vs)):
        for b in range(a + 1, len(Vs)):
            if not Vs[a] * Vs[b] == Vs[b] * Vs[a]:
                return False, ("V", a, b)
    q = ctx.p
    prod = None
    for nu in range(1, ctx.n + 1):
        u = expand_U(ctx, nu)
        prod = u if prod is None else prod * u
        if not prod == Vs[nu].scale(q ** (nu * (nu - 1) // 2)):
            return False, ("U-normal-form", nu)
    return True, None


def gritsenko_sides(ctx):
    """Coefficients of both sides of the Hecke polynomial factorization.

    Returns (lhs, rhs) where each is the list of X^{n-nu} coefficients for
    nu = 0..n: lhs[nu] = q^{nu(nu-1)/2} eps(T_nu) and rhs[nu] is the nu-th
    elementary symmetric function of U_1..U_n under convolution (signs
    cancel between the two sides).
    """
    n, q = ctx.n, ctx.p
    Us = [expand_U(ctx, i) for i in range(1, n + 1)]
    lhs, rhs = [], []
    for nu in range(n + 1):
        lhs.append(eps_T(ctx, nu).scale(q ** (nu * (nu - 1) // 2)))
        if nu == 0:
            rhs.append(expand_V(ctx, 0))
            continue
        acc = None
        for comb in itertools.combinations(range(n), nu):
            prod = Us[comb[0]]
            for k in comb[1:]:
                prod = prod * Us[k]
            acc = prod if acc is None else acc + prod
        rhs.append(acc)
    return lhs, rhs


def verify_gritsenko(ctx):
    """Coefficient-by-coefficient equality of H_p(X) = prod (X - U_i)."""
    lhs, rhs = gritsenko_sides(ctx)
    for nu, (a, b) in enumerate(zip(lhs, rhs)):
        if not a == b:
            return False, {"coefficient": nu,
                           "difference": (a + b.scale(-1)).pairs()}
    return True, None


# ---------------------------------------------------------------------------
# coverage / disjointness validation

def check_disjoint(cs):
    """Every listed coset once: a sum folds a coset listed k times to
    coefficient k, so (True, None) when every coefficient is 1, else
    (False, (i, c)) for the first coset i of `cs.pairs()` with c != 1."""
    for i, (_, coeff) in enumerate(cs.terms.values()):
        if coeff != 1:
            return False, (i, coeff)
    return True, None


def check_coverage(ctx, tag):
    """The listed cosets of `tag` are exactly the cosets of its double
    coset K g0 K, each listed once: (True, None), else (False, witness).

    K is K_I for the V family (V_nu, V_p, V_p'), K_B (integral upper
    triangular) for U_i, whose cosets live in the triangular monoid, and
    GL_n(Z_p) for T_nu, keyed at level r = 0.  The cosets of K g0 K are
    `CosetSum.orbit` of g0 K under `_group_generators`, elementary
    matrices only: K = N^- T N (N^- trivial for K_B, and SL_n(Z_p) =
    N^- N up to closure at r = 0), and the unit diagonals T normalise
    N, lie in K and commute with the diagonal g0, so k g0 K = n^- n g0 K.
    The generators are dense in the group of the n^- n, and the
    stabiliser of g0 K there is open, so the orbit is the whole double
    coset.  The two key sets must be equal, and the witness is the first
    coset in one and not the other, ("unreached", rep) for a listed coset
    outside the orbit, then ("unlisted", rep) for a coset of the orbit
    not listed.  Then `check_disjoint` of the listing decides, with its
    witness."""
    kind, k = _parse_tag(tag)
    n, p = ctx.n, ctx.p
    if kind == "T":
        ctx = _spherical_context(n, p)
    listed = expand_operator(ctx, tag)
    g0 = RatMat.diagonal([p ** x for x in _operator(n, p, kind, k)[1]])
    orbit = CosetSum.orbit(ctx, g0, _group_generators(n, p, ctx.r,
                                                      lower=kind != "U"))
    for ours, theirs, side in ((listed, orbit, "unreached"),
                               (orbit, listed, "unlisted")):
        for key, (rep, _) in ours.terms.items():
            if key not in theirs.terms:
                return False, (side, rep)
    return check_disjoint(listed)


# ---------------------------------------------------------------------------
# Satake and Shintani

def satake(n, nu):
    """Satake image of T_nu: q^{nu(nu+1)/2} sigma_nu(X_1..X_n), q formal."""
    if not 0 <= nu <= n:
        raise ValueError("0 <= nu <= n required")
    # C(n, nu) >= n for 0 < nu < n, so a large n needs no binomial
    terms = None if n > MAX_ENUMERATION and 0 < nu < n else math.comb(n, nu)
    check_bound(f"satake: C(n, nu) = C({n}, {nu})"
                + ("" if terms is None else f" = {terms}") + " terms", terms,
                "MAX_ENUMERATION", MAX_ENUMERATION)
    # one term per nu-subset, keyed directly: adding terms one by one is
    # quadratic in C(n, nu)
    q = [("q", nu * (nu + 1) // 2)] if nu else []
    one = Fraction(1)
    return LaurentPoly({tuple(sorted([(f"X{i+1}", 1) for i in comb] + q)): one
                        for comb in itertools.combinations(range(n), nu)})


def satake_halfdensity_at(pairs, n, p):
    """The delta^{1/2}-twisted transform of a triangular coset sum.

    For a rep with diagonal p-valuations (d_1..d_n) the contribution is
    coeff * prod X_i^{d_i} * Q^{-sum d_i (n+1-2i)} where Q^2 = q.  This is
    the transform that is an algebra homomorphism, used as the independent
    oracle for convolution.  A zero diagonal entry raises ValueError.
    """
    out = LaurentPoly.const(0)
    for rep, coeff in pairs:
        term = LaurentPoly.const(coeff)
        qexp = 0
        for i in range(n):
            v = vp(rep.entry(i, i), p)
            if v == math.inf:
                raise ValueError(f"satake: a rep's entry ({i}, {i}) is 0")
            term = term * lvar(f"X{i+1}", v)
            qexp -= v * (n + 1 - 2 * (i + 1))
        out = out + term * lvar("Q", qexp)
    return out


def _spherical_context(n, p):
    """A plain (n, p, r) context at level r = 0, whose `CosetSum` folds
    modulo GL_n(Z_p): a `GlnContext` rejects r = 0 on purpose."""
    return SimpleNamespace(n=n, p=p, r=0)


def smith_type(rep, p):
    """p-local elementary divisor exponents of a rational matrix, sorted."""
    n = rep.n
    rows = rep.rows()
    minors_val = [0]
    for k in range(1, n + 1):
        best = None
        for rsel in itertools.combinations(range(n), k):
            for csel in itertools.combinations(range(n), k):
                sub = RatMat.from_rows([[rows[i][j] for j in csel] for i in rsel])
                d = sub.det()
                if d != 0:
                    v = vp(d, p)
                    best = v if best is None else min(best, v)
        minors_val.append(best)
    return tuple(sorted(minors_val[k] - minors_val[k - 1] for k in range(1, n + 1)))


def gl2_satake_regression(p):
    """T_1 * T_1 on GL_2: square eps(T_1) at level 0, a `CosetSum` folded
    modulo GL_2(Z_p), group the product's cosets by divisor type, and
    check the half-density transform is multiplicative.

    Returns (coeff of the (0,2) double coset, coeff of the central coset,
    transform_consistent).
    """
    t1 = eps_T(_spherical_context(2, p), 1)
    prod = (t1 * t1).pairs()
    by_type = {}
    for rep, coeff in prod:
        t = smith_type(rep, p)
        by_type.setdefault(t, set()).add(coeff)
    s_t1 = satake_halfdensity_at(t1.pairs(), 2, p)
    s_prod = satake_halfdensity_at(prod, 2, p)
    consistent = (s_t1 * s_t1) == s_prod
    c02 = by_type.get((0, 2), set())
    c11 = by_type.get((1, 1), set())
    return (c02.pop() if len(c02) == 1 else None,
            c11.pop() if len(c11) == 1 else None,
            consistent)


def shintani_lfactor(alphas, betas):
    """Denominator polynomial of the unramified Rankin-Selberg Euler factor:
    prod_{i,j} (1 - alpha_i beta_j T), coefficients exact scalars."""
    alphas = [scalar(a) for a in alphas]
    betas = [scalar(b) for b in betas]
    if not all(alphas) or not all(betas):
        raise ValueError("Satake parameters must be nonzero scalars")
    out = LaurentPoly.const(1)
    t = lvar("T")
    for a in alphas:
        for b in betas:
            out = out * (lconst(1) - lconst(a * b) * t)
    return out


# ---------------------------------------------------------------------------
# index formulas

def _identity_with(m, i, j, x):
    """The m x m identity with entry (i, j) set to x: an elementary
    matrix off the diagonal, a unit diagonal matrix on it."""
    rows = [[int(a == b) for b in range(m)] for a in range(m)]
    rows[i][j] = x
    return RatMat.from_rows(rows)


def count_unipotent_index(ctx):
    """[U_n(Z_p) : t_(f) U_n(Z_p) t_(f)^{-1}] with f = p^r, as the number
    of cosets u t_(f) K_I, u in U_n(Z_p).

    That open subgroup is the stabiliser of t_(f) K_I in U_n(Z_p):
    t_(f)^{-1} u t_(f) is upper unipotent, so it lies in K_I exactly when
    it is integral.  The upper generators of `_group_generators`, the
    E_ij(1) for i < j, generate U_n(Z), which is dense in U_n(Z_p), so
    `CosetSum.orbit` over them lists every coset."""
    gens = _group_generators(ctx.n, ctx.p, ctx.r, lower=False)
    start = t_matrix(RatMat, ctx.n, ctx.f)
    return len(CosetSum.orbit(ctx, start, gens))


def _group_generators(n, p, r, lower=True):
    """The elementary matrices E_ij(1) for i < j and, with `lower`,
    E_ij(p^r) for i > j, row by row: dense in the unipotent N(Z_p) and
    N^-(p^r Z_p).  Their orbit of a diagonal g0 K is K g0 K / K for K_I,
    for K_B without `lower`, and for GL_n(Z_p) at r = 0: no diagonal is
    needed, as `check_coverage` shows."""
    return [_identity_with(n, i, j, 1 if i < j else p ** r)
            for i in range(n) for j in range(n) if i < j or (lower and i > j)]


def count_gamma_index(ctx):
    """[I_{n-1}(p^r) : K(f)] as the number of cosets j(g) h(f) K_I, g in
    the level-p^r Iwahori subgroup I_{n-1}(p^r) of GL_{n-1}(Z_p).

    K(f) = j^{-1}(h(f) K_I h(f)^{-1}) meet I_{n-1}(p^r) is the stabiliser
    of h(f) K_I under g -> j(g), open as h(f) K_I h(f)^{-1} is.  The unit
    diagonals at topological generators of Z_p^*, then
    `_group_generators` of I_{n-1}(p^r), generate a dense subgroup of
    it, so `CosetSum.orbit` over their images under j lists every coset.
    The diagonals are needed here, unlike in `check_coverage`: h(f) is
    not diagonal, so they move its coset.  Returns (index, the orbit)."""
    from heckeforge.gauss import unit_group_generators
    from heckeforge.matrices import h_matrix

    m, p = ctx.n - 1, ctx.p
    # (Z/p^2)^* for odd p, (Z/8)^* for p = 2: generators of these
    # generate Z_p^* topologically
    units = [g for g, _ in unit_group_generators(p, 3 if p == 2 else 2)]
    gens = [_identity_with(m, i, i, u) for i in range(m) for u in units]
    gens += _group_generators(m, p, ctx.r)
    start = h_matrix(RatMat, ctx.n, ctx.f)
    cosets = CosetSum.orbit(ctx, start, [g.j_embed() for g in gens])
    return len(cosets), cosets


def index_formulas(ctx):
    n, p, r = ctx.n, ctx.p, ctx.r
    nf = p ** r
    return {
        "unipotent": nf ** ((n + 1) * n * (n - 1) // 6),
        "gamma": nf ** (((n + 1) * n * (n - 1) + n * (n - 1) * (n - 2)) // 6),
    }


def count_indices(ctx):
    """Orbit-counted indices next to the closed formulas.

    The unipotent index matches its formula exactly.  The counted gamma
    index falls short of the stated absolute formula by a factor that
    depends on p and on the level: 1/8 at (n, p, r) = (3, 2, 1), 4/27 at
    (3, 3, 1) and 1/16 at (3, 2, 2), and (p-1)/p at n = 2, r = 1.  Each
    is vol(I_{n-1}(p^r)) = (1 - 1/p)^(n-1) p^(-r(n-1)(n-2)/2), the
    additive Haar measure of I_{n-1}(p^r) in M_{n-1}(Z_p) of total mass
    1, as the tests pin at the points they count.  These factors are
    counted, not proved.  At n = 2, `gamma_ratio_ok` compares
    the counted indices at levels r and r + 1 with the factor p.  Both
    the count and the formula are returned so callers can compare either
    way.
    """
    formulas = index_formulas(ctx)
    uni = count_unipotent_index(ctx)
    gamma = count_gamma_index(ctx)[0]
    out = {
        "unipotent_index": uni,
        "gamma_index": gamma,
        "unipotent_formula": formulas["unipotent"],
        "gamma_formula": formulas["gamma"],
        "unipotent_match": uni == formulas["unipotent"],
        "gamma_match": gamma == formulas["gamma"],
    }
    if ctx.n == 2:
        deep = count_gamma_index(GlnContext(ctx.n, ctx.p, ctx.r + 1))[0]
        out["gamma_ratio_ok"] = deep == gamma * ctx.p
    return out
