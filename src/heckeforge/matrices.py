"""Distinguished GL(n) matrices and the exact matrix-identity checks.

Each builder is written once and takes the matrix class: `LaurentMatrix`
over a Laurent ring in the formal variables (f, x, u_i, w_i), or `RatMat`
over exact rationals with f a prime power, so the numeric checks multiply
only RatMats.  The congruence statements (mod f*p) become exact valuation
checks; the equality statements are checked literally.
"""

from fractions import Fraction

from heckeforge.exact import check_prime, vp
from heckeforge.laurent import LaurentMatrix, lvar, truncated_product
from heckeforge.ratmat import RatMat


class GlnContext:
    """Rank, prime, Iwahori level; f defaults to p^r, uniformizer to p.

    A value: immutable, equal by exact type and (n, p, r), hashed by them."""

    __slots__ = ("n", "p", "r")

    def __init__(self, n, p, r=1):
        if n < 2:
            raise ValueError("rank must be >= 2")
        check_prime(p)
        if r < 1:
            raise ValueError("level must be >= 1")
        for name, value in (("n", n), ("p", p), ("r", r)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.n, self.p, self.r)

    def __eq__(self, other):
        return (type(other) is type(self)
                and (self.n, self.p, self.r) == (other.n, other.p, other.r))

    def __hash__(self):
        return hash((self.n, self.p, self.r))

    def __repr__(self):
        return (f"{type(self).__qualname__}"
                f"(n={self.n!r}, p={self.p!r}, r={self.r!r})")

    @property
    def f(self):
        return Fraction(self.p) ** self.r

    @property
    def pi(self):
        return Fraction(self.p)


# ---------------------------------------------------------------------------
# builders: each takes the matrix class M, RatMat or LaurentMatrix, and
# scalars of its ring (Fractions for RatMat, LaurentPolys for LaurentMatrix)

def weyl_longest(M, n):
    return M.from_rows([[int(j == n - 1 - i) for j in range(n)] for i in range(n)])


def t_matrix(M, n, f):
    """diag(f^{n-1}, ..., f, 1); t_(f)^{-1} is t_matrix(M, n, f ** -1)."""
    return M.diagonal([f ** (n - 1 - i) for i in range(n)])


def h_one(M, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][n - 2 - i] = 1  # w_{n-1} block
        rows[i][n - 1] = 1
    rows[n - 1][n - 1] = 1
    return M.from_rows(rows)


def h_matrix(M, n, f):
    """h^(f) = t_(f)^{-1} h^(1) t_(f); entry (i,j) is h^(1)_{ij} f^{i-j}."""
    return t_matrix(M, n, f ** -1) * h_one(M, n) * t_matrix(M, n, f)


def d_matrix(M, n, x):
    """diag(x, 1, ..., 1); d_(x)^{-1} is d_matrix(M, n, x ** -1)."""
    return M.diagonal([x] + [1] * (n - 1))


def _unit_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def upper_unipotent(M, n, superdiag):
    rows = _unit_rows(n)
    for i, e in enumerate(superdiag):
        rows[i][i + 1] = e
    return M.from_rows(rows)


def corrector_matrix(M, n, f):
    """Lower bidiagonal matrix with diagonal (-1, 1, ..., 1, -1), subdiagonal -f."""
    rows = _unit_rows(n)
    rows[0][0] = rows[n - 1][n - 1] = -1
    for i in range(1, n):
        rows[i][i - 1] = -f
    return M.from_rows(rows)


def conjugated_toeplitz(M, n, f, x):
    """d_(x)^{-1} * [upper Toeplitz in powers of f] * d_(x), size (n-1)."""
    m = n - 1
    rows = _unit_rows(m)
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = f ** (j - i)
    return d_matrix(M, m, x ** -1) * M.from_rows(rows) * d_matrix(M, m, x)


def dual_diag(M, n, x):
    """diag(-x, -1, ..., -1, (-1)^n x^{-1}) in GL_{n-1}; needs n >= 3."""
    if n < 3:
        raise ValueError("the contragredient diagonal needs rank >= 3")
    last = x ** -1 if n % 2 == 0 else -(x ** -1)
    return M.diagonal([-x] + [-1] * (n - 3) + [last])


# ---------------------------------------------------------------------------
# the family of matrices behind the distribution relation

def _family(M, n, f, us, ws):
    """What both rings share of the family, from the n-1 superdiagonal
    entries us of u in U_n and the n-2 entries ws of w in U_{n-1}: a dict
    of h(u,w), u^-, w^-, the probe j(u^-) h(u,w) j(w^-), its last column
    and the diagonal d holding that column's first n-1 entries in reverse
    order, with the factors w, h^(1) and u^{-1}."""
    w = upper_unipotent(M, n - 1, ws)
    tf, tfi = t_matrix(M, n, f), t_matrix(M, n, f ** -1)
    th = h_one(M, n)
    u_inv = upper_unipotent(M, n, us).inverse()
    h_uw = (tf * w.j_embed() * tfi) * th * (tf * u_inv * tfi)

    m = n - 1
    um, wm = _unit_rows(m), _unit_rows(m)
    for k in range(1, m):
        um[k][k - 1] = f * us[n - 2 - k]
        if n - 2 - k < len(ws):
            wm[k][k - 1] = -f * ws[n - 2 - k]
    u_minus, w_minus = M.from_rows(um), M.from_rows(wm)
    probe = u_minus.j_embed() * h_uw * w_minus.j_embed()
    last_col = [probe.entry(i, n - 1) for i in range(n)]
    return {
        "h(u,w)": h_uw, "u^-": u_minus, "w^-": w_minus, "probe": probe,
        "last_column": last_col, "d(u,w)": M.diagonal(last_col[-2::-1]),
        "w": w, "h^(1)": th, "u^-1": u_inv,
    }


def build_distribution_family(ctx, u_sup, w_sup):
    """Exact construction of h(u,w), u^-, w^-, d, d', the correction matrix
    and the Iwahori pair (k, k'), over the rationals with f = p^r.

    u_sup: n-1 superdiagonal entries of u in U_n; w_sup: n-2 entries for
    U_{n-1}.  Returns a dict of RatMat values plus the verified relations.
    d' is d's exact entrywise inverse, in reverse order, which makes
    det(d) det(d') = 1 hold literally.
    """
    n, p, r = ctx.n, ctx.p, ctx.r
    if len(u_sup) != n - 1 or len(w_sup) != n - 2:
        raise ValueError("need n-1 u-entries and n-2 w-entries")
    f, pi = ctx.f, ctx.pi
    fam = _family(RatMat, n, f, [Fraction(e) for e in u_sup],
                  [Fraction(e) for e in w_sup])
    probe, th, last_col = fam["probe"], fam["h^(1)"], fam["last_column"]
    d, u_minus, w_minus = fam["d(u,w)"], fam["u^-"], fam["w^-"]
    d_prime = RatMat.diagonal([1 / v for v in last_col[:-1]])

    reduced = d_prime.j_embed() * probe * d.j_embed()
    n_corr = reduced.inverse() * th

    tfp, tfpi = t_matrix(RatMat, n, f * pi), t_matrix(RatMat, n, 1 / (f * pi))
    k_prime_big = (tfpi * (d_prime * u_minus).j_embed() * tfp).inverse()
    k_mat = tfpi * ((w_minus * d).j_embed() * n_corr) * tfp
    k_prime = RatMat.from_rows([row[: n - 1] for row in k_prime_big.rows()[: n - 1]])

    lhs = (t_matrix(RatMat, n, 1 / pi) * fam["w"].j_embed() * h_matrix(RatMat, n, f)
           * fam["u^-1"] * t_matrix(RatMat, n, pi))
    rhs = k_prime_big * (tfpi * th * tfp) * k_mat.inverse()

    fp_val = r + 1  # valuation of f*p
    corr_ok = all(
        vp(n_corr.entry(i, j) - (1 if i == j else 0), p) >= fp_val
        for i in range(n) for j in range(n))
    block_ok = all(
        vp(probe.entry(i, j) - th.entry(i, j), p) >= fp_val
        for i in range(n) for j in range(n - 1))
    det_pair = d.det() * d_prime.det()
    det_k = k_mat.det()
    det_kp = k_prime_big.det()
    fam.update({
        "d'(u,w)": d_prime, "n": n_corr,
        "k_{u,w}": k_mat, "k'_{u,w}": k_prime,
        "identity_ok": lhs == rhs,
        "correction_ok": corr_ok,
        "columns_ok": block_ok,
        "det_pair": det_pair,
        "det_pair_ok": det_pair == 1,
        "k_iwahori": k_mat.is_iwahori(p, r),
        "k'_iwahori": k_prime.is_iwahori(p, r),
        "det_relation_ok": vp(det_k - det_kp, p) >= fp_val,
        "det_k": det_k,
    })
    return fam


def family_symbolic(n):
    """Symbolic twin of the family over Q(f, u_i, w_i), truncated d'.

    Returns the pieces plus the two mod-f^2 congruence checks: the block
    columns agree with h^(1) up to terms in (f^2), and with the linear
    truncation d'_i = 2 - v_i we get det(d) det(d') - 1 in (f^2).  The
    second is `det_pair_ok`: it forms only the terms of f-degree < 2 of
    det(d) det(d'), never the full product.
    """
    fam = _family(LaurentMatrix, n, lvar("f"),
                  [lvar(f"u{i+1}") for i in range(n - 1)],
                  [lvar(f"w{i+1}") for i in range(n - 2)])
    probe, h1 = fam["probe"], fam["h^(1)"]
    d_prime = LaurentMatrix.diagonal([2 - v for v in fam["last_column"][:-1]])
    diffs = (probe.entry(i, j) - h1.entry(i, j)
             for i in range(n) for j in range(n - 1))
    fam.update({
        "d'(u,w)": d_prime,
        "columns_ok": all(x.min_degree_in("f") >= 2 for x in diffs if x),
        "det_pair_ok": det_pair_ok(fam["d(u,w)"], d_prime),
    })
    return fam


def det_pair_ok(d, d_prime):
    """det(d) det(d') - 1 in (f^2) for diagonal LaurentMatrix d and d':
    the terms of f-degree < 2 of the product of their diagonal entries,
    from `truncated_product`, are exactly 1."""
    diagonal = [g.entry(i, i) for g in (d, d_prime) for i in range(g.n)]
    return truncated_product(diagonal, "f", 2) == 1


def verify_epimorphism(ctx):
    """Exhaustive check that (u, w) -> det(k_{u,w}) mod (1 + f p) covers
    (1+f)/(1+fp), together with det(k) = det(k') mod fp throughout.

    Returns (ok, witness) where witness maps each class of the cyclic
    order-p quotient to a preimage pair; on an identity failure the
    offending pair is returned instead.
    """
    import itertools

    n, p, r = ctx.n, ctx.p, ctx.r
    f = ctx.f
    witness = {}
    for u_sup in itertools.product(range(p), repeat=n - 1):
        for w_sup in itertools.product(range(p), repeat=n - 2):
            fam = build_distribution_family(ctx, u_sup, w_sup)
            if not (fam["identity_ok"] and fam["det_relation_ok"]
                    and fam["correction_ok"]):
                return False, {"counterexample": (u_sup, w_sup)}
            cls = (fam["det_k"] - 1) / f
            if cls.denominator % p == 0:
                return False, {"counterexample": (u_sup, w_sup)}
            cls_mod = (cls.numerator * pow(cls.denominator, -1, p)) % p
            witness.setdefault(cls_mod, (u_sup, w_sup))
    ok = len(witness) == p
    return ok, witness


# ---------------------------------------------------------------------------
# contragredient matrix identity

def verify_inverseh(n, p=None, r=None, x=None, symbolic=True):
    """Check the contragredient matrix identity in GL_n:

        j(w_{n-1} d n') (d_(x) h^(f))^{-t} w_n n
            = j(f^n 1_{n-1}) f^{1-n} d_((-1)^{n-1} x^{-1}) h^(f)

    together with its side conditions.  Symbolic mode works over the
    Laurent ring in f and x; numeric mode needs (p, r, x) and works in
    RatMat.  Restricted to n >= 3 (the diagonal d degenerates at n = 2).
    Returns (ok, details); on failure the difference matrix is included.
    """
    if n < 3:
        raise ValueError("identity restricted to n >= 3")
    if symbolic:
        M, f, xx = LaurentMatrix, lvar("f"), lvar("x")
    else:
        M, f, xx = RatMat, Fraction(p) ** r, Fraction(x)
    wn = weyl_longest(M, n)
    wn1 = weyl_longest(M, n - 1)
    d = dual_diag(M, n, xx)
    nprime = conjugated_toeplitz(M, n, f, xx)
    ncorr = corrector_matrix(M, n, f)
    hf = h_matrix(M, n, f)
    dx = d_matrix(M, n, xx)
    lhs = (wn1 * d * nprime).j_embed() * (dx * hf).inverse().transpose() * wn * ncorr
    sign = 1 if (n - 1) % 2 == 0 else -1
    jfn = M.diagonal([f ** n] * (n - 1) + [1])
    rhs = (jfn * d_matrix(M, n, sign * xx ** -1) * hf).scale(f ** (1 - n))
    ok = lhs == rhs
    details = {"ok": ok, "det_jd_nprime": d.det() * nprime.det() == 1}
    if not ok:
        details["difference"] = lhs - rhs
    if not symbolic:
        details["w d n' w in I"] = (wn1 * d * nprime * wn1).is_iwahori(p, r)
        details["n in I"] = ncorr.is_iwahori(p, r)
    return ok and details["det_jd_nprime"], details


def verify_inverseft(n, f=None):
    """t-matrix twist identity in GL_{n-1}: iota(t_(f) f) f^n = t_(f) f,
    where iota(g) = w g^{-t} w with the GL_{n-1} long Weyl element.
    Symbolic in f by default, in RatMat at a given rational f."""
    M, ff = (LaurentMatrix, lvar("f")) if f is None else (RatMat, Fraction(f))
    g = t_matrix(M, n - 1, ff).scale(ff)
    return iota_involution(g).scale(ff ** n) == g


def iota_involution(g):
    """iota(g) = w_n g^{-t} w_n for a LaurentMatrix or RatMat."""
    w = weyl_longest(type(g), g.n)
    return w * g.inverse().transpose() * w
