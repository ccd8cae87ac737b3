"""Distinguished GL(n) matrices and the exact matrix-identity checks.

Everything is built twice where it matters: once over a Laurent ring in the
formal variables (f, x, u_i, w_i) and once over exact rationals with f a
prime power.  The congruence statements (mod f*p) become exact valuation
checks; the equality statements are checked literally.
"""

from fractions import Fraction

from heckeforge.exact import check_prime, vp
from heckeforge.laurent import (LaurentMatrix, LaurentPoly, lconst, lvar,
                                truncated_product)
from heckeforge.ratmat import RatMat, j_embed


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
# symbolic builders (LaurentMatrix); numeric callers build them from
# constants and read them back with to_ratmat

def weyl_longest(n):
    return LaurentMatrix([[1 if j == n - 1 - i else 0 for j in range(n)]
                          for i in range(n)])


def t_matrix(n, f):
    """diag(f^{n-1}, ..., f, 1)."""
    f = LaurentPoly._coerce(f)
    return LaurentMatrix.diagonal([f ** (n - 1 - i) for i in range(n)])


def h_one(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][n - 2 - i] = 1  # w_{n-1} block
        rows[i][n - 1] = 1
    rows[n - 1][n - 1] = 1
    return LaurentMatrix(rows)


def h_matrix(n, f):
    """h^(f) = t_(f)^{-1} h^(1) t_(f); entry (i,j) is h^(1)_{ij} f^{i-j}."""
    t = t_matrix(n, f)
    return t.inverse() * h_one(n) * t


def j_emb(g):
    """Diagonal embedding GL_{n-1} -> GL_n for LaurentMatrix."""
    return j_delta(g, 1, 0)


def j_delta(g, pi, delta):
    """g in GL_n goes to diag(g, pi^delta) in GL_{n+1}."""
    n = g.n + 1
    pi = LaurentPoly._coerce(pi)
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            rows[i][j] = g.entries[i][j]
    rows[n - 1][n - 1] = pi ** delta
    return LaurentMatrix(rows)


def d_matrix(n, x):
    """diag(x, 1, ..., 1)."""
    return LaurentMatrix.diagonal([LaurentPoly._coerce(x)] + [lconst(1)] * (n - 1))


def upper_unipotent(n, superdiag):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, e in enumerate(superdiag):
        rows[i][i + 1] = e
    return LaurentMatrix(rows)


def corrector_matrix(n, f):
    """Lower bidiagonal matrix with diagonal (-1, 1, ..., 1, -1), subdiagonal -f."""
    f = LaurentPoly._coerce(f)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][0] = -1
    rows[n - 1][n - 1] = lconst(-1)
    for i in range(1, n):
        rows[i][i - 1] = -f
    return LaurentMatrix(rows)


def conjugated_toeplitz(n, f, x):
    """d_(x)^{-1} * [upper Toeplitz in powers of f] * d_(x), size (n-1)."""
    f = LaurentPoly._coerce(f)
    m = n - 1
    rows = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = f ** (j - i)
    dx = d_matrix(m, x)
    return dx.inverse() * LaurentMatrix(rows) * dx


def dual_diag(n, x):
    """diag(-x, -1, ..., -1, (-1)^n x^{-1}) in GL_{n-1}; needs n >= 3."""
    if n < 3:
        raise ValueError("the contragredient diagonal needs rank >= 3")
    x = LaurentPoly._coerce(x)
    sign_last = lconst(1) if n % 2 == 0 else lconst(-1)
    return LaurentMatrix.diagonal(
        [-x] + [lconst(-1)] * (n - 3) + [sign_last * x ** (-1)])


# ---------------------------------------------------------------------------
# the family of matrices behind the distribution relation

def build_distribution_family(ctx, u_sup, w_sup):
    """Exact construction of h(u,w), u^-, w^-, d, d', the correction matrix
    and the Iwahori pair (k, k'), over the rationals with f = p^r.

    u_sup: n-1 superdiagonal entries of u in U_n; w_sup: n-2 entries for
    U_{n-1}.  Returns a dict of RatMat values plus the verified relations.
    The diagonal d collects the last column of j(u^-) h(u,w) j(w^-) in
    reverse order and d' is its exact entrywise inverse, which makes
    det(d) det(d') = 1 hold literally.
    """
    n, p, r = ctx.n, ctx.p, ctx.r
    if len(u_sup) != n - 1 or len(w_sup) != n - 2:
        raise ValueError("need n-1 u-entries and n-2 w-entries")
    f = ctx.f
    pi = ctx.pi
    u = upper_unipotent(n, [lconst(Fraction(e)) for e in u_sup]).to_ratmat()
    w = upper_unipotent(n - 1, [lconst(Fraction(e)) for e in w_sup]).to_ratmat()
    tf = t_matrix(n, f).to_ratmat()
    tfi = tf.inv()
    th = h_one(n).to_ratmat()
    u_inv = u.inv()
    h_uw = (tf * j_embed(w) * tfi) * th * (tf * u_inv * tfi)

    m = n - 1
    um_rows = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    wm_rows = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for k in range(1, m):
        um_rows[k][k - 1] = f * Fraction(u_sup[n - 2 - k])
        if n - 2 - k < len(w_sup):
            wm_rows[k][k - 1] = -f * Fraction(w_sup[n - 2 - k])
    u_minus = RatMat.from_rows(um_rows)
    w_minus = RatMat.from_rows(wm_rows)

    probe = j_embed(u_minus) * h_uw * j_embed(w_minus)
    last_col = [probe.entry(i, n - 1) for i in range(n)]
    d = RatMat.diagonal(list(reversed(last_col[:-1])))
    d_prime = RatMat.diagonal([1 / v for v in last_col[:-1]])

    reduced = j_embed(d_prime) * probe * j_embed(d)
    n_corr = reduced.inv() * th

    tfp = t_matrix(n, f * pi).to_ratmat()
    tfpi = tfp.inv()
    k_prime_big = (tfpi * j_embed(d_prime * u_minus) * tfp).inv()
    k_mat = tfpi * (j_embed(w_minus * d) * n_corr) * tfp
    k_prime = RatMat.from_rows([row[: n - 1] for row in k_prime_big.rows()[: n - 1]])

    tpi = t_matrix(n, pi).to_ratmat()
    lhs = tpi.inv() * j_embed(w) * (tfi * th * tf) * u_inv * tpi
    rhs = k_prime_big * (tfpi * th * tfp) * k_mat.inv()

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
    return {
        "h(u,w)": h_uw, "u^-": u_minus, "w^-": w_minus,
        "d(u,w)": d, "d'(u,w)": d_prime, "n": n_corr,
        "k_{u,w}": k_mat, "k'_{u,w}": k_prime,
        "last_column": last_col,
        "identity_ok": lhs == rhs,
        "correction_ok": corr_ok,
        "columns_ok": block_ok,
        "det_pair": det_pair,
        "det_pair_ok": det_pair == 1,
        "k_iwahori": k_mat.is_iwahori(p, r),
        "k'_iwahori": k_prime.is_iwahori(p, r),
        "det_relation_ok": vp(det_k - det_kp, p) >= fp_val,
        "det_k": det_k,
    }


def family_symbolic(n):
    """Symbolic twin of the family over Q(f, u_i, w_i), truncated d'.

    Returns the pieces plus the two mod-f^2 congruence checks: the block
    columns agree with h^(1) up to terms in (f^2), and with the linear
    truncation d'_i = 2 - v_i we get det(d) det(d') - 1 in (f^2).  The
    second is `det_pair_ok`: it forms only the terms of f-degree < 2 of
    det(d) det(d'), never the full product.
    """
    f = lvar("f")
    us = [lvar(f"u{i+1}") for i in range(n - 1)]
    ws = [lvar(f"w{i+1}") for i in range(n - 2)]
    u = upper_unipotent(n, us)
    w = upper_unipotent(n - 1, ws)
    tf = t_matrix(n, f)
    tfi = LaurentMatrix.diagonal([f ** -(n - 1 - i) for i in range(n)])
    h_uw = (tf * j_emb(w) * tfi) * h_one(n) * (tf * u.inverse() * tfi)

    m = n - 1
    um = [[lconst(1 if i == j else 0) for j in range(m)] for i in range(m)]
    wm = [[lconst(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for k in range(1, m):
        um[k][k - 1] = f * us[n - 2 - k]
        if n - 2 - k < len(ws):
            wm[k][k - 1] = lconst(-1) * f * ws[n - 2 - k]
    u_minus, w_minus = LaurentMatrix(um), LaurentMatrix(wm)
    probe = j_emb(u_minus) * h_uw * j_emb(w_minus)
    last_col = [probe.entries[i][n - 1] for i in range(n)]
    d = LaurentMatrix.diagonal(list(reversed(last_col[:-1])))
    d_prime = LaurentMatrix.diagonal([lconst(2) - v for v in last_col[:-1]])

    h1 = h_one(n)
    diff_ok = all(
        (probe.entries[i][j] - h1.entries[i][j]).min_degree_in("f") >= 2
        for i in range(n) for j in range(n - 1)
        if (probe.entries[i][j] - h1.entries[i][j]))
    return {
        "h(u,w)": h_uw, "u^-": u_minus, "w^-": w_minus,
        "d(u,w)": d, "d'(u,w)": d_prime, "last_column": last_col,
        "columns_ok": diff_ok, "det_pair_ok": det_pair_ok(d, d_prime),
    }


def det_pair_ok(d, d_prime):
    """det(d) det(d') - 1 in (f^2) for diagonal LaurentMatrix d and d':
    the terms of f-degree < 2 of the product of their diagonal entries,
    from `truncated_product`, are exactly 1."""
    diagonal = [g.entries[i][i] for g in (d, d_prime) for i in range(g.n)]
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
    Laurent ring in f and x; numeric mode needs (p, r, x).  Restricted to
    n >= 3 (the diagonal d degenerates at n = 2).  Returns (ok, details);
    on failure the difference matrix is included.
    """
    if n < 3:
        raise ValueError("identity restricted to n >= 3")
    if symbolic:
        f, xx = lvar("f"), lvar("x")
    else:
        f, xx = lconst(Fraction(p) ** r), lconst(Fraction(x))
    wn = weyl_longest(n)
    wn1 = weyl_longest(n - 1)
    d = dual_diag(n, xx)
    nprime = conjugated_toeplitz(n, f, xx)
    ncorr = corrector_matrix(n, f)
    hf = h_matrix(n, f)
    dx = d_matrix(n, xx)
    lhs = j_emb(wn1 * d * nprime) * (dx * hf).inverse().transpose() * wn * ncorr
    sign = 1 if (n - 1) % 2 == 0 else -1
    rhs_scale = f ** (1 - n)
    jfn = LaurentMatrix.diagonal([f ** n] * (n - 1) + [lconst(1)])
    rhs = (jfn * d_matrix(n, lconst(sign) * xx ** (-1)) * hf).scale(rhs_scale)
    ok = lhs == rhs
    details = {"ok": ok, "det_jd_nprime": (d.det() * nprime.det()) == lconst(1)}
    if not ok:
        details["difference"] = lhs - rhs
    if not symbolic:
        details["w d n' w in I"] = (wn1 * d * nprime * wn1).to_ratmat().is_iwahori(p, r)
        details["n in I"] = ncorr.to_ratmat().is_iwahori(p, r)
    return ok and details["det_jd_nprime"], details


def verify_inverseft(n, f=None):
    """t-matrix twist identity in GL_{n-1}: iota(t_(f) f) f^n = t_(f) f,
    where iota(g) = w g^{-t} w with the GL_{n-1} long Weyl element."""
    m = n - 1
    ff = lvar("f") if f is None else lconst(f)
    g = t_matrix(m, ff).scale(ff)
    return iota_involution(g).scale(ff ** n) == g


def iota_involution(g):
    """iota(g) = w_n g^{-t} w_n for a LaurentMatrix or RatMat."""
    n = g.n
    if isinstance(g, RatMat):
        w = weyl_longest(n).to_ratmat()
        return w * g.inv().transpose() * w
    w = weyl_longest(n)
    return w * g.inverse().transpose() * w
