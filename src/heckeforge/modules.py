"""Finite-dimensional modules with commuting Hecke actions.

A HeckeModule is a d-dimensional space over an exact field (entries are
Fractions or Cyclo scalars) with n commuting operators U_1..U_n.  The
V-operators, the Hecke polynomial, the eigenspace projections, slope data
and the contragredient twist are all derived from these.  Scalars meet
through plain operators; a pivot that may be an int is made a Fraction by
`exact.scalar` before it is inverted, so `1 / x` stays exact.
"""

import itertools
from fractions import Fraction
from math import prod
from typing import NamedTuple

from heckeforge.exact import PADIC_INFINITY, scalar, vp


# -- small dense linear algebra over duck-typed exact scalars ---------------

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), start=0 * a[0][0])
             for j in range(m)] for i in range(n)]


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=0 * v[0])
            for i in range(len(a))]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_eye(d):
    return [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]


def mat_eq(a, b):
    return all(x == y for r1, r2 in zip(a, b) for x, y in zip(r1, r2))


def mat_inv(a):
    """Gauss-Jordan inverse over any exact field."""
    d = len(a)
    aug = [list(row) + list(mat_eye(d)[i]) for i, row in enumerate(a)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix not invertible")
        aug[col], aug[piv] = aug[piv], aug[col]
        pinv = 1 / scalar(aug[col][col])
        aug[col] = [pinv * x for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


# -- the module itself -------------------------------------------------------

class HeckeModule:
    """Commuting operators U_1..U_n on an exact d-dimensional space."""

    def __init__(self, n, q, ops_u):
        if len(ops_u) != n:
            raise ValueError(f"need {n} operators")
        self.n = n
        self.q = Fraction(q)
        self.U = [tuple(tuple(row) for row in u) for u in ops_u]
        self.dim = len(ops_u[0])
        for a, b in itertools.combinations(self.U, 2):
            if not mat_eq(mat_mul(a, b), mat_mul(b, a)):
                raise ValueError("the U-operators must commute")
        self._v_cache = {}

    @classmethod
    def from_spectra(cls, n, q, spectra, conjugator=None):
        """Diagonal module from joint spectra rows; optionally conjugated
        by an invertible matrix S (operators become S D S^{-1})."""
        d = len(spectra)
        us = []
        for i in range(n):
            diag = [[spectra[k][i] if k == j else Fraction(0) for j in range(d)]
                    for k in range(d)]
            us.append(diag)
        if conjugator is not None:
            s_inv = mat_inv(conjugator)
            us = [mat_mul(conjugator, mat_mul(u, s_inv)) for u in us]
        return cls(n, q, us)

    def V(self, nu):
        """V_{p,nu} = q^{-nu(nu-1)/2} U_1 ... U_nu."""
        if not 0 <= nu <= self.n:
            raise ValueError("0 <= nu <= n")
        got = self._v_cache.get(nu)
        if got is not None:
            return got
        if nu == 0:
            m = mat_eye(self.dim)
        else:
            m = self.U[0]
            for i in range(1, nu):
                m = mat_mul(m, self.U[i])
            m = mat_scale(self.q ** (-(nu * (nu - 1) // 2)), m)
        self._v_cache[nu] = m
        return m

    def Vp(self):
        m = mat_eye(self.dim)
        for nu in range(1, self.n):
            m = mat_mul(m, self.V(nu))
        return m

    def Vp_prime(self):
        return mat_mul(self.V(self.n), self.Vp())

    def T(self, nu):
        """T_nu = q^{-nu(nu-1)/2} e_nu(U_1..U_n)."""
        if nu == 0:
            return mat_eye(self.dim)
        acc = None
        for comb in itertools.combinations(range(self.n), nu):
            m = self.U[comb[0]]
            for i in comb[1:]:
                m = mat_mul(m, self.U[i])
            acc = m if acc is None else mat_add(acc, m)
        return mat_scale(self.q ** (-(nu * (nu - 1) // 2)), acc)

    def apply_H(self, vec, lam):
        """H_p(lam) vec = prod_i (lam - U_i) vec via the factorization."""
        out = list(vec)
        for u in self.U:
            out = [lam * x - y for x, y in zip(out, mat_vec(u, out))]
        return out

    def contragredient(self):
        """The twisted module: U_i becomes q^{n-1} U_{n+1-i}^{-1}.

        Requires T_n (equivalently every U_i) invertible.  The defining
        twisted relations V_nu m^vee = V_n (V_{n-nu} m)^vee and
        Vp m^vee = V_n^{n-1} (Vp m)^vee are asserted.
        """
        scale = self.q ** (self.n - 1)
        dual_u = [mat_scale(scale, mat_inv(self.U[self.n - i]))
                  for i in range(1, self.n + 1)]
        dual = HeckeModule(self.n, self.q, dual_u)
        # V_nu m^vee = V_n (V_{n-nu} m)^vee with the outer V_n acting in
        # the twisted module, where it is V_n^{-1} of the original
        vn_inv = mat_inv(self.V(self.n))
        for nu in range(self.n + 1):
            want = mat_mul(vn_inv, self.V(self.n - nu))
            if not mat_eq(dual.V(nu), want):
                raise AssertionError(f"twisted V-relation fails at nu={nu}")
        vn_pow = mat_eye(self.dim)
        for _ in range(self.n - 1):
            vn_pow = mat_mul(vn_pow, vn_inv)
        if not mat_eq(dual.Vp(), mat_mul(vn_pow, self.Vp())):
            raise AssertionError("twisted Vp-relation fails")
        return dual


# -- roots, projections, slopes ----------------------------------------------

class HeckeRoots:
    """An ordered tuple of Hecke roots; the first m are projected on,
    later entries (when present) extend the eta-ladder for denominators."""

    def __init__(self, lam, q, m=None):
        self.lam = tuple(lam)
        self.q = Fraction(q)
        self.m = len(self.lam) if m is None else m
        if self.m > len(self.lam):
            raise ValueError("m exceeds the number of supplied roots")

    def eta(self, nu):
        if nu == 0:
            return Fraction(1)
        if nu > len(self.lam):
            raise ValueError(f"eta_{nu} needs {nu} roots, have {len(self.lam)}")
        return (self.q ** (-(nu * (nu - 1) // 2))
                * prod(self.lam[1:nu], start=self.lam[0]))


def dual_root(lam, q, n):
    return q ** (n - 1) / lam


def dual_roots(lam_full, q):
    """underline-lambda-vee = (lam_n^vee, ..., lam_2^vee) from n full roots."""
    n = len(lam_full)
    return tuple(dual_root(lam_full[i], q, n) for i in range(n - 1, 0, -1))


def project0(vec, roots, module):
    """Unnormalized projection Pi^0: requires H_p(lam_i) vec = 0 for the
    first m roots, and maps into the simultaneous eta-eigenspace."""
    for i in range(roots.m):
        if any(x != 0 for x in module.apply_H(vec, roots.lam[i])):
            raise ValueError(f"vector is not annihilated by H_p(lam_{i+1})")
    q = module.q
    out = list(vec)
    for i in range(roots.m):
        for j in range(1, module.n + 1):
            if j == i + 1:
                continue
            a = mat_vec(module.V(j - 1), out)
            b = mat_vec(module.V(j), out)
            lam_i = roots.lam[i]
            out = [lam_i * q ** (1 - j) * x - y for x, y in zip(a, b)]
    return out


def project(vec, roots, module):
    """Normalized projection Pi: idempotent, identity on the eigenspace."""
    lams = roots.lam[:roots.m]
    if any(x == 0 for x in lams) or any(
            lams[i] == lams[j]
            for i in range(len(lams)) for j in range(i + 1, len(lams))):
        raise ValueError("roots must be pairwise distinct and nonzero")
    q = module.q
    out = list(vec)
    for i in range(roots.m):
        for j in range(1, module.n + 1):
            if j == i + 1:
                continue
            denom = roots.lam[i] * q ** (1 - j) * roots.eta(j - 1) - roots.eta(j)
            if denom == 0:
                raise ZeroDivisionError(
                    f"vanishing projection denominator at (i={i+1}, j={j})")
            a = mat_vec(module.V(j - 1), out)
            b = mat_vec(module.V(j), out)
            lam_i = roots.lam[i]
            dinv = 1 / denom
            out = [dinv * (lam_i * q ** (1 - j) * x - y) for x, y in zip(a, b)]
    return out


def in_eigenspace(vec, roots, module):
    """Is vec a simultaneous V_{p,nu}-eigenvector with eigenvalues eta_nu
    for nu = 1..m?"""
    for nu in range(1, roots.m + 1):
        eta = roots.eta(nu)
        got = mat_vec(module.V(nu), vec)
        if any(g != eta * x for g, x in zip(got, vec)):
            return False
    return True


class SlopeData(NamedTuple):
    kappa: object
    kappa_prime: object
    nu_min: int
    slope: object  # int or infinity
    ordinary: bool
    finite: bool
    # Whittaker-normalization condition at the identity: carried as an
    # opaque caller-supplied flag, never computed here
    whittaker_normalized: bool = True


def kappa_of(lam, q):
    """kappa = q^{-n(n-1)(n-2)/6} prod lam_nu^{n-nu} for lam of length n-1."""
    n = len(lam) + 1
    return q ** (-(n * (n - 1) * (n - 2) // 6)) * prod(
        (x ** (n - nu) for nu, x in enumerate(lam, 1)), start=Fraction(1))


def slope_data(lam, lam_prime, nu_min, q, p, whittaker_normalized=True):
    """Slope bookkeeping for a pair of root tuples of length n-1 each."""
    if len(lam) != len(lam_prime):
        raise ValueError("root tuples must have equal length n-1")
    n = len(lam) + 1
    kappa = kappa_of(lam, Fraction(q))
    kappa_p = kappa_of(lam_prime, Fraction(q))
    prod = kappa * kappa_p
    if prod == 0:
        return SlopeData(kappa, kappa_p, nu_min, PADIC_INFINITY, False, False,
                         whittaker_normalized)
    slope = vp(prod, p) - nu_min * (n * (n - 1) // 2)
    return SlopeData(kappa, kappa_p, nu_min, slope, slope == 0, True,
                     whittaker_normalized)


def verify_recisums(n_max):
    """(nu-1)nu/2 + n(n-1)/2 - nu(n-1) = (n-nu-1)(n-nu)/2 for nu <= n <= n_max."""
    for n in range(2, n_max + 1):
        for nu in range(n + 1):
            lhs = (nu - 1) * nu // 2 + n * (n - 1) // 2 - nu * (n - 1)
            rhs = (n - nu - 1) * (n - nu) // 2
            if lhs != rhs:
                return False
    return True


# -- product modules and the dual-projection constant ------------------------

class ProductModule:
    """Tensor product of a rank-n module and a rank-(n-1) module; vectors
    are d1 x d2 matrices, i(T) acts on the left, i'(T) on the right."""

    def __init__(self, left, right):
        if right.n != left.n - 1:
            raise ValueError("right factor must have rank n-1")
        self.left = left
        self.right = right

    def act_left(self, op, vec):
        return mat_mul(op, vec)

    def act_right(self, op, vec):
        return mat_mul(vec, _transpose(op))

    def U_p(self, vec):
        return self.act_right(self.right.Vp_prime(),
                              self.act_left(self.left.Vp(), vec))

    def project0_pair(self, vec, roots_left, roots_right):
        d1, d2 = len(vec), len(vec[0])
        cols = [project0([vec[i][j] for i in range(d1)], roots_left, self.left)
                for j in range(d2)]
        mid = [[cols[j][i] for j in range(d2)] for i in range(d1)]
        rows = [project0(list(mid[i]), roots_right, self.right) for i in range(d1)]
        return rows

    def contragredient(self):
        return ProductModule(self.left.contragredient(),
                             self.right.contragredient())


def _transpose(a):
    return [[a[j][i] for j in range(len(a))] for i in range(len(a[0]))]


def full_dual_roots(lam, q):
    """All roots of the twisted module, reversed: (lam_k^vee, ..., lam_1^vee)."""
    k = len(lam)
    return tuple(dual_root(lam[i], q, k) for i in range(k - 1, -1, -1))


def verify_dual_projection(pm, vec, lam_full, lam_prime_full):
    """Machine check of the contragredient projection statement.

    lam_full: the n Hecke roots on the left factor; lam_prime_full: the
    n-1 roots on the right.  Projects with (lam_1..lam_{n-1}) x
    (lam'_1..lam'_{n-2}), twists, projects the original vector in the
    twisted module with the dual roots, and checks a nonzero constant C
    with C (m~)^vee = Pi0-dual(m^vee), plus the U_p eigenvalues on both
    sides.  Returns (ok, C, reason).
    """
    n = pm.left.n
    q = pm.left.q
    roots_l = HeckeRoots(lam_full, q, m=n - 1)
    roots_r = HeckeRoots(lam_prime_full, q, m=n - 2)
    m_tilde = pm.project0_pair(vec, roots_l, roots_r)
    if all(x == 0 for row in m_tilde for x in row):
        return False, None, "projection of the test vector vanished"

    eig = kappa_of(lam_full[: n - 1], q) * kappa_of(lam_prime_full, q)
    up = pm.U_p(m_tilde)
    if not all(x == eig * y for r1, r2 in zip(up, m_tilde) for x, y in zip(r1, r2)):
        return False, None, "U_p eigenvalue mismatch on the modified vector"

    dual = pm.contragredient()
    lam_vee = dual_roots(lam_full, q)              # (lam_n^v .. lam_2^v)
    lam_p_vee_full = full_dual_roots(lam_prime_full, q)
    roots_l_vee = HeckeRoots(lam_vee, q, m=n - 1)
    roots_r_vee = HeckeRoots(lam_p_vee_full[: n - 2], q, m=n - 2)
    rhs = dual.project0_pair(vec, roots_l_vee, roots_r_vee)

    # proportionality C * (m~)^vee = rhs, with (m~)^vee = m~ as a vector
    c_val = None
    for r1, r2 in zip(m_tilde, rhs):
        for x, y in zip(r1, r2):
            if x != 0:
                cand = y / x
                if c_val is None:
                    c_val = cand
                elif cand != c_val:
                    return False, None, "vectors not proportional"
            elif y != 0:
                return False, None, "vectors not proportional"
    if c_val is None or c_val == 0:
        return False, c_val, "constant vanished"

    up_dual = dual.U_p(m_tilde)
    eig_dual = kappa_of(lam_vee, q) * kappa_of(lam_p_vee_full, q)
    if not all(x == eig_dual * y
               for r1, r2 in zip(up_dual, m_tilde) for x, y in zip(r1, r2)):
        return False, c_val, "dual U_p eigenvalue mismatch"
    return True, c_val, None
