"""Finite-dimensional modules over Q with commuting Hecke actions.

A HeckeModule is a d-dimensional Q-vector space with n commuting
operators U_1..U_n, each a RatMat (integer numerators over one positive
denominator).  The V-operators, the Hecke polynomial, the eigenspace
projections, slope data and the contragredient twist are all derived
from these.  Operators are multiplied and inverted by the integer kernels
(RatMat, one Bareiss elimination), and an operator acts on a vector held
as integer numerators over one denominator.  Fractions appear only at the
edges: matrix entries and roots are read as rationals (a rational Cyclo
through `exact.as_rational`; any other Cyclo raises ValueError), and each
vector the module returns is a list of Fractions.
"""

from fractions import Fraction
from functools import cache
from math import prod
from operator import mul
from typing import NamedTuple

from heckeforge.exact import PADIC_INFINITY, as_rational, join, split, vp
from heckeforge.ratmat import RatMat


# -- operators and vectors over one denominator ------------------------------

def _ratmat(a):
    """A RatMat as it is; rows of rational scalars read once."""
    if isinstance(a, RatMat):
        return a
    return RatMat.from_rows([[as_rational(x) for x in row] for row in a])


def _mv(a, xs):
    """a.num times the integer vector xs: the numerators of a xs over a.den."""
    n, num = a.n, a.num
    return [sum(map(mul, num[i:i + n], xs)) for i in range(0, n * n, n)]


def _combine(c1, a, c2, b, xs, den):
    """c1 A v - c2 B v for v = xs/den, as (numerators, denominator)."""
    cden, (s1, s2) = split([c1, c2])
    s1, s2 = s1 * b.den, s2 * a.den
    return ([s1 * x - s2 * y for x, y in zip(_mv(a, xs), _mv(b, xs))],
            cden * a.den * b.den * den)


def mat_vec(a, vec):
    """The RatMat a applied to a rational vector."""
    den, xs = split(vec)
    return [join(x, a.den * den) for x in _mv(a, xs)]


# -- the module itself -------------------------------------------------------

class HeckeModule:
    """Commuting operators U_1..U_n on a d-dimensional Q-vector space."""

    def __init__(self, n, q, ops_u):
        if len(ops_u) != n:
            raise ValueError(f"need {n} operators")
        self.n = n
        self.q = Fraction(q)
        self.U = [_ratmat(u) for u in ops_u]
        self.dim = self.U[0].n
        for i, a in enumerate(self.U):
            for b in self.U[i + 1:]:
                if a * b != b * a:
                    raise ValueError("the U-operators must commute")
        self._v_cache = {0: RatMat.identity(self.dim)}

    @classmethod
    def from_spectra(cls, n, q, spectra, conjugator=None):
        """Diagonal module from joint spectra rows; optionally conjugated
        by an invertible matrix S (operators become S D S^{-1})."""
        us = [RatMat.diagonal([as_rational(s[i]) for s in spectra])
              for i in range(n)]
        if conjugator is not None:
            s = _ratmat(conjugator)
            s_inv = s.inverse()
            us = [s * u * s_inv for u in us]
        return cls(n, q, us)

    def V(self, nu):
        """V_{p,nu} = q^{-nu(nu-1)/2} U_1 ... U_nu."""
        if not 0 <= nu <= self.n:
            raise ValueError("0 <= nu <= n")
        got = self._v_cache.get(nu)
        if got is None:
            got = (self.V(nu - 1) * self.U[nu - 1]).scale(self.q ** (1 - nu))
            self._v_cache[nu] = got
        return got

    def Vp(self):
        m = self.V(0)
        for nu in range(1, self.n):
            m = m * self.V(nu)
        return m

    def Vp_prime(self):
        return self.V(self.n) * self.Vp()

    def apply_H(self, vec, lam):
        """H_p(lam) vec = prod_i (lam - U_i) vec via the factorization."""
        lam, one = as_rational(lam), self.V(0)
        den, xs = split(vec)
        for u in self.U:
            xs, den = _combine(lam, one, Fraction(1), u, xs, den)
        return [join(x, den) for x in xs]

    def contragredient(self):
        """The twisted module: U_i becomes q^{n-1} U_{n+1-i}^{-1}.

        Requires T_n (equivalently every U_i) invertible.  The defining
        twisted relations V_nu m^vee = V_n (V_{n-nu} m)^vee and
        Vp m^vee = V_n^{n-1} (Vp m)^vee are asserted.
        """
        scale = self.q ** (self.n - 1)
        dual = HeckeModule(self.n, self.q, [u.inverse().scale(scale)
                                            for u in reversed(self.U)])
        # V_nu m^vee = V_n (V_{n-nu} m)^vee with the outer V_n acting in
        # the twisted module, where it is V_n^{-1} of the original
        vn_inv = self.V(self.n).inverse()
        for nu in range(self.n + 1):
            if dual.V(nu) != vn_inv * self.V(self.n - nu):
                raise AssertionError(f"twisted V-relation fails at nu={nu}")
        vn_pow = self.V(0)
        for _ in range(self.n - 1):
            vn_pow = vn_pow * vn_inv
        if dual.Vp() != vn_pow * self.Vp():
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


def _project_steps(vec, roots, module, normalize):
    """Apply lam_i q^{1-j} V_{j-1} - V_j for each of the first m roots and
    each j != i+1 in 1..n, divided by its value on the eta-eigenspace when
    normalize is set; split over one denominator, and joined at the end."""
    den, xs = split(vec)
    q_pow = [module.q ** (1 - j) for j in range(module.n + 1)]
    eta, one = cache(roots.eta), Fraction(1)
    for i in range(roots.m):
        lam_i = as_rational(roots.lam[i])
        for j in range(1, module.n + 1):
            if j == i + 1:
                continue
            c1, c2 = lam_i * q_pow[j], one
            if normalize:
                denom = as_rational(c1 * eta(j - 1) - eta(j))
                if denom == 0:
                    raise ZeroDivisionError("vanishing projection denominator"
                                            f" at (i={i+1}, j={j})")
                c1, c2 = c1 / denom, 1 / denom
            xs, den = _combine(c1, module.V(j - 1), c2, module.V(j), xs, den)
    return [join(x, den) for x in xs]


def project0(vec, roots, module):
    """Unnormalized projection Pi^0: requires H_p(lam_i) vec = 0 for the
    first m roots, and maps into the simultaneous eta-eigenspace."""
    for i in range(roots.m):
        if any(module.apply_H(vec, roots.lam[i])):
            raise ValueError(f"vector is not annihilated by H_p(lam_{i+1})")
    return _project_steps(vec, roots, module, False)


def project(vec, roots, module):
    """Normalized projection Pi: idempotent, identity on the eigenspace."""
    lams = roots.lam[:roots.m]
    if any(x == 0 for x in lams) or any(
            lams[i] == lams[j]
            for i in range(len(lams)) for j in range(i + 1, len(lams))):
        raise ValueError("roots must be pairwise distinct and nonzero")
    return _project_steps(vec, roots, module, True)


def in_eigenspace(vec, roots, module):
    """Is vec a simultaneous V_{p,nu}-eigenvector with eigenvalues eta_nu
    for nu = 1..m?"""
    _, xs = split(vec)
    for nu in range(1, roots.m + 1):
        eta, v = as_rational(roots.eta(nu)), module.V(nu)
        a, b = eta.numerator * v.den, eta.denominator
        if any(b * g != a * x for g, x in zip(_mv(v, xs), xs)):
            return False
    return True


class SlopeData(NamedTuple):
    kappa: object
    kappa_prime: object
    nu_min: int
    slope: object  # int or infinity
    ordinary: bool
    finite: bool


def kappa_of(lam, q):
    """kappa = q^{-n(n-1)(n-2)/6} prod lam_nu^{n-nu} for lam of length n-1."""
    n = len(lam) + 1
    return q ** (-(n * (n - 1) * (n - 2) // 6)) * prod(
        (x ** (n - nu) for nu, x in enumerate(lam, 1)), start=Fraction(1))


def slope_data(lam, lam_prime, nu_min, q, p):
    """Slope bookkeeping for a pair of root tuples of length n-1 each."""
    if len(lam) != len(lam_prime):
        raise ValueError("root tuples must have equal length n-1")
    n = len(lam) + 1
    kappa = kappa_of(lam, Fraction(q))
    kappa_p = kappa_of(lam_prime, Fraction(q))
    prod = kappa * kappa_p
    if prod == 0:
        return SlopeData(kappa, kappa_p, nu_min, PADIC_INFINITY, False, False)
    slope = vp(prod, p) - nu_min * (n * (n - 1) // 2)
    return SlopeData(kappa, kappa_p, nu_min, slope, slope == 0, True)


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
        return _transpose(self.act_right(op, _transpose(vec)))

    def act_right(self, op, vec):
        """vec op^T: the RatMat op on each row of vec."""
        return [mat_vec(op, row) for row in vec]

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
    lam_vee = full_dual_roots(lam_full, q)[: n - 1]  # (lam_n^v .. lam_2^v)
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
