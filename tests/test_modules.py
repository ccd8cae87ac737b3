import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heckeforge import modules as M
from heckeforge.exact import PADIC_INFINITY, Cyclo
from heckeforge.ratmat import RatMat


def perm_spectra(base):
    return [list(p) for p in itertools.permutations(base)]


def test_commutation_enforced():
    with pytest.raises(ValueError):
        M.HeckeModule(2, 2, [[[F(0), F(1)], [F(0), F(0)]],
                             [[F(1), F(0)], [F(0), F(2)]]])


def test_apply_H_examples():
    mod = M.HeckeModule.from_spectra(2, 2, [[F(1), F(2)], [F(2), F(1)]])
    m = [F(1), F(1)]
    assert mod.apply_H(m, F(1)) == [F(0), F(0)]
    assert mod.apply_H(m, F(3)) == [F(2), F(2)]  # (3-1)(3-2) m
    mu = F(7)
    want = (mu - 1) * (mu - 2)
    assert mod.apply_H(m, mu) == [want, want]


def test_project0_on_eigenvector_is_scalar():
    q = F(2)
    lam = [F(3), F(5)]
    mod = M.HeckeModule.from_spectra(2, q, perm_spectra(lam))
    roots = M.HeckeRoots(lam, q, m=1)
    e1 = [F(1), F(0)]
    scalar = lam[0] * q ** -1 * roots.eta(1) - roots.eta(2)
    assert M.project0(e1, roots, mod) == [scalar, F(0)]
    assert M.project0([F(0), F(0)], roots, mod) == [F(0), F(0)]
    # the swapped-spectrum component is killed
    assert M.project0([F(0), F(1)], roots, mod) == [F(0), F(0)]


def test_project0_precondition_error():
    q = F(2)
    mod = M.HeckeModule.from_spectra(2, q, [[F(1), F(2)], [F(3), F(4)]])
    roots = M.HeckeRoots([F(1), F(2)], q)
    with pytest.raises(ValueError, match="lam_1"):
        M.project0([F(1), F(1)], roots, mod)


def test_project_identity_and_idempotence():
    rng = random.Random(31)
    for n in (2, 3):
        base = [F(x) for x in rng.sample(range(1, 15), n)]
        mod = M.HeckeModule.from_spectra(n, 2, perm_spectra(base))
        roots = M.HeckeRoots(base, 2)
        e_match = [F(1 if k == 0 else 0) for k in range(mod.dim)]
        assert M.project(e_match, roots, mod) == e_match
        vec = [F(rng.randrange(-4, 5)) for _ in range(mod.dim)]
        pv = M.project(vec, roots, mod)
        assert M.project(pv, roots, mod) == pv
        assert M.in_eigenspace(pv, roots, mod)


def test_project_is_coordinate_projection_diagonal():
    # 3-dim diagonal module with distinct joint spectra: the normalized
    # projection onto the first spectrum is the coordinate projection
    q = F(3)
    spectra = [[F(1), F(2), F(5)], [F(2), F(5), F(1)], [F(5), F(1), F(2)]]
    mod = M.HeckeModule.from_spectra(3, q, spectra)
    roots = M.HeckeRoots(spectra[0], q)
    vec = [F(7), F(-4), F(9)]
    assert M.project(vec, roots, mod) == [F(7), F(0), F(0)]


def test_project_denominator_witness():
    q = F(2)
    # distinct projection roots keep all denominators nonzero; a vanishing
    # one needs a clash with the eta-extension beyond m, e.g. m=1 with the
    # extension root equal to lam_1
    lam = [F(3), F(3)]
    mod = M.HeckeModule.from_spectra(2, q, perm_spectra([F(3), F(5)]))
    roots = M.HeckeRoots(lam, q, m=1)
    with pytest.raises(ZeroDivisionError, match=r"i=1, j=2"):
        M.project([F(1), F(1)], roots, mod)


def test_projection_equivariance():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.choice([2, 3])
        base = [F(x) for x in rng.sample(range(1, 15), n)]
        conj = [[F(1 if i == j else 0) for j in range(
            len(perm_spectra(base)))] for i in range(len(perm_spectra(base)))]
        d = len(conj)
        for i in range(d):
            for j in range(i + 1, d):
                conj[i][j] = F(rng.randrange(-2, 3))
        mod = M.HeckeModule.from_spectra(n, 3, perm_spectra(base), conj)
        roots = M.HeckeRoots(base, 3)
        vec = [F(rng.randrange(-3, 4)) for _ in range(mod.dim)]
        pv = M.project(vec, roots, mod)
        for nu in range(1, n + 1):
            lhs = M.project(M.mat_vec(mod.V(nu), vec), roots, mod)
            rhs = M.mat_vec(mod.V(nu), pv)
            assert lhs == rhs


def test_contragredient_examples():
    q = F(2)
    mod = M.HeckeModule.from_spectra(2, q, perm_spectra([F(3), F(5)]))
    dual = mod.contragredient()
    m = [F(1), F(1)]
    lam_vee = M.dual_root(F(3), q, 2)
    assert lam_vee == F(2, 3)
    assert all(x == 0 for x in dual.apply_H(m, lam_vee))
    ddual = dual.contragredient()
    assert ddual.U == mod.U


def test_contragredient_needs_invertible():
    mod = M.HeckeModule.from_spectra(2, 2, [[F(0), F(1)], [F(1), F(0)]])
    with pytest.raises(ZeroDivisionError):
        mod.contragredient()


def test_dual_root_involution_and_eta():
    q = F(3)
    lam_full = [F(2), F(5), F(7)]
    vee = M.full_dual_roots(lam_full, q)
    back = M.full_dual_roots(vee, q)
    assert list(back) == lam_full
    # eta_n of the dual is the inverse of eta_n
    n = 3
    eta_n = q ** (-(n * (n - 1) // 2)) * F(2 * 5 * 7)
    eta_n_vee = q ** (-(n * (n - 1) // 2)) * vee[0] * vee[1] * vee[2]
    assert eta_n_vee == 1 / eta_n


def test_recisums():
    assert M.verify_recisums(20)
    # n=5, nu=2: 1 + 10 - 8 = 3 = (2*3)/2
    assert (1 * 2 // 2) + (5 * 4 // 2) - 2 * 4 == 3


def test_slope_data():
    s = M.slope_data([F(1)], [F(1)], 0, 2, 2)
    assert s.kappa == 1 and s.kappa_prime == 1 and s.ordinary
    # n=3: kappa = q^{-1} 2^2 1 = 2; with lam' = (1,1) the pair has
    # kappa' = 1/2, so the product is a unit and the slope vanishes
    s3 = M.slope_data([F(2), F(1)], [F(1), F(1)], 0, 2, 2)
    assert s3.kappa == 2 and s3.kappa_prime == F(1, 2)
    assert s3.slope == 0 and s3.ordinary
    s3b = M.slope_data([F(2), F(1)], [F(2), F(1)], 0, 2, 2)
    assert s3b.slope == 2 and not s3b.ordinary and s3b.finite
    szero = M.slope_data([F(0), F(1)], [F(1), F(1)], 0, 2, 2)
    assert not szero.finite and szero.slope == PADIC_INFINITY


def test_dual_projection_constant_regressions():
    q = F(2)
    left = M.HeckeModule.from_spectra(2, q, perm_spectra([F(1), F(3)]))
    right = M.HeckeModule.from_spectra(1, q, [[F(5)]])
    pm = M.ProductModule(left, right)
    vec = [[F(1)], [F(1)]]
    ok, c, reason = M.verify_dual_projection(pm, vec, [F(1), F(3)], [F(5)])
    assert ok, reason
    assert c == F(4, 9)  # regression value for this datum

    lam3, lamp3 = [F(1), F(2), F(3)], [F(1), F(5)]
    left3 = M.HeckeModule.from_spectra(3, q, perm_spectra(lam3))
    right3 = M.HeckeModule.from_spectra(2, q, perm_spectra(lamp3))
    pm3 = M.ProductModule(left3, right3)
    vec3 = [[F(1)] * right3.dim for _ in range(left3.dim)]
    ok3, c3, reason3 = M.verify_dual_projection(pm3, vec3, lam3, lamp3)
    assert ok3, reason3
    assert c3 == F(8192, 18225)  # regression value
    assert c3 != 0


def test_dual_projection_degenerate_zero_vector():
    q = F(2)
    left = M.HeckeModule.from_spectra(2, q, perm_spectra([F(1), F(3)]))
    right = M.HeckeModule.from_spectra(1, q, [[F(5)]])
    pm = M.ProductModule(left, right)
    zero = [[F(0)], [F(0)]]
    ok, c, reason = M.verify_dual_projection(pm, zero, [F(1), F(3)], [F(5)])
    assert not ok and reason == "projection of the test vector vanished"


def test_entries_must_be_rational():
    with pytest.raises(ValueError, match="not rational"):
        M.HeckeModule(1, 2, [[[Cyclo.zeta(3)]]])
    mod = M.HeckeModule(1, 2, [[[Cyclo.rational(F(3, 4))]]])
    assert mod.U == [RatMat.from_rows([[F(3, 4)]])]


# -- the Fraction arithmetic the module ran on before RatMat, as references --

def ref_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), start=0 * a[0][0])
             for j in range(m)] for i in range(n)]


def ref_mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), start=0 * v[0])
            for i in range(len(a))]


def ref_eye(d):
    return [[F(1 if i == j else 0) for j in range(d)] for i in range(d)]


def ref_mat_inv(a):
    """Gauss-Jordan inverse over Q."""
    d = len(a)
    aug = [list(row) + ref_eye(d)[i] for i, row in enumerate(a)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix not invertible")
        aug[col], aug[piv] = aug[piv], aug[col]
        pinv = 1 / F(aug[col][col])
        aug[col] = [pinv * x for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


class RefModule:
    """Operators as nested lists of Fractions, multiplied entry by entry."""

    def __init__(self, n, q, spectra, conj):
        d = len(spectra)
        self.n, self.q, self.d = n, F(q), d
        s_inv = ref_mat_inv(conj)
        self.U = [ref_mat_mul(conj, ref_mat_mul(
            [[spectra[k][i] if k == j else F(0) for j in range(d)]
             for k in range(d)], s_inv)) for i in range(n)]

    def V(self, nu):
        m = ref_eye(self.d)
        for u in self.U[:nu]:
            m = ref_mat_mul(m, u)
        c = self.q ** (-(nu * (nu - 1) // 2))
        return [[c * x for x in row] for row in m]

    def Vp(self):
        m = ref_eye(self.d)
        for nu in range(1, self.n):
            m = ref_mat_mul(m, self.V(nu))
        return m

    def Vp_prime(self):
        return ref_mat_mul(self.V(self.n), self.Vp())

    def dual_U(self):
        c = self.q ** (self.n - 1)
        return [[[c * x for x in row]
                 for row in ref_mat_inv(self.U[self.n - i])]
                for i in range(1, self.n + 1)]

    def apply_H(self, vec, lam):
        out = list(vec)
        for u in self.U:
            out = [lam * x - y for x, y in zip(out, ref_mat_vec(u, out))]
        return out

    def project0(self, vec, roots):
        for i in range(roots.m):
            if any(x != 0 for x in self.apply_H(vec, roots.lam[i])):
                raise ValueError(
                    f"vector is not annihilated by H_p(lam_{i+1})")
        return self._steps(vec, roots, False)

    def project(self, vec, roots):
        lams = roots.lam[:roots.m]
        if any(x == 0 for x in lams) or len(set(lams)) != len(lams):
            raise ValueError("roots must be pairwise distinct and nonzero")
        return self._steps(vec, roots, True)

    def _steps(self, vec, roots, normalize):
        q, out = self.q, list(vec)
        for i in range(roots.m):
            for j in range(1, self.n + 1):
                if j == i + 1:
                    continue
                lam_i = roots.lam[i]
                dinv = 1
                if normalize:
                    denom = (lam_i * q ** (1 - j) * roots.eta(j - 1)
                             - roots.eta(j))
                    if denom == 0:
                        raise ZeroDivisionError(
                            "vanishing projection denominator"
                            f" at (i={i+1}, j={j})")
                    dinv = 1 / denom
                a = ref_mat_vec(self.V(j - 1), out)
                b = ref_mat_vec(self.V(j), out)
                out = [dinv * (lam_i * q ** (1 - j) * x - y)
                       for x, y in zip(a, b)]
        return out


small = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
nonzero = small.filter(bool)


@st.composite
def modules(draw, n=None):
    """A module of rank n (1..3) and dimension 1..6 with nonzero spectra:
    rows that permute n distinct roots or are drawn freely, conjugated by
    a random invertible rational matrix; with its reference twin."""
    n = draw(st.integers(1, 3)) if n is None else n
    d = draw(st.integers(1, 6))
    q = draw(st.sampled_from([2, 3, F(5, 2)]))
    base = draw(st.lists(nonzero, min_size=n, max_size=n, unique=True))
    spectra = [list(draw(st.one_of(st.permutations(base),
                                   st.lists(nonzero, min_size=n, max_size=n))))
               for _ in range(d)]
    conj = draw(st.lists(st.lists(small, min_size=d, max_size=d),
                         min_size=d, max_size=d))
    try:
        ref = RefModule(n, q, spectra, conj)
    except ZeroDivisionError:
        assume(False)
    return M.HeckeModule.from_spectra(n, q, spectra, conj), ref, base


def same(got, want):
    """Equal values and equal types, entry by entry."""
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(modules())
def test_operators_match_fraction_reference(built):
    mod, ref, _ = built
    for u, want in zip(mod.U, ref.U):
        assert u.rows() == want
    for nu in range(mod.n + 1):
        assert mod.V(nu).rows() == ref.V(nu)
    assert mod.Vp().rows() == ref.Vp()
    assert mod.Vp_prime().rows() == ref.Vp_prime()
    assert [u.rows() for u in mod.contragredient().U] == ref.dual_U()


@settings(max_examples=60, deadline=None)
@given(modules(), st.data())
def test_vectors_match_fraction_reference(built, data):
    mod, ref, base = built
    vec = data.draw(st.lists(small, min_size=mod.dim, max_size=mod.dim))
    for nu in range(mod.n + 1):
        same(M.mat_vec(mod.V(nu), vec), ref_mat_vec(ref.V(nu), vec))
    lam = data.draw(st.one_of(st.sampled_from(base), small))
    same(mod.apply_H(vec, lam), ref.apply_H(vec, lam))
    # an extension root equal to a projected one can zero a denominator
    extra = data.draw(st.lists(st.one_of(nonzero, st.sampled_from(base)),
                               max_size=1))
    m = data.draw(st.integers(1, mod.n))
    roots = M.HeckeRoots(base + extra, mod.q, m=m)
    for got, want in ((outcome(M.project0, vec, roots, mod),
                       outcome(ref.project0, vec, roots)),
                      (outcome(M.project, vec, roots, mod),
                       outcome(ref.project, vec, roots))):
        if isinstance(want, list):
            same(got, want)
        else:
            assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(modules(n), modules(n - 1))), st.data())
def test_product_U_p_matches_fraction_reference(pair, data):
    (left, ref_l, _), (right, ref_r, _) = pair
    vec = data.draw(st.lists(
        st.lists(small, min_size=right.dim, max_size=right.dim),
        min_size=left.dim, max_size=left.dim))
    vp_t = [list(col) for col in zip(*ref_r.Vp_prime())]
    want = ref_mat_mul(ref_mat_mul(ref_l.Vp(), vec), vp_t)
    got = M.ProductModule(left, right).U_p(vec)
    for g, w in zip(got, want, strict=True):
        same(g, w)
