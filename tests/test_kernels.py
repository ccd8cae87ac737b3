"""The compiled and pure kernels must agree everywhere."""

import random

from heckeforge import _pykernels, kernels


def _rand_mat(rng, n, lo=-50, hi=50):
    return [rng.randrange(lo, hi) for _ in range(n * n)]


def test_backend_reported():
    assert kernels.BACKEND in ("cython", "python")


def test_mat_mul_agrees():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([2, 3, 4, 5])
        a, b = _rand_mat(rng, n), _rand_mat(rng, n)
        assert kernels.mat_mul(a, b, n) == _pykernels.mat_mul(a, b, n)


def test_det_and_adjugate_agree():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        a = _rand_mat(rng, n)
        assert kernels.bareiss_det(a, n) == _pykernels.bareiss_det(a, n)
        assert kernels.adjugate(a, n) == _pykernels.adjugate(a, n)


def test_adjugate_identity():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        a = _rand_mat(rng, n)
        det = kernels.bareiss_det(a, n)
        adj = kernels.adjugate(a, n)
        prod = kernels.mat_mul(a, adj, n)
        for i in range(n):
            for j in range(n):
                assert prod[i * n + j] == (det if i == j else 0)


def test_big_integers_stay_exact():
    a = [10 ** 40 + 1, 3, 7, 10 ** 35]
    b = [2, 10 ** 50, 1, 5]
    got = kernels.mat_mul(a, b, 2)
    assert got[0] == (10 ** 40 + 1) * 2 + 3
    assert got[1] == (10 ** 40 + 1) * 10 ** 50 + 15


def test_iwahori_membership_agrees():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.choice([2, 3])
        p = rng.choice([2, 3])
        r = rng.choice([0, 1, 2])
        num = _rand_mat(rng, n, -12, 13)
        den = rng.choice([1, p, p * p, 3])
        assert (kernels.is_iwahori_scaled(num, den, n, p, r)
                == _pykernels.is_iwahori_scaled(num, den, n, p, r))


def test_vp_int():
    assert kernels.vp_int(24, 2) == 3
    assert kernels.vp_int(-54, 3) == 3
    assert kernels.vp_int(7, 5) == 0


def _unimodular(rng, n):
    """A random integer matrix of determinant 1 and its inverse."""
    u = [1 if i == j else 0 for i in range(n) for j in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(-3, 4)
        u = [u[k] + c * u[j * n + k % n] if k // n == i else u[k]
             for k in range(n * n)]
    return u, _pykernels.adjugate(u, n)


def _reference_mul_is_iwahori(a, ad, b, bd, n, p, r):
    return _pykernels.is_iwahori_scaled(_pykernels.mat_mul(a, b, n),
                                        ad * bd, n, p, r)


def _boundary_target(rng, n, p, r, vd, fail_last):
    """An integer t with t/p^vd on the edge of the level-p^r Iwahori
    subgroup: unit diagonal, and the least divisibility each entry needs.

    With fail_last, one power of p moves from the last diagonal entry to
    the first, and the entries below the diagonal get p^2 more, so v_p(det)
    stays n vd and only the test of the last entry rejects t."""
    def unit():
        return rng.choice([u for u in range(1, 4 * p) if u % p])
    t = []
    for i in range(n):
        for j in range(n):
            if i == j:
                t.append(p ** vd * unit())
            elif i < j:
                t.append(p ** vd * rng.randrange(-4, 5))
            else:
                extra = 2 if fail_last else 0
                t.append(p ** (vd + r + extra) * rng.randrange(-4, 5))
    if fail_last:
        t[0] *= p
        t[-1] //= p
    return t


def test_fused_mul_is_iwahori_matches_composition():
    """The fused kernel against the product-then-test composition, on
    products (u/ad) * (u^{-1} t/bd) = t/(ad bd) with u unimodular, and
    denominators both powers of p and prime to p."""
    rng = random.Random(5)
    outcomes = set()
    for _ in range(600):
        n = rng.choice([2, 3, 4])
        p = rng.choice([2, 3, 5])
        r = rng.choice([0, 1, 2])
        x, y = rng.randrange(3), rng.randrange(3)
        ad = p ** x * rng.choice([q for q in (1, 7, 11) if q % p])
        bd = p ** y * rng.choice([1, 13])
        vd = x + y
        fail_last = vd > 0 and rng.random() < 0.3
        t = _boundary_target(rng, n, p, r, vd, fail_last)
        u, u_inv = _unimodular(rng, n)
        a, b = u, _pykernels.mat_mul(u_inv, t, n)
        want = _reference_mul_is_iwahori(a, ad, b, bd, n, p, r)
        assert kernels.mul_is_iwahori(a, ad, b, bd, n, p, r) == want
        assert _pykernels.mul_is_iwahori(tuple(a), ad, tuple(b), bd,
                                         n, p, r) == want
        if fail_last:
            assert not want
            assert _pykernels.vp_int(_pykernels.bareiss_det(t, n), p) == n * vd
        outcomes.add((want, fail_last))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_fused_mul_is_iwahori_on_random_integers():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.choice([2, 3, 4])
        p = rng.choice([2, 3])
        r = rng.choice([0, 1, 2])
        a, b = _rand_mat(rng, n, -12, 13), _rand_mat(rng, n, -12, 13)
        ad, bd = rng.choice([1, p, p * p, 5]), rng.choice([1, p, 7])
        assert (kernels.mul_is_iwahori(a, ad, b, bd, n, p, r)
                == _reference_mul_is_iwahori(a, ad, b, bd, n, p, r))
