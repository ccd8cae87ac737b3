"""The integer kernels against references kept here: a row-by-column
product, a Leibniz determinant and the entrywise definition of Iwahori
membership.  The coset key is checked against the product-then-test
membership in tests/test_hecke.py."""

import itertools
import random
from fractions import Fraction

import pytest

from heckeforge import exact, kernels
from heckeforge.exact import vp


def _rand_mat(rng, n, lo=-50, hi=50):
    return [rng.randrange(lo, hi) for _ in range(n * n)]


def _ref_mul(a, b, n):
    return [sum(a[i * n + k] * b[k * n + j] for k in range(n))
            for i in range(n) for j in range(n)]


def _sign(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _ref_det(a, n):
    total = 0
    for perm in itertools.permutations(range(n)):
        term = _sign(perm)
        for i in range(n):
            term *= a[i * n + perm[i]]
        total += term
    return total


def _ref_adjugate(a, n):
    if n == 1:
        return [1]
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            minor = [a[r * n + c] for r in range(n) if r != i
                     for c in range(n) if c != j]
            out[j * n + i] = (-1) ** (i + j) * _ref_det(minor, n - 1)
    return out


def _ref_is_iwahori(num, den, n, p, r):
    """Every entry of num/den p-integral, those below the diagonal of
    valuation >= r, and the determinant a p-unit."""
    g = [Fraction(x, den) for x in num]
    for i in range(n):
        for j in range(n):
            if vp(g[i * n + j], p) < (r if i > j else 0):
                return False
    det = _ref_det(g, n)
    return det != 0 and vp(det, p) == 0


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_mat_mul_agrees():
    """mat_mul against the row-by-column product."""
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([1, 2, 3, 4, 5])
        lo, hi = rng.choice([(-50, 50), (-2, 3)])
        a, b = _rand_mat(rng, n, lo, hi), _rand_mat(rng, n, lo, hi)
        assert kernels.mat_mul(a, b, n) == _ref_mul(a, b, n)


def test_det_and_adjugate_agree():
    """bareiss_det and det_adjugate, one elimination of [A | I], against
    Leibniz and Leibniz minors, up to n = 5.  Small entries put zeros on
    the pivots, so the elimination must swap rows, and make some
    matrices singular, for which det_adjugate raises."""
    rng = random.Random(2)
    singular = swapped = 0
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4, 5])
        lo, hi = rng.choice([(-50, 50), (-1, 2)])
        a = _rand_mat(rng, n, lo, hi)
        det = _ref_det(a, n)
        assert kernels.bareiss_det(a, n) == det
        if det:
            assert kernels.det_adjugate(a, n) == (det, _ref_adjugate(a, n))
        else:
            with pytest.raises(kernels.SingularMatrixError):
                kernels.det_adjugate(a, n)
        singular += det == 0
        swapped += det != 0 and n > 1 and a[0] == 0
    assert singular and swapped


def test_adjugate_identity():
    """A adj(A) = det(A) I for the adjugate of det_adjugate."""
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        a = _rand_mat(rng, n)
        det, adj = kernels.det_adjugate(a, n)
        assert det == kernels.bareiss_det(a, n)
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
    """is_iwahori_scaled against the entrywise definition, on random
    matrices, mostly outside the subgroup, and boundary targets
    (the least divisibility each entry needs, sometimes one power of p
    short in the last entry) over denominators with powers of p."""
    rng = random.Random(4)
    outcomes = set()
    for _ in range(400):
        n = rng.choice([2, 3])
        p = rng.choice([2, 3])
        r = rng.choice([0, 1, 2])
        if rng.random() < 0.5:
            num = _rand_mat(rng, n, -12, 13)
            den = rng.choice([1, p, p * p, 3])
        else:
            vd = rng.randrange(3)
            fail_last = vd > 0 and rng.random() < 0.3
            num = _boundary_target(rng, n, p, r, vd, fail_last)
            den = p ** vd * rng.choice([q for q in (1, 5, 7) if q % p])
        want = _ref_is_iwahori(num, den, n, p, r)
        assert kernels.is_iwahori_scaled(num, den, n, p, r) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_vp_int():
    """kernels reads the one integer valuation, exact.vp_int, which takes
    either sign."""
    assert kernels.vp_int is exact.vp_int
    assert kernels.vp_int(24, 2) == 3
    assert kernels.vp_int(-54, 3) == 3
    assert kernels.vp_int(7, 5) == 0
    assert kernels.vp_int(-1, 2) == 0 and kernels.vp_int(-3 << 40, 2) == 40
    for p in (2, 3, 5):
        for x in range(1, 300):
            want = max(k for k in range(9) if x % p ** k == 0)
            assert kernels.vp_int(-x, p) == kernels.vp_int(x, p) == want


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
