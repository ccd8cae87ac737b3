import random
from fractions import Fraction

import pytest

from heckeforge import weights


def test_purity_examples():
    assert weights.check_purity([5, 0]) == (True, 5)
    assert weights.check_purity([3, 1, -1]) == (True, 2)
    assert weights.check_purity([3, 2, 0]) == (False, None)
    # GL_1 degeneration: v = 2 nu_1
    assert weights.check_purity([4]) == (True, 8)


def test_purity_multiple_embeddings():
    assert weights.check_purity([[3, 1], [4, 0]]) == (True, 4)
    assert weights.check_purity([[3, 1], [4, 1]]) == (False, None)


def test_branch_examples():
    assert weights.branch([1, 0]) == [(0,), (1,)]
    assert weights.branch([2, 0]) == [(0,), (1,), (2,)]
    assert weights.branch([2, 1, 0]) == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_branch_count_closed_form():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.choice([2, 3, 4, 5])
        mu = sorted([rng.randrange(-5, 6) for _ in range(n)], reverse=True)
        got = weights.branch(mu)
        assert len(got) == weights.branch_count(mu)
        assert len(set(got)) == len(got)  # multiplicity one
        assert got == sorted(got)


def test_emb_set_examples():
    # n=2: the interval [b+c, a+c]
    assert weights.emb_set([0], [1, 0]) == [0, 1]
    assert weights.emb_set([3], [4, 1]) == [4, 5, 6, 7]
    assert weights.emb_set([1, -1], [1, 0, -1]) == [0]
    assert weights.emb_set([5, 2, -1], [8, 3, -7, -12]) == []


def test_emb_set_brute_force_oracle():
    def oracle(nu, mu):
        check = tuple(-x for x in reversed(nu))
        out = []
        for t in range(-40, 41):
            shifted = [c + t for c in check]
            if all(mu[i + 1] <= shifted[i] <= mu[i] for i in range(len(nu))):
                out.append(t)
        return out

    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5])
        mu = sorted(rng.sample(range(-10, 11), n), reverse=True)
        nu = sorted(rng.sample(range(-10, 11), n - 1), reverse=True)
        got = weights.emb_set(nu, mu)
        assert got == oracle(nu, mu)
        if got:  # contiguous interval
            assert got == list(range(got[0], got[-1] + 1))


def test_gl2_family():
    for k in range(2, 16, 2):
        data = weights.critical_data([k - 2, 0], [0])
        assert data["parity_ok"]
        assert len(data["emb"]) == k - 1
        assert data["nu_min"] == 0
        assert data["s_min"] == Fraction(1, 2)
        assert data["s_max"] == Fraction(1, 2) + (k - 2)
        assert data["bijection_ok"] is True


def test_langlands_parameter_is_twice_mu_plus_rho_less_w():
    """l = 2(mu + rho_n) - w per embedding, against rho_n formed as
    Fractions: rho_i = (n - 1)/2 - i for i = 0, ..., n - 1."""
    assert weights.langlands_parameter([1, 0, -1], 0) == [(4, 0, -4)]
    rng = random.Random(18)
    for _ in range(50):
        n = rng.randrange(1, 6)
        embs = [sorted(rng.sample(range(-10, 11), n), reverse=True)
                for _ in range(rng.randrange(1, 4))]
        w = rng.randrange(-12, 13)
        rho = [Fraction(n - 1, 2) - i for i in range(n)]
        want = [tuple(2 * (m + r) - w for m, r in zip(mu, rho))
                for mu in embs]
        assert weights.langlands_parameter(embs, w) == want


def test_critical_n3_example():
    data = weights.critical_data([1, 0, -1], [1, -1])
    assert data["emb"] == [0]
    assert data["critical_set"] == [Fraction(1, 2)]
    assert data["bijection_ok"] is True


def test_symmetric_weights_center_half():
    data = weights.critical_data([1, 0, -1], [1, -1])
    assert data["w"] == 0 and data["v"] == 0
    assert data["center"] == Fraction(1, 2)
    s_vals = data["critical_set"]
    assert all((1 + data["w"] + data["v"]) - s in s_vals for s in s_vals)


def test_parity_violation():
    data = weights.critical_data([1, 0], [0])
    assert not data["parity_ok"]
    assert data["critical_set"] == []
    assert data["nu_min"] is None


def test_lists_are_bounded_before_they_are_listed(monkeypatch):
    """A list of MAX_ENUMERATION items is listed, one more is refused."""
    assert len(weights.emb_set([0], [99999, 0])) == weights.MAX_ENUMERATION
    with pytest.raises(ValueError, match="MAX_ENUMERATION"):
        weights.emb_set([0], [100000, 0])
    monkeypatch.setattr(weights, "MAX_ENUMERATION", 4)
    assert len(weights.branch([2, 1, 0])) == 4
    monkeypatch.setattr(weights, "MAX_ENUMERATION", 3)
    with pytest.raises(ValueError, match="MAX_ENUMERATION = 3"):
        weights.branch([2, 1, 0])


def test_purity_required():
    with pytest.raises(ValueError):
        weights.critical_data([3, 2, 0], [1, -1])


def test_reflection_symmetry_random():
    rng = random.Random(9)
    checked = 0
    while checked < 200:
        n = rng.randrange(2, 6)
        w = rng.randrange(-4, 9)
        half = [rng.randrange(-8, 9) for _ in range((n + 1) // 2)]
        mu = _pure(half, w, n)
        if mu is None:
            continue
        v = rng.randrange(-4, 9)
        nu = _pure([rng.randrange(-8, 9) for _ in range(n // 2)], v, n - 1)
        if nu is None:
            continue
        checked += 1
        emb = weights.emb_set(nu, mu)
        for t in emb:
            assert (w + v - t) in emb


def _pure(half, w, n):
    mu = [0] * n
    for i, x in enumerate(half):
        mu[i] = x
        mu[n - 1 - i] = w - x
    if n % 2 == 1:
        if w % 2:
            return None
        mu[n // 2] = w // 2
    if any(mu[i] <= mu[i + 1] for i in range(n - 1)):
        return None
    return mu
