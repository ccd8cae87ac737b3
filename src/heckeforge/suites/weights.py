"""Cases of the `weights` suite: purity, branching and critical strips."""

from heckeforge import weights
from heckeforge.suite import _ok, case


@case("weights", "purity-and-branching")
def _case_weights_basic(rng):
    ok1, w1 = weights.check_purity([3, 1, -1])
    ok2, _ = weights.check_purity([3, 2, 0])
    if not (ok1 and w1 == 2 and not ok2):
        return _ok(False, {"case": "purity"})
    if weights.branch([1, 0]) != [(0,), (1,)]:
        return _ok(False, {"case": "branch-10"})
    if weights.branch([2, 0]) != [(0,), (1,), (2,)]:
        return _ok(False, {"case": "branch-20"})
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        mu = sorted([rng.randrange(-6, 7) for _ in range(n)], reverse=True)
        if len(weights.branch(mu)) != weights.branch_count(mu):
            return _ok(False, {"case": "count", "mu": mu})
    return _ok(True)


@case("weights", "embedding-oracle")
def _case_emb_oracle(rng):
    # brute-force oracle: scan a window of twists and test interlacing
    def oracle(nu, mu):
        out = []
        check = tuple(-x for x in reversed(nu))
        for t in range(-30, 31):
            shifted = [c + t for c in check]
            if all(mu[i + 1] <= shifted[i] <= mu[i] for i in range(len(nu))):
                out.append(t)
        return out

    cases = [((0,), (1, 0)), ((0,), (4, 0)), ((1, -1), (1, 0, -1)),
             ((2, 0), (3, 1, -1))]
    for nu, mu in cases:
        if weights.emb_set(nu, mu) != oracle(nu, mu):
            return _ok(False, {"nu": nu, "mu": mu})
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        mu = sorted(rng.sample(range(-8, 9), n), reverse=True)
        nu = sorted(rng.sample(range(-8, 9), n - 1), reverse=True)
        if weights.emb_set(nu, mu) != oracle(nu, mu):
            return _ok(False, {"nu": nu, "mu": mu})
    return _ok(True)


@case("weights", "gl2-critical-family")
def _case_gl2_family(rng):
    for k in range(2, 21, 2):
        mu = [k - 2, 0]
        nu = [0]
        data = weights.critical_data(mu, nu)
        if len(data["emb"]) != k - 1:
            return _ok(False, {"k": k, "count": len(data["emb"])})
        if not data["bijection_ok"]:
            return _ok(False, {"k": k, "reason": "bijection"})
    return _ok(True)


@case("weights", "random-pure-pairs")
def _case_random_pure(rng):
    made = 0
    while made < 120:
        pair = _random_pure_pair(rng)
        if pair is None:
            continue
        mu, nu = pair
        made += 1
        data = weights.critical_data(mu, nu)
        emb = data["emb"]
        if emb and sorted(emb) != list(range(min(emb), max(emb) + 1)):
            return _ok(False, {"mu": mu, "nu": nu, "reason": "not interval"})
        wv = data["w"] + data["v"]
        if any((wv - t) not in emb for t in emb):
            return _ok(False, {"mu": mu, "nu": nu, "reason": "reflection"})
        if data["parity_ok"] and emb and data["bijection_ok"] is not True:
            return _ok(False, {"mu": mu, "nu": nu, "reason": "bijection"})
    return _ok(True)


def _random_pure_pair(rng, nmax=5):
    n = rng.randrange(2, nmax + 1)
    w = rng.randrange(-4, 10)
    half = [rng.randrange(-8, 9) for _ in range((n + 1) // 2)]
    mu = _pure_completion(half, w, n)
    if mu is None:
        return None
    v = rng.randrange(-4, 10)
    if (w - v) % 2:
        v += 1
    halfn = [rng.randrange(-8, 9) for _ in range(n // 2)]
    nu = _pure_completion(halfn, v, n - 1)
    if nu is None:
        return None
    return mu, nu


def _pure_completion(half, w, n):
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


@case("weights", "parity-violation")
def _case_parity(rng):
    data = weights.critical_data([1, 0], [0])
    return _ok(not data["parity_ok"] and data["critical_set"] == [],
               {"emb": data["emb"]})
