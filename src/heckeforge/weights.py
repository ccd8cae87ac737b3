"""Highest-weight combinatorics: purity, branching, embedding sets and the
critical strip.

Weights are weakly decreasing integer tuples; several real embeddings are
supported as a list of such tuples (the default constructors wrap a single
one).  Everything is exact integer/Fraction arithmetic, and every list
has its closed-form length checked first, by `exact.check_bound` against
MAX_ENUMERATION read under this module's name.
"""

from fractions import Fraction

from heckeforge.exact import MAX_ENUMERATION, check_bound


def _as_embeddings(mu):
    """Normalize to a tuple of per-embedding weight tuples."""
    if not mu:
        raise ValueError("empty weight")
    if isinstance(mu[0], (list, tuple)):
        out = tuple(tuple(int(x) for x in w) for w in mu)
    else:
        out = (tuple(int(x) for x in mu),)
    lengths = {len(w) for w in out}
    if len(lengths) != 1:
        raise ValueError("all embeddings must have the same rank")
    for w in out:
        if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
            raise ValueError("weight must be weakly decreasing")
    return out


def check_purity(mu):
    """(pure, w): w = mu_i + mu_{n+1-i} must not depend on i or the
    embedding.  A GL_1 weight is pure of weight 2*mu_1."""
    embs = _as_embeddings(mu)
    n = len(embs[0])
    vals = set()
    for w in embs:
        if n == 1:
            vals.add(2 * w[0])
        else:
            for i in range(n):
                vals.add(w[i] + w[n - 1 - i])
    if len(vals) == 1:
        return True, vals.pop()
    return False, None


def branch(mu):
    """All GL_{n-1} highest weights interlacing a single-embedding mu,
    in lexicographic order, each with multiplicity one."""
    embs = _as_embeddings(mu)
    if len(embs) != 1:
        raise ValueError("branching is per embedding")
    w = embs[0]
    n = len(w)
    if n < 2:
        raise ValueError("need rank >= 2")
    count = branch_count(w)
    check_bound(f"branch: {count} interlacing weights", count,
                "MAX_ENUMERATION", MAX_ENUMERATION)
    out = [[]]
    for i in range(n - 1):
        out = [pref + [v] for pref in out
               for v in range(min(w[i], pref[-1] if pref else w[i]),
                              w[i + 1] - 1, -1)]
    tuples = sorted(tuple(x) for x in out)
    return tuples


def branch_count(mu):
    embs = _as_embeddings(mu)
    w = embs[0]
    prod = 1
    for i in range(len(w) - 1):
        prod *= w[i] - w[i + 1] + 1
    return prod


def emb_set(nu, mu):
    """Integers t such that (contragredient of nu) + t interlaces mu at
    every embedding; always a contiguous interval (possibly empty)."""
    mus = _as_embeddings(mu)
    nus = _as_embeddings(nu)
    if len(nus[0]) != len(mus[0]) - 1:
        raise ValueError("nu must have rank n-1")
    if len(nus) != len(mus):
        raise ValueError("embedding lists must match")
    lo, hi = None, None
    for wmu, wnu in zip(mus, nus):
        check = tuple(-x for x in reversed(wnu))
        for i in range(len(check)):
            # mu_{i+1} <= check_i + t <= mu_i
            a = wmu[i + 1] - check[i]
            b = wmu[i] - check[i]
            lo = a if lo is None else max(lo, a)
            hi = b if hi is None else min(hi, b)
    if lo is None or lo > hi:
        return []
    check_bound(f"emb_set: {hi - lo + 1} twists", hi - lo + 1,
                "MAX_ENUMERATION", MAX_ENUMERATION)
    return list(range(lo, hi + 1))


def langlands_parameter(mu, w):
    """l = 2(mu + rho_n) - (w) per embedding; rho half-sums doubled stay
    integral: l_i = 2 mu_i + (n + 1 - 2(i+1)) - w."""
    embs = _as_embeddings(mu)
    n = len(embs[0])
    return [tuple(2 * wv[i] + (n + 1 - 2 * (i + 1)) - w for i in range(n))
            for wv in embs]


def critical_data(mu, nu):
    """Purity, parity, the critical centre, nu_min / s_min / s_max and the
    critical set, cross-checked against the embedding interval.

    The leftmost critical value comes out of the Langlands parameters as
    s_min = (1 + w + v - min |l_i - m_j|) / 2; parity makes the minimum
    odd, so s_min is a half-integer.  The bijection with the embedding
    interval is asserted whenever both sets are nonempty.
    """
    ok_mu, w = check_purity(mu)
    ok_nu, v = check_purity(nu)
    if not ok_mu or not ok_nu:
        raise ValueError("weights must be pure")
    parity_ok = (w - v) % 2 == 0
    emb = emb_set(nu, mu)
    out = {
        "w": w, "v": v, "parity_ok": parity_ok,
        "center": Fraction(1 + w + v, 2),
        "emb": emb,
        # critical half-integers exist only under the parity condition
        "critical_set": [Fraction(1, 2) + t for t in emb] if parity_ok else [],
    }
    if not parity_ok:
        out.update({"nu_min": None, "s_min": None, "s_max": None,
                    "bijection_ok": None})
        return out
    ls = langlands_parameter(mu, w)
    ms = langlands_parameter(nu, v)
    best = min(abs(li - mj)
               for lrow, mrow in zip(ls, ms) for li in lrow for mj in mrow)
    nu_min = (w + v + 1 - best) // 2
    assert (w + v + 1 - best) % 2 == 0
    s_min = Fraction(1, 2) + nu_min
    s_max = Fraction(1, 2) + w + v - nu_min
    # the strip from s_min to s_max holds `best` half-integers
    check_bound(f"critical strip: {best} half-integers", best,
                "MAX_ENUMERATION", MAX_ENUMERATION)
    strip = []
    t = s_min
    while t <= s_max:
        strip.append(t)
        t += 1
    bij = strip == out["critical_set"] if (emb and strip) else None
    out.update({"nu_min": nu_min, "s_min": s_min, "s_max": s_max,
                "bijection_ok": bij})
    if bij is False:
        raise ArithmeticError(
            f"critical strip {strip} does not match embedding set {emb}")
    return out
