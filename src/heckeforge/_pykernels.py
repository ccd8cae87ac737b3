"""Pure-Python kernels for exact integer matrix work.

Matrices are flat row-major sequences (lists or tuples) of Python ints of
length n*n; results are lists.  A rational matrix is a pair (num, den)
representing num/den with den a positive int.  No Fraction is formed
anywhere: valuations of entries x/den are read off x and den.  The coset
fold's test mul_is_iwahori checks each entry of a product as it forms it
and stops at the first failure.  These functions are the hot path of the
coset engine and its only implementation; the rest of the package calls
them through heckeforge.kernels.
"""

BACKEND = "python"


def vp_int(x, p):
    """p-adic valuation of a nonzero integer."""
    if x < 0:
        x = -x
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def mat_mul(a, b, n):
    out = [0] * (n * n)
    for i in range(n):
        ia = i * n
        for k in range(n):
            aik = a[ia + k]
            if aik:
                kb = k * n
                for j in range(n):
                    out[ia + j] += aik * b[kb + j]
    return out


def bareiss_det(a, n):
    """Fraction-free determinant of an integer matrix (flat list, copied)."""
    if n == 1:
        return a[0]
    m = [list(a[i * n:(i + 1) * n]) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = -1
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    piv = r
                    break
            if piv < 0:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            row = m[i]
            rk = row[k]
            mk = m[k]
            for j in range(k + 1, n):
                row[j] = (pkk * row[j] - rk * mk[j]) // prev
            row[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def adjugate(a, n):
    """Adjugate matrix: adj(A)[j][i] = (-1)^(i+j) * minor(i,j)."""
    if n == 1:
        return [1]
    out = [0] * (n * n)
    sub = [0] * ((n - 1) * (n - 1))
    for i in range(n):
        for j in range(n):
            t = 0
            for r in range(n):
                if r == i:
                    continue
                for c in range(n):
                    if c == j:
                        continue
                    sub[t] = a[r * n + c]
                    t += 1
            minor = bareiss_det(sub, n - 1)
            out[j * n + i] = minor if (i + j) % 2 == 0 else -minor
    return out


def is_iwahori_scaled(num, den, n, p, r):
    """Is num/den in the level-p^r Iwahori subgroup of GL_n(Z_p)?

    r = 0 gives membership in the maximal compact GL_n(Z_p).  Requires
    den > 0.  Entries must be p-integral, entries strictly below the
    diagonal must have valuation >= r beyond that, and det must be a
    p-unit.
    """
    vd = vp_int(den, p) if den != 1 else 0
    for i in range(n):
        for j in range(n):
            x = num[i * n + j]
            need = vd + r if i > j else vd
            if x == 0:
                continue
            if need > 0 and vp_int(x, p) < need:
                return False
    d = bareiss_det(num, n)
    if d == 0:
        return False
    return vp_int(d, p) == n * vd


def mul_is_iwahori(anum, aden, bnum, bden, n, p, r):
    """Is (anum/aden)*(bnum/bden) in the level-p^r Iwahori subgroup?

    The same test as is_iwahori_scaled on the product, fused with forming
    it: each entry x of anum*bnum is tested as it is formed, by
    x % p^need with need = v_p(aden*bden), plus r below the diagonal, and
    the first entry that fails returns False.  The Bareiss determinant is
    taken only once every entry has passed.
    """
    den = aden * bden
    vd = vp_int(den, p) if den != 1 else 0
    upper = p ** vd
    lower = upper * p ** r
    out = []
    for i in range(n):
        ia = i * n
        for j in range(n):
            x = 0
            for k in range(n):
                x += anum[ia + k] * bnum[k * n + j]
            if x % (lower if i > j else upper):
                return False
            out.append(x)
    d = bareiss_det(out, n)
    return d != 0 and vp_int(d, p) == n * vd
