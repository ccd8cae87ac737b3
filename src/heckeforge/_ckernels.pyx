# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled kernels for exact integer matrix work.

Same contract as _pykernels: flat row-major sequences (lists or tuples) of
Python ints (arbitrary precision), results as lists, rational matrices as
(num, den) with den > 0.  Arithmetic stays on Python ints for exactness;
the win over the pure backend is C-level loop and indexing overhead.
"""

BACKEND = "cython"


cpdef int vp_int(x, p):
    cdef int v = 0
    if x < 0:
        x = -x
    while x % p == 0:
        x //= p
        v += 1
    return v


cpdef list mat_mul(a, b, Py_ssize_t n):
    cdef Py_ssize_t i, j, k, ia, kb
    cdef list out = [0] * (n * n)
    cdef object aik
    for i in range(n):
        ia = i * n
        for k in range(n):
            aik = a[ia + k]
            if aik != 0:
                kb = k * n
                for j in range(n):
                    out[ia + j] = out[ia + j] + aik * b[kb + j]
    return out


cpdef object bareiss_det(a, Py_ssize_t n):
    cdef Py_ssize_t i, j, k, piv
    cdef int sign = 1
    cdef object prev, pkk, rk
    cdef list m, row, mk
    if n == 1:
        return a[0]
    m = [list(a[i * n:(i + 1) * n]) for i in range(n)]
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = -1
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    piv = i
                    break
            if piv < 0:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            row = m[i]
            rk = row[k]
            for j in range(k + 1, n):
                row[j] = (pkk * row[j] - rk * mk[j]) // prev
            row[k] = 0
        prev = pkk
    if sign > 0:
        return m[n - 1][n - 1]
    return -m[n - 1][n - 1]


cpdef list adjugate(a, Py_ssize_t n):
    cdef Py_ssize_t i, j, r, c, t
    cdef list out, sub
    cdef object minor
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
            if (i + j) % 2 == 0:
                out[j * n + i] = minor
            else:
                out[j * n + i] = -minor
    return out


cpdef bint is_iwahori_scaled(num, den, Py_ssize_t n, p, int r):
    cdef Py_ssize_t i, j
    cdef int vd, need
    cdef object x, d
    vd = vp_int(den, p) if den != 1 else 0
    for i in range(n):
        for j in range(n):
            x = num[i * n + j]
            if x == 0:
                continue
            need = vd + r if i > j else vd
            if need > 0 and vp_int(x, p) < need:
                return False
    d = bareiss_det(num, n)
    if d == 0:
        return False
    return vp_int(d, p) == n * vd


cpdef bint mul_is_iwahori(anum, aden, bnum, bden, Py_ssize_t n, p, int r):
    """Is (anum/aden)*(bnum/bden) in the level-p^r Iwahori subgroup?

    Fused as in _pykernels: each entry of the product is tested against
    p^need as it is formed, the first failing entry returns False, and the
    Bareiss determinant is taken only once every entry has passed.
    """
    cdef Py_ssize_t i, j, k, ia
    cdef int vd
    cdef object den, upper, lower, x, d
    cdef list out = []
    den = aden * bden
    vd = vp_int(den, p) if den != 1 else 0
    upper = p ** vd
    lower = upper * p ** r
    for i in range(n):
        ia = i * n
        for j in range(n):
            x = 0
            for k in range(n):
                x = x + anum[ia + k] * bnum[k * n + j]
            if x % (lower if i > j else upper):
                return False
            out.append(x)
    d = bareiss_det(out, n)
    return d != 0 and vp_int(d, p) == n * vd
