"""The integer kernels of the coset engine: exact integer matrix work in
pure Python.

Matrices are flat row-major sequences (lists or tuples) of Python ints of
length n*n; results are lists.  A rational matrix is a pair (num, den)
representing num/den with den a positive int.  No Fraction is formed
anywhere: valuations of entries x/den are read off x and den, by
`exact.vp_int`, or inline where a pivot loop keeps the unit part too.  The
coset engine folds through iwahori_coset_key, a canonical tuple of ints per
coset g K_I, so equal cosets meet in one dict entry.  The key's cost
follows its input: an upper triangular numerator needs no elimination
and no back-substitution, and hermite_key reads the key of a numerator
already in column Hermite form, as every listed operator coset is,
straight off its entries.  These functions are the hot path of the
coset engine and its only implementation.  One fraction-free elimination
(Bareiss) gives bareiss_det and, run once on [A | I], det_adjugate.
"""

import functools

from heckeforge.exact import vp_int

# the one implementation, as the benchmark's probe reports it
BACKEND = "python"


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


def _bareiss(m, n, above=False):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968), in
    place, of integer rows of any width >= n on their first n columns:
    step k clears column k below its pivot (and above it if `above`),
    dividing exactly by the previous pivot, swapping rows for a zero
    pivot.  Returns det of the leading n x n block, +-m[n-1][n-1]."""
    sign = prev = 1
    w = len(m[0])
    for k in range(n):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        mk = m[k]
        pkk = mk[k]
        for i in range(0 if above else k + 1, n):
            if i != k:
                row = m[i]
                rk = row[k]
                for j in range(k + 1, w):
                    row[j] = (pkk * row[j] - rk * mk[j]) // prev
                row[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def bareiss_det(a, n):
    """Fraction-free determinant of an integer matrix (flat list, copied)."""
    return _bareiss([list(a[i * n:(i + 1) * n]) for i in range(n)], n)


def det_adjugate(a, n):
    """(det, adj) of a nonsingular integer matrix (flat list, copied),
    adj flat.  One elimination of [a | I], above the pivots as well as
    below, leaves D a^-1, D = +-det, in the right half, exactly in
    integers: the back-substitution runs inside the pass (Gauss-Jordan).
    A singular matrix raises SingularMatrixError."""
    m = [list(a[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)]
         for i in range(n)]
    det = _bareiss(m, n, above=True)
    if not det:
        raise SingularMatrixError("matrix is singular")
    s = 1 if det == m[n - 1][n - 1] else -1
    return det, [s * v for row in m for v in row[n:]]


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


class SingularMatrixError(ZeroDivisionError):
    pass


def _eliminate(num, n, p):
    """H's columns before reduction, for any nonsingular num: unit column
    operations triangularize num exactly in integers, bottom row first.
    Returns (cols, exps, units), cols[i] rows 0..i of column i, whose
    pivot is units[i] p^exps[i]."""
    # the columns not yet taken as pivots; an elimination updates only the
    # rows above the current one, the only rows read afterwards
    active = [list(num[j::n]) for j in range(n)]
    cols = [None] * n
    exps = [0] * n
    units = [1] * n
    for i in range(n - 1, -1, -1):
        best = least = -1
        for idx, col in enumerate(active):
            x = col[i]
            if x:
                v = 0
                while not x % p:
                    x //= p
                    v += 1
                if least < 0 or v < least:
                    best, least = idx, v
                    if not v:
                        break
        if best < 0:
            raise SingularMatrixError("matrix is singular")
        col = active.pop(best)
        pp = p ** least
        u = col[i] // pp
        for c in active:
            t = c[i] // pp
            if t:
                for l in range(i):
                    c[l] = u * c[l] - t * col[l]
        del col[i + 1:]
        cols[i], exps[i], units[i] = col, least, u
    return cols, exps, units


def _triangular_columns(num, n, p):
    """(cols, exps, units) as `_eliminate` gives them, for upper
    triangular num: its own columns, with each diagonal entry split
    into units[i] p^exps[i]."""
    cols, exps, units = [], [], []
    for j in range(n):
        col = list(num[j:j * (n + 1) + 1:n])
        x = col[j]
        if not x:
            raise SingularMatrixError("matrix is singular")
        v = 0
        while not x % p:
            x //= p
            v += 1
        cols.append(col)
        exps.append(v)
        units.append(x)
    return cols, exps, units


@functools.cache
def _identity_flag(n):
    """The level part of the key of a coset g K with g^{-1} H in
    B(Z_p): the n x n identity, column by column."""
    return tuple(int(i == j) for j in range(n) for i in range(n))


def hermite_key(num, n, r):
    """iwahori_coset_key(num, 1, n, p, r) for num already in p-adic
    column Hermite form: upper triangular, pivots p^(a_i), and each entry
    of row i right of its pivot in [0, p^(a_i)).  The key is (0,), the
    entries on and above the diagonal column by column, and for r >= 1
    the identity flag.  The form is not checked; p is not needed."""
    key = [0]
    for j in range(n):
        key += num[j:j * (n + 1) + 1:n]
    if r:
        key += _identity_flag(n)
    return tuple(key)


def iwahori_coset_key(num, den, n, p, r):
    """A canonical, hashable key of the coset g K, g = num/den, K the
    level-p^r Iwahori subgroup (r = 0: K = GL_n(Z_p)).

    (num, den) is normalized, as RatMat keeps it.  Two keys are equal
    exactly when g^{-1} h lies in K.  The key is the tuple (s, H, k) of
    ints:

    - s = v_p(den).  den's prime-to-p part is a unit scalar, which lies
      in K.  A normalized num/den with s > 0 has p-content -s, and right
      multiplication by GL_n(Z_p) keeps the p-content, so s is an
      invariant of the coset.
    - H, the p-adic column Hermite form of num (Cohen, GTM 138, section
      2.4): upper triangular with pivots p^(a_i), and each entry of row
      i right of its pivot reduced into [0, p^(a_i)).  H is one per
      coset num GL_n(Z_p).  An upper triangular num is already
      triangular, its pivot units and exponents read off its diagonal;
      any other num is triangularized by unit column operations, exactly
      in integers, bottom row first (`_eliminate`).  Each column is then
      scaled by its pivot unit's inverse mod p^(N+1), N = v_p(det) =
      sum a_i (formed only when some unit is not 1), and its pivot set
      to p^(a_i): the change lies in p^N Z_p^n, inside num's column
      lattice, and the columns still have covolume p^N, so they span
      the same lattice.  H's entries on and above the diagonal are
      listed, column by column.
    - For r >= 1, the canonical form of k = H^{-1} num mod p^r modulo the
      upper triangular B(Z/p^r), since K is the preimage of B(Z/p^r) in
      GL_n(Z_p).  k is integral, and back-substitution finds it exactly
      in integers.  Column by column, left to right: clear the pivot rows
      of the earlier columns, then scale the lowest unit entry to 1.
      Its entries are listed, column by column.  For upper triangular
      num, k lies in B(Z_p), so its form is the identity and no
      back-substitution is done.

    A singular num raises SingularMatrixError.
    """
    for i in range(1, n):
        if any(num[i * n:i * (n + 1)]):
            triangular = False
            cols, exps, units = _eliminate(num, n, p)
            break
    else:
        triangular = True
        cols, exps, units = _triangular_columns(num, n, p)
    key = [vp_int(den, p)]
    bound = None
    powers = [p ** a for a in exps]
    for j in range(n):
        col = cols[j]
        u = units[j]
        if u != 1:
            if bound is None:
                bound = p ** (sum(exps) + 1)
            w = pow(u, -1, bound)
            for l in range(j):
                col[l] *= w
        col[j] = powers[j]
        for k in range(j - 1, -1, -1):
            t = col[k] // powers[k]
            if t:
                ck = cols[k]
                for l in range(k + 1):
                    col[l] -= t * ck[l]
        key += col
    if r == 0:
        return tuple(key)
    if triangular:
        key += _identity_flag(n)
        return tuple(key)
    # k = H^{-1} num by back-substitution from the bottom row
    rows = [None] * n
    for i in range(n - 1, -1, -1):
        row = list(num[i * n:(i + 1) * n])
        for l in range(i + 1, n):
            h = cols[l][i]
            if h:
                rl = rows[l]
                for j in range(n):
                    row[j] -= h * rl[j]
        pp = powers[i]
        if pp != 1:
            for j in range(n):
                row[j] //= pp
        rows[i] = row
    q = p ** r
    canon = []  # (pivot row, column mod q)
    for j in range(n):
        col = [row[j] % q for row in rows]
        for pr, c in canon:
            t = col[pr]
            if t:
                for l in range(n):
                    col[l] = (col[l] - t * c[l]) % q
        pr = n - 1
        while not col[pr] % p:
            pr -= 1
        w = col[pr]
        if w != 1:
            w = pow(w, -1, q)
            for l in range(n):
                col[l] = col[l] * w % q
        canon.append((pr, col))
        key += col
    return tuple(key)
