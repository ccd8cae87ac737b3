"""Exact rational matrices on top of the integer kernels.

A RatMat stores an n x n integer matrix `num` (a flat row-major tuple)
together with a positive denominator `den`; the represented matrix is
num/den.  The pair is kept normalized (gcd of all entries and den is 1) so
equality is literal.  All arithmetic is exact and integer-only: from_rows
reads each entry's numerator and denominator (ints and Fractions both have
them) without forming a Fraction, and the kernels take the `num` tuples
as they are.  Fractions appear only at the edges: rows, entry and det
return them, and scale accepts one.  The matrix-building names (from_rows,
diagonal, entry, inverse, transpose, scale, det, j_embed) are those of
`laurent.LaurentMatrix`, so one builder serves both rings.
"""

from fractions import Fraction
from math import gcd, lcm

from heckeforge import kernels
from heckeforge.kernels import SingularMatrixError  # raised by inverse


def _normalize(num, den):
    if den < 0:
        num = [-x for x in num]
        den = -den
    g = den
    for x in num:
        if x:
            g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        num = [x // g for x in num]
        den //= g
    return num, den


class RatMat:
    __slots__ = ("n", "num", "den")

    def __init__(self, n, num, den=1, normalized=False):
        self.n = n
        if normalized:
            self.num = tuple(num)
            self.den = den
        else:
            num, den = _normalize(list(num), den)
            self.num = tuple(num)
            self.den = den

    @classmethod
    def from_rows(cls, rows):
        """Build from nested lists of ints / Fractions.

        Over the lcm of the entries' reduced denominators the numerators
        have no common factor with it, so the result is normalized as
        built; an all-int matrix gets den = 1 directly."""
        n = len(rows)
        num, dens = [], []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for x in row:
                num.append(x.numerator)
                dens.append(x.denominator)
        den = lcm(*dens)
        if den != 1:
            num = [x * (den // d) for x, d in zip(num, dens)]
        return cls(n, num, den, normalized=True)

    @classmethod
    def identity(cls, n):
        num = [0] * (n * n)
        for i in range(n):
            num[i * n + i] = 1
        return cls(n, num, 1, normalized=True)

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return cls.from_rows(rows)

    def rows(self):
        n, d = self.n, self.den
        return [[Fraction(self.num[i * n + j], d) for j in range(n)] for i in range(n)]

    def entry(self, i, j):
        return Fraction(self.num[i * self.n + j], self.den)

    def __mul__(self, other):
        if isinstance(other, RatMat):
            if other.n != self.n:
                raise ValueError("size mismatch")
            return RatMat(self.n, kernels.mat_mul(self.num, other.num, self.n),
                          self.den * other.den)
        return NotImplemented

    def __sub__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("size mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return RatMat(self.n, [x * a - y * b for x, y in zip(self.num, other.num)], den)

    def scale(self, c):
        c = Fraction(c)
        num = [x * c.numerator for x in self.num]
        return RatMat(self.n, num, self.den * c.denominator)

    def inverse(self):
        det, adj = kernels.det_adjugate(self.num, self.n)
        return RatMat(self.n, [x * self.den for x in adj], det)

    def det(self):
        return Fraction(kernels.bareiss_det(self.num, self.n),
                        self.den ** self.n)

    def transpose(self):
        n = self.n
        num = [self.num[j * n + i] for i in range(n) for j in range(n)]
        return RatMat(n, num, self.den, normalized=True)

    def j_embed(self):
        """Diagonal embedding GL_{n-1} -> GL_n, block diag(g, 1).

        Built from num and den: the new corner entry is den/den, which
        leaves the pair normalized."""
        m = self.n
        num = []
        for i in range(m):
            num.extend(self.num[i * m:(i + 1) * m])
            num.append(0)
        num.extend([0] * m)
        num.append(self.den)
        return RatMat(m + 1, num, self.den, normalized=True)

    def is_iwahori(self, p, r):
        """Membership in the Iwahori subgroup of level p^r (r=0: GL_n(Z_p))."""
        return kernels.is_iwahori_scaled(self.num, self.den, self.n, p, r)

    def __eq__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.den, self.num))

    def __repr__(self):
        return f"RatMat({self.rows()!r})"

