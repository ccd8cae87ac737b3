"""Multivariate Laurent polynomials and matrices over cyclotomic scalars.

Variables are global names; a monomial is a sorted tuple of (name, exponent)
pairs with nonzero integer exponents (possibly negative).  A coefficient
is an exact scalar in the sense of `exact.scalar`: a `Fraction` while it
is rational and a `Cyclo` once a cyclotomic scalar enters it, so the
all-rational polynomials of the matrix identities never reach the
cyclotomic product.  Coefficients meet through plain operators, and a
zero constant is the empty polynomial.  These carry the symbolic side of
the matrix identity checks.  A LaurentMatrix shares its building names
(from_rows, diagonal, entry, inverse, transpose, scale, det, j_embed)
with `ratmat.RatMat`, so one builder serves both rings.

A matrix's determinant and the cofactors of its inverse are minors from
one memoized Laplace expansion, which skips a zero entry or sub-minor.
No elimination runs over this ring: it would need multivariate division.

A product with a single-term factor only shifts keys and scales
coefficients.  Any other product runs one loop over the pairs of terms,
self's in the outer loop, merging keys with `_mul_keys` and dropping a
sum that reaches zero.  Each operand's coefficients are split over the
lcm of their denominators (`exact.split`), so a Fraction enters the loop
as an int numerator and a Cyclo as a Cyclo of integer numerators; plain
`*` and `+` mix the two.  A result term is s over the product of the two
lcms (`exact.join`): a Fraction for an int s, a Cyclo for a Cyclo s.

`truncated_product` gives only the terms below a degree in one variable
of a product of several factors, for congruences modulo a power of it.
"""

from fractions import Fraction

from heckeforge.exact import join, scalar, split


def _is_one(p):
    """Whether p is the constant Fraction 1, which a product leaves as is."""
    return type(p.terms.get(())) is Fraction and p.terms == {(): 1}


def _times(a, b):
    """a * b for polynomials a and b, without the product when one is 1."""
    return b if _is_one(a) else a if _is_one(b) else a * b


class LaurentInversionError(ArithmeticError):
    """Raised when a matrix determinant is not a unit of the Laurent ring."""

    def __init__(self, det):
        self.det = det
        super().__init__(f"determinant is not a unit monomial: {det!r}")


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict monomial-key -> Fraction or Cyclo, zeros dropped
        self.terms = {k: v for k, v in terms.items() if v} if terms else {}

    @classmethod
    def _nonzero(cls, terms):
        """Wrap a term dict whose coefficients are all nonzero."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def const(cls, c):
        """The constant c: a Fraction or Cyclo kept as it is, an int as a
        Fraction, a zero as the empty polynomial."""
        return cls._coerce(c)

    @classmethod
    def var(cls, name, exp=1):
        if exp == 0:
            return cls.const(1)
        return cls({((name, exp),): Fraction(1)})

    @classmethod
    def _coerce(cls, x):
        """x as a polynomial, or None if it is neither a polynomial nor an
        exact scalar."""
        if isinstance(x, LaurentPoly):
            return x
        s = scalar(x)
        if s is None:
            return None
        return cls._nonzero({(): s} if s else {})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        t = dict(self.terms)
        for k, v in other.terms.items():
            s = t.get(k)
            s = v if s is None else s + v
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        return LaurentPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @staticmethod
    def _mul_keys(k1, k2):
        if not k1:
            return k2
        if not k2:
            return k1
        e = dict(k1)
        for name, ex in k2:
            ne = e.get(name, 0) + ex
            if ne:
                e[name] = ne
            else:
                e.pop(name, None)
        return tuple(sorted(e.items()))

    def __mul__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        mul_keys = self._mul_keys
        # a single-term factor only shifts keys and scales coefficients:
        # distinct keys stay distinct and no product of nonzero
        # coefficients vanishes
        if len(a) <= 1 or len(b) <= 1:
            t = {}
            for k1, v1 in a.items():
                for k2, v2 in b.items():
                    t[mul_keys(k1, k2)] = v1 * v2
            return LaurentPoly._nonzero(t)
        da, va = split(list(a.values()))
        db, vb = split(list(b.values()))
        t = {}
        for k1, v1 in zip(a, va):
            for k2, v2 in zip(b, vb):
                k = mul_keys(k1, k2)
                prod = v1 * v2
                s = t.get(k)
                s = prod if s is None else s + prod
                if s:
                    t[k] = s
                else:
                    t.pop(k, None)
        den = da * db
        return LaurentPoly._nonzero({k: join(s, den) for k, s in t.items()})

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.unit_inverse() ** (-k)
        if not k:
            return LaurentPoly.const(1)
        out = None  # the product so far; no factor 1 is multiplied in
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def is_unit(self):
        return len(self.terms) == 1

    def unit_inverse(self):
        if not self.is_unit():
            raise LaurentInversionError(self)
        (k, v), = self.terms.items()
        ik = tuple(sorted((name, -ex) for name, ex in k))
        return LaurentPoly({ik: 1 / v})

    def __eq__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {()}:
            raise ValueError("not constant")
        return self.terms[()]

    def rename(self, mapping):
        """Rename variables (used for symmetry checks); names sent to one
        name have their exponents added."""
        t = {}
        for k, v in self.terms.items():
            nk = ()
            for name, ex in k:
                nk = self._mul_keys(nk, ((mapping.get(name, name), ex),))
            t[nk] = t.get(nk, 0) + v
        return LaurentPoly(t)

    def min_degree_in(self, name):
        """Minimal exponent of `name` over all terms (0 if absent everywhere)."""
        return min((_degree(k, name) for k in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "LPoly(0)"
        bits = []
        for k, v in sorted(self.terms.items()):
            mono = "*".join(f"{n}^{e}" if e != 1 else n for n, e in k) or "1"
            bits.append(f"({v!r})*{mono}")
        return "LPoly(" + " + ".join(bits) + ")"


lvar, lconst = LaurentPoly.var, LaurentPoly.const


def _degree(key, name):
    """The exponent of `name` in a monomial key, 0 if it is absent."""
    for n, e in key:
        if n == name:
            return e
    return 0


def truncated_product(factors, name, k):
    """The terms of name-degree < k of the product of `factors`, exactly.

    The factors are multiplied in order.  A term of a partial product whose
    degree reaches k minus the least degrees of the factors still to come
    lands at degree >= k, so each partial product keeps only the terms
    below that bound.  With negative exponents the bound exceeds k, and
    cutting each factor at k alone would be wrong: at k = 2, f^-1 (f^2 + 1)
    keeps the f that f^2 contributes."""
    def below(p, bound):
        return LaurentPoly._nonzero({key: v for key, v in p.terms.items()
                                     if _degree(key, name) < bound})

    factors = [LaurentPoly._coerce(x) for x in factors]
    lows = [x.min_degree_in(name) for x in factors]
    rest = sum(lows)
    out = below(LaurentPoly.const(1), k - rest)
    for x, low in zip(factors, lows):
        rest -= low
        out = below(out * x, k - rest)
    return out


class LaurentMatrix:
    __slots__ = ("n", "entries")

    def __init__(self, entries):
        self.n = len(entries)
        rows = []
        for row in entries:
            if len(row) != self.n:
                raise ValueError("matrix must be square")
            rows.append(tuple(LaurentPoly._coerce(x) for x in row))
        self.entries = tuple(rows)

    @classmethod
    def from_rows(cls, rows):
        return cls(rows)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.entries[i][j]

    def __mul__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = LaurentPoly()
                for k in range(n):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if a and b:
                        acc = acc + _times(a, b)
                row.append(acc)
            rows.append(row)
        return LaurentMatrix(rows)

    def __sub__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return LaurentMatrix([[a - b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, c):
        c = LaurentPoly._coerce(c)
        return LaurentMatrix([[c * a for a in row] for row in self.entries])

    def transpose(self):
        n = self.n
        return LaurentMatrix([[self.entries[j][i] for j in range(n)] for i in range(n)])

    def j_embed(self):
        """Diagonal embedding GL_{n-1} -> GL_n, block diag(g, 1)."""
        return LaurentMatrix([list(row) + [0] for row in self.entries]
                             + [[0] * self.n + [1]])

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.n == other.n and all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2))

    def _minors(self):
        """minor(rows, cols): the determinant on those row and column
        tuples, expanded along the first row, one memo per matrix."""
        e = self.entries
        one = LaurentPoly.const(1)
        cache = {}

        def minor(rows, cols):
            if not cols:
                return one
            if len(cols) == 1:
                return e[rows[0]][cols[0]]
            key = (rows, cols)
            got = cache.get(key)
            if got is not None:
                return got
            row, rest = e[rows[0]], rows[1:]
            acc = LaurentPoly()
            for idx, c in enumerate(cols):
                a = row[c]
                if a and (sub := minor(rest, cols[:idx] + cols[idx + 1:])):
                    term = _times(a, sub)
                    acc = acc + (term if idx % 2 == 0 else -term)
            cache[key] = acc
            return acc

        return minor

    def det(self):
        every = tuple(range(self.n))
        return self._minors()(every, every)

    def inverse(self):
        """Exact inverse; requires det to be a unit (single monomial).

        The adjugate over det: each cofactor is a minor from the memo that
        expanded det, so cofactors share its sub-minors.
        A det that is not a unit raises LaurentInversionError holding it."""
        n = self.n
        minor = self._minors()
        every = tuple(range(n))
        d = minor(every, every)
        if not d.is_unit():
            raise LaurentInversionError(d)
        dinv = d.unit_inverse()
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            others = every[:i] + every[i + 1:]
            for j in range(n):
                cof = minor(others, every[:j] + every[j + 1:])
                rows[j][i] = cof and _times(-cof if (i + j) % 2 else cof, dinv)
        return LaurentMatrix(rows)

    def __repr__(self):
        return f"LaurentMatrix({[[repr(e) for e in row] for row in self.entries]})"
