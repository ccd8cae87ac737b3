"""Exact scalars: rationals, cyclotomic fields Q(zeta_m), p-adic valuations.

Rationals are fractions.Fraction throughout.  A Cyclo is an element of
Q(zeta_m) stored as its canonical representative in the power basis
zeta^0..zeta^{phi(m)-1}, i.e. reduced modulo the m-th cyclotomic
polynomial: a tuple of integer numerators over one positive denominator,
with no common factor among them (the idiom of RatMat, and of FLINT/Antic
number-field elements).  Products are taken in Z[x]/(x^m - 1) over the
nonzero terms and reduced once in `_cyclo`, where every result is formed.
There the terms at m - b and above, b = m/q for the least prime q of m,
are first subtracted from each lower block of b by slice operations, as
Phi_m divides 1 + x^b + ... + x^(m-b) (Arnold and Monagan, Math. Comp.
80, 2011).  Each of the m - b - phi(m) high terms left then folds down
through the nonzero coefficients of Phi_m only (Phi_27 = x^18 + x^9 + 1
has 3 of 19).  At m = 2498 the fold runs 1 step instead of 1249, and a
length-m reduction went from about 90 ms to 0.2 ms on 2 cores.  At a
prime power the block is Phi_m itself, and the fold alone runs.  A
product, sum, difference or lift places each operand (a rational one at
conductor 1) at its stride in the lcm conductor and reduces once.
Equality is literal equality of the reduced fields, canonical at one
conductor, once y is lifted to x's (if its conductor divides x's, as a
rational's does); otherwise x == y is a zero x - y.  A weighted sum of
roots of unity, sum of zeta_n^k * v (a character integral), is one
`exponent_sum` over numerators split over one denominator: they are
added at their exponents and reduced once, with no product per term.
No floating point anywhere.

phi(m), Phi_m (from binomials), the smallest conductor of an element and
gauss's primitive roots all come from one memoised `_prime_factors(m)`.

This module alone decides what an exact scalar is (`scalar`, `as_rational`),
how one is written to JSON (`scalar_json`, `scalar_from_json`), and how
scalars go over one denominator and back with no Cyclo product (`split`,
`join`).  Other modules use plain operators: Cyclo's reflected operators
take an int or a Fraction on the left, so `1 / x` and `x / y` need no
branch on the type.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, inf, lcm, prod
from operator import add, sub

PADIC_INFINITY = inf

# The largest p that is_prime tests: its trial division takes about 0.1 s
# in pure Python, so a larger p raises ValueError instead of running long.
MAX_PRIME = 10 ** 12
# The most objects one call may list: cosets in hecke, interlacing weights,
# twists and critical values in weights; each count is checked first.
MAX_ENUMERATION = 100_000


@lru_cache(maxsize=None)
def _prime_factors(m):
    """The distinct primes dividing m >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def power_within(p, e, bound):
    """|p|^e for an int e >= 0, or None unformed where |p| >= 2 and e is at
    least bound's bit length, as |p|^e >= 2^e > bound there."""
    p = abs(p)
    return None if p > 1 and e >= bound.bit_length() else p ** e


def check_bound(what, count, name, bound):
    """count, or ValueError "<what> exceeds <name> = <bound>" where it (or
    None, a power power_within left unformed) passes bound.  `what` names
    the quantity by its value if formed, else by its closed form."""
    if count is None or count > bound:
        raise ValueError(f"{what} exceeds {name} = {bound}")
    return count


def check_prime(p):
    """Raise ValueError "p = <p> is not prime" unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def is_prime(p):
    """Whether the int p is prime; a p above MAX_PRIME raises ValueError."""
    check_bound(f"p = {p}", p, "MAX_PRIME", MAX_PRIME)
    return _prime_factors(p) == (p,)


def vp_int(x, p):
    """p-adic valuation of a nonzero int, of either sign."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def vp(x, p):
    """p-adic valuation of an int, Fraction or Cyclo; vp(0) = +inf.

    Read off the integer numerators and denominator, with no Fraction.  For
    a Cyclo this is the least coefficient valuation in the power basis
    (Z[zeta_m] is the maximal order, so this detects p-integrality
    exactly): that of the numerators' gcd, less that of den.
    """
    if isinstance(x, Cyclo):
        num, den = gcd(*x.num), x.den
    else:
        num, den = x.numerator, x.denominator
    return vp_int(num, p) - vp_int(den, p) if num else PADIC_INFINITY


@lru_cache(maxsize=None)
def euler_phi(m):
    """m times the product of (1 - 1/q) over the primes q | m."""
    for q in _prime_factors(m):
        m = m // q * (q - 1)
    return m


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """Coefficients (low to high) of the m-th cyclotomic polynomial.

    Phi_m is the product of (x^(m/k) - 1)^mu(k) over the squarefree k | m
    (Arnold and Monagan, Math. Comp. 80, 2011): the binomials with
    mu(k) = 1 are multiplied in first, and those with mu(k) = -1 are then
    divided out exactly, each in one strided pass."""
    primes = _prime_factors(m)
    ups, downs = [], []
    for r in range(len(primes) + 1):
        for ks in combinations(primes, r):
            (downs if r % 2 else ups).append(m // prod(ks))
    poly = [1]
    for e in ups:  # poly * (x^e - 1)
        prev, poly = poly, [0] * e + poly
        for i, c in enumerate(prev):
            poly[i] -= c
    for e in downs:  # poly / (x^e - 1) = -poly * (1 + x^e + x^2e + ...)
        poly = [-c for c in poly[:len(poly) - e]]
        for i in range(e, len(poly)):
            poly[i] += poly[i - e]
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction(m):
    """The per-m record (phi(m), b, tail) that `_cyclo` reduces with.

    tail holds the nonzero terms of x^phi(m) - Phi_m as (exponent,
    coefficient) pairs: the rule that rewrites zeta_m^phi(m) in the power
    basis.  b = m/q for the least prime q of m, or 0 when m is 1 or a prime
    power: Phi_m divides (x^m - 1)/(x^b - 1) = 1 + x^b + ... + x^(m-b),
    which equals Phi_m exactly when m is a prime power."""
    primes = _prime_factors(m)
    b = m // primes[0] if len(primes) > 1 else 0
    tail = tuple((j, -a) for j, a in enumerate(cyclotomic_poly(m)[:-1]) if a)
    return euler_phi(m), b, tail


def _cyclo(m, acc, den=1):
    """The Cyclo (sum of acc[e] zeta_m^e) / den, from a list of ints at
    any exponents e >= 0 and a positive denominator; acc may be modified.

    Every Cyclo result is formed here: the terms at e >= m wrap down mod
    x^m - 1; the block of terms at e >= m - b is subtracted from each lower
    block of b (x^(m-b) = -(1 + x^b + ... + x^(m-2b)) modulo
    (x^m - 1)/(x^b - 1), a multiple of Phi_m); each leading term left at or
    above phi(m) folds down through Phi_m's nonzero coefficients only; and
    the common factor of the numerators and den is divided out."""
    deg, b, tail = _reduction(m)
    acc += [0] * (deg - len(acc))
    if len(acc) > deg:
        for e in range(len(acc) - 1, m - 1, -1):
            acc[e - m] += acc[e]
        del acc[m:]
        if b and len(acc) > m - b:
            top = acc[m - b:]
            del acc[m - b:]
            w = len(top)
            for lo in range(0, m - b, b):
                acc[lo:lo + w] = map(sub, acc[lo:lo + w], top)
        for e in range(len(acc) - 1, deg - 1, -1):
            if lead := acc[e]:
                base = e - deg
                for j, a in tail:
                    acc[base + j] += lead * a
        del acc[deg:]
    if den != 1:
        g = gcd(den, *acc)
        if g != 1:
            acc = [x // g for x in acc]
            den //= g
    x = object.__new__(Cyclo)
    x.m, x.num, x.den = m, tuple(acc), den
    return x


class Cyclo:
    """Element of Q(zeta_m) in the reduced power basis.

    Stored as integer numerators `num` (the phi(m) power-basis coefficients
    times `den`) over one positive denominator `den`, with no common factor
    among them, so equal elements at one conductor have equal fields."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m, coeffs):
        phi = euler_phi(m)
        c = [Fraction(x) for x in coeffs]
        if len(c) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {m}")
        # over the lcm of reduced denominators the numerators are coprime to it
        self.den, num = split(c)
        self.m, self.num = m, tuple(num)

    @property
    def c(self):
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def rational(cls, x):
        x = Fraction(x)
        return _cyclo(1, [x.numerator], x.denominator)

    @classmethod
    def zeta(cls, m, k=1):
        """zeta_m^k."""
        return _cyclo(m, [0] * (k % m) + [1])

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.rational(x)
        return None

    def _placed(self, step, scale):
        """The numerators times scale, the i-th at exponent i * step."""
        acc = [0] * ((len(self.num) - 1) * step + 1)
        acc[::step] = self.num if scale == 1 else [x * scale for x in self.num]
        return acc

    def lift(self, big_m):
        """Rewrite in Q(zeta_{big_m}); requires m | big_m."""
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError("conductor must be a multiple")
        return _cyclo(big_m, self._placed(big_m // self.m, 1), self.den)

    def _plus(self, other, sign):
        """self + sign * other: both placed in the lcm conductor over the
        lcm denominator, added, and reduced once."""
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        big_m, den = lcm(self.m, other.m), lcm(self.den, other.den)
        a = self._placed(big_m // self.m, den // self.den)
        b = other._placed(big_m // other.m, sign * (den // other.den))
        if len(a) < len(b):
            a, b = b, a
        a[:len(b)] = map(add, a, b)
        return _cyclo(big_m, a, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _cyclo(self.m, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = Cyclo._coerce(other)
        return NotImplemented if other is None else other._plus(self, -1)

    def __mul__(self, other):
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        # zeta_m^i = zeta_M^(i M/m) at M = lcm of the conductors: each
        # factor's nonzero terms are placed at that stride, not lifted, and
        # the product is reduced once
        big_m = lcm(self.m, other.m)
        sa, sb = big_m // self.m, big_m // other.m
        terms = [(j * sb, y) for j, y in enumerate(other.num) if y]
        acc = [0] * ((len(self.num) - 1) * sa + (len(other.num) - 1) * sb + 1)
        for i, x in enumerate(self.num):
            if x:
                i *= sa
                for j, y in terms:
                    acc[i + j] += x * y
        return _cyclo(big_m, acc, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse at conductor m via extended gcd with Phi_m
        over Z; for a rational num[0]/den it returns den/num[0] at once."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # rows (r, s) with s * num = r mod Phi_m, low to high; pseudo-division
        # keeps them integral, and each row is divided by its content
        r0, s0 = list(cyclotomic_poly(self.m)), [0]
        r1, s1 = _trim(list(self.num)), [1]
        while len(r1) > 1:
            while len(r0) >= len(r1):
                g = gcd(r0[-1], r1[-1])
                l0, l1 = r0[-1] // g, r1[-1] // g
                shift = len(r0) - len(r1)
                r0 = _trim(_scaled_sub(r0, l1, r1, l0, shift))
                s0 = _scaled_sub(s0, l1, s1, l0, shift)
                content = gcd(*r0, *s0)
                if content > 1:
                    r0 = [x // content for x in r0]
                    s0 = [x // content for x in s0]
            r0, s0, r1, s1 = r1, s1, r0, s0
        c = r1[0]
        if not c:
            raise ZeroDivisionError("not invertible (zero divisor?)")
        if c < 0:
            c, s1 = -c, [-x for x in s1]
        return _cyclo(self.m, [x * self.den for x in s1], c)

    def __truediv__(self, other):
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Cyclo._coerce(other)
        return NotImplemented if other is None else other * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclo.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        """Complex conjugation zeta -> zeta^{-1}."""
        # num[i] goes to exponent m - i, and num[0] wraps from m to 0
        acc = [0] * (self.m + 1 - len(self.num)) + list(reversed(self.num))
        return _cyclo(self.m, acc, self.den)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not rational")
        return Fraction(self.num[0], self.den)

    def reduced(self):
        """Canonical representative at the smallest conductor f | m.

        Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so f divides
        every d | m with x in Q(zeta_d) and is reached one prime at a
        time: for each prime q | m, step down from d to d/q while _descend
        (the one membership test) finds x in Q(zeta_{d/q}).  A q that
        misses at d misses at every divisor of d, so it is not retried."""
        if self.is_rational():
            return Cyclo.rational(self.as_rational()) if self.m != 1 else self
        x = self
        for q in _prime_factors(self.m):
            while (x.m % q == 0
                   and (down := _descend(x, x.m // q)) is not None):
                x = down
        return x

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # both reduced, den and denominator positive: a rational Cyclo
            # at any conductor holds x as num = (x.numerator, 0, ...)
            return (self.den == other.denominator
                    and self.num[0] == other.numerator and not any(self.num[1:]))
        other = Cyclo._coerce(other)
        if other is None:
            return NotImplemented
        if self.m % other.m == 0:
            other = other.lift(self.m)
            return self.num == other.num and self.den == other.den
        return not self._plus(other, -1)

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo({self.c[0]})"
        return f"Cyclo(m={self.m}, {list(self.c)})"

    def to_json(self):
        small = self.reduced()
        return {"m": small.m, "coeffs": [str(x) for x in small.c]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["m"], [Fraction(s) for s in obj["coeffs"]])


def split(values):
    """(den, items): den is the lcm of the values' denominators, and each
    item is its value times den, an int for an int or a Fraction and a
    den-1 Cyclo, formed from the scaled numerators, for a Cyclo."""
    den = lcm(*[v.den if type(v) is Cyclo else v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) if type(v) is not Cyclo
                 else _cyclo(v.m, [x * (den // v.den) for x in v.num])
                 if den != 1 else v for v in values]


def join(s, den):
    """s / den for an int or a Cyclo s, with no inverse and no product."""
    return (_cyclo(s.m, list(s.num), s.den * den) if type(s) is Cyclo
            else Fraction(s, den))


def exponent_sum(n, ks, items, den=1):
    """(sum of zeta_n^k * s over zip(ks, items)) / den, for exponents k of
    any sign and the items of `split`: ints and den-1 Cyclos.

    The result lies at M = lcm(n, the Cyclos' conductors), where the
    products zeta_n^k * s and their sum would: the ints are added into one
    length-n histogram at k mod n, each Cyclo's numerators at their
    exponents in Z[x]/(x^M - 1), with no product per term, and the whole
    is reduced once."""
    acc, cycs = [0] * n, []
    for k, s in zip(ks, items):
        if type(s) is int:
            acc[k % n] += s
        else:
            cycs.append((k, s))
    if not cycs:
        return _cyclo(n, acc, den)
    big_m = lcm(n, *(s.m for _, s in cycs))
    out, step = [0] * big_m, big_m // n
    out[::step] = acc
    for k, s in cycs:
        at, vstep = k * step, big_m // s.m
        for i, x in enumerate(s.num):
            if x:
                out[(at + i * vstep) % big_m] += x
    return _cyclo(big_m, out, den)


_ZERO = Fraction(0)


def scalar(x):
    """An int as a Fraction (0 as the shared _ZERO), a Fraction or a Cyclo
    as it is, anything else as None."""
    if isinstance(x, (Fraction, Cyclo)):
        return x
    if isinstance(x, int):
        return Fraction(x) if x else _ZERO
    return None


def as_rational(x):
    """x as a Fraction; a Cyclo that is not rational raises ValueError."""
    x = scalar(x)
    return x.as_rational() if isinstance(x, Cyclo) else x


def scalar_json(x):
    """A fraction string such as "-3/4", or a Cyclo's {m, coeffs} object."""
    if (s := scalar(x)) is None:
        raise TypeError(f"not an exact scalar: {x!r}")
    return s.to_json() if isinstance(s, Cyclo) else str(s)


# The largest conductor m that scalar_from_json reads.  A character value
# or Gauss sum mod p^s <= gauss.MAX_MODULUS = 2500, and so every cyclotomic
# value the package forms on a rational-model tower, lies in Q(zeta_m) with
# m | lcm(p^s, phi(p^s)) < 2500^2; reading m then costs a trial
# factorization up to sqrt(m) <= 2500.
MAX_CONDUCTOR = 2500 ** 2


def scalar_from_json(v, where):
    """The inverse of scalar_json; a v of the wrong shape, or a conductor
    outside 1..MAX_CONDUCTOR, raises ValueError naming `where`."""
    if isinstance(v, dict) and "m" in v:
        m = v["m"]
        if type(m) is not int or m < 1:
            raise ValueError(f"{where}: field 'm' = {m!r} must be an int from "
                             f"1 to MAX_CONDUCTOR = {MAX_CONDUCTOR}")
        check_bound(f"{where}: field 'm' = {m}", m, "MAX_CONDUCTOR",
                    MAX_CONDUCTOR)
    try:
        return Cyclo.from_json(v) if isinstance(v, dict) else Fraction(v)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: not a scalar: {v!r}") from exc


@lru_cache(maxsize=None)
def _constant_terms(m):
    """The zeta^0 coefficient of the reduced zeta_m^k, for k < m."""
    return tuple(_cyclo(m, [0] * k + [1]).num[0] for k in range(m))


def _descend(x, d):
    """x rewritten at conductor d | m, or None when x is not in Q(zeta_d).

    Split m = n1 n2 with d | n1, every prime of n1 / d dividing d, and
    n2 prime to n1.  Then zeta_m^i = zeta_{n1}^{i e1} zeta_{n2}^{i e2} with
    n2 e1 + n1 e2 = 1 mod m, and the zeta_{n2}^j (j < phi(n2)) are a basis
    over Q(zeta_{n1}), so an x in Q(zeta_{n1}) is its zeta_{n2}^0 coordinate.
    Since Phi_{n1}(y) = Phi_d(y^(n1/d)), an x in Q(zeta_d) has its
    zeta_{n1} power-basis coefficients at the multiples of n1/d.  The
    result is x exactly when it lifts back to x."""
    m = x.m
    n2 = m // d
    g = gcd(n2, d)
    while g > 1:
        n2 //= g
        g = gcd(n2, d)
    n1 = m // n2
    e1, e2 = pow(n2, -1, n1), pow(n1, -1, n2)
    const = _constant_terms(n2)
    coeffs = [0] * n1
    for i, c in enumerate(x.num):
        if c:
            coeffs[i * e1 % n1] += c * const[i * e2 % n2]
    down = _cyclo(d, list(_cyclo(n1, coeffs).num[::n1 // d]), x.den)
    return down if down.lift(m) == x else None


def _scaled_sub(a, ka, b, kb, shift):
    """ka * a - kb * x^shift * b for integer polynomials (low to high)."""
    out = [ka * x for x in a] + [0] * (len(b) + shift - len(a))
    for i, y in enumerate(b):
        out[i + shift] -= kb * y
    return out


def _trim(p):
    """Drop the zero leading coefficients of a polynomial, keeping one."""
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p
