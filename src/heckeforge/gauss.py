"""Finite-order characters of (Z/p^s)^*, normalized Gauss sums and the
twisted character-sum engine, all in exact cyclotomic arithmetic.

A character is its exponents on the standard generators of the unit group
((-1, 5) for p = 2, s >= 3; a primitive root otherwise), a chosen value at
the uniformizer, and nothing per unit: the k with chi(u) = zeta_N^k, N its
order, is read off one table `_exponents` shared per (p, s, exponents) and
built on a first sum; the conductor is a closed form in the exponents.  The
additive character has psi(x) = zeta_{p^t}^e.

Every character sum sees a character only through these exponents: a term
chi(a) psi(x) is zeta_L^(k L/N + e L/p^t) over L = lcm(N, p^t), so a Gauss,
oracle or twisted sum adds 1 per term into a length-L histogram of
exponents, which `exact._cyclo` reduces once: no Fraction, Cyclo or term
list per unit.  chi(a)^{-1} in the closed form of the twisted sum is the
exponent -k, one `exact.exponent_sum` over the `exact.split` of
p^(level-t) tau(chi).  `MultChar.value` and
`AddChar.value` form one Cyclo.zeta each, as a per-term reference.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from heckeforge.exact import (Cyclo, _cyclo, _prime_factors, check_bound,
                              check_prime, exponent_sum, power_within, split,
                              vp, vp_int)

# The largest modulus p^s whose unit group is enumerated, and the largest
# conductor lcm(order of chi, p^t) at which any Gauss sum of chi is formed;
# larger inputs raise ValueError.  At this bound the slowest `compute
# gauss-sum` inputs tried (p = 1249 with order 2, p = 823 with order 3) take
# 0.15-0.2 s and 0.26-0.37 s on 2 cores, most of it the two dense products
# g * g and tau * conj(tau), where p = 311 with order 2 ran for minutes
# while character values were stored at the generator's order.
MAX_MODULUS = 2500


def check_modulus(p, s):
    """Raise ValueError unless s >= 1, p^s <= MAX_MODULUS and p is prime;
    the bound comes first, checked by `exact.check_bound`."""
    if s < 1:
        raise ValueError(f"s = {s} must be at least 1")
    ps = power_within(p, s, MAX_MODULUS)
    check_bound(f"p^s = {ps or f'{p}^{s}'}", ps, "MAX_MODULUS", MAX_MODULUS)
    check_prime(p)


def unit_group_generators(p, s):
    """Generators (g, order) of (Z/p^s)^*, for (p, s) that check_modulus
    accepts.  For odd p the one generator is the least unit g mod p^s
    with g^(phi/q) != 1 for every prime q of phi = phi(p^s)."""
    check_modulus(p, s)
    mod = p ** s
    if p == 2:
        if s == 1:
            return []
        if s == 2:
            return [(3, 2)]
        return [(mod - 1, 2), (5, 2 ** (s - 2))]
    phi = (p - 1) * p ** (s - 1)
    qs = _prime_factors(phi)
    g = next(g for g in range(2, mod)
             if g % p and all(pow(g, phi // q, mod) != 1 for q in qs))
    return [(g, phi)]


@lru_cache(maxsize=None)
def _dlog_table(p, s):
    """The generator list and unit -> exponent vector over it; built once
    per (p, s) and shared by every character mod p^s, which only read it."""
    mod = p ** s
    gens = unit_group_generators(p, s)
    table = {}
    ranges = [range(order) for _, order in gens]
    count = 0
    for exps in itertools.product(*ranges):
        x = 1
        for (g, _), e in zip(gens, exps):
            x = x * pow(g, e, mod) % mod
        table[x] = exps
        count += 1
    if len(table) != count:
        raise ArithmeticError("generator presentation is not free")
    return gens, table


@lru_cache(maxsize=None)
def _exponents(p, s, exps):
    """For each u < p^s, the k with chi(u) = zeta_N^k (0 off the units), N
    the order of chi with these reduced exponents e_i: the discrete logs of
    u weighted by e_i N/o_i, o_i the generator orders.  Shared, as a tuple,
    by every MultChar(p, s, exps), whatever its chi_p."""
    gens, dlog = _dlog_table(p, s)
    n = _character_order(exps, gens)
    weights = [e * n // order for e, (_, order) in zip(exps, gens)]
    table = [0] * p ** s
    for unit, logs in dlog.items():
        table[unit] = sum(w * d for w, d in zip(weights, logs)) % n
    return tuple(table)


class MultChar:
    """Character of (Z/p^s)^* extended to Q_p^* by a value at p."""

    def __init__(self, p, s, gen_exponents, chi_p=None):
        self.p = p
        self.s = s
        self.gens = _dlog_table(p, s)[0]
        self.exps = tuple(e % order for e, (_, order)
                          in zip(gen_exponents, self.gens))
        if len(self.exps) != len(self.gens):
            raise ValueError("one exponent per generator")
        self.chi_p = Cyclo.rational(1) if chi_p is None else chi_p
        self._order = _character_order(self.exps, self.gens)

    def value(self, a):
        """chi(a) = zeta_N^k as one Cyclo at the conductor N/gcd(k, N) of
        its order, for a p-unit a; a per-term reference for the sums."""
        k = self.power(a)
        g = gcd(k, self._order)
        return Cyclo.zeta(self._order // g, k // g)

    def power(self, a):
        """The k < order() with chi(a) = zeta_order^k, for a p-unit a: an
        integer prime to p or a Fraction of valuation 0."""
        mod = self.p ** self.s
        if not isinstance(a, int):
            a = Fraction(a)
            # a denominator divisible by p leaves no unit to look up
            a = (a.numerator * pow(a.denominator, -1, mod)
                 if a.denominator % self.p else 0)
        if a % self.p == 0:
            raise ValueError("argument is not a p-unit")
        return _exponents(self.p, self.s, self.exps)[a % mod]

    def conductor_exponent(self):
        """Smallest t with chi trivial on units = 1 mod p^t: 0 for trivial
        chi, else s - v_p(e), e the last exponent, or 2 at p = 2 if e = 0.
        As unit_group_generators orders them, a power of the last generator
        generates the units = 1 mod p^t, t >= 1 (t >= 2 at p = 2)."""
        e = self.exps[-1] if self.exps else 0
        if e == 0:  # trivial, or at p = 2 nontrivial only on -1
            return 2 if any(self.exps) else 0
        return self.s - vp_int(e, self.p)

    def is_trivial(self):
        return not any(self.exps)

    def order(self):
        return self._order

    def inverse(self):
        return MultChar(self.p, self.s,
                        [-k for k in self.exps], self.chi_p.inverse())

    def __mul__(self, other):
        if other.p != self.p or other.s != self.s:
            raise ValueError("characters live on different groups")
        return MultChar(self.p, self.s,
                        [a + b for a, b in zip(self.exps, other.exps)],
                        self.chi_p * other.chi_p)

    def __repr__(self):
        return f"MultChar(p={self.p}, s={self.s}, exps={self.exps})"


def _character_order(exps, gens):
    """Order of the character with these exponents on the generators."""
    return lcm(*(order // gcd(order, k) for k, (_, order) in zip(exps, gens)))


def all_characters(p, s, chi_p=None):
    """The full dual group of (Z/p^s)^*, of order phi(p^s)."""
    gens = unit_group_generators(p, s)
    ranges = [range(order) for _, order in gens]
    return [MultChar(p, s, exps, chi_p) for exps in itertools.product(*ranges)]


def primitive_character(p, s, order=None):
    """The first character of all_characters(p, s) with conductor p^s and
    the given order (any order for None), or None.  The characters are
    taken lazily and the order is read off each exponent vector, so a
    MultChar is built only for the candidates of that order."""
    gens = unit_group_generators(p, s)
    for exps in itertools.product(*(range(o) for _, o in gens)):
        if order is None or _character_order(exps, gens) == order:
            chi = MultChar(p, s, exps)
            if chi.conductor_exponent() == s:
                return chi
    return None


class AddChar:
    """The standard additive character: trivial on Z_p, a/p^t -> zeta_{p^t}^a."""

    def __init__(self, p):
        check_prime(p)
        self.p = p

    def value(self, x):
        """psi(x) = zeta_{p^t}^e as one Cyclo; a per-term reference."""
        return Cyclo.zeta(*_additive_exponent(self.p, x))


def _additive_exponent(p, x):
    """(p^t, e) with psi(x) = zeta_{p^t}^e: t = -v_p(x) for a non-integral
    x, and (1, 0) for x in Z_p."""
    x = Fraction(x)
    v = vp(x, p)
    if v >= 0:
        return 1, 0
    pt = p ** -v  # x pt = numerator / (denominator / pt), a p-unit
    return pt, x.numerator * pow(x.denominator // pt, -1, pt) % pt


def _conductor_exponent(chi):
    """The conductor exponent t >= 1 of chi, once lcm(N, p^t), N its
    order, where its Gauss sums are formed, is checked by MAX_MODULUS."""
    t = chi.conductor_exponent()
    if t == 0:
        raise ValueError("character has trivial conductor")
    big = lcm(chi.order(), chi.p ** t)
    check_bound(f"the Gauss sum's conductor lcm(N, p^t) = {big}", big,
                "MAX_MODULUS", MAX_MODULUS)
    return t


def classical_gauss_sum(chi):
    """tau(chi) = sum over units mod the conductor of chi(a) zeta^a.

    This is the chi(f_chi)-normalized part: chi(f_chi) G(chi) = tau(chi).
    """
    t = _conductor_exponent(chi)
    return _unit_sum(chi, chi.p ** t, 1, t)


def gauss_sum(chi, tau=None):
    """The normalized Gauss sum G(chi) = chi(p)^{-t} tau(chi), the full sum
    of chi(a/f) psi(a/f) over a mod the conductor f = p^t.  `tau` is
    tau(chi) when the caller already holds it."""
    t = _conductor_exponent(chi)
    if tau is None:
        tau = classical_gauss_sum(chi)
    return chi.chi_p ** (-t) * tau


def gauss_sum_oracle(chi):
    """Independent route to G(chi): sum chi(g) psi(g / p^t) over units at
    level t + 1, one deeper than the conductor, then divide out the fiber
    count p.
    Exercises a longer summation with a different grouping of terms."""
    t = _conductor_exponent(chi)
    acc = _unit_sum(chi, chi.p ** t, 1, t + 1)
    return chi.chi_p ** (-t) * acc * Fraction(1, chi.p)


def _unit_sum(chi, pt, e, level):
    """sum over units g mod p^level of chi(g) psi(c g), for the c with
    psi(c) = zeta_{p^t}^e, given as pt = p^t and e.

    With chi(g) = zeta_N^k, the term is zeta_L^(k L/N + e g L/p^t) over
    L = lcm(N, p^t): each term adds 1 to a length-L histogram of these
    exponents, which `_cyclo` reduces once."""
    p, n = chi.p, chi.order()
    big = lcm(n, pt)
    kstep, estep = big // n, e * (big // pt)
    powers, mod = _exponents(p, chi.s, chi.exps), p ** chi.s
    hist = [0] * big
    for g in range(1, p ** level):
        if g % p:
            hist[(powers[g % mod] * kstep + g * estep) % big] += 1
    return _cyclo(big, hist)


def twisted_sum(chi, c, level):
    """sum over units gamma mod p^level of chi(gamma) psi(c gamma),
    computed by direct summation; the closed form is asserted against it.

    Nonzero only when v_p(c) = -t for t the conductor exponent, in which
    case the value is p^{level-t} chi(a)^{-1} tau(chi) for c = a p^{-t}.
    A c with v_p(c) < -level raises ValueError: psi(c gamma) is then not
    a function of gamma mod p^level.
    """
    t = _conductor_exponent(chi)
    if level < t:
        raise ValueError("level must be at least the conductor exponent")
    c = Fraction(c)
    v = vp(c, chi.p)
    if v < -level:
        raise ValueError(f"c = {c} has v_p(c) = {v} below -level = {-level}")
    acc = _unit_sum(chi, *_additive_exponent(chi.p, c), level)
    closed = twisted_sum_closed(chi, c, level)
    if not acc == closed:
        raise ArithmeticError("closed form disagrees with direct summation")
    return acc


def twisted_sum_closed(chi, c, level):
    t = chi.conductor_exponent()
    c = Fraction(c)
    p = chi.p
    if vp(c, p) != -t:
        return Cyclo.rational(0)
    # chi(a)^{-1} for c = a p^{-t} is zeta_N^{-k}
    k = chi.power(c * Fraction(p) ** t)
    den, items = split([Fraction(p) ** (level - t) * classical_gauss_sum(chi)])
    return exponent_sum(chi.order(), [-k], items, den)


def birch_constants(n, q, r, s, chi):
    """The two constant bundles of the local and global integral formulas.

    q is the residue cardinality (numeric: the prime), r the Iwahori level
    exponent, s the conductor exponent of chi; needs r >= s >= 1.  Returns
    the scalars and the exponent bookkeeping for audit.
    """
    if not r >= s >= 1:
        raise ValueError("need r >= s >= 1")
    tau = classical_gauss_sum(chi)
    nf = Fraction(q) ** r
    nfchi = Fraction(q) ** s
    euler = prod((1 / (1 - Fraction(q) ** (-nu)) for nu in range(1, n + 1)),
                 start=Fraction(1))
    exps_local = {
        "N(f)": -(n + 1) * n * (n - 1) // 6,
        "N(f_chi)": -n * (n + 1) // 2,
        "gauss": n * (n + 1) // 2,
    }
    exps_global = {
        "N(f)": -n * (n - 1) * (n - 2) // 6,
        "N(f_chi)": -n * (n - 1) // 2,
        "gauss": n * (n - 1) // 2,
    }
    c_local = (euler * nf ** exps_local["N(f)"] * nfchi ** exps_local["N(f_chi)"]
               * tau ** exps_local["gauss"])
    c_global = (euler * nf ** exps_global["N(f)"]
                * nfchi ** exps_global["N(f_chi)"] * tau ** exps_global["gauss"])
    return {
        "c_local": c_local,
        "c_global": c_global,
        "euler_factor": euler,
        "exponents_local": exps_local,
        "exponents_global": exps_global,
        "gauss_part": tau,
    }
