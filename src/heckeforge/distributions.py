"""The p-adic distribution engine: ray-class towers, eigen-symbols, the
distribution relation, boundedness, character integration and the
functional equation.

The rational model of the tower at level m is (Z/p^m)^*; an abstract model
glues a finite cyclic class-group part onto it.  Values live in E^d with d
components indexed by the embedding integers nu; everything is exact.
An eigenvalue is inverted as `1 / exact.scalar(kappa)`, and values are
serialized by `exact.scalar_json` and read back by `scalar_from_json`.
A tower's p is prime; level m is listed only while p^m <= gauss.MAX_MODULUS.

A level is stored as integer numerators over one denominator (the form of
`exact.split`): the checks compare numerators cross-multiplied by the
levels' denominators, and `exact.join` runs only where a value leaves
(`values`, JSON, witnesses).  A character integral is formed on exponents:
each tower gives the order N of a character and, once per level m, the k
with chi(x) = zeta_N^k over elements(m) (`char_powers`); each component is
one `exact.exponent_sum`, and Fourier inversion weights by chi(x0)^-1 as -k.

Tables once: a tower is a value, equal to another of its exact type with
the same fields (p, and h) and hashed by them.  Each per-level table (its
elements, the lifts that push values down one level, its characters and a
character's exponent table) is a `functools.cache`d method, so it is built
on first use and shared, as a tuple or a read-only mapping, by every equal
tower; a subclass's tower is unequal and keeps entries of its own.  An
exponent table is read off `gauss._exponents`, shared by every character
mod p^s with those exponents.  The group law enters only through `vee`,
the involution x -> (-1)^(n-1) x^(-1) of the functional equation.  Nothing
is cached on a `Distribution`: its split levels are its values, which
every check reads afresh, so a value written in place is seen.
"""

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import islice
from math import lcm
from types import MappingProxyType

from heckeforge.exact import (Cyclo, check_bound, check_prime, exponent_sum,
                              join, power_within, scalar, scalar_from_json,
                              scalar_json, split, vp)
from heckeforge.gauss import (MAX_MODULUS, _exponents, all_characters,
                              check_modulus)
from heckeforge.modules import HeckeRoots, full_dual_roots, kappa_of


class QTower:
    """Levels m >= 1 with C(p^m) = (Z/p^m)^* and reduction transitions;
    a value, with tables shared by equal towers ("Tables once" above)."""

    __slots__ = ("p",)

    def __init__(self, p):
        check_prime(p)
        self.p = p

    def __eq__(self, other):
        return type(other) is type(self) and other.p == self.p

    def __hash__(self):
        return hash(self.p)

    @cache
    def elements(self, m):
        """(Z/p^m)^*, ascending; a level below 1 or with p^m above
        MAX_MODULUS raises ValueError on every call, as an exception is not
        cached."""
        if m < 1:
            raise ValueError(f"level {m}: a tower level must be at least 1")
        p = self.p
        pm = power_within(p, m, MAX_MODULUS)
        what = f"level {m}: p^m = {p}^{m}" + (f" = {pm}" if pm else "")
        check_bound(what, pm, "MAX_MODULUS", MAX_MODULUS)
        return tuple(a for a in range(pm) if a % p)

    @cache
    def lifts(self, m):
        """Each x of elements(m) -> its p preimages x + k p^m in
        elements(m + 1), k ascending: the kernel of reduction has order p."""
        lifts, mod = {x: [] for x in self.elements(m)}, self.p ** m
        for y in self.elements(m + 1):
            lifts[y % mod].append(y)
        return MappingProxyType({x: tuple(ys) for x, ys in lifts.items()})

    @cache
    def characters(self, m):
        return tuple(all_characters(self.p, m))

    def vee(self, m, x, n):
        """x^vee = (-1)^(n-1) x^(-1) in elements(m)."""
        pm = self.p ** m
        y = pow(x, -1, pm)
        return -y % pm if n % 2 == 0 else y

    def char_order(self, chi):
        return chi.order()

    def char_powers(self, chi, m):
        """The k with chi(x) = zeta_N^k, N = char_order(chi), over
        elements(m); a character of another prime raises ValueError."""
        _check_same_prime(chi, self.p)
        return self._powers(chi.s, chi.exps, m)

    @cache
    def _powers(self, s, exps, m):
        """char_powers, read off `gauss._exponents`, the table shared by
        every character mod p^s with these generator exponents."""
        table, mod = _exponents(self.p, s, exps), self.p ** s
        return tuple(table[x % mod] for x in self.elements(m))

    def char_conductor_level(self, chi):
        return max(chi.conductor_exponent(), 1)


class AbstractTower:
    """C_m = Z/h x (Z/p^m)^*: a finite-group generalization with a cyclic
    class-group part of order h >= 1; transitions are identity x reduction.

    Its tables are built from those of QTower(p).  An h that is not an
    int >= 1 raises ValueError."""

    __slots__ = ("p", "h", "_q")

    def __init__(self, p, h):
        if not isinstance(h, int) or isinstance(h, bool) or h < 1:
            raise ValueError(f"h = {h!r}: the class-group order must be an "
                             "int >= 1")
        self._q = QTower(p)
        self.p = p
        self.h = h

    def __eq__(self, other):
        return (type(other) is type(self) and other.p == self.p
                and other.h == self.h)

    def __hash__(self):
        return hash((self.p, self.h))

    @cache
    def elements(self, m):
        return tuple((c, u) for c in range(self.h)
                     for u in self._q.elements(m))

    @cache
    def lifts(self, m):
        return MappingProxyType({
            (c, u): tuple((c, v) for v in vs)
            for c in range(self.h) for u, vs in self._q.lifts(m).items()})

    @cache
    def characters(self, m):
        return tuple((j, chi) for j in range(self.h)
                     for chi in self._q.characters(m))

    def vee(self, m, x, n):
        """(c, u)^vee = (-c, u^vee): the sign lies in the p-component."""
        c, u = x
        return -c % self.h, self._q.vee(m, u, n)

    def char_order(self, chi):
        """lcm(h, order of the finite part): the conductor at which each
        value zeta_h^{jc} chi_fin(u) is formed, for a trivial j too."""
        return lcm(self.h, chi[1].order())

    def char_powers(self, chi, m):
        """The k with chi(x) = zeta_N^k over elements(m): zeta_h^{jc}
        chi_fin(u) is zeta_N^(jc N/h + k_fin N/N_fin)."""
        j, fin = chi
        _check_same_prime(fin, self.p)
        return self._powers(j % self.h, fin.s, fin.exps, fin.order(), m)

    @cache
    def _powers(self, j, s, exps, order, m):
        """char_powers; order, that of the character mod p^s, is fixed by
        p, s and exps."""
        big = lcm(self.h, order)
        cstep, fstep = j * (big // self.h), big // order
        return tuple((c * cstep + k * fstep) % big for c in range(self.h)
                     for k in self._q._powers(s, exps, m))

    def char_conductor_level(self, chi):
        return max(chi[1].conductor_exponent(), 1)


def _check_same_prime(chi, p):
    """Raise ValueError unless the character mod chi.p^s lives on p's tower."""
    if chi.p != p:
        raise ValueError(f"a character mod {chi.p}^{chi.s} on the tower of "
                         f"p = {p}: the primes {chi.p} and {p} differ")


class Distribution:
    """Level-indexed values on tower cosets, each a tuple indexed by nus,
    stored split: `numerators[m]` = (den, {x: vector}), read and written
    through `values[m]`.

    `eigen` starts as None; a caller that knows the eigenvalue data
    assigns it a dict (kappa, and eta_n, eta_prime for the distribution
    whose functional equation is checked) after building."""

    def __init__(self, tower, nus, values):
        self.tower = tower
        self.nus = _distinct(nus, "distribution")
        self.numerators = {m: _split_level(lv) for m, lv in values.items()}
        self.eigen = None

    @property
    def values(self):
        return {m: _Level(self.numerators, m) for m in self.numerators}

    @property
    def levels(self):
        return sorted(self.numerators)

    def value(self, m, x):
        return self.values[m][x]

    def to_json(self):
        return {
            "p": self.tower.p,
            "nus": list(self.nus),
            "levels": [{
                "m": m,
                "cosets": [{"x": x if isinstance(x, int) else list(x),
                            "value": [scalar_json(v) for v in vec]}
                           for x, vec in sorted(self.values[m].items(),
                                                key=lambda kv: str(kv[0]))],
            } for m in self.levels],
        }

    @classmethod
    def from_json(cls, obj):
        """Rebuild a rational-model distribution from its serialization.

        p must be prime, the nus distinct, the levels consecutive from some
        m >= 1, each level must list every coset of QTower(p).elements(m)
        once, and each value must have one scalar per nu; anything else
        raises a ValueError that names the field."""
        _require(obj, "p", int, "distribution")
        _require(obj, "nus", list, "distribution")
        _require(obj, "levels", list, "distribution")
        tower = QTower(obj["p"])
        d = len(_distinct(obj["nus"], "distribution"))
        values = {}
        for i, level in enumerate(obj["levels"]):
            where = f"levels[{i}]"
            _require(level, "m", int, where)
            _require(level, "cosets", list, where)
            m = level["m"]
            first = first if i else m
            if m < 1 or m != first + i:
                raise ValueError(f"{where}: m = {m}; the levels must be "
                                 "consecutive, from some m >= 1")
            cosets = {}
            for j, c in enumerate(level["cosets"]):
                at = f"{where}.cosets[{j}]"
                _require(c, "x", int, at)
                _require(c, "value", list, at)
                if len(c["value"]) != d:
                    raise ValueError(f"{at}.value: {len(c['value'])} "
                                     f"entries for {d} nus")
                cosets[c["x"]] = tuple(scalar_from_json(v, f"{at}.value")
                                       for v in c["value"])
            if (len(cosets) != len(level["cosets"])
                    or set(cosets) != set(tower.elements(m))):
                raise ValueError(f"{where}: the cosets are not those of "
                                 f"(Z/{obj['p']}^{m})^*, each listed once")
            values[m] = cosets
        return cls(tower, obj["nus"], values)


class _Level(Mapping):
    """Level m of a store {m: (den, {x: vector})}, as value tuples."""

    def __init__(self, store, m):
        self.store, self.m = store, m

    def __getitem__(self, x):
        den, level = self.store[self.m]
        return tuple(join(s, den) for s in level[x])

    def __iter__(self):
        return iter(self.store[self.m][1])

    def __len__(self):
        return len(self.store[self.m][1])

    def __setitem__(self, x, vec):
        (den, level), (vden, items) = self.store[self.m], split(vec)
        big = lcm(den, vden)
        self.store[self.m] = big, {**{y: tuple(s * (big // den) for s in v)
                                      for y, v in level.items()},
                                   x: tuple(s * (big // vden) for s in items)}


def _split_level(level):
    """(den, {x: vector}) for a mapping of value tuples, as `exact.split`
    gives them; a `_Level` as stored (a write replaces a level's dict)."""
    if isinstance(level, _Level):
        return level.store[level.m]
    den, items = split([v for vec in level.values() for v in vec])
    items = iter(items)
    return den, {x: tuple(islice(items, len(vec))) for x, vec in level.items()}


def _differ(a, da, b, db):
    """Whether the vectors of numerators a / da and b / db differ."""
    return tuple(s * db for s in a) != tuple(s * da for s in b)


def _distinct(nus, where):
    """nus as a tuple; a nu that is not an int (bool included), or a
    repeated nu (nu -> -nu would merge), raises."""
    if not all(type(nu) is int for nu in nus):
        raise ValueError(f"{where}: field 'nus' = {list(nus)} must hold "
                         "ints only")
    if any(nu in nus[:i] for i, nu in enumerate(nus)):
        raise ValueError(f"{where}: field 'nus' = {list(nus)} repeats a nu")
    return tuple(nus)


def _require(obj, key, kind, where):
    """Check that the JSON object `obj` has field `key` of type `kind`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
        raise ValueError(f"{where}: field {key!r} must be {kind.__name__}, "
                         f"not {type(obj[key]).__name__}")


class EigenSymbol:
    """Base data at a deep level plus the eigen-operator push-down rule:
    B(x, level m) = kappa^{-1} sum of B over the lifts of x at m+1."""

    def __init__(self, tower, kappa, base_level, base_data, nus):
        if not kappa:
            raise ValueError("eigenvalue must be nonzero (finite slope)")
        self.tower = tower
        self.kappa = kappa
        self.base_level = base_level
        self.nus = _distinct(nus, "eigen-symbol")
        self.numerators = {base_level: _split_level(base_data)}
        base = self.numerators[base_level][1]
        for x in tower.elements(base_level):
            if x not in base:
                raise ValueError(f"missing base datum at {x}")
            if len(base[x]) != len(self.nus):
                raise ValueError("component count mismatch")

    @property
    def base_data(self):
        return _Level(self.numerators, self.base_level)


def build_mu(sym, m0):
    """values mu(x + p^m) = kappa^{-m} B_m(x) = kappa^{-M} S_m(x) for
    m0 <= m <= M, the base level: S_m(x) sums the base data over the
    descendants of x, on numerators over one denominator."""
    if m0 < 1 or m0 > sym.base_level:
        raise ValueError("need 1 <= m0 <= base level")
    tower, big_m = sym.tower, sym.base_level
    store = {big_m: _scaled(sym.numerators[big_m],
                            (1 / scalar(sym.kappa)) ** big_m)}
    for m in range(big_m - 1, m0 - 1, -1):
        den, sums = store[m + 1]
        store[m] = den, {x: _vector_sum(sums[y] for y in ys)
                         for x, ys in tower.lifts(m).items()}
    return Distribution(tower, sym.nus, {m: _Level(store, m)
                                         for m in sorted(store)})


def _scaled(level, scale):
    """The split level (den, {x: vector}) times the scalar scale; a Cyclo
    numerator 1 still multiplies, placing each value at its conductor."""
    (sden, (num,)), (den, vectors) = split([scale]), level
    if type(num) is not int or num != 1:
        vectors = {x: tuple(s * num for s in v) for x, v in vectors.items()}
    return den * sden, vectors


def check_distribution_relation(mu):
    """mu(x + p^m) = sum over a mod p of mu(x + a p^m + p^{m+1}), exactly,
    for every coset and consecutive stored levels."""
    levels = mu.levels
    if len(levels) < 2:
        raise ValueError("need at least two stored levels")
    for m, m1 in zip(levels, levels[1:]):
        if m1 != m + 1:
            raise ValueError("stored levels must be consecutive")
        lifts, (den, level) = mu.tower.lifts(m), mu.numerators[m]
        dden, deeper = mu.numerators[m1]
        for x, vec in level.items():
            acc = _vector_sum(deeper[y] for y in lifts[x])
            if _differ(vec, den, acc, dden):
                return False, (x, m)
    return True, None


def check_boundedness(mu, p, floor=0):
    """Every stored coordinate has v_p >= floor (the integral-lattice
    normalization is the caller's floor parameter)."""
    for m in mu.levels:
        den, level = mu.numerators[m]
        low = floor + vp(den, p)  # v_p(s / den) < floor
        for x, vec in level.items():
            for idx, s in enumerate(vec):
                if s and vp(s, p) < low:
                    return False, (x, m, mu.nus[idx], join(s, den))
    return True, None


def integrate_character(mu, chi):
    """sum over x in C(p^m) of chi(x) mu(x + p^m) at the shallowest level
    above the conductor; stability is asserted one level deeper when a
    deeper level is stored."""
    tower = mu.tower
    lvl = tower.char_conductor_level(chi)
    levels = mu.levels
    if lvl > levels[-1]:
        raise ValueError("character conductor exceeds the stored depth")
    m = max(lvl, levels[0])
    out = _integrate_at(mu, chi, m)
    if m + 1 in mu.numerators:
        deeper = _integrate_at(mu, chi, m + 1)
        if any(a != b for a, b in zip(out, deeper)):
            raise ArithmeticError("character integral is not level-stable")
    return out


def _integrate_at(mu, chi, m):
    """The integral at level m, from the level's exponent table."""
    tower, (den, level) = mu.tower, mu.numerators[m]
    return _component_sums(tower.char_order(chi), tower.char_powers(chi, m),
                           [level[x] for x in tower.elements(m)], den)


def _component_sums(n, ks, vecs, den):
    """The entrywise sum of zeta_n^ks[i] * vecs[i] / den: one
    `exact.exponent_sum` per component."""
    return tuple(exponent_sum(n, ks, column, den) for column in zip(*vecs))


def _vector_sum(vecs):
    """The entrywise sum of value vectors, added in order; None for none."""
    acc = None
    for vec in vecs:
        acc = vec if acc is None else tuple(a + b for a, b in zip(acc, vec))
    return acc


def fourier_inversion_check(mu, m):
    """sum over all characters chi of C(p^m) of chi(x0)^{-1} * integral of
    chi d(mu) equals |C(p^m)| * mu(x0 + p^m), for every x0.

    Fourier inversion holds for every function on a finite abelian group,
    so this checks the tower's character and exponent arithmetic
    (`char_powers`, `char_order`, the exponent sums), not mu: any values
    pass.  `check_distribution_relation` is the check that tests the
    distribution."""
    tower = mu.tower
    chars, elements = tower.characters(m), tower.elements(m)
    vecs = [mu.numerators[m][1][x] for x in elements]
    orders = [tower.char_order(chi) for chi in chars]
    tables = [tower.char_powers(chi, m) for chi in chars]
    integrals = [_component_sums(n, ks, vecs, 1)
                 for n, ks in zip(orders, tables)]
    # the integrals times den; chi(x0)^{-1} = zeta_N^{-k} is zeta_L^{-k L/N}
    # over L = lcm of the N; row i of zip(*inverse) weights x0 = elements[i]
    big = lcm(*orders)
    inverse = [[-k * (big // n) for k in ks] for n, ks in zip(orders, tables)]
    for x0, weights, vec in zip(elements, zip(*inverse), vecs):
        for column, s in zip(zip(*integrals), vec):
            if exponent_sum(big, (*weights, 0), (*column, -len(vecs) * s)):
                return False, x0
    return True, None


def kappa_hat(n, s, nu, nu_min):
    """The interpolation constant
    N(f_chi)^{n(n-1)(n-2)/6 + (nu - nu_min) n(n-1)/2} (kappa kappa')^{-s}
    with N(f_chi) = p^s passed in via its exponent bookkeeping.

    Returns the exponents: the power of N(f_chi), both by the formula and
    by an independent binomial route, and the power -s of kappa kappa'.
    """
    from math import comb

    e_formula = n * (n - 1) * (n - 2) // 6 + (nu - nu_min) * (n * (n - 1) // 2)
    e_audit = comb(n, 3) + (nu - nu_min) * comb(n, 2)
    if e_formula != e_audit:
        raise ArithmeticError("exponent audit failed")
    return {"nfchi_exponent": e_formula, "kappa_exponent": -s, "audit": e_audit}


# A numerator or denominator below 2^13000 has at most 3914 decimal
# digits, under the 4300 that Python turns into a string by default
MAX_KAPPA_HAT_BITS = 13_000


def kappa_hat_value(n, p, s, nu, nu_min, kappa_pair):
    """(value, exponents) of kappa_hat at N(f_chi) = p^s; p and s are
    checked as a character's modulus is (gauss.check_modulus).

    The value p^(s e) kappa^(-s) is refused before any power is formed
    when s (|e| bits(p) + bits(kappa)), bits(kappa) those of its largest
    numerator and of its denominator, passes MAX_KAPPA_HAT_BITS."""
    check_modulus(p, s)
    info = kappa_hat(n, s, nu, nu_min)
    e = info["nfchi_exponent"]
    kp = scalar(kappa_pair)
    c = kp if isinstance(kp, Cyclo) else Cyclo.rational(kp)
    kappa_bits = max(map(abs, c.num)).bit_length() + c.den.bit_length()
    bits = s * (abs(e) * p.bit_length() + kappa_bits)
    check_bound(f"kappa-hat at n = {n}, nu = {nu}, nu-min = {nu_min}: "
                f"p^(s e) kappa^(-s) with p = {p}, s = {s}, e = {e} and a "
                f"kappa of {kappa_bits} bits: s (|e| bits(p) + bits(kappa)) "
                f"= {bits}", bits, "MAX_KAPPA_HAT_BITS", MAX_KAPPA_HAT_BITS)
    base = Fraction(p) ** (s * e)
    if kp == 0:
        raise ValueError("kappa kappa' = 0: kappa-hat needs a nonzero "
                         "eigenvalue (finite slope)")
    return base * (1 / kp) ** s, info


# ---------------------------------------------------------------------------
# the functional equation

def value_vee_reindexer(nus):
    """The coordinate reindexing nu -> -nu on value vectors.

    Returns (dual_nus, fn); fn permutes a tuple indexed by nus into one
    indexed by dual_nus."""
    nus = tuple(nus)
    dual = tuple(sorted(-v for v in nus))
    positions = {v: i for i, v in enumerate(nus)}

    def fn(vec):
        return tuple(vec[positions[-v]] for v in dual)

    return dual, fn


def dual_symbol(sym, n, kappa_dual):
    """Synthetic twisted eigen-symbol: base'(x) = (kd/k)^M vee(base(x^vee)),
    on the split base data.

    The scale (kappa_dual / kappa)^M at the base level M makes the
    push-down bookkeeping reproduce mu_dual(x^vee) = (mu(x))^vee exactly;
    without it the two sides differ by (kappa/kappa_dual)^M.
    """
    tower, big_m = sym.tower, sym.base_level
    dual_nus, reindex = value_vee_reindexer(sym.nus)
    den, level = sym.numerators[big_m]
    base = _scaled((den, {x: reindex(level[tower.vee(big_m, x, n)])
                          for x in tower.elements(big_m)}),
                   (1 / scalar(sym.kappa)) ** big_m * kappa_dual ** big_m)
    return EigenSymbol(tower, kappa_dual, big_m, _Level({big_m: base}, big_m),
                       dual_nus)


def dual_kappa_pair(n, q, lam_full, lam_prime_full):
    """kappa_{lam^vee} kappa_{lam'^vee} together with the eigenvalue data
    (eta_n, eta'_{n-1}) entering the kappa-inversion relation, each the
    `HeckeRoots.eta` of its roots."""
    q = Fraction(q)
    lam_vee = full_dual_roots(lam_full, q)[: n - 1]
    lam_p_vee = full_dual_roots(lam_prime_full, q)
    kd = kappa_of(lam_vee, q) * kappa_of(lam_p_vee, q)
    eta_n = HeckeRoots(lam_full, q).eta(n)
    eta_prime = HeckeRoots(lam_prime_full, q).eta(n - 1)
    return kd, eta_n, eta_prime


def verify_inversekappa(n, q, lam_full, lam_prime_full):
    """kappa = eta_n^{n-1} eta'^n kappa_dual, the eigenvalue relation the
    functional equation consumes (stated there per level as
    kappa(f) = zeta^{1-n} zeta'^{-n} kappa_dual(f))."""
    q = Fraction(q)
    kappa = kappa_of(lam_full[: n - 1], q) * kappa_of(lam_prime_full, q)
    kd, eta_n, eta_prime = dual_kappa_pair(n, q, lam_full, lam_prime_full)
    return kappa == kd * eta_n ** (n - 1) * eta_prime ** n


def check_functional_equation(mu, mu_dual, n):
    """(mu(x))^vee = mu_dual(x^vee) at every stored coset and level, in the
    component form tau_nu -> tau_{-nu}; plus the eigenvalue relation when
    both distributions carry eigen metadata."""
    dual_nus, reindex = value_vee_reindexer(mu.nus)
    if tuple(mu_dual.nus) != dual_nus:
        return {"ok": False, "witness": "component index sets do not match",
                "kappa_relation_ok": None}
    if mu.levels != mu_dual.levels:
        return {"ok": False, "witness": "level ranges differ",
                "kappa_relation_ok": None}
    for m in mu.levels:
        (den, level), (dden, dual) = mu.numerators[m], mu_dual.numerators[m]
        for x, vec in level.items():
            if _differ(reindex(vec), den, dual[mu.tower.vee(m, x, n)], dden):
                return {"ok": False, "witness": (x, m),
                        "kappa_relation_ok": None}
    kappa_ok, e = None, mu.eigen
    if e and mu_dual.eigen:
        kappa_ok = e["kappa"] == (mu_dual.eigen["kappa"] * e["eta_n"] ** (n - 1)
                                  * e["eta_prime"] ** n)
    return {"ok": True, "witness": None, "kappa_relation_ok": kappa_ok}
