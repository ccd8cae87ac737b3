import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeforge.exact import Cyclo
from heckeforge.laurent import (LaurentInversionError, LaurentMatrix,
                                LaurentPoly, lconst, lvar, truncated_product)
from heckeforge.matrices import d_matrix, h_matrix


def test_monomial_arithmetic():
    f = lvar("f")
    assert f * f ** -1 == 1
    assert (f + 1) * (f - 1) == f ** 2 - 1
    assert (f ** -2) * (f ** 3) == f
    assert lconst(Fraction(1, 2)) * 2 == 1


def test_unit_inverse_and_error():
    f = lvar("f")
    u = 3 * f ** -2
    assert u * u.unit_inverse() == 1
    with pytest.raises(LaurentInversionError) as err:
        (f + 1).unit_inverse()
    assert err.value.det == f + 1


def test_diag_inverse():
    f = lvar("f")
    a = LaurentMatrix.diagonal([f ** 2, f, lconst(1)])
    assert a * a.inverse() == LaurentMatrix.identity(3)
    assert a.det() == f ** 3
    inv = a.inverse()
    assert inv.entries[0][0] == f ** -2 and inv.entries[1][1] == f ** -1


def test_permutation_involution():
    a = LaurentMatrix([[0, 1], [1, 0]])
    assert a.inverse() == a


def test_inversion_error_carries_witness():
    """A det that is not a unit raises with the whole det, as Leibniz
    finds it for the non-diagonal matrices."""
    f, x = lvar("f"), lvar("x")
    bad = LaurentMatrix([[1, f], [f ** -1, 1]])  # det = 1 - 1 = 0
    with pytest.raises(LaurentInversionError):
        bad.inverse()
    bad2 = LaurentMatrix([[1 + f, 0], [0, 1]])
    with pytest.raises(LaurentInversionError) as err:
        bad2.inverse()
    assert err.value.det == 1 + f
    for rows in ([[1 + f, 1, 0], [x, 1, 0], [0, 0, f]],
                 [[f, 1, x, 0], [0, 1, 0, 2], [x, 0, 1, 0], [0, 3, 0, f]]):
        with pytest.raises(LaurentInversionError) as err:
            LaurentMatrix(rows).inverse()
        assert len(err.value.det.terms) > 1
        assert err.value.det == _leibniz_det(rows)


def test_diagonal_inversion_error_carries_the_full_determinant():
    f = lvar("f")
    with pytest.raises(LaurentInversionError) as err:
        LaurentMatrix.diagonal([1 + f, f]).inverse()
    assert err.value.det == f + f ** 2
    with pytest.raises(LaurentInversionError) as err:
        LaurentMatrix.diagonal([f, lconst(0), 1 + f]).inverse()
    assert not err.value.det


def _leibniz_det(rows):
    """The sum over permutations of signed products of entries: no
    expansion and no memo, so it shares no code with LaurentMatrix.det."""
    n = len(rows)
    total = lconst(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        term = lconst(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def _cofactor_inverse(m):
    """The adjugate over the determinant, entry by entry, every minor a
    Leibniz determinant."""
    n = m.n
    dinv = _leibniz_det(m.entries).unit_inverse()
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[m.entry(r, c) for c in range(n) if c != j]
                   for r in range(n) if r != i]
            cof = _leibniz_det(sub)
            rows[j][i] = (-cof if (i + j) % 2 else cof) * dinv
    return LaurentMatrix(rows)


def test_diagonal_inverse_matches_cofactors():
    f, x = lvar("f"), lvar("x")
    z = Cyclo.zeta(5, 2)
    for diag in ([f ** -2 * x, lconst(-3) * x ** -1, lconst(1)],
                 [z * f ** 3, Fraction(2, 7) * x ** -2 * f, lconst(z)],
                 [lconst(Fraction(-1, 4))]):
        a = LaurentMatrix.diagonal(diag)
        inv = a.inverse()
        assert inv == _cofactor_inverse(a)
        assert a * inv == LaurentMatrix.identity(a.n)
        assert inv * a == LaurentMatrix.identity(a.n)


def _random_invertible(rng, n):
    """Unipotent upper x diagonal-monomial x unipotent lower: unit det."""
    up = [[lconst(1 if i == j else 0) for j in range(n)] for i in range(n)]
    lo = [[lconst(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            up[i][j] = lconst(rng.randrange(-3, 4))
            lo[j][i] = lconst(rng.randrange(-3, 4)) * lvar("f")
    dg = LaurentMatrix.diagonal(
        [lconst(rng.choice([1, -1, 2])) * lvar("f", rng.randrange(-2, 3))
         for _ in range(n)])
    return LaurentMatrix(up) * dg * LaurentMatrix(lo)


def test_product_inverse_reverses():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.choice([2, 3])
        a, b = _random_invertible(rng, n), _random_invertible(rng, n)
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert a * a.inverse() == LaurentMatrix.identity(n)


def _is_diagonal(m):
    return not any(m.entry(i, j) for i in range(m.n) for j in range(m.n) if i != j)


def test_det_and_inverse_match_leibniz():
    """det and the general inverse against Leibniz on non-diagonal
    matrices: random unit-determinant products at n = 2-4, and the
    d_(x) h^(f) that verify_inverseh inverts at n = 3-5."""
    rng = random.Random(29)
    mats = []
    while len(mats) < 12:
        m = _random_invertible(rng, 2 + len(mats) % 3)
        if not _is_diagonal(m):
            mats.append(m)
    f, x = lvar("f"), lvar("x")
    mats += [d_matrix(LaurentMatrix, n, x) * h_matrix(LaurentMatrix, n, f)
             for n in (3, 4, 5)]
    for m in mats:
        assert not _is_diagonal(m)
        assert m.det() == _leibniz_det(m.entries)
        inv = m.inverse()
        assert inv == _cofactor_inverse(m)
        assert m * inv == LaurentMatrix.identity(m.n)


def test_rename_symmetry():
    x1, x2 = lvar("X1"), lvar("X2")
    sym = x1 * x2 + x1 + x2
    assert sym.rename({"X1": "X2", "X2": "X1"}) == sym
    asym = x1 - x2
    assert asym.rename({"X1": "X2", "X2": "X1"}) == -asym


def test_rename_adds_the_exponents_of_names_sent_to_one():
    x1, x2 = lvar("X1"), lvar("X2")
    assert (x1 * x2).rename({"X2": "X1"}) == lvar("X1", 2)
    assert (x1 * x2 ** -1).rename({"X2": "X1"}) == 1
    # two terms whose keys merge into one add their coefficients
    merged = (x1 * x2 ** 2 + 3 * x1 ** 2 * x2).rename({"X2": "X1"})
    assert merged == 4 * lvar("X1", 3)


def test_equality_compares_the_whole_term_dicts():
    """Insertion order does not count, a Fraction equals the rational
    Cyclo of its value, and one differing coefficient tells two apart."""
    a = LaurentPoly({(("f", 1),): Fraction(3), (): Fraction(1, 2)})
    b = LaurentPoly({(): Fraction(1, 2), (("f", 1),): Cyclo.rational(3)})
    assert list(a.terms) != list(b.terms)
    assert a == b and b == a
    c = LaurentPoly({(): Fraction(1, 2), (("f", 1),): Cyclo.rational(4)})
    assert a != c and c != a


def test_mixed_cyclotomic_and_rational_coefficients():
    """Rational coefficients stay Fractions next to a Cyclo one, and agree
    with a twin whose every coefficient is a Cyclo."""
    z = Cyclo.zeta(3)
    f, x = lvar("f"), lvar("x")
    poly = z * f + Fraction(1, 2) * x - 3
    assert {type(v) for v in poly.terms.values()} == {Cyclo, Fraction}
    twin = LaurentPoly({k: Cyclo._coerce(v) for k, v in poly.terms.items()})
    assert {type(v) for v in twin.terms.values()} == {Cyclo}
    assert poly == twin and twin == poly
    assert poly + poly == 2 * twin
    assert not poly - twin
    sq = poly * poly
    assert sq == twin * twin
    assert sq == (z * z * f ** 2 + Fraction(1, 4) * x ** 2 + 9 + z * f * x
                  - 6 * z * f - 3 * x)
    assert type(sq.terms[(("x", 2),)]) is Fraction
    # unit_inverse inverts by the coefficient's type
    u = z * f ** 2
    assert u * u.unit_inverse() == 1
    v = Fraction(3) * x
    assert v.unit_inverse().terms == {(("x", -1),): Fraction(1, 3)}


def test_constants_keep_their_scalar():
    """A Fraction or Cyclo constant is stored as it is, an int as a
    Fraction, and a zero of any scalar type as the empty polynomial."""
    h, z = Fraction(2, 3), Cyclo.zeta(5)
    assert lconst(h).terms[()] is h and LaurentPoly._coerce(h).terms[()] is h
    assert lconst(z).terms[()] is z
    assert type(lconst(4).terms[()]) is Fraction
    for zero in (0, Fraction(0), Cyclo.rational(0), Cyclo(3, [0, 0])):
        assert lconst(zero).terms == {}
        assert LaurentPoly._coerce(zero).terms == {}
    m = LaurentMatrix([[0, 1], [2, 0]])
    assert not m.entry(0, 0).terms and m.entry(1, 0).terms == {(): Fraction(2)}
    assert type(m.entry(1, 0).terms[()]) is Fraction
    assert LaurentPoly._coerce("1") is None and LaurentPoly._coerce(1.0) is None
    inv = (z * lvar("x")).unit_inverse().terms[(("x", -1),)]
    assert (inv.m, inv.num, inv.den) == (5, z.inverse().num, z.inverse().den)


# The product against the loop it replaced, kept here as the reference:
# every pair of monomials merged through a dict and re-sorted, every
# coefficient product added as it comes, a sum that reaches zero dropped
# at once.

def reference_product(p, q):
    """The term dict of p * q, the product taken pair by pair."""
    t = {}
    for k1, v1 in p.terms.items():
        for k2, v2 in q.terms.items():
            e = dict(k1)
            for name, ex in k2:
                ne = e.get(name, 0) + ex
                if ne:
                    e[name] = ne
                else:
                    e.pop(name, None)
            k = tuple(sorted(e.items()))
            prod = v1 * v2
            s = t.get(k)
            s = prod if s is None else s + prod
            if s:
                t[k] = s
            else:
                t.pop(k, None)
    return t


def assert_same_terms(got, want):
    """Same keys in the same order, equal values of the same types."""
    assert list(got) == list(want)
    for k, v in want.items():
        assert got[k] == v and type(got[k]) is type(v), k


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
CYCLOS = st.builds(lambda m, k, c: Cyclo.zeta(m, k) * c,
                   st.sampled_from([1, 3, 4, 5]), st.integers(0, 4), RATIONALS)
# "X10" sorts before "X2": keys follow the names' string order
KEYS = st.dictionaries(st.sampled_from(["f", "u1", "w1", "X2", "X10"]),
                       st.integers(-4, 4).filter(bool), max_size=3).map(
    lambda e: tuple(sorted(e.items())))


def polys(coefficients):
    return st.dictionaries(KEYS, coefficients, max_size=6).map(LaurentPoly)


RATIONAL_POLYS = polys(RATIONALS)
MIXED_POLYS = polys(st.one_of(RATIONALS, CYCLOS))
PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(RATIONAL_POLYS, RATIONAL_POLYS)
@example(LaurentPoly(), lvar("f") + 1)
@example(lconst(Fraction(3, 4)), lconst(Fraction(-2, 9)))
@example(lvar("f") + lvar("X2", -3), lvar("f") - lvar("X2", -3))
@example(lvar("f", -2) + Fraction(1, 3), lvar("f", 2) * Fraction(3, 5) - 1)
def test_rational_product_matches_reference(p, q):
    prod = p * q
    assert_same_terms(prod.terms, reference_product(p, q))
    assert all(type(v) is Fraction for v in prod.terms.values())
    assert p ** 0 == 1 and p ** 1 == p and p ** 3 == p * p * p
    assert prod ** 2 == p ** 2 * q ** 2


@PROPERTY
@given(MIXED_POLYS, MIXED_POLYS)
@example(lconst(Cyclo.zeta(3)), lconst(Fraction(1, 2)))
# the f*x term's sum reaches zero as a Cyclo, then restarts from a Fraction
@example(lvar("f") + lvar("x") + lvar("f") * lvar("x", 2),
         Cyclo.zeta(4) * (lvar("x") - lvar("f")) + Fraction(1, 2) * lvar("x", -1))
def test_mixed_product_matches_reference(p, q):
    assert_same_terms((p * q).terms, reference_product(p, q))


@PROPERTY
@given(RATIONAL_POLYS, MIXED_POLYS)
def test_products_that_cancel(p, q):
    """(p + q)(p - q) cancels its cross terms; p * (q - q) is zero."""
    s, d = p + q, p - q
    assert_same_terms((s * d).terms, reference_product(s, d))
    assert s * d == p * p - q * q
    assert not p * (q - q) and not (q - q) * p


@PROPERTY
@given(st.lists(st.one_of(RATIONAL_POLYS, MIXED_POLYS), max_size=4),
       st.integers(-2, 3))
# cutting each factor at f-degree 2 would drop the f^2 that gives f
@example([lvar("f", -1), lvar("f", 2) + 1], 2)
# ... and the f^3 that gives f
@example([lvar("f", 3) + lvar("u1"), lvar("f", -2) - 1], 2)
def test_truncated_product_matches_reference(factors, k):
    """The terms of f-degree < k of the product, against the full product
    taken pair by pair."""
    full = {(): Fraction(1)}
    for x in factors:
        full = reference_product(LaurentPoly(full), x)
    want = {key: v for key, v in full.items() if dict(key).get("f", 0) < k}
    got = truncated_product(factors, "f", k).terms
    assert got == want
    assert all(type(got[key]) is type(v) for key, v in want.items())
