import random
from fractions import Fraction

import pytest

from heckeforge.exact import Cyclo
from heckeforge.laurent import (LaurentInversionError, LaurentMatrix,
                                LaurentPoly, lconst, lvar)


def test_monomial_arithmetic():
    f = lvar("f")
    assert f * f ** -1 == 1
    assert (f + 1) * (f - 1) == f ** 2 - 1
    assert (f ** -2) * (f ** 3) == f
    assert lconst(Fraction(1, 2)) * 2 == 1


def test_substitution():
    f, x = lvar("f"), lvar("x")
    poly = f ** 2 * x - 3 * x + f ** -1
    val = poly.substitute({"f": Fraction(2), "x": Fraction(5)})
    assert val.constant_value() == Cyclo.rational(Fraction(4 * 5 - 15) + Fraction(1, 2))
    partial = poly.substitute({"x": Fraction(1)})
    assert partial == f ** 2 - 3 + f ** -1


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
    f = lvar("f")
    bad = LaurentMatrix([[1, f], [f ** -1, 1]])  # det = 1 - 1 = 0
    with pytest.raises(LaurentInversionError):
        bad.inverse()
    bad2 = LaurentMatrix([[1 + f, 0], [0, 1]])
    with pytest.raises(LaurentInversionError) as err:
        bad2.inverse()
    assert err.value.det == 1 + f


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


def test_rename_symmetry():
    x1, x2 = lvar("X1"), lvar("X2")
    sym = x1 * x2 + x1 + x2
    assert sym.rename({"X1": "X2", "X2": "X1"}) == sym
    asym = x1 - x2
    assert asym.rename({"X1": "X2", "X2": "X1"}) == -asym


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
    # substitute a Cyclo, an int and a Fraction, one with a negative power
    val = (poly * x ** -1).substitute({"f": z, "x": 2})
    assert val.constant_value() == (Cyclo.zeta(3, 2) - 2) / 2
    val = poly.substitute({"f": Fraction(1, 3), "x": 4})
    assert val.constant_value() == z / 3 - 1
    # unit_inverse inverts by the coefficient's type
    u = z * f ** 2
    assert u * u.unit_inverse() == 1
    v = Fraction(3) * x
    assert v.unit_inverse().terms == {(("x", -1),): Fraction(1, 3)}


def test_to_ratmat_needs_rational_constants():
    z = Cyclo.zeta(3)
    with pytest.raises(ValueError):
        LaurentMatrix([[lconst(z), 0], [0, 1]]).to_ratmat()
    one = LaurentMatrix([[lconst(z * z.conj()), 0], [0, 1]]).to_ratmat()
    assert one == LaurentMatrix.identity(2).to_ratmat()
