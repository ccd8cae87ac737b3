"""Integer-only RatMat construction against a Fraction-lcm reference."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeforge.ratmat import RatMat, SingularMatrixError

ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
fractions =st.builds(Fraction, ints, st.integers(min_value=1, max_value=360))


def _square(entries):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def _reference(rows):
    """The Fraction construction: every entry through Fraction, numerators
    over the lcm of the denominators, then the normalizing constructor."""
    n = len(rows)
    den = 1
    flat = []
    for row in rows:
        for x in row:
            f = Fraction(x)
            flat.append(f)
            den = den * f.denominator // gcd(den, f.denominator)
    return RatMat(n, [int(f * den) for f in flat], den)


def _same(got, want):
    assert (got.n, got.num, got.den) == (want.n, want.num, want.den)
    assert isinstance(got.num, tuple)
    assert all(type(x) is int for x in got.num) and type(got.den) is int
    assert hash(got) == hash(want)


@settings(max_examples=200, deadline=None)
@given(_square(ints))
def test_from_rows_int_rows(rows):
    got = RatMat.from_rows(rows)
    _same(got, _reference(rows))
    assert got.den == 1


@settings(max_examples=200, deadline=None)
@given(_square(fractions))
def test_from_rows_fraction_rows(rows):
    _same(RatMat.from_rows(rows), _reference(rows))


@settings(max_examples=200, deadline=None)
@given(_square(st.one_of(ints, fractions)))
def test_from_rows_mixed_rows(rows):
    _same(RatMat.from_rows(rows), _reference(rows))


@settings(max_examples=200, deadline=None)
@given(_square(st.one_of(ints, fractions)))
def test_j_embed_is_block_diagonal(rows):
    g = RatMat.from_rows(rows)
    m = g.n
    block = [[rows[i][j] if i < m and j < m else Fraction(int(i == j))
              for j in range(m + 1)] for i in range(m + 1)]
    _same(g.j_embed(), _reference(block))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.one_of(ints, fractions), min_size=2 * n,
                                max_size=2 * n), min_size=n, max_size=n)))
def test_difference_is_entrywise(rows):
    """g - h against the Fraction reference of the entrywise difference."""
    n = len(rows)
    a, b = [row[:n] for row in rows], [row[n:] for row in rows]
    want = [[Fraction(x) - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    _same(RatMat.from_rows(a) - RatMat.from_rows(b), _reference(want))


def test_inverse_is_two_sided():
    """g g^-1 = g^-1 g = 1 up to n = 5, for g with a denominator other
    than 1; a singular g raises SingularMatrixError."""
    rng = random.Random(11)
    inverted = set()
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4, 5])
        g = RatMat.from_rows([[Fraction(rng.randrange(-9, 10),
                                        rng.choice([1, 2, 3, 4, 6, 9]))
                               for _ in range(n)] for _ in range(n)])
        if g.den == 1:
            continue
        if g.det() == 0:
            with pytest.raises(SingularMatrixError):
                g.inverse()
            continue
        gi = g.inverse()
        assert g * gi == RatMat.identity(n) == gi * g
        inverted.add(n)
    assert inverted == {1, 2, 3, 4, 5}
    with pytest.raises(SingularMatrixError):
        RatMat.from_rows([[Fraction(1, 2), 1], [1, 2]]).inverse()
