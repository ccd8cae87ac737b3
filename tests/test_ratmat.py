"""Integer-only RatMat construction against a Fraction-lcm reference."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from heckeforge.ratmat import RatMat, j_embed

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
    _same(j_embed(g), _reference(block))
