"""Computations made apart from heckeforge, for checking its outputs.

Everything here is floating point or plain integer work written for the
benchmark; it reads program objects only through their attributes
(`Cyclo.m`, `Cyclo.c`, `chi.exps`) and public functions
(`gauss.unit_group_generators`).
"""

import cmath
from fractions import Fraction
from math import gcd

TOL = 1e-9


class CheckError(AssertionError):
    """A program output failed one of the benchmark's checks."""


def require(cond, what):
    if not cond:
        raise CheckError(what)


def e(x):
    """exp(2 pi i x) for a rational x."""
    x = Fraction(x)
    return cmath.exp(2j * cmath.pi * (x.numerator % x.denominator) / x.denominator)


def to_complex(x):
    """A Cyclo (or a rational) as a complex number.

    Reads the power-basis coefficients `x.c` at conductor `x.m`.  An
    element without them is read through `to_json()`, the public
    serialisation, which is exact but slow at large conductors."""
    if isinstance(x, (int, Fraction)):
        return complex(Fraction(x))
    try:
        m, coeffs = x.m, x.c
    except AttributeError:
        blob = x.to_json()
        m, coeffs = blob["m"], blob["coeffs"]
    return sum(float(Fraction(c)) * e(Fraction(k, m))
               for k, c in enumerate(coeffs))


def close(a, b, what, tol=TOL):
    """|a - b| <= tol * max(1, |b|)."""
    require(abs(a - b) <= tol * max(1.0, abs(b)),
            f"{what}: {a!r} != {b!r}")


def char_values(p, s, gens, exps, h=1, j=0):
    """chi(a) for every unit a mod p^s, by the benchmark's own discrete
    log over the generator list `gens` = [(g, order), ...]: a character
    sends g_i to exp(2 pi i e_i / order_i).  With h > 1, also the class
    group part: (c, a) -> exp(2 pi i j c / h) chi(a), keyed by (c, a)."""
    mod = p ** s
    vals = {1 % mod: 1 + 0j}
    for (g, order), k in zip(gens, exps):
        step = e(Fraction(k, order))
        new = {}
        for a, v in vals.items():
            x, w = a, v
            for _ in range(order):
                new[x] = w
                x = x * g % mod
                w *= step
        vals = new
    require(len(vals) == phi(mod), f"generators do not span (Z/{mod})^*")
    if h == 1:
        return vals
    return {(c, a): e(Fraction(j * c, h)) * v
            for c in range(h) for a, v in vals.items()}


def phi(m):
    return sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)
