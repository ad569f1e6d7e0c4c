"""The exact layer of the root pipeline: Yun's square-free split over Z[x]."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperee._poly import _div_exact, gcd_int, squarefree_decomposition

X = sympy.Symbol("x")


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monic(p: list) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) / p[-1] for c in p)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# ascending coefficients of degree 1..3 with a nonzero leading coefficient
rational_polys = st.tuples(
    st.lists(fractions, min_size=1, max_size=3),
    fractions.filter(lambda c: c != 0),
).map(lambda t: [*t[0], t[1]])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(rational_polys, st.integers(1, 4)), min_size=1, max_size=3),
       fractions.filter(lambda c: c != 0))
def test_squarefree_split_matches_sympy(factors, scale):
    """On products scale * prod f_i^e_i, the split equals sympy's sqf_list
    multiplicity by multiplicity (factors compared monic), and
    prod factor^mult rebuilds p up to a constant."""
    p = [scale]
    for f, e in factors:
        for _ in range(e):
            p = _mul(p, f)
    got = squarefree_decomposition(p)
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                      X, domain="QQ")
    want = {
        mult: _monic([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])
        for f, mult in poly.sqf_list()[1]
    }
    assert {mult: _monic(f) for f, mult in got} == want
    assert len(got) == len(want)
    rebuilt = [Fraction(1)]
    for f, mult in got:
        assert all(isinstance(c, int) for c in f)
        for _ in range(mult):
            rebuilt = _mul(rebuilt, f)
    assert _monic(rebuilt) == _monic(p)


def test_squarefree_factors_are_primitive_integer_polynomials():
    """(x - 1/2)^2 (x + 3) splits into 2x - 1 twice and x + 3 once."""
    p = _mul(_mul([Fraction(-1, 2), 1], [Fraction(-1, 2), 1]), [3, 1])
    assert squarefree_decomposition(p) == [([3, 1], 1), ([-1, 2], 2)]


def test_gcd_is_primitive_with_positive_lead():
    # (2x + 2)(x - 3) and -(4x + 4)(x + 5) share x + 1
    assert gcd_int([-6, -4, 2], [-20, -24, -4]) == [1, 1]
    assert gcd_int([], [0, -3]) == [0, 1]
    assert gcd_int([], []) == []


def test_exact_division_refuses_a_remainder():
    assert _div_exact([-2, 1, 1], [-1, 1]) == [2, 1]
    with pytest.raises(ArithmeticError):
        _div_exact([1, 0, 1], [-1, 1])
