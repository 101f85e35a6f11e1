from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qzeta import Poly, RatFunc
from qzeta.errors import InputError


def lin(nu, N):
    return Poly.linear_form(Fraction(nu), Fraction(N))


def test_poly_arithmetic():
    p = lin(7, 6) * lin(1, 1)
    assert p.coeffs == (Fraction(7), Fraction(13), Fraction(6))
    q, r = p.divmod(lin(1, 1))
    assert r.is_zero and q == lin(7, 6)
    assert p.eval(Fraction(-1)) == 0
    assert p.derivative() == Poly([13, 12])


def test_poly_gcd_and_roots():
    p = lin(1, 1) * lin(1, 1) * lin(7, 6)
    g = p.gcd(lin(1, 1) * lin(8, 5))
    assert g == lin(1, 1).monic()
    roots = p.rational_roots()
    assert roots == {Fraction(-1): 2, Fraction(-7, 6): 1}


def test_ratfunc_reduction_and_equality():
    z = RatFunc(lin(3, 0) * lin(1, 1), lin(1, 1) * lin(2, 1) * lin(1, 1))
    w = RatFunc(Poly.const(3), lin(2, 1) * lin(1, 1))
    assert z == w
    assert (z - w).is_zero
    assert z + RatFunc.zero() == z


def test_ratfunc_poles_and_residue():
    z = RatFunc(lin(7, 3), lin(1, 1) * lin(7, 6) * Poly.const(4))
    assert z.poles() == {Fraction(-1): 1, Fraction(-7, 6): 1}
    assert z.pole_order(Fraction(-1)) == 1
    assert z.residue(Fraction(-7, 6)) == Fraction(-7, 8)
    assert z.residue(Fraction(-2)) == 0
    with pytest.raises(InputError):
        (RatFunc(Poly.const(1), lin(1, 1) * lin(1, 1))).residue(-1)


def test_render_canonical_fixtures():
    z1 = RatFunc(lin(7, 3), Poly.const(4) * lin(1, 1) * lin(7, 6))
    assert z1.render() == "(3s+7)/(4(s+1)(6s+7))"
    z2 = RatFunc(Poly.const(1), Poly.const(6) * lin(1, 1))
    assert z2.render() == "1/(6(s+1))"
    z3 = RatFunc(lin(32, 29), Poly.const(12) * lin(1, 1) * lin(8, 5))
    assert z3.render() == "(29s+32)/(12(s+1)(5s+8))"
    sq = RatFunc(lin(4, 6), lin(1, 2) * lin(1, 2))
    assert sq.render() == "2(3s+2)/(2s+1)^2"


def test_render_constant_and_zero():
    assert RatFunc.const(Fraction(3, 2)).render() == "3/2"
    assert RatFunc.zero().render() == "0"
    assert RatFunc(Poly.const(4), lin(1, 1) * lin(1, 1)).render() == "4/(s+1)^2"


def test_from_partial_fractions_fixture():
    # 3/(s+1) - 2/(s+1)^2 + 1/(s+7/6) + 1/2, with a dropped zero part
    z = RatFunc.from_partial_fractions(
        Fraction(1, 2), {-1: (3, -2), Fraction(-7, 6): (1, 0), 5: (0, 0)}
    )
    expected = (
        RatFunc(Poly.const(3), lin(1, 1))
        + RatFunc(Poly.const(-2), lin(1, 1) * lin(1, 1))
        + RatFunc(Poly.const(6), lin(7, 6))
        + RatFunc.const(Fraction(1, 2))
    )
    assert z == expected
    assert z.poles() == {Fraction(-1): 2, Fraction(-7, 6): 1}
    assert z.residue(Fraction(-7, 6)) == 1
    assert z.render() == expected.render()
    assert RatFunc.from_partial_fractions(0, {1: (0, 0)}) == RatFunc.zero()
    assert RatFunc.from_partial_fractions(Fraction(3, 2), {}).render() == "3/2"


small = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(
    const=small,
    parts=st.dictionaries(small, st.tuples(small, small), max_size=5),
    s=small,
)
def test_from_partial_fractions_round_trip(const, parts, s):
    z = RatFunc.from_partial_fractions(const, parts)
    # the gcd route is the oracle for the reduced P/Q and its roots
    general = RatFunc.const(const)
    for s0, (c1, c2) in parts.items():
        x = Poly.linear_form(-s0, 1)
        general = general + RatFunc(Poly.const(c1), x) + RatFunc(Poly.const(c2), x * x)
    assert z == general
    assert z.poles() == general.poles()
    if s in parts:
        return
    direct = const + sum(c1 / (s - s0) + c2 / (s - s0) ** 2 for s0, (c1, c2) in parts.items())
    assert z.eval(s) == direct
