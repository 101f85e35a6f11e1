from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ratfunc_oracle import (
    fraction_sum,
    multiply_out,
    partial_fractions,
    poly_gcd,
    ratfunc,
    rational_roots,
    render,
    simple_residue,
)

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


def test_poly_gcd_and_roots():
    # the oracle's own gcd and trial-division roots
    p = lin(1, 1) * lin(1, 1) * lin(7, 6)
    g = poly_gcd(p, lin(1, 1) * lin(8, 5))
    assert g == lin(1, 1)
    roots = rational_roots(p)
    assert roots == {Fraction(-1): 2, Fraction(-7, 6): 1}
    assert rational_roots(lin(0, 1) * lin(0, 1) * lin(3, 2)) == {0: 2, Fraction(-3, 2): 1}


def test_ratfunc_reduction_and_equality():
    z = ratfunc(lin(3, 0) * lin(1, 1), lin(1, 1) * lin(2, 1) * lin(1, 1))
    w = ratfunc(Poly.const(3), lin(2, 1) * lin(1, 1))
    assert z == w
    assert z == RatFunc.from_partial_fractions(0, {-1: (3,), -2: (-3,)})
    assert RatFunc.const(Fraction(6, 4)) == Fraction(3, 2)
    assert RatFunc.zero() == 0 and RatFunc.zero().is_zero
    assert z * 2 == 2 * z == RatFunc.from_partial_fractions(0, {-1: (6,), -2: (-6,)})
    assert (z * 0).is_zero and (z * 0).poles() == {}


def test_ratfunc_poles_and_residue():
    z = ratfunc(lin(7, 3), lin(1, 1) * lin(7, 6) * Poly.const(4))
    assert z.poles() == {Fraction(-1): 1, Fraction(-7, 6): 1}
    assert z.residue(Fraction(-7, 6)) == Fraction(-7, 8)
    assert z.residue(Fraction(-2)) == 0
    with pytest.raises(InputError):
        (ratfunc(Poly.const(1), lin(1, 1) * lin(1, 1))).residue(-1)


def test_render_canonical_fixtures():
    z1 = ratfunc(lin(7, 3), Poly.const(4) * lin(1, 1) * lin(7, 6))
    assert z1.render() == "(3s+7)/(4(s+1)(6s+7))"
    z2 = ratfunc(Poly.const(1), Poly.const(6) * lin(1, 1))
    assert z2.render() == "1/(6(s+1))"
    z3 = ratfunc(lin(32, 29), Poly.const(12) * lin(1, 1) * lin(8, 5))
    assert z3.render() == "(29s+32)/(12(s+1)(5s+8))"
    sq = ratfunc(lin(4, 6), lin(1, 2) * lin(1, 2))
    assert sq.render() == "2(3s+2)/(2s+1)^2"
    # a content of -1 keeps its "-1(" form
    minus = RatFunc.from_partial_fractions(0, {-1: (2,), -2: (-3,)})
    assert minus.render() == "-1(s-1)/((s+1)(s+2))"


def test_render_constant_and_zero():
    assert RatFunc.const(Fraction(3, 2)).render() == "3/2"
    assert RatFunc.zero().render() == "0"
    assert ratfunc(Poly.const(4), lin(1, 1) * lin(1, 1)).render() == "4/(s+1)^2"


def test_from_partial_fractions_fixture():
    # 3/(s+1) - 2/(s+1)^2 + 1/(s+7/6) + 1/2, with a dropped zero part
    z = RatFunc.from_partial_fractions(
        Fraction(1, 2), {-1: (3, -2), Fraction(-7, 6): (1, 0), 5: (0, 0)}
    )
    expected = ratfunc(*fraction_sum([
        (Poly.const(3), lin(1, 1)),
        (Poly.const(-2), lin(1, 1) * lin(1, 1)),
        (Poly.const(6), lin(7, 6)),
        (Poly.const(Fraction(1, 2)), Poly.const(1)),
    ]))
    assert z == expected
    assert z.poles() == {Fraction(-1): 2, Fraction(-7, 6): 1}
    assert z.residue(Fraction(-7, 6)) == 1
    assert z.render() == expected.render()
    assert RatFunc.from_partial_fractions(0, {1: (0, 0)}) == RatFunc.zero()
    assert RatFunc.from_partial_fractions(Fraction(3, 2), {}).render() == "3/2"
    # a polynomial part and a pole of order 3: s - 1 + 5/s^3
    cube = RatFunc.from_partial_fractions(Poly([-1, 1]), {0: (0, 0, 5, 0)})
    assert cube == ratfunc(Poly([5, 0, 0, -1, 1]), Poly([0, 0, 0, 1]))
    assert cube.poles() == {0: 3}
    assert cube.render() == "(s^4-s^3+5)/(s)^3"


small = st.fractions(min_value=-6, max_value=6, max_denominator=6)

# primes of 64 to 512 bits: their ratios are roots and coefficients in
# lowest terms with large numerators and denominators
BIG_PRIMES = (
    2**64 - 59, 2**89 - 1, 2**107 - 1, 2**127 - 1,
    2**128 - 159, 2**255 - 19, 2**256 - 189, 2**512 - 569,
)
prime_ratio = st.builds(
    lambda p, q, sign: Fraction(sign * p, q),
    st.sampled_from(BIG_PRIMES),
    st.sampled_from(BIG_PRIMES),
    st.sampled_from((1, -1)),
)
mixed = st.one_of(small, prime_ratio)
P64, P255, P512 = 2**64 - 59, 2**255 - 19, 2**512 - 569


@settings(max_examples=120, deadline=None)
@example(const=[], parts={-1: [2], -2: [-3]})  # content -1: "-1(s-1)/((s+1)(s+2))"
@example(const=[-1, 1], parts={0: [0, 0, 5, 0]})  # the cube: s - 1 + 5/s^3
@example(
    const=[Fraction(P255, P64), -1],
    parts={Fraction(-P512, P255): [Fraction(P64, P512), 3], Fraction(P64, P512): [-1]},
)
@given(
    const=st.lists(mixed, max_size=3),
    parts=st.dictionaries(mixed, st.lists(mixed, max_size=3), max_size=4),
)
def test_integer_expansion_matches_fraction_oracle(const, parts):
    # render, num and den from the integer expansion against the Fraction
    # multiply-out, whichever of them is read first
    z = RatFunc.from_partial_fractions(Poly(const), parts)
    text = z.render()
    assert text == render(z)
    assert (z.num, z.den) == multiply_out(z)
    w = RatFunc.from_partial_fractions(Poly(const), parts)
    assert (w.num, w.den) == multiply_out(z) and w.render() == text


def test_render_num_den_read_one_integer_expansion(monkeypatch):
    # render, num and den share one integer expansion, built once, and
    # reading again expands nothing
    import qzeta.ratfunc

    calls = dict.fromkeys(("_times_form", "_divide_form"), 0)

    def count(name):
        inner = getattr(qzeta.ratfunc, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(qzeta.ratfunc, name, counted)

    for name in calls:
        count(name)
    parts = {0: (0, 0, 5), Fraction(-7, 6): (1, -2)}
    z = RatFunc.from_partial_fractions(Poly([-1, 1]), parts)
    text = z.render()
    # one product factor per pole order, one division per part
    expected = {"_times_form": 5, "_divide_form": 5}
    assert calls == expected
    num, den = z.num, z.den
    assert z.render() == text
    assert calls == expected
    w = RatFunc.from_partial_fractions(Poly([-1, 1]), parts)
    assert (w.num, w.den) == (num, den) and w.render() == text
    assert calls == {name: 2 * n for name, n in expected.items()}


@settings(max_examples=150, deadline=None)
@given(
    const=st.lists(small, max_size=3),
    parts=st.dictionaries(small, st.lists(small, max_size=3), max_size=4),
    s=small,
    scale=small.filter(bool),
)
def test_from_partial_fractions_round_trip(const, parts, s, scale):
    z = RatFunc.from_partial_fractions(Poly(const), parts)
    # the gcd route is the oracle for the reduced P/Q and its roots
    fracs = [(Poly(const), Poly.const(1))]
    for s0, cs in parts.items():
        x = Poly.linear_form(-s0, 1)
        for k, c in enumerate(cs, 1):
            fracs.append((Poly.const(c), _power(x, k)))
    general = ratfunc(*fraction_sum(fracs))
    assert z == general
    # equal values from other routes hash alike: padded with zero
    # coefficients, and through the oracle's gcd route
    padded = RatFunc.from_partial_fractions(
        Poly([*const, 0]), {**{s: [0]}, **{s0: [*cs, 0] for s0, cs in parts.items()}}
    )
    assert padded == z and hash(padded) == hash(z) == hash(general)
    roots = rational_roots(general.den)
    assert z.poles() == general.poles() == roots
    for s0 in roots:
        with pytest.raises(ZeroDivisionError):
            z.eval(s0)
    # residues against the formula on the reduced P/Q, and under scaling
    scaled = z * scale
    assert scaled == ratfunc(general.num * scale, general.den)
    assert scaled.poles() == z.poles()
    assert z.is_zero or scaled.lead == scale * z.lead
    for s0, order in roots.items():
        if order == 1:
            assert z.residue(s0) == simple_residue(general.num, roots, s0)
            assert scaled.residue(s0) == scale * z.residue(s0)
    # splitting P/Q again at the known roots gives back the trimmed parts
    poly, split = partial_fractions(z.num, z.poles())
    assert poly == Poly(const)
    trimmed = {s0: cs for s0, cs in parts.items() if any(cs)}
    assert split == {s0: cs[: len(split[s0])] for s0, cs in trimmed.items()}
    if s in parts:
        return
    direct = Poly(const).eval(s) + sum(
        c / (s - s0) ** k for s0, cs in parts.items() for k, c in enumerate(cs, 1)
    )
    assert z.eval(s) == direct


def _power(p, k):
    out = Poly.const(1)
    for _ in range(k):
        out = out * p
    return out


def test_partial_fractions_of_an_unreduced_quotient():
    # (s+1)(s-2)/((s+1)^2 (s-2)^2) = 1/((s+1)(s-2)); the unreduced split
    # carries trailing zeros that from_partial_fractions trims
    poly, parts = partial_fractions(lin(1, 1) * lin(-2, 1), {-1: 2, 2: 2})
    assert poly.is_zero
    assert parts == {-1: [Fraction(-1, 3), 0], 2: [Fraction(1, 3), 0]}
    z = RatFunc.from_partial_fractions(poly, parts)
    assert z == ratfunc(Poly.const(1), lin(1, 1) * lin(-2, 1))
    # a polynomial part from the division: s^3 / (s - 1) = s^2 + s + 1 + 1/(s - 1)
    poly, parts = partial_fractions(Poly([0, 0, 0, 1]), {1: 1})
    assert poly == Poly([1, 1, 1]) and parts == {1: [1]}


def test_list_kernels_match_gcd_oracle():
    # partial_fractions and from_partial_fractions against the gcd route:
    # roots of multiplicity 1 to 3, no roots at all, numerators with a
    # polynomial part, and numerators sharing a root with the denominator,
    # whose split carries trailing zeros
    import random

    rng = random.Random(5)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    seen = set()
    for _ in range(80):
        roots = {frac(): rng.randint(1, 3) for _ in range(rng.randint(0, 3))}
        total = sum(roots.values())
        den = Poly.const(1)
        for a, m in roots.items():
            den = den * _power(Poly.linear_form(-a, 1), m)
        num = Poly([frac() for _ in range(rng.randint(0, total + 2))])
        if roots and rng.random() < 0.3:
            num = num * Poly.linear_form(-next(iter(roots)), 1)
        poly, parts = partial_fractions(num, roots)
        assert {a: len(cs) for a, cs in parts.items()} == roots
        assert poly == num.divmod(den)[0]
        z = RatFunc.from_partial_fractions(poly, parts)
        expected = ratfunc(num, den)
        assert z == expected and z.poles() == expected.poles()
        # the same parts through the gcd route, with trailing zeros appended
        padded = {a: [*cs, *[0] * rng.randint(0, 2)] for a, cs in parts.items()}
        fracs = [(poly, Poly.const(1))] + [
            (Poly.const(c), _power(Poly.linear_form(-a, 1), k))
            for a, cs in padded.items()
            for k, c in enumerate(cs, 1)
        ]
        assert RatFunc.from_partial_fractions(poly, padded) == ratfunc(*fraction_sum(fracs))
        seen.add(("roots", min(total, 1)))
        seen.update(("mult", m) for m in roots.values())
        seen.add(("poly part", not poly.is_zero))
        seen.add(("trailing zero", any(cs and cs[-1] == 0 for cs in parts.values())))
    assert seen == {
        ("roots", 0), ("roots", 1), ("mult", 1), ("mult", 2), ("mult", 3),
        ("poly part", False), ("poly part", True),
        ("trailing zero", False), ("trailing zero", True),
    }
