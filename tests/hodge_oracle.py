"""Clearing denominators, kept as a test oracle for Hodge equality.

The library decides ``HodgeExpr.is_zero`` by progressive summation with
exact division by each factor.  This module is the independent route it is
checked against: multiply every term out to the union multiset of factors
(per-factor maximum multiplicity) and compare monomial dictionaries.  The
cost grows like 2^n in n distinct factors, so keep the inputs small.

It also maps expressions written with rational exponents onto the integer
lattice the library keys its terms on, and back.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from qzeta.hodge import HodgeExpr, HodgeTerm


def lattice(terms) -> HodgeExpr:
    """HodgeExpr of (num, den) pairs: num maps (A, B, g) to a coefficient
    for c (uv)^(A + B*s) (u+v)^g, den lists the factors (N, nu).  The scale
    is the lcm of every exponent denominator."""
    terms = [
        ({(Fraction(A), Fraction(B), g): c for (A, B, g), c in num.items()},
         [(Fraction(N), Fraction(nu)) for N, nu in den])
        for num, den in terms
    ]
    r = lcm(*(x.denominator for num, den in terms for A, B, _g in num for x in (A, B)),
            *(x.denominator for num, den in terms for f in den for x in f))

    def on(x):
        return int(x * r)

    return HodgeExpr(
        tuple(
            HodgeTerm(
                tuple(((on(A), on(B), g), c) for (A, B, g), c in num.items()),
                tuple((on(nu), on(N)) for N, nu in den),
            )
            for num, den in terms
        ),
        r,
    )


def fraction_terms(expr) -> list:
    """The terms of a HodgeExpr as the (num, den) pairs :func:`lattice` takes."""
    r = expr.r
    out = []
    for t in expr.terms:
        num: dict = {}
        for (x, y, g), c in t.num:
            key = (Fraction(x, r), Fraction(y, r), g)
            num[key] = num.get(key, 0) + c
        out.append((num, [(Fraction(b, r), Fraction(a, r)) for a, b in t.den]))
    return out


def cleared_numerator(expr) -> dict:
    """Numerator of a ``HodgeExpr`` over the union denominator, keyed by
    the rational exponents (x/r, y/r, g) of its integer keys."""
    common: Counter = Counter()
    per_term = []
    for t in expr.terms:
        cnt = Counter(t.den)
        per_term.append(cnt)
        for f, k in cnt.items():
            common[f] = max(common[f], k)
    total: dict = {}
    for t, cnt in zip(expr.terms, per_term):
        part: dict = {}
        for key, c in t.num:
            part[key] = part.get(key, 0) + c
        for (a, b), k in common.items():
            for _ in range(k - cnt.get((a, b), 0)):
                out: dict = {}
                for (i, j, g), c in part.items():
                    for k1, c1 in (((i + a, j + b, g), c), ((i, j, g), -c)):
                        out[k1] = out.get(k1, 0) + c1
                part = out
        for kk, c in part.items():
            v = total.get(kk, 0) + c
            if v:
                total[kk] = v
            else:
                total.pop(kk, None)
    r = expr.r
    return {
        (Fraction(i, r), Fraction(j, r), g): c
        for (i, j, g), c in total.items()
        if c
    }


def is_zero(expr) -> bool:
    return not cleared_numerator(expr)
