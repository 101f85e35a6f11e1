"""Clearing denominators, kept as a test oracle for Hodge equality.

The library decides ``HodgeExpr.is_zero`` by progressive summation with
exact division by each factor.  This module is the independent route it is
checked against: multiply every term out to the union multiset of factors
(per-factor maximum multiplicity) and compare monomial dictionaries.  The
cost grows like 2^n in n distinct factors, so keep the inputs small.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm


def cleared_numerator(expr) -> dict:
    """Numerator of a ``HodgeExpr`` over the union denominator.

    Exponents are scaled to a common integer denominator first so the
    dictionary arithmetic runs on integer keys.
    """
    common: Counter = Counter()
    per_term = []
    for t in expr.terms:
        cnt = Counter(t.den)
        per_term.append(cnt)
        for f, k in cnt.items():
            common[f] = max(common[f], k)
    scale = 1
    for t in expr.terms:
        for (A, B, _g), _c in t.num:
            scale = lcm(scale, A.denominator, B.denominator)
    for N, nu in common:
        scale = lcm(scale, N.denominator, nu.denominator)

    def key(A, B, g):
        return (int(A * scale), int(B * scale), g)

    total: dict = {}
    for t, cnt in zip(expr.terms, per_term):
        part = {key(A, B, g): c for (A, B, g), c in t.num}
        for f, k in common.items():
            fk = key(f[1], f[0], 0)
            for _ in range(k - cnt.get(f, 0)):
                out: dict = {}
                for (i, j, g), c in part.items():
                    for k1, c1 in (((i + fk[0], j + fk[1], g), c), ((i, j, g), -c)):
                        out[k1] = out.get(k1, 0) + c1
                part = out
        for kk, c in part.items():
            v = total.get(kk, 0) + c
            if v:
                total[kk] = v
            else:
                total.pop(kk, None)
    return {
        (Fraction(i, scale), Fraction(j, scale), g): c
        for (i, j, g), c in total.items()
        if c
    }


def is_zero(expr) -> bool:
    return not cleared_numerator(expr)
