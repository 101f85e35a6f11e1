"""The gcd route to rational functions in s, kept as a test oracle.

The library builds every ``RatFunc`` from partial fractions at known roots.
This module is the independent route it is checked against: reduce P/Q by
a Euclidean polynomial gcd and find the poles by rational-root trial
division.  Residues at simple poles come from the reduced P/Q by the
usual formula, not from the split.  ``partial_fractions`` splits a
reduced or unreduced P/Q at roots already known, by a Taylor shift at each
root in ``Fraction`` arithmetic.  ``multiply_out`` and ``render`` are the
``Fraction`` route back from the split that the library's integer
expansion is checked against.
"""

from __future__ import annotations

from fractions import Fraction

from qzeta import Poly, RatFunc


def _monic_product(roots) -> list[Fraction]:
    """Ascending coefficients of prod (s - a)^m over ``roots`` {a: m}."""
    out = [Fraction(1)]
    for a, m in roots.items():
        for _ in range(m):
            out = _times_linear(out, a)
    return out


def _times_linear(cs: list[Fraction], a: Fraction) -> list[Fraction]:
    """The coefficients of cs(s) * (s - a)."""
    return [-a * cs[0], *(cs[i - 1] - a * cs[i] for i in range(1, len(cs))), cs[-1]]


def _horner(cs, a: Fraction) -> tuple[list[Fraction], Fraction]:
    """(quotient coefficients, remainder) of cs(s) by s - a."""
    out = []
    acc = Fraction(0)
    for c in reversed(cs):
        out.append(acc)
        acc = acc * a + c
    return out[:0:-1], acc


def partial_fractions(p: Poly, roots) -> tuple[Poly, dict[Fraction, list[Fraction]]]:
    """Split p / prod (s - a)^m over ``roots`` {a: m} at those known roots.

    Returns the polynomial part and, at each root a, [c1, ..., cm] with ck
    the coefficient of 1/(s - a)^k: the arguments of
    ``RatFunc.from_partial_fractions``.  With the denominator written
    (s - a)^m g(s) and t = s - a, ck is the coefficient of t^(m-k) in
    p(a + t) / g(a + t): p(a + t) comes from m Horner divisions by s - a,
    g(a + t) = prod_{b != a} (t + a - b)^(m_b) is multiplied out to order m,
    and one short power-series division follows, since g(a) != 0.  A
    polynomial division runs only to take off a polynomial part.  p need
    not be reduced against the denominator: trailing zeros then stand in
    the coefficient lists.
    """
    total = sum(roots.values())
    if len(p.coeffs) <= total:
        quot = Poly()
    elif total:
        quot = p.divmod(Poly(_monic_product(roots)))[0]
    else:
        quot = p
    parts = {}
    for a, m in roots.items():
        top = []
        q = p.coeffs
        for _ in range(m):
            q, rem = _horner(q, a)
            top.append(rem)
        g = [Fraction(1)]
        for b, mb in roots.items():
            if b != a:
                for _ in range(mb):
                    g = _times_linear(g, b - a)[:m]
        g += [Fraction(0)] * (m - len(g))
        h: list[Fraction] = []
        for j in range(m):
            h.append((top[j] - sum(h[i] * g[j - i] for i in range(j))) / g[0])
        parts[a] = h[::-1]
    return quot, parts


def monic(p: Poly) -> Poly:
    return p if p.is_zero else p * (1 / p.lead)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (zero when both are zero)."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return monic(a)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(p: Poly) -> dict[Fraction, int]:
    """All rational roots of a nonzero p with multiplicities, by trial division."""
    assert not p.is_zero, "zero polynomial has every root"
    roots: dict[Fraction, int] = {}
    while p.degree >= 1:
        prim, _ = p.integer_cleared()
        a0 = abs(prim.coeffs[0].numerator)
        an = abs(prim.lead.numerator)
        candidates = [Fraction(0)] if a0 == 0 else (
            Fraction(sgn * num, den)
            for num in _divisors(a0)
            for den in _divisors(an)
            for sgn in (1, -1)
        )
        found = next((c for c in candidates if prim.eval(c) == 0), None)
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        p = p // Poly.linear_form(-found, 1)
    return roots


def reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den in lowest terms with a monic denominator, by the gcd."""
    if den.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero:
        return Poly(), Poly.const(1)
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    return num * (1 / den.lead), monic(den)


def fraction_sum(fracs) -> tuple[Poly, Poly]:
    """The reduced sum of num/den over pairs (num, den), reduced at each step."""
    num, den = Poly(), Poly.const(1)
    for n, d in fracs:
        num, den = reduce(num * d + n * den, den * d)
    return num, den


def ratfunc(num: Poly, den: Poly) -> RatFunc:
    """The RatFunc equal to num/den, reduced and factored by this oracle and
    built through its split at those roots."""
    num, den = reduce(num, den)
    roots = rational_roots(den)
    assert sum(roots.values()) == den.degree, "denominator does not split over Q"
    z = RatFunc.from_partial_fractions(*partial_fractions(num, roots))
    assert (z.num, z.den) == (num, den)
    return z


def simple_residue(num: Poly, roots: dict[Fraction, int], s0) -> Fraction:
    """Residue of num / prod (s - s1)^m over ``roots`` at a simple pole s0:
    num(s0) / prod over s1 != s0 of (s0 - s1)^m."""
    rest = Fraction(1)
    for s1, mult in roots.items():
        if s1 != s0:
            rest *= (s0 - s1) ** mult
    return num.eval(s0) / rest


def multiply_out(z: RatFunc) -> tuple[Poly, Poly]:
    """(num, den) of z in ``Fraction`` arithmetic: den is the product of
    (s - s0)^order over the poles, each part's cofactor comes from Horner
    division of den by s - s0, and num vanishes at no pole."""
    poly, parts = z._poly.coeffs, z._parts
    den = _monic_product({s0: len(cs) for s0, cs in parts.items()})
    num = [Fraction(0)] * (len(den) + max(len(poly), 1) - 1)
    for i, c in enumerate(poly):
        for j, d in enumerate(den):
            num[i + j] += c * d
    for s0, cs in parts.items():
        cof = den
        for c in cs:
            cof = _horner(cof, s0)[0]
            for i, x in enumerate(cof):
                num[i] += c * x
    return Poly(num), Poly(den)


def render(z: RatFunc, var: str = "s") -> str:
    """The canonical string of z from ``multiply_out``: the numerator's and
    each monic factor's integer content cleared through ``Poly``."""
    if z.is_zero:
        return "0"
    nprim, ncont = multiply_out(z)[0].integer_cleared()
    # monic den = prod (s - root)^mult = extra * prod(primitive factors)
    factors = []
    extra = Fraction(1)
    for root, mult in sorted(z.poles().items(), reverse=True):
        prim, cont = Poly([-root, 1]).integer_cleared()
        body = f"({prim.render(var)})"
        factors.append(body if mult == 1 else f"{body}^{mult}")
        extra *= cont**mult
    content = ncont / extra
    # a primitive numerator of degree 0 is 1
    num_str = f"({nprim.render(var)})" if nprim.degree >= 1 else "1"
    if content.numerator != 1:
        num_str = f"{content.numerator}{'' if num_str == '1' else num_str}"
    den_parts = [] if content.denominator == 1 else [str(content.denominator)]
    den_parts += factors
    if not den_parts:
        return num_str
    den_str = "".join(den_parts)
    if len(den_parts) > 1:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"
