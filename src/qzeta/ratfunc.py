"""Exact univariate rational functions over Q in the variable s.

Every ``RatFunc`` is built from its partial fractions at known roots by
``RatFunc.from_partial_fractions``: the poles of a zeta function are roots
-nu/N of known linear forms nu + N*s, and the library's callers produce the
split directly, so neither a polynomial gcd nor root finding is ever
needed.  A ``RatFunc`` is its partial fractions and nothing else:
equality, hashing, evaluation and scaling read them, ``poles`` reads the
orders off them and ``residue`` the coefficient of 1/(s - s0).  The way
back is one integer expansion over the primitive factors q*s - p of the
poles p/q, read by ``render``, ``num`` and ``den`` and built once per
value.  ``Poly`` is the value type of polynomial parts and of ``num`` and
``den``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Dense polynomial over Q, coefficients in ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def _of_ints(cls, coeffs) -> "Poly":
        """The polynomial over integer ``coeffs`` with a nonzero lead, kept
        as ints: equal and rendered alike, and quicker to render."""
        self = cls.__new__(cls)
        self.coeffs = tuple(coeffs)
        return self

    @classmethod
    def linear_form(cls, nu, N) -> "Poly":
        """The form nu + N*s."""
        return cls([nu, N])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.lead
        dn = other.degree
        while len(rem) - 1 >= dn and rem:
            shift = len(rem) - 1 - dn
            factor = rem[-1] / dlead
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def eval(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def integer_cleared(self) -> tuple["Poly", Fraction]:
        """(primitive integer polynomial with positive lead, content)."""
        if self.is_zero:
            return self, Fraction(0)
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [c * den for c in self.coeffs]
        num = 0
        for c in ints:
            num = gcd(num, c.numerator)
        sign = -1 if ints[-1] < 0 else 1
        prim = Poly([c / (sign * num) for c in ints])
        return prim, Fraction(sign * num, den)

    def render(self, var: str = "s") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                term = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+{term}" if c > 0 else f"-{term}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self.render()})"


class RatFunc:
    """A rational function held as its partial fractions.

    The state is the polynomial part and ``_parts``, which maps each pole s0
    to its trimmed coefficients (c1, ..., cm) of 1/(s - s0)^k, m being the
    order and cm != 0.  The split is unique, so ``==``, ``hash``,
    ``is_zero``, ``eval`` and scaling read this state alone.  ``render``,
    ``num`` and ``den`` (the reduced P/Q with monic Q) read one integer
    expansion over primitive factors q*s - p, built on first use.
    """

    __slots__ = ("_poly", "_parts", "_expanded", "_reduced")

    @classmethod
    def from_partial_fractions(cls, const, parts) -> "RatFunc":
        """const + sum over s0 of c1/(s - s0) + ... + cm/(s - s0)^m.

        ``const`` is a number or the polynomial part as a ``Poly``;
        ``parts`` maps each s0 to (c1, ..., cm).  Trailing zero coefficients
        are trimmed, so every kept s0 is a pole of order m with cm != 0.
        """
        trimmed = {}
        for s0, cs in parts.items():
            cs = [_frac(c) for c in cs]
            while cs and cs[-1] == 0:
                cs.pop()
            if cs:
                trimmed[_frac(s0)] = cs
        self = cls.__new__(cls)
        self._poly = const if isinstance(const, Poly) else Poly((const,))
        self._parts, self._expanded, self._reduced = trimmed, None, None
        return self

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls.from_partial_fractions(c, {})

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.from_partial_fractions(0, {})

    @property
    def is_zero(self) -> bool:
        return self._poly.is_zero and not self._parts

    @property
    def lead(self) -> Fraction:
        """cm at the largest pole, else the polynomial part's lead: it scales with z."""
        if self._parts:
            return self._parts[max(self._parts)][-1]
        return self._poly.lead

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return False
        return self._poly == other._poly and self._parts == other._parts

    def __hash__(self):
        return hash((self._poly, frozenset((s0, tuple(cs)) for s0, cs in self._parts.items())))

    def __mul__(self, c):
        """The product with a rational scalar c."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return RatFunc.from_partial_fractions(
            self._poly * c, {s0: [x * c for x in cs] for s0, cs in self._parts.items()}
        )

    __rmul__ = __mul__

    def eval(self, x) -> Fraction:
        x = _frac(x)
        if x in self._parts:
            raise ZeroDivisionError(f"pole at {x}")
        return self._poly.eval(x) + sum(
            c / (x - s0) ** k for s0, cs in self._parts.items() for k, c in enumerate(cs, 1)
        )

    @property
    def num(self) -> Poly:
        return self._num_den()[0]

    @property
    def den(self) -> Poly:
        return self._num_den()[1]

    def _num_den(self) -> tuple[Poly, Poly]:
        """(c G / Q, D / Q) with Q = prod q^m, the lead of D: den is the
        product of (s - s0)^order over the poles and num vanishes at none of
        them, so num/den is reduced."""
        if self._reduced is None:
            content, prim, _factors, d = self._multiply_out()
            per_lead = content / d[-1]
            self._reduced = (
                Poly([per_lead * g for g in prim]),
                Poly([Fraction(x, d[-1]) for x in d]),
            )
        return self._reduced

    def _multiply_out(self) -> tuple[Fraction, list[int], list[tuple[int, int, int]], list[int]]:
        """(c, G, factors, D) with z = c G(s) / D(s) and D = prod (q s - p)^m.

        ``factors`` lists (q, p, m) for each pole p/q of order m, by
        descending pole; D and G are ascending integer coefficients, G
        primitive with a positive lead, and c is the one ``Fraction``
        content.  The part c_k / (s - p/q)^k is c_k q^k D/(q s - p)^k over
        D: each cofactor is an exact integer division of the one before by
        q s - p (Gauss's lemma), and every c_k is put over the lcm L of the
        coefficient denominators, so L z D is a sum of integer polynomials.
        """
        if self._expanded is None:
            if self.is_zero:
                self._expanded = (Fraction(0), [], [], [1])
                return self._expanded
            factors = [
                (s0.denominator, s0.numerator, len(cs))
                for s0, cs in sorted(self._parts.items(), reverse=True)
            ]
            d = [1]
            for q, p, m in factors:
                for _ in range(m):
                    d = _times_form(d, q, p)
            poly = self._poly.coeffs
            scale = lcm(
                *(c.denominator for c in poly),
                *(c.denominator for cs in self._parts.values() for c in cs),
            )
            num = [0] * (len(d) + max(len(poly), 1) - 1)
            for i, a in enumerate(poly):
                a = a.numerator * (scale // a.denominator)
                for j, x in enumerate(d):
                    num[i + j] += a * x
            for s0, cs in self._parts.items():
                q, p = s0.denominator, s0.numerator
                cof, qk = d, 1
                for c in cs:
                    cof = _divide_form(cof, q, p)
                    qk *= q
                    c = c.numerator * qk * (scale // c.denominator)
                    for i, x in enumerate(cof):
                        num[i] += c * x
            while not num[-1]:
                num.pop()
            g = gcd(*num) if num[-1] > 0 else -gcd(*num)
            self._expanded = (Fraction(g, scale), [x // g for x in num], factors, d)
        return self._expanded

    def poles(self) -> dict[Fraction, int]:
        """Poles with their orders."""
        return {s0: len(cs) for s0, cs in self._parts.items()}

    def residue(self, s0) -> Fraction:
        """The coefficient of 1/(s - s0): the residue at a pole of order <= 1
        (0 when s0 is not a pole)."""
        cs = self._parts.get(_frac(s0), (Fraction(0),))
        if len(cs) > 1:
            raise InputError(f"residue at pole of order {len(cs)}")
        return cs[0]

    def render(self, var: str = "s") -> str:
        """Canonical string: integer-cleared content-free P/Q, factored Q.

        The form, a content of -1 printed as ``-1(...)`` included, is pinned
        by the rendered outputs in ``perfbench/digests.json``.
        """
        if self.is_zero:
            return "0"
        content, prim, factors, _d = self._multiply_out()
        # a primitive numerator of degree 0 is 1
        num_str = f"({Poly._of_ints(prim).render(var)})" if len(prim) > 1 else "1"
        if content.numerator != 1:
            num_str = f"{content.numerator}{'' if num_str == '1' else num_str}"
        den_parts = [] if content.denominator == 1 else [str(content.denominator)]
        for q, p, m in factors:
            body = f"({Poly._of_ints((-p, q)).render(var)})"
            den_parts.append(body if m == 1 else f"{body}^{m}")
        if not den_parts:
            return num_str
        den_str = "".join(den_parts)
        if len(den_parts) > 1:
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __repr__(self):
        return f"RatFunc({self.render()})"


def _times_form(cs: list[int], q: int, p: int) -> list[int]:
    """The integer coefficients of cs(s) * (q s - p)."""
    return [-p * cs[0], *(q * cs[i - 1] - p * cs[i] for i in range(1, len(cs))), q * cs[-1]]


def _divide_form(cs: list[int], q: int, p: int) -> list[int]:
    """The integer coefficients of cs(s) / (q s - p), which must divide it.

    Synthetic division from the top: with cs = (q s - p) b, each
    b_(i-1) = (cs_i + p b_i) / q is exact by Gauss's lemma, q s - p being
    primitive, and the remainder cs_0 + p b_0 is zero.
    """
    out = []
    acc = 0
    for c in cs[:0:-1]:
        acc, rem = divmod(c + p * acc, q)
        assert not rem, "q s - p does not divide the integer product"
        out.append(acc)
    assert cs[0] + p * acc == 0, "q s - p does not divide the integer product"
    return out[::-1]
