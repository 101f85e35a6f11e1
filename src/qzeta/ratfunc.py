"""Exact univariate rational functions over Q in the variable s.

Zeta functions are built by ``RatFunc.from_partial_fractions``: their
poles are the known roots -nu/N of linear forms nu + N*s, so the result
carries its factorisation and ``poles``, ``residue`` and ``render`` read it
off.  ``Poly.rational_roots`` serves only a ``RatFunc`` built from
arbitrary polynomials, once, on the first query; such a denominator must
split into rational linear factors.
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

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return Poly([c / self.lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def eval(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

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

    def rational_roots(self) -> dict[Fraction, int]:
        """All rational roots with multiplicities."""
        if self.is_zero:
            raise InputError("zero polynomial has every root")
        roots: dict[Fraction, int] = {}
        p = self
        # factor out s^k
        k = 0
        while p.coeffs and p.coeffs[0] == 0:
            p = Poly(p.coeffs[1:])
            k += 1
        if k:
            roots[Fraction(0)] = k
        while p.degree >= 1:
            prim, _ = p.integer_cleared()
            a0 = abs(prim.coeffs[0].numerator)
            an = abs(prim.lead.numerator)
            found = None
            for num in _divisors(a0):
                for den in _divisors(an):
                    for sgn in (1, -1):
                        cand = Fraction(sgn * num, den)
                        if prim.eval(cand) == 0:
                            found = cand
                            break
                    if found is not None:
                        break
                if found is not None:
                    break
            if found is None:
                break
            roots[found] = roots.get(found, 0) + 1
            p = p // Poly.linear_form(-found, 1)
        return roots

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


class RatFunc:
    """Reduced fraction of polynomials; denominator kept monic.

    ``num``/``den`` are the canonical state.  ``_poles`` is the
    factorisation of ``den`` as {root: multiplicity}, or None until first
    needed.
    """

    __slots__ = ("num", "den", "_poles")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self._poles = None
        if num.is_zero:
            self.num, self.den = Poly(), Poly.const(1)
            return
        g = num.gcd(den)
        if g.degree >= 1:
            num, den = num // g, den // g
        lead = den.lead
        self.num = Poly([c / lead for c in num.coeffs])
        self.den = den.monic()

    @classmethod
    def from_partial_fractions(cls, const, parts) -> "RatFunc":
        """const + sum over s0 of c1/(s - s0) + c2/(s - s0)^2.

        ``parts`` maps each s0 to (c1, c2).  Zero parts are dropped; every
        other part is a pole of order 2 when c2 != 0 and 1 otherwise, so the
        result is reduced without a gcd.
        """
        parts = {
            _frac(s0): (_frac(c1), _frac(c2)) for s0, (c1, c2) in parts.items() if c1 or c2
        }
        poles = {s0: 2 if c2 else 1 for s0, (_, c2) in parts.items()}
        den = Poly.const(1)
        for s0, order in poles.items():
            for _ in range(order):
                den = den * Poly.linear_form(-s0, 1)
        num = den * _frac(const)
        for s0, (c1, c2) in parts.items():
            cof = den // Poly.linear_form(-s0, 1)
            num = num + cof * c1
            if c2:
                num = num + cof // Poly.linear_form(-s0, 1) * c2
        self = cls.__new__(cls)
        self.num, self.den, self._poles = num, den, poles
        return self

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(Poly.const(c), Poly.const(1))

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly(), Poly.const(1))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.const(1))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num * other, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return RatFunc(self.num * (Fraction(1) / _frac(other)), self.den)
        if other.is_zero:
            raise ZeroDivisionError
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.const(other) / self

    def eval(self, x) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval(x) / d

    def _factorisation(self) -> dict[Fraction, int]:
        if self._poles is None:
            roots = self.den.rational_roots()
            if sum(roots.values()) != self.den.degree:
                raise ArithmeticError("denominator does not split into rational factors")
            self._poles = roots
        return self._poles

    def poles(self) -> dict[Fraction, int]:
        """Poles with orders; the reduced denominator must split over Q."""
        return dict(self._factorisation())

    def pole_order(self, s0) -> int:
        return self._factorisation().get(_frac(s0), 0)

    def residue(self, s0) -> Fraction:
        """Residue at a pole of order <= 1 (0 when s0 is not a pole)."""
        s0 = _frac(s0)
        poles = self._factorisation()
        order = poles.get(s0, 0)
        if order == 0:
            return Fraction(0)
        if order > 1:
            raise InputError(f"residue at pole of order {order}")
        # the monic denominator over (s - s0), evaluated at s0
        rest = Fraction(1)
        for s1, mult in poles.items():
            if s1 != s0:
                rest *= (s0 - s1) ** mult
        return self.num.eval(s0) / rest

    def render(self, var: str = "s") -> str:
        """Canonical string: integer-cleared content-free P/Q, factored Q."""
        if self.is_zero:
            return "0"
        nprim, ncont = self.num.integer_cleared()
        roots = self._factorisation()
        # monic den = prod (s - root)^mult = extra * prod(primitive factors)
        factors = []
        extra = Fraction(1)
        for root, mult in sorted(roots.items(), reverse=True):
            lin = Poly([-root, 1])
            prim, cont = lin.integer_cleared()
            factors.append((prim, mult))
            extra *= cont**mult
        content = ncont / extra

        num_str = nprim.render(var)
        if nprim.degree >= 1:
            num_str = f"({num_str})"
        if content.numerator != 1:
            num_str = (
                str(content.numerator)
                if num_str == "1"
                else f"{content.numerator}{_parenthesize(num_str)}"
            )
        den_parts = [] if content.denominator == 1 else [str(content.denominator)]
        for prim, mult in factors:
            body = f"({prim.render(var)})"
            den_parts.append(body if mult == 1 else f"{body}^{mult}")
        if not den_parts:
            return num_str
        den_str = "".join(den_parts)
        if len(den_parts) > 1:
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __repr__(self):
        return f"RatFunc({self.render()})"


def _parenthesize(sstr: str) -> str:
    return sstr if sstr.startswith("(") else f"({sstr})"
