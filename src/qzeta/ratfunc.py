"""Exact univariate rational functions over Q in the variable s.

Every ``RatFunc`` is built from its partial fractions at known roots by
``RatFunc.from_partial_fractions``: the poles of a zeta function are roots
-nu/N of known linear forms nu + N*s.  ``partial_fractions`` splits
P / prod (s - a)^m at roots already known, by a Taylor shift at each root,
so neither a polynomial gcd nor root finding is ever needed.  Both
directions work on coefficient lists with Horner division by s - a;
``Poly`` stays the value type they take and return.  A ``RatFunc`` is its
partial fractions and nothing else: equality, hashing, evaluation and
scaling read them, ``poles`` reads the orders off them and ``residue`` the
coefficient of 1/(s - s0).  Only ``render`` and oracles multiply them back
out into ``num``/``den``, once per value.
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
    ``is_zero``, ``eval`` and scaling read this state alone.  ``num`` and
    ``den``, the reduced P/Q with monic Q, are multiplied out on first use.
    """

    __slots__ = ("_poly", "_parts", "_expanded")

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
        self._parts, self._expanded = trimmed, None
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

    num = property(lambda self: self._multiply_out()[0])
    den = property(lambda self: self._multiply_out()[1])

    def _multiply_out(self) -> tuple[Poly, Poly]:
        """(num, den): den is the product of (s - s0)^order over the poles
        and num vanishes at none of them, so num/den is reduced."""
        if self._expanded is None:
            den = _monic_product({s0: len(cs) for s0, cs in self._parts.items()})
            num = [Fraction(0)] * (len(den) + max(len(self._poly.coeffs), 1) - 1)
            for i, c in enumerate(self._poly.coeffs):
                for j, d in enumerate(den):
                    num[i + j] += c * d
            for s0, cs in self._parts.items():
                cof = den
                for c in cs:
                    cof = _horner(cof, s0)[0]
                    for i, x in enumerate(cof):
                        num[i] += c * x
            self._expanded = (Poly(num), Poly(den))
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
        """Canonical string: integer-cleared content-free P/Q, factored Q."""
        if self.is_zero:
            return "0"
        nprim, ncont = self.num.integer_cleared()
        # monic den = prod (s - root)^mult = extra * prod(primitive factors)
        factors = []
        extra = Fraction(1)
        for root, mult in sorted(self.poles().items(), reverse=True):
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

    def __repr__(self):
        return f"RatFunc({self.render()})"


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
