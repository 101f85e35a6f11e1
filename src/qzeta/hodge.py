"""Hodge zeta functions, S-factors, and their Euler specialization.

Expressions live in the fraction field generated by monomials
(uv)^(A + B*s) * (u+v)^g over Q, with denominators that are products of
factors (uv)^(nu + N*s) - 1.  Equality is exact: the zero test scales
exponents and coefficients to integers, sums the terms one at a time into
a numerator P over a multiset Q of factors, and divides P by each factor
M - 1 in Q whenever the division is exact (its coefficients sum to zero on
every coset of M's exponent vector); the expression is zero exactly when
the final P is.

The Euler specialization substitutes uv = 1 + eps, u + v = 2 and extracts
the constant term of the resulting Laurent series in eps; each denominator
factor contributes eps * ((nu + N*s) + O(eps)).  Every Laurent coefficient
of a term has a power of the term's own forms nu + N*s as denominator, so
it is split at their roots -nu/N and the result is built from its partial
fractions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    IndeterminateLimit,
    NonSmallAction,
    ZeroDenominatorForm,
)
from .ratfunc import Poly, RatFunc, partial_fractions
from .resolution import ResolutionGraph
from .zeta import residue_alphas

# monomial key: (A, B, g) for (uv)^(A + B*s) * (u+v)^g
Monomial = tuple[Fraction, Fraction, int]
MonoDict = dict[Monomial, Fraction]

UV = (Fraction(1), Fraction(0), 0)
ONE = (Fraction(0), Fraction(0), 0)
UPLUSV = (Fraction(0), Fraction(0), 1)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


def _dict_add(into: MonoDict, other: MonoDict, scale: Fraction = Fraction(1)) -> None:
    for key, c in other.items():
        v = into.get(key, Fraction(0)) + c * scale
        if v:
            into[key] = v
        else:
            into.pop(key, None)


def _dict_mul(a: MonoDict, b: MonoDict) -> MonoDict:
    out: MonoDict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = _mono_mul(k1, k2)
            v = out.get(key, Fraction(0)) + c1 * c2
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


UV_MINUS_1: MonoDict = {UV: Fraction(1), ONE: Fraction(-1)}


@dataclass(frozen=True)
class HodgeTerm:
    num: tuple[tuple[Monomial, Fraction], ...]
    den: tuple[tuple[Fraction, Fraction], ...]  # multiset of (N, nu), sorted

    def num_dict(self) -> MonoDict:
        return dict(self.num)


def _term(num: MonoDict, den) -> HodgeTerm:
    return HodgeTerm(tuple(sorted(num.items())), tuple(sorted(den)))


@dataclass(frozen=True)
class SFactor:
    """The finite sum S_{m,a,b}(N, nu) = sum_i L^((nu.[ia] + nu.[ib] + ...s)/m)."""

    m: int
    a: int
    b: int
    terms: tuple[tuple[Fraction, Fraction], ...]  # exponents A + B*s

    def chi_specialize(self) -> int:
        """Each term specializes to 1 under the Euler characteristic."""
        return len(self.terms)

    def num_dict(self) -> MonoDict:
        out: MonoDict = {}
        for A, B in self.terms:
            _dict_add(out, {(A, B, 0): Fraction(1)})
        return out


def s_factor(m: int, a: int, b: int, Nvec, nuvec) -> SFactor:
    """S-factor of a point of small type (m;a,b) with local data Nvec, nuvec."""
    if gcd(m, a) != 1 or gcd(m, b) != 1:
        raise NonSmallAction(f"S-factor needs a small action, got ({m};{a},{b})")
    N1, N2 = (Fraction(x) for x in Nvec)
    nu1, nu2 = (Fraction(x) for x in nuvec)
    terms = []
    for i in range(m):
        ia = (i * a) % m
        ib = (i * b) % m
        terms.append(
            (
                Fraction(nu1 * ia + nu2 * ib, m),
                Fraction(N1 * ia + N2 * ib, m),
            )
        )
    return SFactor(m, a % m, b % m, tuple(terms))


class HodgeExpr:
    """A formal sum of terms num / prod((uv)^(nu_j + N_j s) - 1)."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[HodgeTerm, ...]):
        self.terms = terms

    @classmethod
    def zero(cls) -> "HodgeExpr":
        return cls(())

    def __add__(self, other: "HodgeExpr") -> "HodgeExpr":
        return HodgeExpr(self.terms + other.terms)

    def scale(self, c) -> "HodgeExpr":
        c = Fraction(c)
        if c == 0:
            return HodgeExpr.zero()
        out = []
        for t in self.terms:
            d = t.num_dict()
            out.append(_term({k: v * c for k, v in d.items()}, t.den))
        return HodgeExpr(tuple(out))

    def __sub__(self, other: "HodgeExpr") -> "HodgeExpr":
        return self + other.scale(-1)

    @property
    def is_zero(self) -> bool:
        """Exact zero test by progressive summation.

        Terms sharing a denominator are merged; then, taking next the term
        that adds the fewest new factors, a running numerator P over a
        running multiset Q of factors absorbs each term, and P is divided
        by each factor in Q as often as the division is exact.  The sum of
        the terms taken so far is always P / prod_Q(M_f - 1), so the
        expression is zero exactly when the final P is.
        """
        r, scale = _integer_scales(self.terms)

        def times(x, m: int) -> int:
            return x.numerator * (m // x.denominator)

        groups: dict[tuple, IntPoly] = {}
        for t in self.terms:
            den = []
            for N, nu in t.den:
                if not N and not nu:
                    raise ZeroDenominatorForm("Hodge term with a factor (uv)^0 - 1")
                den.append((times(nu, r), times(N, r)))
            num = groups.setdefault(tuple(sorted(den)), {})
            for (A, B, g), c in t.num:
                key = (times(A, r), times(B, r), g)
                num[key] = num.get(key, 0) + times(c, scale)
        pending = [(Counter(den), num) for den, num in groups.items()]
        p: IntPoly = {}
        q: Counter = Counter()

        def new_factors(item) -> int:
            return sum(k - q[f] for f, k in item[0].items() if k > q[f])

        while pending:
            item = min(pending, key=new_factors)
            pending.remove(item)
            den, num = item
            for f, k in (den - q).items():
                for _ in range(k):
                    p = _times_factor(p, f)
            for f, k in (q - den).items():
                for _ in range(k):
                    num = _times_factor(num, f)
            q |= den
            for key, c in num.items():
                v = p.get(key, 0) + c
                if v:
                    p[key] = v
                else:
                    p.pop(key, None)
            for f in q:
                while q[f] and (quotient := _divide(p, f)) is not None:
                    p = quotient
                    q[f] -= 1
        return not p

    def __eq__(self, other):
        if not isinstance(other, HodgeExpr):
            return NotImplemented
        return (self - other).is_zero

    def __repr__(self):
        return f"HodgeExpr({len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# Exact zero test over integer keys: (x, y, g) stands for
# (uv)^((x + y*s)/r) * (u+v)^g, and a factor M - 1 for its exponent vector
# v = (r*nu, r*N) of M.

IntPoly = dict[tuple[int, int, int], int]


def _integer_scales(terms: tuple[HodgeTerm, ...]) -> tuple[int, int]:
    """(r, c): the lcm of every exponent denominator and of every
    coefficient denominator occurring in the terms."""
    r = c = 1
    for t in terms:
        for (A, B, _g), v in t.num:
            r = lcm(r, A.denominator, B.denominator)
            c = lcm(c, v.denominator)
        for N, nu in t.den:
            r = lcm(r, N.denominator, nu.denominator)
    return r, c


def _times_factor(p: IntPoly, v: tuple[int, int]) -> IntPoly:
    """p * (M - 1), M of exponent vector v."""
    a, b = v
    out: IntPoly = {}
    for (x, y, g), c in p.items():
        key = (x + a, y + b, g)
        out[key] = out.get(key, 0) + c
        key = (x, y, g)
        out[key] = out.get(key, 0) - c
    return {key: c for key, c in out.items() if c}


def _divide(p: IntPoly, v: tuple[int, int]) -> IntPoly | None:
    """p / (M - 1) if the division is exact, else None.

    On each coset w0 + Zv, p is w0 times a Laurent polynomial sum c_k t^k
    in t = M.  M - 1 divides it exactly when the c_k sum to zero, and the
    quotient's coefficient of t^k is then -(c_kmin + ... + c_k).  A point
    w = (x, y) lies at k = floor(x/a) (floor(y/b) when a = 0) on the coset
    keyed by w0 = w - k*v.
    """
    a, b = v
    cosets: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for (x, y, g), c in p.items():
        k = x // a if a else y // b
        cosets.setdefault((x - a * k, y - b * k, g), []).append((k, c))
    if any(sum(c for _, c in cs) for cs in cosets.values()):
        return None
    out: IntPoly = {}
    for (x0, y0, g), cs in cosets.items():
        cs.sort()
        acc = 0
        for (k, c), (k_next, _) in zip(cs, cs[1:]):
            acc -= c
            if acc:
                for j in range(k, k_next):
                    out[(x0 + a * j, y0 + b * j, g)] = acc
    return out


# ---------------------------------------------------------------------------
# Euler specialization: uv = 1 + eps, u + v = 2, take the constant term


def _binom_polys(A: Fraction, B: Fraction, n: int) -> list[Poly]:
    """binomial(A + B*s, k) for k = 0..n-1, as polynomials in s."""
    out = [Poly.const(1)]
    acc = Poly.const(1)
    fact = 1
    for k in range(1, n):
        acc = acc * Poly.linear_form(A - (k - 1), B)
        fact *= k
        out.append(acc * Fraction(1, fact))
    return out


def _num_series(num, n: int) -> list[Poly]:
    """Series of the numerator under uv = 1 + eps, u + v = 2, up to eps^(n-1).

    For the common case n <= 3 the binomial coefficients are assembled from
    weighted moments of the exponents, costing O(1) per monomial.
    """
    if n > 3:
        out = [Poly() for _ in range(n)]
        for (A, B, g), c in num:
            w = Fraction(2) ** g * c
            for i, bp in enumerate(_binom_polys(A, B, n)):
                out[i] = out[i] + bp * w
        return out
    zero = Fraction(0)
    m00 = m10 = m01 = m20 = m11 = m02 = zero
    for (A, B, g), c in num:
        w = c if g == 0 else Fraction(2) ** g * c
        m00 += w
        if n >= 2:
            wa = w * A
            wb = w * B
            m10 += wa
            m01 += wb
            if n == 3:
                m20 += wa * A
                m11 += wa * B
                m02 += wb * B
    out = [Poly.const(m00)]
    if n >= 2:
        out.append(Poly([m10, m01]))
    if n == 3:
        # binom(A+Bs, 2) = ((A+Bs)^2 - (A+Bs))/2
        half = Fraction(1, 2)
        out.append(Poly([(m20 - m10) * half, (2 * m11 - m01) * half, m02 * half]))
    return out


def _poly_series_mul(a: list[Poly], b: list[Poly], n: int) -> list[Poly]:
    out = [Poly() for _ in range(n)]
    for i, ai in enumerate(a[:n]):
        if ai.is_zero:
            continue
        for j in range(n - i):
            bj = b[j]
            if not bj.is_zero:
                out[i + j] = out[i + j] + ai * bj
    return out


def euler_specialize(expr: HodgeExpr) -> RatFunc:
    """Exact limit u, v -> 1 of a Hodge expression, as a rational function in s.

    A term with k factors is eps^(-k) times its numerator series num over
    the product unit of the factor series, whose constant term is
    u0 = prod(nu + N*s).  With v the first nonzero order of num, its
    coefficient of eps^(v+j-k) is R_j / u0^(j+1), where
    R_j = num[v+j] u0^j - sum_{l<j} R_l unit[j-l] u0^(j-1-l).  Each is split
    at the roots -nu/N and summed per Laurent order.  Partial fractions are
    unique, so a negative order vanishes exactly when all its coefficients
    do; otherwise :class:`IndeterminateLimit` is raised.
    """
    # Laurent order -> [polynomial part, {root: [c1, c2, ...]}]
    orders: dict[int, list] = {}
    for t in expr.terms:
        k = len(t.den)
        scale = Fraction(1)
        roots: dict[Fraction, int] = {}
        for N, nu in t.den:
            if N:
                scale *= N
                roots[-nu / N] = roots.get(-nu / N, 0) + 1
            elif nu:
                scale *= nu
            else:
                raise ZeroDenominatorForm("Hodge term with a factor (uv)^0 - 1")
        num_series = _num_series(t.num, k + 1)
        v = next((i for i, p in enumerate(num_series) if not p.is_zero), None)
        if v is None:
            continue
        # orders v - k .. 0 need the factor series only up to eps^(k - v)
        depth = k + 1 - v
        unit = [Poly.const(1)] + [Poly()] * (depth - 1)
        for N, nu in t.den:
            unit = _poly_series_mul(unit, _binom_polys(nu, N, depth + 1)[1:], depth)
        u0 = unit[0]
        u0_pows = [Poly.const(1)]
        rs: list[Poly] = []
        for j in range(depth):
            r = num_series[v + j] * u0_pows[j]
            for i, ri in enumerate(rs):
                r = r - ri * unit[j - i] * u0_pows[j - 1 - i]
            rs.append(r)
            u0_pows.append(u0_pows[j] * u0)
            poly, parts = partial_fractions(
                r * (1 / scale ** (j + 1)), {a: m * (j + 1) for a, m in roots.items()}
            )
            acc = orders.setdefault(v + j - k, [Poly(), {}])
            acc[0] = acc[0] + poly
            for a, cs in parts.items():
                have = acc[1].setdefault(a, [])
                have.extend([Fraction(0)] * (len(cs) - len(have)))
                for i, c in enumerate(cs):
                    have[i] += c
    for order in sorted(orders):
        poly, parts = orders[order]
        if order < 0 and (not poly.is_zero or any(c for cs in parts.values() for c in cs)):
            raise IndeterminateLimit(f"pole of order {-order} in eps survives specialization")
    return RatFunc.from_partial_fractions(*orders.get(0, (0, {})))


# ---------------------------------------------------------------------------
# zeta and residues


def hodge_zeta(graph: ResolutionGraph) -> HodgeExpr:
    """Hodge zeta function of the pair carried by the graph.

    Points of order m > 1 contribute through their S-factors; on smooth
    models (all orders 1) this is the plain Hodge zeta.
    """
    for comp in graph.components:
        if comp.data.is_zero_form:
            raise ZeroDenominatorForm(f"component {comp.id!r} has data (0,0)")
    terms = []
    for comp in graph.exceptional:
        k = len(graph.points_on(comp.id))
        g = comp.genus
        h_open: MonoDict = {UV: Fraction(1)}
        if g:
            h_open[UPLUSV] = Fraction(-g)
        if 1 - k:
            h_open[ONE] = Fraction(1 - k)
        num = _dict_mul(h_open, UV_MINUS_1)
        terms.append(_term(num, ((comp.data.N, comp.data.nu),)))
    for point in graph.points:
        d1, d2 = graph.incident_data(point)
        lt = point.local_type
        sf = s_factor(lt.m, lt.a, lt.b, (d1.N, d2.N), (d1.nu, d2.nu))
        num = _dict_mul(_dict_mul(sf.num_dict(), UV_MINUS_1), UV_MINUS_1)
        terms.append(_term(num, ((d1.N, d1.nu), (d2.N, d2.nu))))
    return HodgeExpr(tuple(terms))


def hodge_residue(graph: ResolutionGraph, s0) -> HodgeExpr:
    """Hodge residue witness at a candidate pole of order one.

    The common unit prefactor (1 - uv) of the motivic residue is omitted so
    that the Euler specialization of this expression equals the topological
    residue; vanishing is unaffected.  Raises :class:`OrderTwo` and
    :class:`ZeroAlpha` exactly where :func:`top_residue` does.
    """
    s0 = Fraction(s0)
    prefix = (-s0, Fraction(0), 0)  # (uv)^(-s0)
    terms = []
    for comp, alphas in residue_alphas(graph, s0):
        inv_n = Fraction(1) / comp.data.N
        if comp.is_exceptional:
            # (1/N) (uv)^(-s0) (uv - g(u+v) + (1-k))
            k = len(alphas)
            head: MonoDict = {_mono_mul(prefix, UV): inv_n}
            if comp.genus:
                head[_mono_mul(prefix, UPLUSV)] = -comp.genus * inv_n
            if 1 - k:
                head[prefix] = Fraction(1 - k) * inv_n
            terms.append(_term(head, ()))
        # point terms (1/N) (uv)^(-s0) (uv - 1) / ((uv)^alpha - 1); a strict
        # transform contributes only these
        for a in alphas.values():
            num = {
                _mono_mul(prefix, UV): inv_n,
                prefix: -inv_n,
            }
            terms.append(_term(num, ((Fraction(0), a),)))
    return HodgeExpr(tuple(terms))
