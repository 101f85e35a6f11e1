"""Hodge zeta functions, S-factors, and their Euler specialization.

Expressions live in the fraction field generated by monomials
(uv)^(A + B*s) * (u+v)^g over Q, with denominators that are products of
factors (uv)^(nu + N*s) - 1.  Rational exponents share the common
denominator r fixed at construction (the lcm of all point orders and data
denominators of the source graph).  Equality is exact: clear denominators
over the union multiset of factors and compare monomial dictionaries.

The Euler specialization substitutes uv = 1 + eps, u + v = 2 and extracts
the constant term of the resulting Laurent series in eps; each denominator
factor contributes eps * ((nu + N*s) + O(eps)).  Every Laurent coefficient
of a term has a power of the term's own forms nu + N*s as denominator, so
it is split at their roots -nu/N and the result is built from its partial
fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    IndeterminateLimit,
    NonSmallAction,
    OrderTwo,
    ZeroAlpha,
    ZeroDenominatorForm,
)
from .ratfunc import Poly, RatFunc, partial_fractions
from .resolution import ResolutionGraph

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

    __slots__ = ("terms", "r")

    def __init__(self, terms: tuple[HodgeTerm, ...], r: int = 1):
        self.terms = terms
        self.r = r

    @classmethod
    def zero(cls, r: int = 1) -> "HodgeExpr":
        return cls((), r)

    def __add__(self, other: "HodgeExpr") -> "HodgeExpr":
        return HodgeExpr(self.terms + other.terms, lcm(self.r, other.r))

    def scale(self, c) -> "HodgeExpr":
        c = Fraction(c)
        if c == 0:
            return HodgeExpr.zero(self.r)
        out = []
        for t in self.terms:
            d = t.num_dict()
            out.append(_term({k: v * c for k, v in d.items()}, t.den))
        return HodgeExpr(tuple(out), self.r)

    def __sub__(self, other: "HodgeExpr") -> "HodgeExpr":
        return self + other.scale(-1)

    def cleared_numerator(self) -> MonoDict:
        """Numerator over the union denominator (per-factor max multiplicity).

        Exponents are scaled to a common integer denominator first so the
        dictionary arithmetic runs on integer keys.
        """
        from collections import Counter

        common: Counter = Counter()
        per_term = []
        for t in self.terms:
            cnt = Counter(t.den)
            per_term.append(cnt)
            for f, k in cnt.items():
                common[f] = max(common[f], k)
        scale = 1
        for t in self.terms:
            for (A, B, _g), _c in t.num:
                scale = lcm(scale, A.denominator, B.denominator)
        for N, nu in common:
            scale = lcm(scale, N.denominator, nu.denominator)

        def key(A, B, g):
            return (int(A * scale), int(B * scale), g)

        total: dict = {}
        for t, cnt in zip(self.terms, per_term):
            part = {key(A, B, g): c for (A, B, g), c in t.num}
            for f, k in common.items():
                missing = k - cnt.get(f, 0)
                if not missing:
                    continue
                fk = key(f[1], f[0], 0)
                for _ in range(missing):
                    out: dict = {}
                    for (i, j, g), c in part.items():
                        k1 = (i + fk[0], j + fk[1], g)
                        v = out.get(k1)
                        out[k1] = c if v is None else v + c
                        k2 = (i, j, g)
                        v = out.get(k2)
                        out[k2] = -c if v is None else v - c
                    part = out
            for kk, c in part.items():
                v = total.get(kk)
                v = c if v is None else v + c
                if v:
                    total[kk] = v
                else:
                    total.pop(kk, None)
        return {
            (Fraction(i, scale), Fraction(j, scale), g): c
            for (i, j, g), c in total.items()
            if c
        }

    @property
    def is_zero(self) -> bool:
        return not self.cleared_numerator()

    def __eq__(self, other):
        if not isinstance(other, HodgeExpr):
            return NotImplemented
        return (self - other).is_zero

    def __repr__(self):
        return f"HodgeExpr({len(self.terms)} terms, r={self.r})"


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


def _exponent_denominator(terms: tuple[HodgeTerm, ...]) -> int:
    """lcm of every exponent denominator occurring in the expression."""
    r = 1
    for t in terms:
        for (A, B, _g), _c in t.num:
            r = lcm(r, A.denominator, B.denominator)
        for N, nu in t.den:
            r = lcm(r, N.denominator, nu.denominator)
    return r


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
    return HodgeExpr(tuple(terms), _exponent_denominator(tuple(terms)))


def hodge_residue(graph: ResolutionGraph, s0) -> HodgeExpr:
    """Hodge residue witness at a candidate pole of order one.

    The common unit prefactor (1 - uv) of the motivic residue is omitted so
    that the Euler specialization of this expression equals the topological
    residue; vanishing is unaffected.
    """
    from .zeta import _has_intersecting_pair, realizing_components

    s0 = Fraction(s0)
    realizing = realizing_components(graph, s0)
    ids = {c.id for c in realizing}
    if _has_intersecting_pair(graph, ids):
        raise OrderTwo(f"two intersecting components realize s0 = {s0}")
    terms = []
    for comp in realizing:
        alphas = graph.alpha_values(comp.id)
        if any(a == 0 for a in alphas.values()):
            raise ZeroAlpha(f"vanishing alpha-value on {comp.id!r}")
        inv_n = Fraction(1) / comp.data.N
        prefix = (-s0, Fraction(0), 0)  # (uv)^(-s0)
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
    return HodgeExpr(tuple(terms), _exponent_denominator(tuple(terms)))
