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
factor contributes eps * ((nu + N*s) + O(eps)).  A numerator's series
comes from one expansion (``_num_series``): integer moments of its scaled
exponents folded through the falling-factorial coefficients.  Every
Laurent coefficient of a term has a power of the term's own forms
nu + N*s as denominator, so it is split at their roots -nu/N and the
result is built from its partial fractions.  The terms of ``hodge_zeta``
and ``hodge_residue`` carry (uv - 1)^k over k factors, so only their
numerator's coefficient of eps^k is ever needed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

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

ZERO = Fraction(0)
UV = (Fraction(1), Fraction(0), 0)
ONE = (Fraction(0), Fraction(0), 0)
UPLUSV = (Fraction(0), Fraction(0), 1)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


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
                (nu1 * ia + nu2 * ib) / m,
                (N1 * ia + N2 * ib) / m,
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


def _num_series(num, n: int) -> list[Poly]:
    """P_j = sum c 2^g binomial(A + B*s, j) for j < n over the monomials
    ((A, B, g), c) of num: its series under uv = 1 + eps, u + v = 2.

    With A = a/r, B = b/r and c 2^g = w/q over integers, the integer moments
    M[i][l] = sum w a^(i-l) b^l make the coefficient of s^l in P_j
    sum_i f(j, i) binomial(i, l) M[i][l] r^(j-i) / (q r^j j!), where f(j, i)
    is the coefficient of x^i in the falling factorial x (x-1) ... (x-j+1).
    """
    r = q = 1
    for (A, B, _g), c in num:
        r = lcm(r, A.denominator, B.denominator)
        q = lcm(q, c.denominator)
    moments = [[0] * (i + 1) for i in range(n)]
    for (A, B, g), c in num:
        a = A.numerator * (r // A.denominator)
        b = B.numerator * (r // B.denominator)
        row = [c.numerator * (q // c.denominator) << g]
        for i in range(n):
            for l, x in enumerate(row):
                moments[i][l] += x
            row = [x * a for x in row] + [row[-1] * b]
    out = []
    falling = [1]
    fact = 1
    for j in range(n):
        den = q * r**j * fact
        coeffs = []
        for l in range(j + 1):
            x = sum(
                falling[i] * comb(i, l) * moments[i][l] * r ** (j - i)
                for i in range(l, j + 1)
            )
            coeffs.append(Fraction(x, den) if x else ZERO)
        out.append(Poly(coeffs))
        falling = [0, *falling]
        for i in range(j + 1):
            falling[i] -= j * falling[i + 1]
        fact *= j + 1
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


def _laurent_numerators(num: list[Poly], den, depth: int) -> list[Poly]:
    """R_0, ..., R_(depth-1) of a term (see :func:`euler_specialize`) from
    its numerator series num, taken from its first nonzero order on."""
    # (uv)^(nu + N s) - 1 = eps * sum_(i >= 1) binomial(nu + N s, i) eps^(i-1)
    unit = [Poly.const(1)] + [Poly()] * (depth - 1)
    for N, nu in den:
        factor = _num_series((((nu, N, 0), Fraction(1)),), depth + 1)[1:]
        unit = _poly_series_mul(unit, factor, depth)
    u0 = unit[0]
    u0_pows = [Poly.const(1)]
    rs: list[Poly] = []
    for j in range(depth):
        r = num[j] * u0_pows[j]
        for i, ri in enumerate(rs):
            r = r - ri * unit[j - i] * u0_pows[j - 1 - i]
        rs.append(r)
        u0_pows.append(u0_pows[j] * u0)
    return rs


def euler_specialize(expr: HodgeExpr) -> RatFunc:
    """Exact limit u, v -> 1 of a Hodge expression, as a rational function in s.

    A term with k factors is eps^(-k) times its numerator series num over
    the product unit of the factor series, whose constant term is
    u0 = prod(nu + N*s).  With v the first nonzero order of num, its
    coefficient of eps^(v+j-k) is R_j / u0^(j+1), where
    R_j = num[v+j] u0^j - sum_{l<j} R_l unit[j-l] u0^(j-1-l), for j <= k - v.
    Every term :func:`hodge_zeta` and :func:`hodge_residue` build has v = k,
    since its numerator carries (uv - 1)^k: then R_0 = num[k] is the only
    one, and neither the factor series nor the powers of u0 are built.  Each
    R_j is split at the roots -nu/N and summed per Laurent order.  Partial
    fractions are unique, so a negative order vanishes exactly when all its
    coefficients do; otherwise :class:`IndeterminateLimit` is raised.
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
                a = -nu / N
                roots[a] = roots.get(a, 0) + 1
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
        rs = num_series[v:] if depth == 1 else _laurent_numerators(num_series[v:], t.den, depth)
        for j, r in enumerate(rs):
            poly, parts = partial_fractions(
                r * (1 / scale ** (j + 1)), {a: m * (j + 1) for a, m in roots.items()}
            )
            acc = orders.setdefault(v + j - k, [Poly(), {}])
            if not poly.is_zero:
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
        # (uv - g(u+v) + (1 - k)) (uv - 1)
        #   = uv^2 - k uv + (k - 1) - g (u+v) uv + g (u+v)
        k = len(graph.points_on(comp.id))
        g = comp.genus
        num = {
            (Fraction(2), Fraction(0), 0): 1,
            UV: -k,
            ONE: k - 1,
            (Fraction(1), Fraction(0), 1): -g,
            UPLUSV: g,
        }
        terms.append(_term(
            {key: Fraction(c) for key, c in num.items() if c}, ((comp.data.N, comp.data.nu),)
        ))
    for point in graph.points:
        d1, d2 = graph.incident_data(point)
        lt = point.local_type
        sf = s_factor(lt.m, lt.a, lt.b, (d1.N, d2.N), (d1.nu, d2.nu))
        # S (uv - 1)^2: (uv)^(A+2+Bs) - 2 (uv)^(A+1+Bs) + (uv)^(A+Bs) per exponent
        num = {}
        for A, B in sf.terms:
            for shift, c in ((2, 1), (1, -2), (0, 1)):
                key = (A + shift, B, 0)
                num[key] = num.get(key, 0) + c
        terms.append(_term(
            {key: Fraction(c) for key, c in num.items() if c}, ((d1.N, d1.nu), (d2.N, d2.nu))
        ))
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
