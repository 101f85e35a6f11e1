"""Hodge zeta functions, S-factors, and their Euler specialization.

Expressions live in the fraction field generated by monomials
(uv)^(A + B*s) * (u+v)^g over Q, with denominators that are products of
factors (uv)^(nu + N*s) - 1.  Each expression fixes one integer scale r
when it is built and keeps every exponent on the lattice (1/r)Z: a
monomial is the integer key (x, y, g) for (uv)^((x + y*s)/r) * (u+v)^g,
and a factor is the integer pair (r*nu, r*N).  A sum of expressions on two
scales moves both to their lcm.  Equality is exact: the zero test scales
the coefficients to integers, sums the terms one at a time into a
numerator P over a multiset Q of factors, and divides P by each factor
M - 1 in Q whenever the division is exact (its coefficients sum to zero on
every coset of M's exponent vector); the expression is zero exactly when
the final P is.

The Euler specialization substitutes uv = 1 + eps, u + v = 2 and extracts
the constant term of the resulting Laurent series in eps; each denominator
factor contributes eps * ((nu + N*s) + O(eps)).  The terms of
``hodge_zeta`` and ``hodge_residue`` carry (uv - 1)^k over k <= 2 factors,
so only their numerator's coefficient of eps^k is needed: it is read off
the integer moments of the term's keys, and the term is split at the roots
-nu/N of its forms in closed form.  Any other term (more factors, or a
numerator vanishing to a lower order) takes the general route: one
expansion of its numerator (``_num_series``, on the same moments), the
Laurent recurrence, and ``partial_fractions`` on each coefficient.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import NamedTuple

from .errors import (
    IndeterminateLimit,
    NonSmallAction,
    ZeroDenominatorForm,
)
from .ratfunc import Poly, RatFunc, partial_fractions
from .resolution import ResolutionGraph
from .zeta import residue_alphas

ZERO = Fraction(0)

# integer key (x, y, g) of (uv)^((x + y*s)/r) * (u+v)^g on scale r, and the
# integer polynomials the zero test runs on
IntPoly = dict[tuple[int, int, int], int]


# Term tuples are built from lists: a tuple grown from a generator is
# resized, so CPython's per-size tuple free lists fill up until a full
# collection, which raised peak RSS.
class HodgeTerm(NamedTuple):
    num: tuple[tuple[tuple[int, int, int], int | Fraction], ...]
    den: tuple[tuple[int, int], ...]  # factors (uv)^(nu + N*s) - 1 as (r*nu, r*N)


def _on_lattice(x: Fraction, r: int) -> int:
    """r * x, for r a multiple of x's denominator."""
    return x.numerator * (r // x.denominator)


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


def _s_exponents(m: int, a: int, b: int, v1, v2) -> list[tuple[int, int]]:
    """Exponent vectors (ia*v1 + ib*v2)/m of S_{m,a,b}, with ia = i*a and
    ib = i*b mod m for i < m, from the local vectors v = (r*nu, r*N) on a
    scale r where m divides every entry of both."""
    if gcd(m, a) != 1 or gcd(m, b) != 1:
        raise NonSmallAction(f"S-factor needs a small action, got ({m};{a},{b})")
    (x1, y1), (x2, y2) = v1, v2
    out = []
    for i in range(m):
        ia = (i * a) % m
        ib = (i * b) % m
        out.append(((x1 * ia + x2 * ib) // m, (y1 * ia + y2 * ib) // m))
    return out


def s_factor(m: int, a: int, b: int, Nvec, nuvec) -> SFactor:
    """S-factor of a point of small type (m;a,b) with local data Nvec, nuvec."""
    N1, N2 = (Fraction(x) for x in Nvec)
    nu1, nu2 = (Fraction(x) for x in nuvec)
    r = m * lcm(N1.denominator, N2.denominator, nu1.denominator, nu2.denominator)
    v1 = (_on_lattice(nu1, r), _on_lattice(N1, r))
    v2 = (_on_lattice(nu2, r), _on_lattice(N2, r))
    terms = tuple((Fraction(x, r), Fraction(y, r)) for x, y in _s_exponents(m, a, b, v1, v2))
    return SFactor(m, a % m, b % m, terms)


class HodgeExpr:
    """A formal sum of terms num / prod((uv)^(nu_j + N_j s) - 1), one
    :class:`HodgeTerm` each, keyed on the integer lattice of the scale r:
    (x, y, g) is (uv)^((x + y*s)/r) * (u+v)^g and (r*nu, r*N) the factor
    (uv)^(nu + N*s) - 1.  Coefficients are exact rationals."""

    __slots__ = ("terms", "r")

    def __init__(self, terms: tuple[HodgeTerm, ...], r: int):
        self.terms = terms
        self.r = r

    @classmethod
    def zero(cls) -> "HodgeExpr":
        return cls((), 1)

    def _terms_on(self, r: int) -> tuple[HodgeTerm, ...]:
        """The terms on the scale r, a multiple of self.r."""
        k = r // self.r
        if k == 1:
            return self.terms
        return tuple([
            HodgeTerm(
                tuple([((x * k, y * k, g), c) for (x, y, g), c in t.num]),
                tuple([(a * k, b * k) for a, b in t.den]),
            )
            for t in self.terms
        ])

    def __add__(self, other: "HodgeExpr") -> "HodgeExpr":
        r = lcm(self.r, other.r)
        return HodgeExpr(self._terms_on(r) + other._terms_on(r), r)

    def scale(self, c) -> "HodgeExpr":
        if not c:
            return HodgeExpr.zero()
        terms = [HodgeTerm(tuple([(key, v * c) for key, v in t.num]), t.den) for t in self.terms]
        return HodgeExpr(tuple(terms), self.r)

    def __sub__(self, other: "HodgeExpr") -> "HodgeExpr":
        return self + other.scale(-1)

    @property
    def is_zero(self) -> bool:
        """Exact zero test by progressive summation.

        Terms sharing a denominator are merged, and a group whose numerator
        cancels is dropped; then, taking next the group that adds the
        fewest new factors, a running numerator P over a running multiset
        Q of factors absorbs each group, and P is divided by each factor in
        Q as often as the division is exact.  The sum of the terms taken so
        far is always P / prod_Q(M_f - 1), so the expression is zero
        exactly when the final P is.
        """
        scale = lcm(*[c.denominator for t in self.terms for _, c in t.num])
        groups: dict[tuple, IntPoly] = {}
        for t in self.terms:
            if (0, 0) in t.den:
                raise ZeroDenominatorForm("Hodge term with a factor (uv)^0 - 1")
            num = groups.setdefault(tuple(sorted(t.den)), {})
            for key, c in t.num:
                num[key] = num.get(key, 0) + c.numerator * (scale // c.denominator)
        pending = [(Counter(den), num) for den, num in groups.items() if any(num.values())]
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
# Exact division of integer polynomials by a factor M - 1, M of exponent
# vector v = (r*nu, r*N)


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


def _moments(num, n: int) -> tuple[int, list[list[int]]]:
    """(q, M) for the monomials ((x, y, g), c) of num, with c 2^g = w/q over
    integers and M[i][l] = sum w x^(i-l) y^l for i < n."""
    q = lcm(*[c.denominator for _, c in num])
    # columns of w x^(i-l) y^l over the monomials, one per l
    cols = [[c.numerator * (q // c.denominator) << g for (_, _, g), c in num]]
    moments = [[sum(cols[0])]]
    xs = [x for (x, _, _), _ in num]
    ys = [y for (_, y, _), _ in num]
    for _ in range(1, n):
        cols = [[w * x for w, x in zip(col, xs)] for col in cols] + [
            [w * y for w, y in zip(cols[-1], ys)]
        ]
        moments.append([sum(col) for col in cols])
    return q, moments


def _num_series(num, n: int, r: int) -> list[Poly]:
    """P_j = sum c 2^g binomial((x + y*s)/r, j) for j < n over the monomials
    ((x, y, g), c) of num: its series under uv = 1 + eps, u + v = 2.

    From the integer moments M of :func:`_moments`, the coefficient of s^l
    in P_j is sum_i f(j, i) binomial(i, l) M[i][l] r^(j-i) / (q r^j j!),
    where f(j, i) is the coefficient of x^i in the falling factorial
    x (x-1) ... (x-j+1).
    """
    q, moments = _moments(num, n)
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


def _add_split(poly: list, parts: dict, coeffs, split: dict) -> None:
    """Add a polynomial part and a {root: [c1, c2, ...]} split into poly and parts."""
    poly.extend([ZERO] * (len(coeffs) - len(poly)))
    for i, c in enumerate(coeffs):
        poly[i] += c
    for a, cs in split.items():
        have = parts.setdefault(a, [])
        have.extend([ZERO] * (len(cs) - len(have)))
        for i, c in enumerate(cs):
            have[i] += c


def _closed_split(t: HodgeTerm) -> tuple[list, dict] | None:
    """The constant term of t = num / prod_k ((uv)^(nu + N*s) - 1) under
    uv = 1 + eps, u + v = 2, split at the roots -nu/N, for k <= 2 factors
    and a numerator vanishing to order k; None for any other term.

    With the moments S.. of :func:`_moments`, num vanishes to order 1
    when S0 = 0 and to order 2 when also Sx = Sy = 0; the constant term is
    then (Sx + Sy s) / (q (a + b s)) for k = 1 and
    Q(s) / (2q (a1 + b1 s)(a2 + b2 s)), Q = Sxx + 2 Sxy s + Syy s^2, for
    k = 2, over the factors (a, b) = (r*nu, r*N).  Every split below is
    Q's Taylor expansion at a root, with its values put over integers:
    b^2 Q(-a/b) = Sxx b^2 - 2 Sxy a b + Syy a^2.  A numerator that
    vanishes beyond order k gives ([], {}).
    """
    den = t.den
    k = len(den)
    if k > 2:
        return None
    q, m = _moments(t.num, k + 1)
    if k == 0:
        return ([Fraction(m[0][0], q)] if m[0][0] else []), {}
    if m[0][0]:
        return None
    if k == 1:
        sx, sy = m[1]
        if not (sx or sy):
            return [], {}
        (a, b), = den
        if not b:
            return [Fraction(sx, q * a), Fraction(sy, q * a)], {}
        return [Fraction(sy, q * b)], {Fraction(-a, b): [Fraction(sx * b - sy * a, q * b * b)]}
    if m[1][0] or m[1][1]:
        return None
    sxx, sxy, syy = m[2]
    if not (sxx or sxy or syy):
        return [], {}
    (a1, b1), (a2, b2) = den
    d = 2 * q

    def at_root(a, b):  # b^2 Q(-a/b)
        return sxx * b * b - 2 * sxy * a * b + syy * a * a

    if not (b1 or b2):
        lead = d * a1 * a2
        return [Fraction(sxx, lead), Fraction(2 * sxy, lead), Fraction(syy, lead)], {}
    if not (b1 and b2):
        # one factor of N = 0: Q(s) / (lead (s - p)) with p = -a/b
        (a, b), c = ((a1, b1), a2) if b1 else ((a2, b2), a1)
        lead = d * c * b
        return (
            [Fraction(2 * sxy * b - syy * a, lead * b), Fraction(syy, lead)],
            {Fraction(-a, b): [Fraction(at_root(a, b), lead * b * b)]},
        )
    poly = [Fraction(syy, d * b1 * b2)]
    cross = a2 * b1 - a1 * b2
    if cross:
        return poly, {
            Fraction(-a1, b1): [Fraction(at_root(a1, b1), d * b1 * b1 * cross)],
            Fraction(-a2, b2): [Fraction(-at_root(a2, b2), d * b2 * b2 * cross)],
        }
    # a double root p = -a1/b1: c2 = Q(p)/lead and c1 = Q'(p)/lead, lead = d b1 b2
    return poly, {
        Fraction(-a1, b1): [
            Fraction(sxy * b1 - syy * a1, q * b1 * b1 * b2),
            Fraction(at_root(a1, b1), d * b1**3 * b2),
        ]
    }


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


def _laurent_numerators(num: list[Poly], den, depth: int, r: int) -> list[Poly]:
    """R_0, ..., R_(depth-1) of a term (see :func:`euler_specialize`) from
    its numerator series num, taken from its first nonzero order on."""
    # (uv)^(nu + N s) - 1 = eps * sum_(i >= 1) binomial(nu + N s, i) eps^(i-1)
    unit = [Poly.const(1)] + [Poly()] * (depth - 1)
    for a, b in den:
        factor = _num_series((((a, b, 0), 1),), depth + 1, r)[1:]
        unit = _poly_series_mul(unit, factor, depth)
    u0 = unit[0]
    u0_pows = [Poly.const(1)]
    rs: list[Poly] = []
    for j in range(depth):
        rj = num[j] * u0_pows[j]
        for i, ri in enumerate(rs):
            rj = rj - ri * unit[j - i] * u0_pows[j - 1 - i]
        rs.append(rj)
        u0_pows.append(u0_pows[j] * u0)
    return rs


def _laurent_split(t: HodgeTerm, r: int, orders: dict) -> None:
    """Add every Laurent order <= 0 of the term t, split at its roots, into
    orders {order: (polynomial part, {root: [c1, c2, ...]})}."""
    k = len(t.den)
    # u0 = prod (a + b*s)/r over the factors (a, b) = (r*nu, r*N)
    lead = 1
    roots: dict[Fraction, int] = {}
    for a, b in t.den:
        if b:
            lead *= b
            root = Fraction(-a, b)
            roots[root] = roots.get(root, 0) + 1
        else:
            lead *= a
    scale = Fraction(lead, r**k)
    num_series = _num_series(t.num, k + 1, r)
    v = next((i for i, p in enumerate(num_series) if not p.is_zero), None)
    if v is None:
        return
    # orders v - k .. 0 need the factor series only up to eps^(k - v)
    depth = k + 1 - v
    rs = num_series[v:] if depth == 1 else _laurent_numerators(num_series[v:], t.den, depth, r)
    for j, rj in enumerate(rs):
        poly, parts = partial_fractions(
            rj * (1 / scale ** (j + 1)), {a: m * (j + 1) for a, m in roots.items()}
        )
        _add_split(*orders.setdefault(v + j - k, ([], {})), poly.coeffs, parts)


def euler_specialize(expr: HodgeExpr) -> RatFunc:
    """Exact limit u, v -> 1 of a Hodge expression, as a rational function in s.

    A term with k factors is eps^(-k) times its numerator series num over
    the product unit of the factor series, whose constant term is
    u0 = prod(nu + N*s).  Every term :func:`hodge_zeta` and
    :func:`hodge_residue` build has k <= 2 and a numerator that vanishes to
    order k, since it carries (uv - 1)^k; its limit is then num[k] / u0,
    read off the integer moments of its keys and split at the roots -nu/N
    in closed form (:func:`_closed_split`).  Any other term takes the
    general Laurent route: with v the first nonzero order of num, its
    coefficient of eps^(v+j-k) is R_j / u0^(j+1), where
    R_j = num[v+j] u0^j - sum_{l<j} R_l unit[j-l] u0^(j-1-l), for j <= k - v,
    each R_j split by :func:`partial_fractions`.  The splits are summed per
    Laurent order.  Partial fractions are unique, so a negative order
    vanishes exactly when all its coefficients do; otherwise
    :class:`IndeterminateLimit` is raised.
    """
    # Laurent order -> (polynomial part, {root: [c1, c2, ...]})
    orders: dict[int, tuple[list, dict]] = {0: ([], {})}
    for t in expr.terms:
        if (0, 0) in t.den:
            raise ZeroDenominatorForm("Hodge term with a factor (uv)^0 - 1")
        split = _closed_split(t)
        if split is None:
            _laurent_split(t, expr.r, orders)
        else:
            _add_split(*orders[0], *split)
    for order in sorted(orders):
        poly, parts = orders[order]
        if order < 0 and (any(poly) or any(c for cs in parts.values() for c in cs)):
            raise IndeterminateLimit(f"pole of order {-order} in eps survives specialization")
    return RatFunc.from_partial_fractions(Poly(orders[0][0]), orders[0][1])


# ---------------------------------------------------------------------------
# zeta and residues


def hodge_zeta(graph: ResolutionGraph) -> HodgeExpr:
    """Hodge zeta function of the pair carried by the graph.

    Points of order m > 1 contribute through their S-factors; on smooth
    models (all orders 1) this is the plain Hodge zeta.  The scale is the
    lcm of every component's denominators and, at each point of order m,
    of m times those of its incident data, so that every S-factor
    exponent is an integer.
    """
    for comp in graph.components:
        if comp.data.is_zero_form:
            raise ZeroDenominatorForm(f"component {comp.id!r} has data (0,0)")
    r = lcm(*[x.denominator for comp in graph.components for x in (comp.data.N, comp.data.nu)])
    local = []
    for point in graph.points:
        d1, d2 = graph.incident_data(point)
        dens = [x.denominator for d in (d1, d2) for x in (d.N, d.nu)]
        r = lcm(r, point.local_type.m * lcm(*dens))
        local.append((point.local_type, d1, d2))

    def vec(data) -> tuple[int, int]:
        return _on_lattice(data.nu, r), _on_lattice(data.N, r)

    terms = []
    for comp in graph.exceptional:
        # (uv - g(u+v) + (1 - k)) (uv - 1)
        #   = uv^2 - k uv + (k - 1) - g (u+v) uv + g (u+v)
        k = len(graph.points_on(comp.id))
        g = comp.genus
        num = (((2 * r, 0, 0), 1), ((r, 0, 0), -k), ((0, 0, 0), k - 1),
               ((r, 0, 1), -g), ((0, 0, 1), g))
        terms.append(HodgeTerm(tuple([mono for mono in num if mono[1]]), (vec(comp.data),)))
    for lt, d1, d2 in local:
        v1, v2 = vec(d1), vec(d2)
        # S (uv - 1)^2: (uv)^(A+2+Bs) - 2 (uv)^(A+1+Bs) + (uv)^(A+Bs) per exponent
        num = {}
        for x, y in _s_exponents(lt.m, lt.a, lt.b, v1, v2):
            for shift, c in ((2 * r, 1), (r, -2), (0, 1)):
                key = (x + shift, y, 0)
                num[key] = num.get(key, 0) + c
        terms.append(HodgeTerm(tuple([(key, c) for key, c in num.items() if c]), (v1, v2)))
    return HodgeExpr(tuple(terms), r)


def hodge_residue(graph: ResolutionGraph, s0) -> HodgeExpr:
    """Hodge residue witness at a candidate pole of order one.

    The common unit prefactor (1 - uv) of the motivic residue is omitted so
    that the Euler specialization of this expression equals the topological
    residue; vanishing is unaffected.  Raises :class:`OrderTwo` and
    :class:`ZeroAlpha` exactly where :func:`top_residue` does.  The scale is
    the lcm of the denominators of s0 and of the alpha-values.
    """
    s0 = Fraction(s0)
    parts = residue_alphas(graph, s0)
    r = lcm(s0.denominator, *[a.denominator for _, alphas in parts for a in alphas.values()])
    x0 = _on_lattice(-s0, r)  # (uv)^(-s0)
    terms = []
    for comp, alphas in parts:
        inv_n = Fraction(1) / comp.data.N
        if comp.is_exceptional:
            # (1/N) (uv)^(-s0) (uv - g(u+v) + (1-k))
            k = len(alphas)
            head = [((x0 + r, 0, 0), inv_n)]
            if comp.genus:
                head.append(((x0, 0, 1), -comp.genus * inv_n))
            if 1 - k:
                head.append(((x0, 0, 0), (1 - k) * inv_n))
            terms.append(HodgeTerm(tuple(head), ()))
        # point terms (1/N) (uv)^(-s0) (uv - 1) / ((uv)^alpha - 1); a strict
        # transform contributes only these
        point = (((x0 + r, 0, 0), inv_n), ((x0, 0, 0), -inv_n))
        for a in alphas.values():
            terms.append(HodgeTerm(point, ((_on_lattice(a, r), 0),)))
    return HodgeExpr(tuple(terms), r)
