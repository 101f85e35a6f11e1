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
the integer moments of the term's keys as an integer numerator of degree
k over the term's forms, and all terms are split at the roots -nu/N by
Ztop's own split, ``qzeta.zeta._split``.  That is the one route: a term
outside this form (more factors, or a numerator vanishing to a lower
order) raises ``IndeterminateLimit``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import IndeterminateLimit, NonSmallAction, ZeroDenominatorForm
from .ratfunc import RatFunc
from .resolution import ResolutionGraph, _on_lattice
from .zeta import _split, residue_alphas

# integer key (x, y, g) of (uv)^((x + y*s)/r) * (u+v)^g on scale r, and the
# integer polynomials the zero test runs on
IntPoly = dict[tuple[int, int, int], int]


# Term tuples are built from lists: a tuple grown from a generator is
# resized, so CPython's per-size tuple free lists fill up until a full
# collection, which raised peak RSS.
class HodgeTerm(NamedTuple):
    num: tuple[tuple[tuple[int, int, int], int | Fraction], ...]
    den: tuple[tuple[int, int], ...]  # factors (uv)^(nu + N*s) - 1 as (r*nu, r*N)


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


def _closed_split(t: HodgeTerm) -> tuple[list[int], int, list[tuple[int, int]]] | None:
    """The constant term of t = num / prod_k ((uv)^(nu + N*s) - 1) under
    uv = 1 + eps, u + v = 2, for k <= 2 factors and a numerator vanishing to
    order k, as a term (Q, d, forms) of :func:`qzeta.zeta._split`; None for
    any other term.

    With the moments S.. of :func:`_moments`, num vanishes to order 1
    when S0 = 0 and to order 2 when also Sx = Sy = 0; the constant term is
    then S0 / q for k = 0, (Sx + Sy s) / (q (a + b s)) for k = 1 and
    (Sxx + 2 Sxy s + Syy s^2) / (2q (a1 + b1 s)(a2 + b2 s)) for k = 2, over
    the factors (a, b) = (r*nu, r*N), which enter the split as forms
    (n, v) = (b, a).
    """
    k = len(t.den)
    if k > 2:
        return None
    q, m = _moments(t.num, k + 1)
    if any(x for row in m[:k] for x in row):
        return None
    num = m[k]
    if k == 2:
        num, q = [num[0], 2 * num[1], num[2]], 2 * q
    return num, q, [(b, a) for a, b in t.den]


def euler_specialize(expr: HodgeExpr) -> RatFunc:
    """Exact limit u, v -> 1 of a Hodge expression, as a rational function in s.

    A term with k factors is eps^(-k) times its numerator's series over a
    unit whose constant term is u0 = prod(nu + N*s).  Every term
    :func:`hodge_zeta` and :func:`hodge_residue` build, and so every term
    of their sums, differences, scalings and rescales, has k <= 2 and a
    numerator that vanishes to order k, since it carries (uv - 1)^k; its
    limit is then num[k] / u0, an integer term read off the moments of its
    keys (:func:`_closed_split`), and one call of ``qzeta.zeta._split``
    splits all the terms at the roots -nu/N; no ``Fraction`` is built
    before it returns.  A (0, 0) factor in any term raises
    :class:`ZeroDenominatorForm` before anything is split.  Any other term
    (more than 2 factors, or a numerator vanishing below order k) raises
    :class:`IndeterminateLimit`, even where its poles in eps would cancel
    against another term's.
    """
    for t in expr.terms:
        if (0, 0) in t.den:
            raise ZeroDenominatorForm("Hodge term with a factor (uv)^0 - 1")
    terms = []
    for t in expr.terms:
        term = _closed_split(t)
        if term is None:
            k = len(t.den)
            raise IndeterminateLimit(
                f"no closed-form limit for a term over {k} factors: more than 2, "
                f"or a numerator vanishing below order {k}"
            )
        terms.append(term)
    return RatFunc.from_partial_fractions(*_split(terms))


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
