"""Topological zeta functions, residues, and pole classification.

The topological zeta function of a pair (D, W) read off an embedded
Q-resolution is

    sum_{E_i exceptional} chi(E_i^o) / (nu_i + N_i s)
    + sum_{P marked} m_P / ((nu_1 + N_1 s)(nu_2 + N_2 s)),

with the two linear forms at a point taken from its incident components
(imaginary curvette (0,1) for a missing incidence).  Every pole is a root
-nu/N of a known form, so each term splits into partial fractions in closed
form, and Ztop is the ``RatFunc`` holding their sum; no root finding and no
multiplying out runs on this path.  The split runs on integer vectors
(n, v) = (r*N, r*nu) on one scale r, the graph's own for ``ztop``: each
coefficient is summed as an unreduced integer pair and becomes one
``Fraction`` at the end, as does each residue.  Each graph keeps its Ztop
and pole report, each computed once; the report reads topological orders
and residues off Ztop's partial fractions, and motivic orders off the
combinatorics below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import gcd, lcm

from .errors import OrderTwo, ZeroAlpha, ZeroDenominatorForm
from .ratfunc import RatFunc
from .resolution import NumericalData, ResolutionGraph, _on_lattice


def _split(terms) -> tuple[Fraction, dict[Fraction, list[Fraction]]]:
    """(constant, {s0: [c1, c2]}), c_k untrimmed at 1/(s - s0)^k, of the sum
    of c / prod(v + n s) over ``terms``: pairs (c, forms) of a rational c and
    at most two integer forms (n, v), n >= 0, none of them (0, 0).

    Forms nu + N s on a scale r enter as (r N, r nu), with c times r per
    form.  c/(v + n s) is c/n at -v/n; c/((v1 + n1 s)(v2 + n2 s)) is
    +-c/(v2 n1 - v1 n2) at the roots -v1/n1 and -v2/n2, or c/(n1 n2) on the
    square when that cross term is 0; a form with n = 0 divides c by v.
    Each coefficient is summed as an unreduced integer pair (p, q) and
    becomes one ``Fraction`` at the end.
    """
    const = [0, 1]
    slots: dict[tuple[int, int], list[int]] = {}  # root -v/n -> [p1, q1, p2, q2]

    def at(n, v):
        g = gcd(n, v)
        return slots.setdefault((-v // g, n // g), [0, 1, 0, 1])

    def add(slot, k, p, q):
        if slot[k + 1] == q:
            slot[k] += p
        else:
            slot[k], slot[k + 1] = slot[k] * q + p * slot[k + 1], slot[k + 1] * q

    for c, forms in terms:
        p, q = c.as_integer_ratio()
        rooted = []
        for n, v in forms:
            if n:
                rooted.append((n, v))
            else:
                q *= v
        if not rooted:
            add(const, 0, p, q)
        elif len(rooted) == 1:
            add(at(*rooted[0]), 0, p, q * rooted[0][0])
        else:
            (n1, v1), (n2, v2) = rooted
            if cross := v2 * n1 - v1 * n2:
                add(at(n1, v1), 0, p, q * cross)
                add(at(n2, v2), 0, -p, q * cross)
            else:
                add(at(n1, v1), 2, p, q * n1 * n2)
    parts = {Fraction(*s0): [Fraction(*cs[:2]), Fraction(*cs[2:])] for s0, cs in slots.items()}
    return Fraction(*const), parts


def zeta_from_terms(terms) -> RatFunc:
    """Sum of c / prod(forms) over ``terms``, a list of pairs (c, forms) of one
    or two ``NumericalData`` with no (0, 0) form, split on the lcm scale of
    its forms."""
    r = lcm(*[x.denominator for _, forms in terms for f in forms for x in (f.N, f.nu)])
    return RatFunc.from_partial_fractions(*_split([
        (c * r ** len(forms), [(_on_lattice(f.N, r), _on_lattice(f.nu, r)) for f in forms])
        for c, forms in terms
    ]))


def _kept(compute):
    """``compute(graph)`` computed once and kept on the graph; a raise keeps nothing."""

    @wraps(compute)
    def once(graph: ResolutionGraph):
        if compute not in graph._kept:
            graph._kept[compute] = compute(graph)
        return graph._kept[compute]

    return once


@_kept
def ztop(graph: ResolutionGraph) -> RatFunc:
    """Exact topological zeta function of the pair carried by the graph,
    split on the graph's vectors: chi/(nu + N s) is chi r/(v + n s) and
    m/((nu1 + N1 s)(nu2 + N2 s)) is m r^2/((v1 + n1 s)(v2 + n2 s)); a missing
    incidence is the curvette (0, 1), a factor of 1."""
    for comp in graph.components:
        if comp.data.is_zero_form:
            raise ZeroDenominatorForm(f"component {comp.id!r} has data (0,0)")
    vec, r = graph._vec, graph._r
    terms = [
        (chi * r, (vec[comp.id],))
        for comp in graph.exceptional
        if (chi := graph.euler_open(comp.id))
    ]
    terms += [
        (p.order * r ** len(p.incident), [vec[cid] for cid in p.incident]) for p in graph.points
    ]
    return RatFunc.from_partial_fractions(*_split(terms))


def ztop_nc_quotient(group_order: int, d1: NumericalData, d2: NumericalData) -> RatFunc:
    """|G| / ((nu_1 + N_1 s)(nu_2 + N_2 s)) for a Q-normal-crossing pair.

    Valid for non-small diagonal actions as well; data are the exponents of
    the pair seen through the covering by the plane.
    """
    if d1.is_zero_form or d2.is_zero_form:
        raise ZeroDenominatorForm("normal-crossing datum (0,0)")
    return zeta_from_terms([(group_order, (d1, d2))])


def _intersecting_pair(graph: ResolutionGraph, realizing) -> bool:
    """Whether two of the ``realizing`` components meet at a marked point."""
    ids = {c.id for c in realizing}
    return any(
        len(p.incident) == 2 and set(p.incident) <= ids
        for c in realizing
        for p in graph.points_on(c.id)
    )


def residue_alphas(graph: ResolutionGraph, s0: Fraction):
    """The components realizing s0, each with its alpha-values, for a residue.

    Raises :class:`OrderTwo` when two realizing components intersect and
    :class:`ZeroAlpha` when an alpha-value at a realizing component vanishes.
    """
    realizing = graph.realizing(s0)
    if _intersecting_pair(graph, realizing):
        raise OrderTwo(f"two intersecting components realize s0 = {s0}")
    out = []
    for comp in realizing:
        alphas = graph.alpha_values(comp.id)
        if any(a == 0 for a in alphas.values()):
            raise ZeroAlpha(f"vanishing alpha-value on {comp.id!r} at s0 = {s0}")
        out.append((comp, alphas))
    return out


def top_residue(graph: ResolutionGraph, s0) -> Fraction:
    """Residue of the topological zeta function at a candidate pole s0.

    Exceptional components contribute (1/N)(chi(E^o) + sum_P 1/alpha_P) and
    strict transforms 1/(N alpha) against their adjacent component.  Only
    defined when no two realizing components intersect (order two) and no
    alpha-value at a realizing component vanishes.  The sum is kept as one
    unreduced integer pair, times r/n for each component's n = r N, and is
    one ``Fraction`` at the end.
    """
    num, den = 0, 1
    for comp, alphas in residue_alphas(graph, Fraction(s0)):
        p = graph.euler_open(comp.id) if comp.is_exceptional else 0
        q = 1
        for a in alphas.values():
            p, q = p * a.numerator + a.denominator * q, q * a.numerator
        q *= graph._vec[comp.id][0]
        num, den = num * q + graph._r * p * den, den * q
    return Fraction(num, den)


def rupture_components(graph: ResolutionGraph) -> list[str]:
    """Rational exceptional components with >= 3 marked points of alpha != 1."""
    out = []
    for comp in graph.exceptional:
        if comp.genus != 0 or comp.data.N == 0:
            continue
        alphas = graph.alpha_values(comp.id)
        if sum(1 for a in alphas.values() if a != 1) >= 3:
            out.append(comp.id)
    return out


def check_alpha_condition(graph: ResolutionGraph) -> tuple[bool, list[str]]:
    """nu > 0 on every component and alpha < 1 at every exceptional point."""
    violations = []
    for comp in graph.components:
        if comp.data.nu <= 0:
            violations.append(f"component {comp.id}: nu = {comp.data.nu} <= 0")
    for comp in graph.exceptional:
        if comp.data.N == 0:
            continue
        for pid, a in graph.alpha_values(comp.id).items():
            if a >= 1:
                violations.append(f"alpha({pid}|{comp.id}) = {a} >= 1")
    return (not violations, violations)


@dataclass(frozen=True)
class PoleEntry:
    s0: Fraction
    top_order: int
    motivic_order: int
    witnesses: tuple[tuple[str, str], ...]  # (component id, clause)
    residue: Fraction | None


@dataclass(frozen=True)
class PoleReport:
    entries: tuple[PoleEntry, ...]

    def motivic_poles(self) -> dict[Fraction, int]:
        return {e.s0: e.motivic_order for e in self.entries if e.motivic_order > 0}

    def top_poles(self) -> dict[Fraction, int]:
        return {e.s0: e.top_order for e in self.entries if e.top_order > 0}

    def entry(self, s0) -> PoleEntry:
        s0 = Fraction(s0)
        for e in self.entries:
            if e.s0 == s0:
                return e
        raise KeyError(s0)


@_kept
def classify_poles(graph: ResolutionGraph) -> PoleReport:
    """Pole report across the motivic and topological levels.

    Motivic order 2 iff two intersecting components realize s0; order 1 iff
    one of the clauses fires: (i) a strict transform inside D or D cap W,
    (ii) a non-rational exceptional curve, (iv) a rupture component.  Clause
    (iii), a cycle of rational exceptional curves through the realizing
    ones, has no test here: among the realizing components it could only
    close at a point where two of them meet, which is order 2.

    Topological orders and residues are read off Ztop's partial fractions.
    The graph keeps its report, as it keeps its Ztop.  Below motivic order 2
    the residue, the coefficient of 1/(s - s0), equals :func:`top_residue`,
    whose ``ZeroAlpha`` cannot fire there: alpha vanishes at a realizing curve
    only against a neighbour realizing s0 (an intersecting pair) or a
    (0, 0) form, which ``ztop`` rejects.
    """
    z = ztop(graph)
    orders = z.poles()
    rupture = set(rupture_components(graph))
    entries = []
    for s0 in sorted(graph.candidate_poles(), reverse=True):
        top = orders.get(s0, 0)
        realizing = graph.realizing(s0)
        witnesses: list[tuple[str, str]] = []
        if _intersecting_pair(graph, realizing):
            mot = 2
            witnesses = [(c.id, "intersecting-pair") for c in realizing]
        else:
            mot = 0
            for comp in realizing:
                if comp.kind in ("strict_D", "strict_DW"):
                    witnesses.append((comp.id, "strict-transform"))
                elif comp.is_exceptional and comp.genus > 0:
                    witnesses.append((comp.id, "non-rational"))
                elif comp.id in rupture:
                    witnesses.append((comp.id, "rupture"))
            if witnesses:
                mot = 1
        if top > mot:
            raise AssertionError(
                f"topological order exceeds motivic order at s0 = {s0}"
            )
        # order-two poles coincide on both levels: the coefficient of the
        # squared factor is a sum of positive point multiplicities
        if (top == 2) != (mot == 2):
            raise AssertionError(f"order-two sets disagree at s0 = {s0}")
        entries.append(
            PoleEntry(s0, top, mot, tuple(witnesses), z.residue(s0) if mot < 2 else None)
        )
    return PoleReport(tuple(entries))
