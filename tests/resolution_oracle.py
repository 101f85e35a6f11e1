"""The Fraction route to a graph's alpha-values, Ztop, residues and chain
data, kept as a test oracle.

The library computes these on each graph's integer vectors (r*N, r*nu) and
builds one ``Fraction`` per output value.  This module is the route it is
checked against: the formulas as written, one ``Fraction`` operation at a
time on each component's (N, nu).
"""

from __future__ import annotations

from fractions import Fraction

from qzeta import RatFunc
from qzeta.errors import ZeroN
from qzeta.resolution import VIRTUAL_END, NumericalData, _chain


def alpha_values(graph, cid: str) -> dict[str, Fraction]:
    """(nu_j - (nu_i/N_i) N_j)/m at every point of ``cid``, against the other
    incident component or the curvette (0, 1)."""
    comp = graph.component(cid)
    if comp.data.N == 0:
        raise ZeroN(f"alpha-values of {cid!r} need N != 0")
    ratio = comp.data.ratio
    out = {}
    for p in graph.points_on(cid):
        other = graph.other_component(p, cid)
        data = other.data if other is not None else VIRTUAL_END
        out[p.id] = (data.nu - ratio * data.N) / p.order
    return out


def _factor(data: NumericalData) -> tuple[Fraction | None, Fraction]:
    """(root, scale) of a form: (-nu/N, 1/N), or (None, 1/nu) when N = 0."""
    if data.N == 0:
        return None, 1 / data.nu
    return -data.nu / data.N, 1 / data.N


def ztop(graph) -> RatFunc:
    """Ztop summed term by term: chi/(nu + N s) over the exceptional curves
    and m/((nu1 + N1 s)(nu2 + N2 s)) over the points, each split at its
    roots in ``Fraction`` arithmetic."""
    const = zero = Fraction(0)
    parts: dict[Fraction, list[Fraction]] = {}

    def add(s0, k, c):
        parts.setdefault(s0, [zero, zero])[k] += c

    terms = [
        (Fraction(chi), (comp.data,))
        for comp in graph.exceptional
        if (chi := graph.euler_open(comp.id))
    ]
    terms += [(Fraction(p.order), graph.incident_data(p)) for p in graph.points]
    for c, forms in terms:
        roots = []
        for root, scale in map(_factor, forms):
            c *= scale
            if root is not None:
                roots.append(root)
        if not roots:
            const += c
        elif len(roots) == 1:
            add(roots[0], 0, c)
        elif roots[0] == roots[1]:
            add(roots[0], 1, c)
        else:
            a, b = roots
            c /= a - b
            add(a, 0, c)
            add(b, 0, -c)
    return RatFunc.from_partial_fractions(const, parts)


def top_residue(graph, s0: Fraction) -> Fraction:
    """sum over the components realizing s0 of (1/N)(chi(E^o) + sum 1/alpha),
    chi counted on exceptional curves only; no order-two or zero-alpha test."""
    total = Fraction(0)
    for comp in graph.realizing(s0):
        inverse_sum = sum(Fraction(1) / a for a in alpha_values(graph, comp.id).values())
        if comp.is_exceptional:
            inverse_sum += graph.euler_open(comp.id)
        total += inverse_sum / comp.data.N
    return total


def chain_data(graph, point) -> list[tuple[NumericalData, Fraction]]:
    """(data, log discrepancy) of each curve of the point's Hirzebruch-Jung
    chain: (Delta(t+1,l) d_A + Delta(1,t-1) d_B)/m through
    ``NumericalData.scale``, b = 1 at a strict transform or curvette end."""
    m = point.order
    chain = _chain(point)
    d_A, d_B = graph.incident_data(point)
    ends = [graph.component(cid).log_discrepancy for cid in point.incident]
    b_A, b_B = (b if b is not None else Fraction(1) for b in ends + [None] * (2 - len(ends)))
    out = []
    for t in range(1, chain.length + 1):
        coeff_a = Fraction(chain.delta(t + 1, chain.length), m)
        coeff_b = Fraction(chain.delta(1, t - 1), m)
        a, b = d_A.scale(coeff_a), d_B.scale(coeff_b)
        out.append((NumericalData(a.N + b.N, a.nu + b.nu), coeff_a * b_A + coeff_b * b_B))
    return out
