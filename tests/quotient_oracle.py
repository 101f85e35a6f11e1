"""Closed forms for the swapped-branch pair, kept as a test oracle.

On X(d;a,b) with 2(b - a) = d, two transverse smooth branches y = c x and
y = -c x form one orbit of the action.  The library resolves that pair
through the general quotient.  This module is the independent route it is
checked against: the closed forms of both zeta functions and a hand-built
downstairs graph after one (1,1)-blow-up.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import gcd

from qzeta import (
    Component,
    CyclicType,
    DownDivisor,
    NumericalData,
    QuotientSetup,
    minus_branch_divisor,
    ztop,
    ztop_nc_quotient,
)
from qzeta.resolution import ResolutionGraph, check_adjunction, oriented_point, strict_kind
from qzeta.zeta import zeta_from_terms


def swapped_setups(dmax: int):
    """Every X(d;a,b) with d <= dmax and 2(b - a) = d, each (d, a) once."""
    return [
        QuotientSetup(d, a, a + d // 2)
        for d in range(4, dmax + 1, 2)
        for a in range(d)
        if gcd(gcd(d, a), d // 2) == 1
    ]


def swapped_pair_divisors(setup: QuotientSetup, N, nu) -> tuple[DownDivisor, DownDivisor]:
    """(Dbar, Wbar) lifting to D = N(C1 + C2), W = (nu - 1)(C1 + C2): Wbar is
    -B_rho plus nu - 1 on the branch orbit, so the lifted pair has no axis."""
    dbar = DownDivisor(pq=(1, 1), branches=(("c", Fraction(N)),))
    wbar = replace(minus_branch_divisor(setup, (1, 1)), branches=(("c", Fraction(nu) - 1),))
    return dbar, wbar


def swapped_pair_zeta(setup: QuotientSetup, N, nu):
    """(down, up, graph_down) for D = N(C1 + C2), W = (nu - 1)(C1 + C2).

    Upstairs the pair is normal crossing with Ztop = 1/(Ns + nu)^2;
    downstairs the total transform fails Q-normal crossing and one
    (1,1)-blow-up yields Ztop = (3d/4)/(Ns + nu) + (d/4)/(Ns + nu)^2.
    """
    N, nu = Fraction(N), Fraction(nu)
    d = setup.d
    assert N > 0, "the swapped pair needs N > 0"
    assert d % 2 == 0 and (setup.b - setup.a) % d == d // 2, "needs 2(b - a) = d"
    data = NumericalData(N, nu)
    up = ztop_nc_quotient(1, data, data)
    down = zeta_from_terms([(Fraction(3 * d, 4), (data,)), (Fraction(d, 4), (data, data))])

    e_data = NumericalData(4 * N / d, 4 * nu / d)
    comps = [
        Component("E", "exceptional", e_data, genus=0, log_discrepancy=Fraction(4, d)),
        Component("C", strict_kind(N, nu - 1), NumericalData(N, nu), label="C"),
    ]
    half = CyclicType(2, 1, 1)
    points = [oriented_point("pt_C", CyclicType(1, 0, 0), "E", "C")]
    if d % 4 == 0:
        points.append(oriented_point("U", half, "E", None))
        points.append(oriented_point("V", half, None, "E"))
    elif setup.e1 == 2:
        # non-small: one axis carries B_rho and meets E at a smooth point
        comps.append(Component("Lx", "branch_curve", NumericalData(0, Fraction(1, 2)), label="{x=0}"))
        points.append(oriented_point("U", half, "E", None))
        points.append(oriented_point("V", CyclicType(1, 0, 0), "Lx", "E"))
    else:
        comps.append(Component("Ly", "branch_curve", NumericalData(0, Fraction(1, 2)), label="{y=0}"))
        points.append(oriented_point("U", CyclicType(1, 0, 0), "E", "Ly"))
        points.append(oriented_point("V", half, None, "E"))
    graph_down = ResolutionGraph(setup.germ, tuple(comps), tuple(points))
    check_adjunction(graph_down)
    assert ztop(graph_down) == down
    return down, up, graph_down
