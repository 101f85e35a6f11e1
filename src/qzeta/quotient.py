"""Equivariant resolutions for the covering C^2 -> C^2/mu_d.

Downstairs pairs are presented through coefficient tables on the upstairs
pullback: axes by their downstairs coefficients (the pullback of the axis
{x=0} is e1 {x=0} with e1 = gcd(d,b)), branches by orbit representatives.
The downstairs graph is assembled by transporting upstairs data through
the quotient: numerical data divide by ramification indices, point orbits
collapse, and chart-origin orders are recomputed from the full orbifold
chart groups as an independent route.  A correspondence table records
every pairing for the proportionality checks (N,nu) = e (Nbar,nubar),
alpha = n alphabar and d m = r e1 e2 mbar.  Every pair takes this one
route, including two transverse branches swapped by the action, whose
downstairs total transform is not Q-normal crossing before the blow-up.
Each pair is built once, and each of its two graphs keeps its own Ztop and
pole report; ``compare_levels`` checks Theorems A, B and C on those, B when
W is trivial upstairs (Wbar = -B_rho).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .cyclic import PLANE, CyclicType, smallify_action
from .errors import (
    DuplicateBranch,
    InputError,
    MixedOrbitMultiplicity,
    UnsupportedOrbit,
)
from .resolution import (
    BranchEntry,
    CClass,
    Component,
    DivisorSpec,
    NumericalData,
    ResolutionGraph,
    chart_actions,
    check_adjunction,
    oriented_point,
    strict_kind,
    validate_divisor,
    validate_weights,
    weighted_blowup,
)
from .zeta import classify_poles, rupture_components, ztop


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QuotientSetup:
    """The covering C^2 -> X(d;a,b) with its branch divisor data.

    e1 = gcd(d,b) and e2 = gcd(d,a) are the ramification indices along
    {x=0} and {y=0}; the branch divisor is
    B_rho = (1 - 1/e1) Lbar_1 + (1 - 1/e2) Lbar_2.
    """

    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.d < 1:
            raise InputError("d must be positive")
        object.__setattr__(self, "a", self.a % self.d)
        object.__setattr__(self, "b", self.b % self.d)
        if gcd(gcd(self.d, self.a), self.b) != 1:
            raise InputError(f"gcd(d,a,b) must be 1, got ({self.d};{self.a},{self.b})")

    @property
    def e1(self) -> int:
        return gcd(self.d, self.b)

    @property
    def e2(self) -> int:
        return gcd(self.d, self.a)

    @property
    def is_small(self) -> bool:
        return self.e1 == 1 and self.e2 == 1

    @property
    def germ(self) -> CyclicType:
        return CyclicType(self.d, self.a, self.b)


@dataclass(frozen=True)
class DownDivisor:
    """Coefficient table of a downstairs Q-divisor.

    Branches are labelled orbits of curves y^p = c x^q; one entry per
    downstairs component, expanded to the full upstairs orbit by lifting.
    """

    pq: tuple[int, int] = (1, 1)
    axis_x: Fraction = Fraction(0)
    axis_y: Fraction = Fraction(0)
    branches: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "axis_x", _frac(self.axis_x))
        object.__setattr__(self, "axis_y", _frac(self.axis_y))
        object.__setattr__(
            self, "branches", tuple((str(l), _frac(c)) for l, c in self.branches)
        )

    def branch_coeff(self, label: str) -> Fraction:
        for l, c in self.branches:
            if l == label:
                return c
        return Fraction(0)


def minus_branch_divisor(setup: QuotientSetup, pq=(1, 1)) -> DownDivisor:
    """The divisor -B_rho (the Theorem-B choice of Wbar)."""
    return DownDivisor(
        pq=tuple(pq), axis_x=Fraction(1, setup.e1) - 1, axis_y=Fraction(1, setup.e2) - 1
    )


def orbit_step(setup: QuotientSetup, pq: tuple[int, int]) -> int:
    """Exponent step of the mu_d-action on branch coefficients, c -> zeta^step c."""
    p, q = pq
    return (p * setup.b - q * setup.a) % setup.d


def orbit_size(setup: QuotientSetup, pq: tuple[int, int]) -> int:
    return setup.d // gcd(setup.d, orbit_step(setup, pq))


def lift_pair(setup: QuotientSetup, dbar: DownDivisor, wbar: DownDivisor) -> DivisorSpec:
    """Upstairs pair D = rho* Dbar, W = rho* Wbar + Ram_rho as a DivisorSpec.

    Axis coefficients multiply by the ramification indices, the ramification
    divisor (e_k - 1) joins W, and each downstairs branch expands to its
    full coefficient orbit with the downstairs coefficients copied.
    """
    if dbar.pq != wbar.pq:
        raise InputError("Dbar and Wbar must share the blow-up weights")
    d, e1, e2 = setup.d, setup.e1, setup.e2
    step = orbit_step(setup, dbar.pq)
    r = orbit_size(setup, dbar.pq)
    labels = [l for l, _ in dbar.branches]
    labels += [l for l, _ in wbar.branches if l not in labels]
    branches = []
    for label in labels:
        N = dbar.branch_coeff(label)
        w = wbar.branch_coeff(label)
        for j in range(r):
            branches.append(
                BranchEntry(f"{label}.{j}", CClass(label, (j * step) % d), N, w)
            )
    return DivisorSpec(
        pq=dbar.pq,
        axis_x=(e1 * dbar.axis_x, e1 * wbar.axis_x + (e1 - 1)),
        axis_y=(e2 * dbar.axis_y, e2 * wbar.axis_y + (e2 - 1)),
        branches=tuple(branches),
    )


@dataclass(frozen=True)
class Orbit:
    family: str
    members: tuple[str, ...]  # upstairs branch labels
    size: int
    N: Fraction
    w: Fraction

    @property
    def invariant(self) -> bool:
        return self.size == 1


@dataclass(frozen=True)
class OrbitAnalysis:
    size: int
    orbits: tuple[Orbit, ...]


def branch_orbit_analysis(setup: QuotientSetup, spec: DivisorSpec) -> OrbitAnalysis:
    """Partition the branches of an upstairs spec into mu_d-orbits.

    A branch y^p = c x^q is invariant iff q a = p b mod d; otherwise orbits
    have size r = d / gcd(d, pb - qa).  Orbits must be complete with equal
    coefficients.
    """
    d = setup.d
    step = orbit_step(setup, spec.pq)
    r = orbit_size(setup, spec.pq)
    by_family: dict[str, dict[int, BranchEntry]] = {}
    for br in spec.branches:
        fam = by_family.setdefault(br.c.family, {})
        k = br.c.k % d
        if k in fam:
            raise DuplicateBranch(
                f"branches {fam[k].label!r} and {br.label!r} coincide mod d"
            )
        fam[k] = br
    orbits = []
    for family in sorted(by_family):
        remaining = dict(by_family[family])
        while remaining:
            k0 = min(remaining)
            coset = sorted({(k0 + j * step) % d for j in range(r)})
            members = []
            first = remaining[k0]
            for k in coset:
                if k not in remaining:
                    raise UnsupportedOrbit(
                        f"orbit of branch {first.label!r} is incomplete (missing k={k})"
                    )
                entry = remaining.pop(k)
                if (entry.N, entry.w) != (first.N, first.w):
                    raise MixedOrbitMultiplicity(
                        f"orbit of {first.label!r} mixes coefficients"
                    )
                members.append(entry.label)
            orbits.append(Orbit(family, tuple(members), r, first.N, first.w))
    return OrbitAnalysis(r, tuple(orbits))


def exceptional_ramification(setup: QuotientSetup, pq: tuple[int, int]) -> int:
    """Ramification index of the exceptional curve along the quotient map.

    It is the number of i in Z/d admitting t with zeta_d^{ia} = t^p and
    zeta_d^{ib} = t^q.  Such t is a (dpq)-th root of unity t = zeta_{dpq}^j,
    and the two equations read j = iaq (mod dq) and j = ibp (mod dp).  By
    the Chinese remainder theorem they have a common solution iff
    iaq = ibp (mod gcd(dq, dp)).  For coprime p, q, gcd(dq, dp) = d, so the
    condition is i(pb - qa) = 0 (mod d), and exactly gcd(d, pb - qa) values
    of i satisfy it.
    """
    validate_weights(pq)
    return gcd(setup.d, orbit_step(setup, pq))


# ---------------------------------------------------------------------------
# correspondence table


@dataclass(frozen=True)
class ComponentRow:
    up_ids: tuple[str, ...]
    down_id: str
    e: int  # ramification index of each upstairs member
    r: int  # orbit size


@dataclass(frozen=True)
class PointRow:
    up_ids: tuple[str, ...]  # empty when the upstairs point is unmarked
    down_id: str | None  # None when the downstairs point is unmarked
    n: int  # ramification of rho~|_E at each upstairs point
    m: int  # upstairs order
    m_bar: int  # downstairs order
    r: int  # orbit size
    e_pair: tuple[int, int]  # ramification of the two incident curves


@dataclass(frozen=True)
class CorrespondenceTable:
    d: int
    e_exc: int
    components: tuple[ComponentRow, ...]
    points: tuple[PointRow, ...]


@dataclass(frozen=True)
class QuotientPair:
    setup: QuotientSetup
    spec_up: DivisorSpec
    graph_up: ResolutionGraph
    graph_down: ResolutionGraph
    table: CorrespondenceTable
    analysis: OrbitAnalysis


def _scaled_component(comp: Component, e: int, kind: str | None = None) -> Component:
    return replace(
        comp,
        kind=kind or comp.kind,
        data=comp.data.scale(Fraction(1, e)),
        log_discrepancy=(
            comp.log_discrepancy / e if comp.log_discrepancy is not None else None
        ),
    )


def build_quotient(
    setup: QuotientSetup, dbar: DownDivisor, wbar: DownDivisor
) -> QuotientPair:
    """Compatible embedded Q-resolutions upstairs and downstairs.

    Upstairs: one weighted blow-up of the lifted pair on the plane.
    Downstairs: exceptional data divided by the ramification index of E,
    axis data by e_k, branch orbits collapsed to single points, and
    chart-origin local types recomputed by smallifying the full chart
    groups of the blow-up of X(d;a,b).
    """
    spec_up = lift_pair(setup, dbar, wbar)
    validate_divisor(spec_up)
    return _assemble(setup, spec_up, branch_orbit_analysis(setup, spec_up))


def split_down_spec(spec_down: DivisorSpec) -> tuple[DownDivisor, DownDivisor]:
    """(Dbar, Wbar) of a combined downstairs table (N and w together)."""
    return tuple(
        DownDivisor(
            pq=spec_down.pq,
            axis_x=spec_down.axis_x[k],
            axis_y=spec_down.axis_y[k],
            branches=tuple((b.label, (b.N, b.w)[k]) for b in spec_down.branches),
        )
        for k in (0, 1)
    )


def _assemble(
    setup: QuotientSetup, spec_up: DivisorSpec, analysis: OrbitAnalysis
) -> QuotientPair:
    d = setup.d
    p, q = spec_up.pq
    e1, e2 = setup.e1, setup.e2
    graph_up = weighted_blowup(PLANE, spec_up)
    # force ramification axes into both graphs so the correspondence is total
    graph_up = _with_forced_axes(graph_up, spec_up, e1, e2)
    e_exc = exceptional_ramification(setup, spec_up.pq)

    up_has_x = any(c.id == "Lx" for c in graph_up.components)
    up_has_y = any(c.id == "Ly" for c in graph_up.components)

    comp_rows = [ComponentRow(("E",), "E", e_exc, 1)]
    comps_down = [_scaled_component(graph_up.component("E"), e_exc)]

    def axis_kind(up_comp, e_k):
        # the level's own pair decides the kind: nu_bar = 1 + w_bar
        if up_comp.data.N == 0 and e_k > 1:
            return "branch_curve"
        return strict_kind(up_comp.data.N / e_k, up_comp.data.nu / e_k - 1)

    if up_has_x:
        up = graph_up.component("Lx")
        comps_down.append(_scaled_component(up, e1, axis_kind(up, e1)))
        comp_rows.append(ComponentRow(("Lx",), "Lx", e1, 1))
    if up_has_y:
        up = graph_up.component("Ly")
        comps_down.append(_scaled_component(up, e2, axis_kind(up, e2)))
        comp_rows.append(ComponentRow(("Ly",), "Ly", e2, 1))
    for orbit in analysis.orbits:
        member = graph_up.component(orbit.members[0])
        comps_down.append(replace(member, id=orbit.family, label=orbit.family))
        comp_rows.append(ComponentRow(orbit.members, orbit.family, 1, orbit.size))

    # chart origins: recompute downstairs orders from the full chart groups;
    # upstairs an origin is marked exactly when it is a point of graph_up
    type_u_down, type_v_down = (smallify_action(a) for a in chart_actions(setup.germ, p, q))
    up_order = {pt.id: pt.order for pt in graph_up.points}

    points_down = []
    point_rows = []
    n_fix = d // e_exc

    def chart_row(tag, type_down, axis_id, axis_e, x_is_e):
        down_marked = type_down.m > 1 or axis_id is not None
        if down_marked:
            x_comp, y_comp = ("E", axis_id) if x_is_e else (axis_id, "E")
            points_down.append(oriented_point(tag, type_down, x_comp, y_comp))
        point_rows.append(
            PointRow(
                up_ids=(tag,) if tag in up_order else (),
                down_id=tag if down_marked else None,
                n=n_fix,
                m=up_order.get(tag, 1),
                m_bar=type_down.m,
                r=1,
                e_pair=(e_exc, axis_e),
            )
        )

    chart_row("U", type_u_down, "Ly" if up_has_y else None, e2 if up_has_y else 1, True)
    chart_row("V", type_v_down, "Lx" if up_has_x else None, e1 if up_has_x else 1, False)

    for orbit in analysis.orbits:
        m_bar_den = orbit.size * e_exc
        if d % m_bar_den:
            raise InputError("non-integral downstairs order at a branch orbit")
        m_bar = d // m_bar_den
        assert m_bar == 1  # branch orbits are free on the exceptional curve
        pid = f"pt_{orbit.family}"
        points_down.append(
            oriented_point(pid, CyclicType(1, 0, 0), "E", orbit.family)
        )
        point_rows.append(
            PointRow(
                up_ids=tuple(f"pt_{m}" for m in orbit.members),
                down_id=pid,
                n=d // (e_exc * orbit.size),
                m=1,
                m_bar=m_bar,
                r=orbit.size,
                e_pair=(e_exc, 1),
            )
        )

    graph_down = ResolutionGraph(setup.germ, tuple(comps_down), tuple(points_down))
    check_adjunction(graph_down)
    table = CorrespondenceTable(d, e_exc, tuple(comp_rows), tuple(point_rows))
    return QuotientPair(setup, spec_up, graph_up, graph_down, table, analysis)


def _with_forced_axes(
    graph_up: ResolutionGraph, spec_up: DivisorSpec, e1: int, e2: int
) -> ResolutionGraph:
    """Add ramification axes absent from supp(D) u supp(W) as (0,1) components;
    ``graph_up`` itself when none is added."""
    comps = list(graph_up.components)
    points = list(graph_up.points)
    have = {c.id for c in comps}
    if e1 > 1 and "Lx" not in have:
        comps.append(
            Component("Lx", "branch_curve", NumericalData(0, 1), label="{x=0}")
        )
        points = _attach_axis(points, "Lx", at_u=False)
    if e2 > 1 and "Ly" not in have:
        comps.append(
            Component("Ly", "branch_curve", NumericalData(0, 1), label="{y=0}")
        )
        points = _attach_axis(points, "Ly", at_u=True)
    if len(comps) == len(graph_up.components):
        return graph_up  # keeps the alpha-values its construction computed
    return ResolutionGraph(graph_up.ambient, tuple(comps), tuple(points))


def _attach_axis(points, axis_id, at_u):
    tag = "U" if at_u else "V"
    for i, pt in enumerate(points):
        if pt.id == tag:
            if len(pt.incident) == 2:
                raise InputError("chart origin already carries two components")
            # the existing point lists only E; restore the per-coordinate layout
            if at_u:
                points[i] = oriented_point(tag, _unswapped(pt.local_type), "E", axis_id)
            else:
                points[i] = oriented_point(tag, _unswapped(pt.local_type), axis_id, "E")
            return points
    lt = CyclicType(1, 0, 0)
    if at_u:
        points.append(oriented_point(tag, lt, "E", axis_id))
    else:
        points.append(oriented_point(tag, lt, axis_id, "E"))
    return points


def _unswapped(lt: CyclicType) -> CyclicType:
    return lt.swapped() if lt.axis_swap else lt


# ---------------------------------------------------------------------------
# mechanical verification of the correspondence and the comparison theorems


def verify_correspondence(pair: QuotientPair) -> dict:
    """Row-by-row proportionality checks on a constructed quotient pair.

    Checks (N,nu) = e (Nbar,nubar) on component rows, d m = r e1 e2 mbar and
    alpha = n alphabar on point rows, integrality of the covering degrees,
    and the rupture bookkeeping of the covering E -> Ebar.  A rupture Ebar
    makes s0 = -nubar/Nbar = -nu/N a motivic pole downstairs, so Theorem A
    needs s0 among the motivic poles upstairs; E need not be a rupture
    component itself (two swapped branches meet on E at an order-two pole).
    """
    up, down, table = pair.graph_up, pair.graph_down, pair.table
    d = table.d
    failures: list[str] = []

    for row in table.components:
        target = down.component(row.down_id).data
        for uid in row.up_ids:
            src = up.component(uid).data
            if (src.N, src.nu) != (target.N * row.e, target.nu * row.e):
                failures.append(f"component row {uid}->{row.down_id}: data not proportional")
        if d % (row.e * row.r):
            failures.append(f"component row {row.down_id}: (e*r) does not divide d")

    alpha_up = up.alpha_values("E")
    alpha_down = down.alpha_values("E")
    for row in table.points:
        if d * row.m != row.r * row.e_pair[0] * row.e_pair[1] * row.m_bar:
            failures.append(
                f"point row {row.down_id or row.up_ids}: d*m != r*e1*e2*mbar"
            )
        a_down = alpha_down[row.down_id] if row.down_id is not None else Fraction(1)
        for uid in row.up_ids:
            a_up = alpha_up.get(uid, Fraction(1))
            if a_up != row.n * a_down:
                failures.append(f"point row {uid}: alpha != n * alphabar")
        if not row.up_ids and row.n * a_down != 1:
            # unmarked smooth point upstairs has alpha = 1
            failures.append(f"point row {row.down_id}: virtual alpha != n * alphabar")

    up_rupture = "E" in rupture_components(up)
    down_rupture = "E" in rupture_components(down)
    if down_rupture and not up_rupture:
        s0 = -down.component("E").data.ratio
        if s0 not in classify_poles(up).motivic_poles():
            failures.append(f"rupture component downstairs at {s0}, no motivic pole upstairs")
    degree = d // table.e_exc
    if up_rupture and not down_rupture and degree > 1:
        # Total-ramification points are the two chart origins; one of them
        # must carry the full covering degree as its alpha-value.
        special = [alpha_up.get(pid) for pid in ("U", "V") if pid in alpha_up]
        if Fraction(degree) not in special:
            failures.append(
                "rupture lost downstairs but no chart origin has alpha = deg(E->Ebar)"
            )
    return {
        "holds": not failures,
        "failures": failures,
        "degree_on_E": degree,
        "rupture_up": up_rupture,
        "rupture_down": down_rupture,
    }


@dataclass(frozen=True)
class TheoremReport:
    theorem: str  # "A" | "B" | "C"
    verdict: str  # "holds" | "fails" | "not-applicable"
    evidence: dict


def compare_levels(pair: QuotientPair, which: str) -> TheoremReport:
    """Check Theorem A (motivic containment), B (pole equality when W is
    trivial upstairs, that is Wbar = -B_rho) or C (exact d-scaling for
    invariant components) on the two levels of a built pair."""
    if which not in ("A", "B", "C"):
        raise InputError(f"unknown theorem {which!r}")
    # W = rho* Wbar + Ram_rho vanishes exactly when Wbar = -B_rho
    spec = pair.spec_up
    if which == "B" and (spec.axis_x[1] or spec.axis_y[1] or any(b.w for b in spec.branches)):
        return TheoremReport("B", "not-applicable", {"reason": "Wbar is not -B_rho"})
    up, down = classify_poles(pair.graph_up), classify_poles(pair.graph_down)
    if which == "A":
        mot_up, mot_down = up.motivic_poles(), down.motivic_poles()
        contained = set(mot_down) <= set(mot_up)
        two_up = {s for s, o in mot_up.items() if o == 2}
        two_down = {s for s, o in mot_down.items() if o == 2}
        holds = contained and two_up == two_down
        return TheoremReport(
            "A",
            "holds" if holds else "fails",
            {
                "motivic_up": mot_up,
                "motivic_down": mot_down,
                "top_up": up.top_poles(),
                "top_down": down.top_poles(),
                "containment": contained,
                "order_two_equal": two_up == two_down,
            },
        )

    if which == "B":
        top_up, mot_up = up.top_poles(), up.motivic_poles()
        top_down, mot_down = down.top_poles(), down.motivic_poles()
        holds = top_up == mot_up == top_down == mot_down
        return TheoremReport(
            "B",
            "holds" if holds else "fails",
            {
                "top_up": top_up,
                "mot_up": mot_up,
                "top_down": top_down,
                "mot_down": mot_down,
            },
        )

    # Theorem C, on the Ztop each graph keeps; the ratio z_down / z_up need
    # not split over Q, so the evidence records both sides
    z_up, z_down = ztop(pair.graph_up), ztop(pair.graph_down)
    if not all(o.invariant for o in pair.analysis.orbits):
        # z_down / z_up is a constant exactly when z_down is a scalar multiple of z_up
        if z_up.is_zero or z_down.is_zero:
            ratio_constant = z_up.is_zero and z_down.is_zero
        else:
            ratio_constant = z_down == z_up * (z_down.lead / z_up.lead)
        return TheoremReport(
            "C",
            "not-applicable",
            {
                "reason": "a branch orbit has size > 1",
                "z_up": z_up,
                "z_down": z_down,
                "ratio_constant": ratio_constant,
            },
        )
    holds = z_down == z_up * pair.setup.d
    return TheoremReport(
        "C",
        "holds" if holds else "fails",
        {"z_up": z_up, "z_down": z_down, "d": pair.setup.d},
    )


def verify_theorem(
    which: str, setup: QuotientSetup, dbar: DownDivisor, wbar: DownDivisor
) -> TheoremReport:
    """compare_levels on a new pair: kept for callers holding only (setup,
    Dbar, Wbar), such as the benchmark workloads, which time it as one call."""
    return compare_levels(build_quotient(setup, dbar, wbar), which)
