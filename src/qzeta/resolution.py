"""Embedded Q-resolutions of divisor pairs (D, W) on cyclic quotient germs.

The model is a decorated graph: components (exceptional curves and strict
transforms) carrying numerical data (N, nu) = (multiplicity in the pullback
of D, log discrepancy plus multiplicity in the pullback of W), and marked
points carrying oriented small cyclic local types.  A point's ``incident``
list is ordered so that its first entry is the component locally cut out by
the first coordinate of the local type.

Each graph fixes one integer scale r when it is built, the lcm of the
denominators of every component's N and nu, and keeps each component's
integer vector (n, v) = (r*N, r*nu).  Alpha-values, the topological zeta
function's split, residues and Hirzebruch-Jung chain data are computed on
these vectors, one ``Fraction`` per output value.

Automatic construction covers divisors resolved by a single (p,q)-weighted
blow-up: axes {x=0}, {y=0} plus branches y^p = c x^q with pairwise distinct
nonzero c.  Anything else enters through :func:`graph_from_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .cyclic import PLANE, ActionSpec, CyclicType, HJChain, hj_expand, smallify_action
from .errors import (
    AdjunctionViolation,
    DuplicateBranch,
    EmptyDivisor,
    InputError,
    LogPoleOutsideD,
    ZeroN,
)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _on_lattice(x: Fraction, r: int) -> int:
    """r * x, for r a multiple of x's denominator."""
    return x.numerator * (r // x.denominator)


@dataclass(frozen=True)
class NumericalData:
    """The linear form nu + N*s attached to a component.

    N is the multiplicity of the component in the pullback of D (rational,
    >= 0); nu is the log discrepancy plus the multiplicity in the pullback
    of W.  Strict transforms of a component with coefficient w in W carry
    nu = 1 + w.
    """

    N: Fraction
    nu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "N", _frac(self.N))
        object.__setattr__(self, "nu", _frac(self.nu))
        if self.N < 0:
            raise InputError(f"negative multiplicity N = {self.N}")

    @property
    def ratio(self) -> Fraction | None:
        """nu/N, or None when N = 0 (the EN-graph decoration oo)."""
        return None if self.N == 0 else self.nu / self.N

    @property
    def is_zero_form(self) -> bool:
        return self.N == 0 and self.nu == 0

    def scale(self, c) -> "NumericalData":
        c = _frac(c)
        return NumericalData(self.N * c, self.nu * c)

    def __str__(self):
        return f"({self.N},{self.nu})"


VIRTUAL_END = NumericalData(Fraction(0), Fraction(1))

KINDS = ("exceptional", "strict_D", "strict_W", "strict_DW", "branch_curve")


def strict_kind(N: Fraction, w: Fraction) -> str:
    """Kind of a strict-transform component from its D- and W-coefficients."""
    if N > 0:
        return "strict_DW" if w != 0 else "strict_D"
    return "strict_W"


@dataclass(frozen=True)
class Component:
    id: str
    kind: str
    data: NumericalData
    genus: int = 0
    log_discrepancy: Fraction | None = None
    label: str = ""
    self_intersection: Fraction | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown component kind {self.kind!r}")
        if self.genus < 0:
            raise InputError("negative genus")
        if self.kind in ("strict_D", "strict_DW") and self.data.N == 0:
            raise InputError(f"{self.kind} component {self.id!r} with N = 0")
        if self.log_discrepancy is not None:
            object.__setattr__(self, "log_discrepancy", _frac(self.log_discrepancy))
        if self.self_intersection is not None:
            object.__setattr__(self, "self_intersection", _frac(self.self_intersection))

    @property
    def is_exceptional(self) -> bool:
        return self.kind == "exceptional"


@dataclass(frozen=True)
class MarkedPoint:
    """A point of P_pi: singular point of the surface or intersection point.

    ``incident`` holds 0, 1 or 2 component ids; fewer than 2 means a
    singular point not lying on two listed components.  The order of
    ``incident`` matches the coordinates of ``local_type``: the first
    component is the local {x=0}.
    """

    id: str
    local_type: CyclicType
    incident: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.incident) > 2:
            raise InputError(f"point {self.id!r}: more than two incident components")
        if len(set(self.incident)) != len(self.incident):
            raise InputError(f"point {self.id!r}: repeated incident component")

    @property
    def order(self) -> int:
        return self.local_type.m


def oriented_point(pid: str, local_type: CyclicType, x_comp: str | None, y_comp: str | None) -> MarkedPoint:
    """Build a point from per-coordinate incidences, swapping when needed."""
    if x_comp is None and y_comp is not None:
        return MarkedPoint(pid, local_type.swapped(), (y_comp,))
    incident = tuple(c for c in (x_comp, y_comp) if c is not None)
    return MarkedPoint(pid, local_type, incident)


@dataclass(frozen=True)
class ResolutionGraph:
    """An embedded Q-resolution of a pair (D, W) on the germ ``ambient``."""

    ambient: CyclicType
    components: tuple[Component, ...]
    points: tuple[MarkedPoint, ...]

    def __post_init__(self):
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate component ids")
        pids = [p.id for p in self.points]
        if len(set(pids)) != len(pids):
            raise InputError("duplicate point ids")
        index = {c.id: c for c in self.components}
        incidence: dict[str, list[MarkedPoint]] = {cid: [] for cid in index}
        for p in self.points:
            for cid in p.incident:
                if cid not in index:
                    raise InputError(f"point {p.id!r} references unknown component {cid!r}")
                incidence[cid].append(p)
        r = lcm(*[x.denominator for c in self.components for x in (c.data.N, c.data.nu)])
        vec = {c.id: (_on_lattice(c.data.N, r), _on_lattice(c.data.nu, r)) for c in self.components}
        poles: dict[Fraction, list[Component]] = {}
        for c in self.components:
            n, v = vec[c.id]
            if n:
                poles.setdefault(Fraction(-v, n), []).append(c)
        # the scale r and the vectors (r*N, r*nu), keyed by component id
        object.__setattr__(self, "_r", r)
        object.__setattr__(self, "_vec", vec)
        object.__setattr__(self, "_index", index)
        object.__setattr__(
            self, "_incidence", {cid: tuple(ps) for cid, ps in incidence.items()}
        )
        object.__setattr__(self, "_poles", {s0: tuple(cs) for s0, cs in poles.items()})
        object.__setattr__(self, "_alphas", {})
        object.__setattr__(self, "_kept", {})  # zeta.py's values, keyed by function

    def __reduce__(self):
        # rebuilt from its fields: the kept values (mapping proxies, and
        # dicts keyed by functions) are dropped and computed again on use
        return type(self), (self.ambient, self.components, self.points)

    def component(self, cid: str) -> Component:
        return self._index[cid]

    def point(self, pid: str) -> MarkedPoint:
        for p in self.points:
            if p.id == pid:
                return p
        raise KeyError(pid)

    @property
    def exceptional(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.is_exceptional)

    def points_on(self, cid: str) -> tuple[MarkedPoint, ...]:
        return self._incidence[cid]

    def incident_data(self, point: MarkedPoint) -> tuple[NumericalData, NumericalData]:
        """Numerical data of the two local coordinates at a point.

        Missing incidences are imaginary curvettes with data (0, 1).
        """
        first = self.component(point.incident[0]).data if point.incident else VIRTUAL_END
        second = (
            self.component(point.incident[1]).data
            if len(point.incident) == 2
            else VIRTUAL_END
        )
        return first, second

    def other_component(self, point: MarkedPoint, cid: str) -> Component | None:
        for other in point.incident:
            if other != cid:
                return self.component(other)
        return None

    def alpha_values(self, cid: str) -> MappingProxyType[str, Fraction]:
        """alpha-value of every marked point on the component ``cid``.

        For P on E_i of order m: (nu_j - (nu_i/N_i) N_j)/m against the other
        incident component (imaginary curvette (0,1) when there is none),
        which on the graph's vectors is (v_j n_i - v_i n_j)/(r n_i m).
        Computed once per component and kept, read-only.
        """
        cached = self._alphas.get(cid)
        if cached is not None:
            return cached
        vec, r = self._vec, self._r
        n_i, v_i = vec[cid]
        if n_i == 0:
            raise ZeroN(f"alpha-values of {cid!r} need N != 0")
        out: dict[str, Fraction] = {}
        for p in self.points_on(cid):
            n_j, v_j = next((vec[o] for o in p.incident if o != cid), (0, r))
            out[p.id] = Fraction(v_j * n_i - v_i * n_j, r * n_i * p.order)
        cached = self._alphas[cid] = MappingProxyType(out)
        return cached

    def alpha_at(self, pid: str, cid: str) -> Fraction:
        return self.alpha_values(cid)[pid]

    def euler_open(self, cid: str) -> int:
        """chi of the open stratum: 2 - 2g - #(P_pi on the component)."""
        comp = self.component(cid)
        return 2 - 2 * comp.genus - len(self.points_on(cid))

    def candidate_poles(self) -> set[Fraction]:
        return set(self._poles)

    def realizing(self, s0) -> tuple[Component, ...]:
        """Components with nu + N s0 = 0 and N != 0, in component order."""
        return self._poles.get(s0, ())

    def self_intersection(self, cid: str) -> Fraction:
        """Self-intersection from intersection theory.

        Uses (pi* D).E = 0 when N != 0; otherwise falls back to adjunction
        with the stored log discrepancy.
        """
        comp = self.component(cid)
        if not comp.is_exceptional:
            raise InputError("self-intersection only computed for exceptional components")
        pts = self.points_on(cid)
        if comp.data.N != 0:
            total = Fraction(0)
            for p in pts:
                other = self.other_component(p, cid)
                if other is not None:
                    total += Fraction(other.data.N, 1) / p.order
            return -total / comp.data.N
        b = comp.log_discrepancy
        if b is None or b == 0:
            raise InputError(f"cannot derive self-intersection of {cid!r}")
        acc = Fraction(2 * comp.genus - 2)
        for p in pts:
            acc += 1 - Fraction(1, p.order)
            other = self.other_component(p, cid)
            if other is not None and other.is_exceptional:
                bj = other.log_discrepancy
                if bj is None:
                    raise InputError(f"missing log discrepancy on {other.id!r}")
                acc -= Fraction(bj - 1, p.order)
        return acc / b


def exceptional_connected(graph: ResolutionGraph) -> bool:
    exc = {c.id for c in graph.exceptional}
    if len(exc) <= 1:
        return True
    adj: dict[str, set[str]] = {cid: set() for cid in exc}
    for p in graph.points:
        inc = [c for c in p.incident if c in exc]
        if len(inc) == 2:
            adj[inc[0]].add(inc[1])
            adj[inc[1]].add(inc[0])
    seen = set()
    stack = [next(iter(exc))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == exc


def check_adjunction(graph: ResolutionGraph) -> None:
    """Enforce sum_P (alpha_P - 1) = 2g - 2 on every exceptional with N != 0."""
    for comp in graph.exceptional:
        if comp.data.N == 0:
            continue
        alphas = graph.alpha_values(comp.id)
        residual = sum(alphas.values()) - len(alphas) - (2 * comp.genus - 2)
        if residual != 0:
            raise AdjunctionViolation(comp.id, residual)


def validate_graph(graph: ResolutionGraph) -> None:
    for p in graph.points:
        if not p.local_type.is_small:
            raise InputError(f"point {p.id!r} has non-small local type {p.local_type}")
    if not exceptional_connected(graph):
        raise InputError("exceptional locus is not connected")
    check_adjunction(graph)


# ---------------------------------------------------------------------------
# divisor specifications and the one-step weighted blow-up


@dataclass(frozen=True)
class CClass:
    """Opaque branch coefficient c; ``k`` indexes zeta_d^k c within a family.

    Only distinctness and the orbit action k -> k + (pb - qa) matter.
    """

    family: str
    k: int = 0


@dataclass(frozen=True)
class BranchEntry:
    label: str
    c: CClass
    N: Fraction
    w: Fraction

    def __post_init__(self):
        object.__setattr__(self, "N", _frac(self.N))
        object.__setattr__(self, "w", _frac(self.w))


@dataclass(frozen=True)
class DivisorSpec:
    """D and W around the origin, resolved by one (p,q)-blow-up.

    ``axis_x`` and ``axis_y`` are (N, w) pairs of coefficients in D and W
    along {x=0} and {y=0}; branches are curves y^p = c x^q.
    """

    pq: tuple[int, int] = (1, 1)
    axis_x: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
    axis_y: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
    branches: tuple[BranchEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "axis_x", (_frac(self.axis_x[0]), _frac(self.axis_x[1]))
        )
        object.__setattr__(
            self, "axis_y", (_frac(self.axis_y[0]), _frac(self.axis_y[1]))
        )


def validate_weights(pq: tuple[int, int]) -> None:
    p, q = pq
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise InputError(f"blow-up weights must be coprime positive, got {pq}")


def validate_divisor(spec: DivisorSpec) -> None:
    validate_weights(spec.pq)
    entries = [spec.axis_x, spec.axis_y] + [(b.N, b.w) for b in spec.branches]
    for N, w in entries:
        if N < 0:
            raise InputError("multiplicities in D must be >= 0")
        if N == 0 and w == -1:
            raise LogPoleOutsideD("component with N = 0 carries multiplicity -1 in W")
    if all(N == 0 for N, _ in entries):
        raise EmptyDivisor("D must be a nonzero effective divisor")
    cs = [b.c for b in spec.branches]
    if len(set(cs)) != len(cs):
        raise DuplicateBranch("branch coefficients must be pairwise distinct")
    labels = [b.label for b in spec.branches]
    if len(set(labels)) != len(labels):
        raise DuplicateBranch("branch labels must be pairwise distinct")


def chart_actions(ambient: CyclicType, p: int, q: int) -> tuple[ActionSpec, ActionSpec]:
    """Orbifold chart groups of the (p,q)-blow-up of X(m;a,b).

    In the first chart the exceptional curve is {x=0} and the strict
    transform of {y=0} passes through the origin; in the second chart the
    exceptional curve is {y=0} and {x=0} passes through the origin.
    """
    m, a, b = ambient.m, ambient.a, ambient.b
    u_chart = ActionSpec(((p, -1 % p, q % p), (p * m, a % (p * m), (p * b - q * a) % (p * m))))
    v_chart = ActionSpec(((q, p % q, -1 % q), (q * m, (q * a - p * b) % (q * m), b % (q * m))))
    return u_chart, v_chart


def weighted_blowup(ambient: CyclicType, spec: DivisorSpec) -> ResolutionGraph:
    """Embedded Q-resolution of (D, W) by one (p,q)-blow-up at the origin.

    For the plane ambient, the exceptional curve receives
    N_E = p*q*sum(N_branch) + p*N_x + q*N_y and
    nu_E = (p+q) + p*w_x + q*w_y + p*q*sum(w_branch),
    with chart-origin singularities given by the chart actions.  Nontrivial
    ambients are delegated to the quotient pipeline, which divides data by
    ramification indices.
    """
    validate_divisor(spec)
    if ambient.m != 1:
        from .quotient import QuotientSetup, build_quotient, split_down_spec

        setup = QuotientSetup(ambient.m, ambient.a, ambient.b)
        return build_quotient(setup, *split_down_spec(spec)).graph_down
    p, q = spec.pq
    (N_x, w_x), (N_y, w_y) = spec.axis_x, spec.axis_y
    N_E = p * q * sum((b.N for b in spec.branches), Fraction(0)) + p * N_x + q * N_y
    nu_E = (
        Fraction(p + q)
        + p * w_x
        + q * w_y
        + p * q * sum((b.w for b in spec.branches), Fraction(0))
    )
    comps = [
        Component(
            "E",
            "exceptional",
            NumericalData(N_E, nu_E),
            genus=0,
            log_discrepancy=Fraction(p + q),
        )
    ]
    have_x = N_x > 0 or w_x != 0
    have_y = N_y > 0 or w_y != 0
    if have_x:
        comps.append(
            Component("Lx", strict_kind(N_x, w_x), NumericalData(N_x, 1 + w_x), label="{x=0}")
        )
    if have_y:
        comps.append(
            Component("Ly", strict_kind(N_y, w_y), NumericalData(N_y, 1 + w_y), label="{y=0}")
        )
    for br in spec.branches:
        comps.append(
            Component(br.label, strict_kind(br.N, br.w), NumericalData(br.N, 1 + br.w), label=br.label)
        )

    u_act, v_act = chart_actions(ambient, p, q)
    type_u = smallify_action(u_act)
    type_v = smallify_action(v_act)
    points = []
    # chart origins: E is {x=0} in the first chart, {y=0} in the second
    if type_u.m > 1 or have_y:
        points.append(oriented_point("U", type_u, "E", "Ly" if have_y else None))
    if type_v.m > 1 or have_x:
        points.append(oriented_point("V", type_v, "Lx" if have_x else None, "E"))
    for br in spec.branches:
        points.append(
            oriented_point(f"pt_{br.label}", CyclicType(1, 0, 0), "E", br.label)
        )
    graph = ResolutionGraph(ambient, tuple(comps), tuple(points))
    check_adjunction(graph)
    return graph


# ---------------------------------------------------------------------------
# direct graph input


def graph_from_spec(description: dict) -> ResolutionGraph:
    """Validated graph from an explicit description.

    ``description`` carries ``components`` (id, kind, genus, N, nu, optional
    log_discrepancy/label) and ``points`` (id, local_type [m,a,b], incident),
    plus an optional ``ambient`` triple.  The adjunction identity is a hard
    check; violations raise :class:`AdjunctionViolation` with the residual.
    """
    amb = description.get("ambient")
    if amb is None:
        ambient = PLANE
    elif isinstance(amb, CyclicType):
        ambient = amb
    else:
        ambient = CyclicType(int(amb[0]), int(amb[1]), int(amb[2]))
    comps = []
    for c in description["components"]:
        comps.append(
            Component(
                id=str(c["id"]),
                kind=c["kind"],
                data=NumericalData(_frac(c["N"]), _frac(c["nu"])),
                genus=int(c.get("genus", 0)),
                log_discrepancy=(
                    _frac(c["log_discrepancy"]) if c.get("log_discrepancy") is not None else None
                ),
                label=str(c.get("label", "")),
                self_intersection=(
                    _frac(c["self_intersection"])
                    if c.get("self_intersection") is not None
                    else None
                ),
            )
        )
    points = []
    for p in description.get("points", ()):
        lt = p["local_type"]
        if isinstance(lt, CyclicType):
            local_type = lt
        else:
            local_type = CyclicType(int(lt[0]), int(lt[1]), int(lt[2]))
        points.append(MarkedPoint(str(p["id"]), local_type, tuple(map(str, p["incident"]))))
    graph = ResolutionGraph(ambient, tuple(comps), tuple(points))
    validate_graph(graph)
    return graph


# ---------------------------------------------------------------------------
# Hirzebruch-Jung chain insertion


def _chain(point: MarkedPoint) -> HJChain:
    """Hirzebruch-Jung chain resolving the point.

    For an oriented local type (m;1,q), the chain read from the {x=0} end is
    the expansion of m / (q^{-1} mod m); see the toric fan of the germ.
    """
    m = point.order
    q = point.local_type.unit_a_weight()
    q_from_x = pow(q, -1, m)
    return hj_expand(m, q_from_x)


def insert_hj_chains(graph: ResolutionGraph) -> ResolutionGraph:
    """Replace every point of order m > 1 by its Hirzebruch-Jung chain.

    Chain curve data interpolate the two end data d_A, d_B through
    d_t = (Delta(t+1,l) d_A + Delta(1,t-1) d_B) / Delta(1,l), with a free end
    (point on a single component) using the curvette data (0, 1), and
    Delta(1,l) = m.  Each entry is one ``Fraction`` read off the graph's
    vectors: (Delta(t+1,l) (n_A, v_A) + Delta(1,t-1) (n_B, v_B))/(m r).  The
    result is a smooth model: all point orders are 1.
    """
    vec, r = graph._vec, graph._r
    comps = list(graph.components)
    points = []
    for point in graph.points:
        if point.order == 1:
            points.append(point)
            continue
        m = point.order
        chain = _chain(point)
        ks, length, det = chain.ks, chain.length, chain.delta
        ends = [graph.component(cid) for cid in point.incident]
        free = 2 - len(ends)
        (n_A, v_A), (n_B, v_B) = [vec[c.id] for c in ends] + [(0, r)] * free
        # log discrepancies interpolate like the data; strict transforms and
        # curvettes count with b = 1
        bs = [c.log_discrepancy for c in ends] + [None] * free
        (p_A, q_A), (p_B, q_B) = [(1, 1) if b is None else b.as_integer_ratio() for b in bs]
        fids = [f"{point.id}#F{t}" for t in range(1, length + 1)]
        for t, fid in enumerate(fids, 1):
            c_A, c_B = det(t + 1, length), det(1, t - 1)
            data = NumericalData(
                Fraction(c_A * n_A + c_B * n_B, m * r), Fraction(c_A * v_A + c_B * v_B, m * r)
            )
            b = Fraction(c_A * p_A * q_B + c_B * p_B * q_A, m * q_A * q_B)
            comps.append(Component(fid, "exceptional", data, genus=0, log_discrepancy=b,
                                   self_intersection=Fraction(-ks[t - 1])))
        # chain edges; a free virtual end produces no point
        seq = [c.id for c in ends[:1]] + fids + [c.id for c in ends[1:]]
        points += [
            MarkedPoint(f"{point.id}#e{i}", CyclicType(1, 0, 0), (seq[i], seq[i + 1]))
            for i in range(len(seq) - 1)
        ]
    return ResolutionGraph(graph.ambient, tuple(comps), tuple(points))
