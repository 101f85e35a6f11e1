"""Randomized verification batches behind ``qzeta verify``.

Each family draws seeded instances, runs its checks, and reports one
verdict per instance.  All arithmetic is exact, so a failure is a genuine
counterexample (or a bug), never noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

from .cyclic import (
    PLANE,
    ActionSpec,
    HJChain,
    abelian_invariants,
    enumerate_action,
    hj_expand,
    normalize_type,
    smallify_action,
)
from .engraph import en_analyze, en_graph
from .errors import AdjunctionViolation, InputError, OrderTwo, ZeroAlpha
from .hodge import euler_specialize, hodge_zeta, s_factor
from .quotient import (
    DownDivisor,
    build_quotient,
    compare_levels,
    minus_branch_divisor,
    verify_correspondence,
)
from .randgen import (
    random_action_spec,
    random_down_pair,
    random_plane_spec,
    random_setup,
    random_swapped_setup,
)
from .resolution import (
    NumericalData,
    ResolutionGraph,
    check_adjunction,
    insert_hj_chains,
    weighted_blowup,
)
from .zeta import check_alpha_condition, top_residue, zeta_from_terms, ztop


@dataclass
class BatchResult:
    family: str
    seed: int
    count: int
    passed: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, index: int, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"instance": index, "problems": problems})
        else:
            self.passed += 1


def _random_graphs(rng: random.Random):
    """A batch unit: a plane graph plus an up/down quotient pair."""
    graphs = [weighted_blowup(PLANE, random_plane_spec(rng))]
    setup = random_setup(rng)
    dbar, wbar = random_down_pair(rng, setup)
    pair = build_quotient(setup, dbar, wbar)
    graphs += [pair.graph_up, pair.graph_down]
    return graphs


def _check_adjunction_instance(rng: random.Random) -> list[str]:
    problems = []
    for g in _random_graphs(rng):
        for graph in (g, insert_hj_chains(g)):
            try:
                check_adjunction(graph)
            except AdjunctionViolation as exc:
                problems.append(str(exc))
    return problems


def _chain_checks(graph: ResolutionGraph, smooth: ResolutionGraph) -> list[str]:
    problems = []
    if ztop(graph) != ztop(smooth):
        problems.append("ztop not invariant under chain insertion")
    if not graph.candidate_poles() <= smooth.candidate_poles():
        problems.append("candidate poles not preserved by chain insertion")
    for point in graph.points:
        if point.order == 1:
            continue
        fids = [c.id for c in smooth.components if c.id.startswith(f"{point.id}#F")]
        ks = [-smooth.component(f).self_intersection for f in fids]
        # only the k-vector enters the determinant
        det = HJChain(point.order, 0, tuple(ks)).delta(1, len(ks))
        if det != point.order:
            problems.append(f"chain at {point.id}: delta(1,r) = {det} != {point.order}")
        # tridiagonal relation with the end data
        d_A, d_B = graph.incident_data(point)
        ns = [d_A.N] + [smooth.component(f).data.N for f in fids] + [d_B.N]
        for t in range(1, len(ns) - 1):
            if ns[t - 1] - ks[t - 1] * ns[t] + ns[t + 1] != 0:
                problems.append(f"chain at {point.id}: tridiagonal relation fails")
                break
        # alpha-transfer to the curve adjacent to each real incident component
        for side, cid in enumerate(point.incident):
            comp = graph.component(cid)
            if comp.data.N == 0:
                continue
            adjacent = fids[0] if side == 0 else fids[-1]
            a_old = graph.alpha_at(point.id, cid)
            edge = next(
                p
                for p in smooth.points_on(cid)
                if adjacent in p.incident
            )
            a_new = smooth.alpha_at(edge.id, cid)
            if a_old != a_new:
                problems.append(
                    f"alpha-transfer fails at {point.id} against {cid}"
                )
    return problems


def _check_hj_instance(rng: random.Random) -> list[str]:
    problems = []
    for g in _random_graphs(rng):
        problems += _chain_checks(g, insert_hj_chains(g))
    return problems


def _hodge_graph(rng: random.Random) -> ResolutionGraph:
    """One graph per hodge-euler instance, rotating through the construction paths."""
    choice = rng.randrange(3)
    if choice == 0:
        return weighted_blowup(PLANE, random_plane_spec(rng))
    setup = random_setup(rng)
    dbar, wbar = random_down_pair(rng, setup)
    pair = build_quotient(setup, dbar, wbar)
    return pair.graph_up if choice == 1 else pair.graph_down


def _check_hodge_instance(rng: random.Random, strong: bool) -> list[str]:
    problems = []
    g = _hodge_graph(rng)
    z = ztop(g)
    smooth = insert_hj_chains(g)
    if euler_specialize(hodge_zeta(g)) != z:
        problems.append("euler(hodge) != ztop on the Q-resolution")
    if euler_specialize(hodge_zeta(smooth)) != z:
        problems.append("euler(hodge) != ztop on the smooth model")
    # the exact equality divides out each factor as the terms are summed, so
    # its cost follows the partial sums and needs no size gate; it runs on
    # every fifth instance to keep batches short
    if strong and hodge_zeta(g) != hodge_zeta(smooth):
        problems.append("hodge zeta not invariant under chain insertion")
    return problems


def _check_residue_instance(rng: random.Random) -> list[str]:
    """Order-1 candidates: residue vanishing iff the pole drops (all alpha != 0)."""
    problems = []
    for g in _random_graphs(rng):
        z = ztop(g)
        poles = z.poles()
        for s0 in g.candidate_poles():
            try:
                res = top_residue(g, s0)
            except (OrderTwo, ZeroAlpha):
                continue
            if res != 0 and poles.get(s0, 0) < 1:
                problems.append(f"nonzero residue at {s0} but no pole")
            if res == 0 and poles.get(s0, 0) == 1:
                problems.append(f"vanishing residue at simple pole {s0}")
            if poles.get(s0, 0) == 1 and res != z.residue(s0):
                problems.append(f"residue mismatch at {s0}")
    return problems


def _check_smallify_instance(rng: random.Random) -> list[str]:
    problems = []
    spec = random_action_spec(rng)
    small = smallify_action(spec)
    order = len(enumerate_action(spec))
    if small.m * small.e1 * small.e2 != order:
        problems.append(f"{spec}: m*e1*e2 = {small.m * small.e1 * small.e2} != |G| = {order}")
    # idempotence on the returned presentation
    again = smallify_action(ActionSpec(((small.m, small.a, small.b),)))
    if (again.m, again.a, again.b, again.e1, again.e2) != (
        small.m,
        small.a,
        small.b,
        1,
        1,
    ):
        problems.append(f"{spec}: smallify not idempotent")
    # SNF structure agrees with enumeration
    inv = abelian_invariants(spec)
    prod = 1
    for x in inv:
        prod *= x
    if prod != order:
        problems.append(f"{spec}: SNF order {prod} != enumerated order {order}")
    # normalize(m,a,b) and normalize(m,b,a) agree up to the swap
    m, a, b = spec.generators[0]
    left = normalize_type(m, a, b).swapped().normalized()
    right = normalize_type(m, b, a)
    if (left.m, left.a, left.b, left.e1, left.e2) != (
        right.m,
        right.a,
        right.b,
        right.e1,
        right.e2,
    ):
        problems.append(f"normalize swap mismatch for ({m},{a},{b})")
    return problems


def _check_theorem_instance(rng: random.Random, which: str) -> list[str]:
    problems = []
    setup = random_setup(rng)
    mode = "minus_branch" if which == "B" else "general"
    dbar, wbar = random_down_pair(
        rng, setup, wbar_mode=mode, invariant_only=(which == "C")
    )
    pair = build_quotient(setup, dbar, wbar)
    report = compare_levels(pair, which)
    if report.verdict != "holds":
        problems.append(f"theorem {which} verdict {report.verdict} on {setup}")
    corr = verify_correspondence(pair)
    if not corr["holds"]:
        problems.append("correspondence: " + "; ".join(corr["failures"][:3]))
    if which == "B":
        ok, viol = check_alpha_condition(pair.graph_down)
        if not ok:
            problems.append("alpha-condition fails downstairs: " + "; ".join(viol[:2]))
        problems += _alphas_abs1(pair.graph_down)
        analysis = en_analyze(en_graph(pair.graph_down), pair.graph_down)
        if not analysis["is_tree"]:
            problems.append("EN graph is not a tree")
        shape = analysis["minimal_subgraph_shape"]
        if shape == "two-arrows":
            # only for pairs already Q-normal crossing at the origin: the
            # minimal chain is rupture-free with every ratio equal
            down = pair.graph_down
            for comp in down.exceptional:
                ratio = down.component("E").data.ratio
                if comp.data.ratio == ratio and len(down.points_on(comp.id)) > 2:
                    problems.append("two-arrow minimal chain with a rupture vertex")
        elif shape not in (1, 2, 3, 4):
            problems.append(f"minimal subgraph shape {shape!r}")
        if analysis["monotone"] is False:
            problems.append("EN ratios not monotone away from the minimal subgraph")
        problems += _veys_prediction(pair.graph_down)
    return problems


def _alphas_abs1(graph: ResolutionGraph) -> list[str]:
    problems = []
    for comp in graph.exceptional:
        if comp.data.N == 0:
            continue
        alphas = graph.alpha_values(comp.id)
        for pid, a in alphas.items():
            if not (-1 <= a < 1):
                problems.append(f"alpha({pid}|{comp.id}) = {a} outside [-1,1)")
            if a == -1 and len(alphas) != 1:
                problems.append(f"alpha = -1 on {comp.id} with {len(alphas)} points")
    return problems


def _veys_prediction(graph: ResolutionGraph) -> list[str]:
    """Under the alpha-condition the poles are the strict transforms of D
    and the exceptional curves with >= 3 marked points; the order-2 pole,
    when present, is the closest to the origin."""
    problems = []
    z = ztop(graph)
    poles = z.poles()
    predicted = set()
    for comp in graph.components:
        if comp.data.N == 0:
            continue
        s0 = -comp.data.ratio
        if comp.kind in ("strict_D", "strict_DW"):
            predicted.add(s0)
        elif comp.is_exceptional and len(graph.points_on(comp.id)) >= 3:
            predicted.add(s0)
    if set(poles) != predicted:
        problems.append(
            f"Veys prediction {sorted(predicted)} != poles {sorted(poles)}"
        )
    doubles = [s for s, o in poles.items() if o == 2]
    if doubles:
        closest = max(poles, key=lambda s: s)  # all poles negative
        if len(doubles) != 1 or doubles[0] != closest:
            problems.append("order-2 pole is not the pole closest to the origin")
    return problems


def _check_sharpness_instance(rng: random.Random) -> list[str]:
    """Two transverse branches swapped by the action, with Wbar = -B_rho on
    the reflection axis (if any) plus nu - 1 on the branch orbit, so that
    upstairs D = N(C1 + C2) and W = (nu - 1)(C1 + C2) carry no axis."""
    problems = []
    setup = random_swapped_setup(rng)
    N = rng.choice([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)])
    nu = rng.choice([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 2)])
    dbar = DownDivisor(pq=(1, 1), branches=(("c", N),))
    wbar = replace(minus_branch_divisor(setup, (1, 1)), branches=(("c", nu - 1),))
    pair = build_quotient(setup, dbar, wbar)
    repC = compare_levels(pair, "C")
    # the general route against the closed forms: upstairs 1/(Ns + nu)^2 at
    # its pole and at s = 1, downstairs (3d/4)/(Ns + nu) + (d/4)/(Ns + nu)^2
    up, down = repC.evidence["z_up"], repC.evidence["z_down"]
    if up.poles() != {-nu / N: 2} or up.eval(1) != 1 / (N + nu) ** 2:
        problems.append("swapped pair: upstairs zeta is not 1/(Ns + nu)^2")
    data = NumericalData(N, nu)
    d = setup.d
    if down != zeta_from_terms([(Fraction(3 * d, 4), (data,)), (Fraction(d, 4), (data, data))]):
        problems.append("swapped pair: downstairs zeta differs from the closed form")
    corr = verify_correspondence(pair)
    if not corr["holds"]:
        problems.append("correspondence: " + "; ".join(corr["failures"][:3]))
    if repC.verdict != "not-applicable":
        problems.append(f"theorem C verdict {repC.verdict} on a swapped pair")
    if repC.evidence.get("ratio_constant") is not False:
        problems.append("ratio unexpectedly constant on a swapped pair")
    if compare_levels(pair, "A").verdict != "holds":
        problems.append("theorem A fails on a swapped pair")
    # W upstairs is (nu - 1)(C1 + C2): Theorem B applies exactly when nu = 1
    repB = compare_levels(pair, "B")
    if repB.verdict != ("holds" if nu == 1 else "not-applicable"):
        problems.append(f"theorem B verdict {repB.verdict} on a swapped pair, nu = {nu}")
    return problems


def _run_delta(result: BatchResult, rng: random.Random, count: int) -> None:
    """delta(1,r) = m for every chain with m <= 200 (count is ignored)."""
    index = 0
    for m in range(2, 201):
        problems = []
        for q in range(1, m):
            if gcd(m, q) != 1:
                continue
            chain = hj_expand(m, q)
            if chain.delta(1, chain.length) != m:
                problems.append(f"delta(1,r) != m for ({m},{q})")
        result.record(index, problems)
        index += 1
    result.count = index


_SIMPLE_FAMILIES = {
    "adjunction": _check_adjunction_instance,
    "hj-invariance": _check_hj_instance,
    "residues": _check_residue_instance,
    "smallify": _check_smallify_instance,
    "theoremA": lambda rng: _check_theorem_instance(rng, "A"),
    "theoremB": lambda rng: _check_theorem_instance(rng, "B"),
    "theoremC": lambda rng: _check_theorem_instance(rng, "C"),
    "theoremC-sharpness": _check_sharpness_instance,
}

FAMILIES = tuple(sorted(_SIMPLE_FAMILIES)) + ("delta", "hodge-euler", "sfactor")


def _check_sfactor_instance(rng: random.Random) -> list[str]:
    problems = []
    m = rng.randint(1, 40)
    a = rng.choice([x for x in range(1, m + 1) if gcd(x, m) == 1])
    b = rng.choice([x for x in range(1, m + 1) if gcd(x, m) == 1])
    Nvec = (rng.randint(0, 20), rng.randint(0, 20))
    nuvec = (Fraction(rng.randint(-10, 20), rng.randint(1, 4)), rng.randint(1, 9))
    sf = s_factor(m, a, b, Nvec, nuvec)
    if len(sf.terms) != m or sf.chi_specialize() != m:
        problems.append(f"S-factor of ({m};{a},{b}) has wrong term count")
    # swapping both the action weights and the local data is symmetric
    sf2 = s_factor(m, b, a, Nvec[::-1], nuvec[::-1])
    if sorted(sf.terms) != sorted(sf2.terms):
        problems.append(f"S-factor of ({m};{a},{b}) not symmetric under the swap")
    return problems


def run_family(family: str, seed: int, count: int) -> BatchResult:
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    result = BatchResult(family=family, seed=seed, count=count)
    rng = random.Random(seed)
    if family == "delta":
        _run_delta(result, rng, count)
        return result
    if family == "hodge-euler":
        for i in range(count):
            result.record(i, _check_hodge_instance(rng, strong=(i % 5 == 0)))
        return result
    if family == "sfactor":
        for i in range(count):
            result.record(i, _check_sfactor_instance(rng))
        return result
    check = _SIMPLE_FAMILIES.get(family)
    if check is None:
        raise InputError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    for i in range(count):
        result.record(i, check(rng))
    return result
