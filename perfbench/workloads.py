"""The four seeded workloads: input generators, operations and output checks.

An operation is one drawn instance carried through every library call the
workload lists.  Calls go through ``calls(name, fn, *args)`` so a traced run
can time each one; the span name is ``<module>.<call>``.  Each operation
checks its outputs by a route independent of the call that produced them,
and appends canonical output lines to ``out`` for the digest check.
"""

from __future__ import annotations

import json
import operator
import random
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

from qzeta import (
    PLANE,
    QuotientSetup,
    build_quotient,
    classify_poles,
    en_analyze,
    en_graph,
    euler_specialize,
    exceptional_ramification,
    hodge_residue,
    hodge_zeta,
    insert_hj_chains,
    smallify_action,
    top_residue,
    verify_correspondence,
    verify_theorem,
    weighted_blowup,
    ztop,
)
from qzeta.cyclic import abelian_invariants
from qzeta.errors import OrderTwo, PathologicalCase, ZeroAlpha
from qzeta.instances import load_instance
from qzeta.quotient import orbit_size
from qzeta.randgen import (
    random_down_pair,
    random_plane_spec,
    random_setup,
)
from qzeta.resolution import chart_actions
from qzeta.serialize import INSTANCE_SCHEMA, frac_to_str, pole_report_to_json

DEFAULT_SEED = 20260810

# Exact rationals at which Ztop is compared with the direct sum of its terms.
# Prime denominators above every pole denominator the generators produce.
PROBES = (Fraction(7, 9973), Fraction(-3217, 1009), Fraction(40013, 3))

# The Hodge equality clears denominators at a cost exponential in the number
# of distinct factors; verify's gate, without its every-fifth sampling.
STRONG_MAX_FACTORS = 11

# bigrat-zeta sweep.  Trial-division root finding makes the cost exponential
# in the bits: 8-bit instances took 0.1 s to 3.5 s (over 20 s with composite
# draws), so a 25 s run held too few of them to measure steadily; the sweep
# stops at 7.  An odd number of sizes puts the median instance inside the
# middle size instead of on the edge between two.
BITS = (3, 4, 5, 6, 7)

# Generators draw instances stratum by stratum, in turn, so that every seed
# gives the same mix of the properties that set an instance's cost; the seed
# decides everything else, through randgen's own draws.  Strata found by
# timing single instances: the number of branches of a plane spec (0 to 4,
# equally often, as random_plane_spec draws it), and the upstairs branch
# count of a downstairs pair, in the proportions of randgen's setup and pair
# draws (measured on 20000 draws: 0 in 55.5%, 1 to 6 in 3.2, 5.7, 7.0, 9.3,
# 8.4 and 10.9%), here out of 49, spread evenly over the cycle ...
UP_BRANCH_WEIGHTS = (27, 2, 3, 3, 5, 4, 5)
UP_BRANCHES = tuple(
    n for _, n in sorted(
        ((k + 0.5) / w, n) for n, w in enumerate(UP_BRANCH_WEIGHTS) for k in range(w)
    )
)
# ... d and the weights (p, q): the brute-force ramification count grows
# with d^2 pq, and long Hirzebruch-Jung chains multiply the candidate poles.
# quotient-sweep takes d along a golden-ratio sequence in each bucket; it and
# the quotient pairs of topo-batch and bigrat-zeta take (p, q) through
# randgen's 23 coprime pairs, one per instance.  topo-batch also sweeps d
# from 1 to 12 and its plane weights through the 43 coprime pairs up to 8
# that random_plane_spec draws.  The cycle lengths (5, 12, 23, 43, 49) are
# pairwise coprime, so every combination comes round.
D_BUCKETS = ((1, 12), (13, 50), (51, 100), (101, 200), (201, 300))
PQ_SWEEP = [(p, q) for p in range(1, 7) for q in range(1, 7) if gcd(p, q) == 1]
PLANE_PQ_SWEEP = [(p, q) for p in range(1, 9) for q in range(1, 9) if gcd(p, q) == 1]
GOLDEN = (5**0.5 - 1) / 2

# topo-batch curve buckets: distinct linear forms summed over the six graphs.
FORM_BUCKETS = ((1, 32), (33, 40), (41, 48), (49, 10**9))


class CheckFailed(Exception):
    """An output disagreed with its independent check."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent routes


def direct_ztop(graph, s: Fraction):
    """The defining sum of Ztop at s in plain Fractions (None at a pole)."""
    total = Fraction(0)
    for comp in graph.exceptional:
        chi = graph.euler_open(comp.id)
        if chi:
            form = comp.data.nu + comp.data.N * s
            if form == 0:
                return None
            total += Fraction(chi) / form
    for point in graph.points:
        d1, d2 = graph.incident_data(point)
        f1, f2 = d1.nu + d1.N * s, d2.nu + d2.N * s
        if f1 == 0 or f2 == 0:
            return None
        total += Fraction(point.order) / (f1 * f2)
    return total


def zeta_forms(graph) -> tuple[int, int]:
    """(terms, distinct linear forms) of the Ztop sum of a graph."""
    forms = []
    for comp in graph.exceptional:
        if graph.euler_open(comp.id):
            forms.append((comp.data.N, comp.data.nu))
    for point in graph.points:
        for d in graph.incident_data(point):
            forms.append((d.N, d.nu))
    terms = sum(1 for c in graph.exceptional if graph.euler_open(c.id)) + len(graph.points)
    return terms, len(set(forms))


def eval_rendered(text: str, s: Fraction) -> Fraction:
    """Evaluate a ``RatFunc.render`` string such as ``(3s+7)/(4(s+1)(6s+7))``."""
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else ""

    def number():
        nonlocal pos
        start = pos
        while peek().isdigit():
            pos += 1
        if start == pos:
            raise CheckFailed(f"rendered text {text!r}: number expected at {pos}")
        return int(text[start:pos])

    def atom():
        nonlocal pos
        c = peek()
        if c.isdigit():
            value = Fraction(number())
        elif c == "s":
            pos += 1
            value = s
        elif c == "(":
            pos += 1
            value = total()
            expect(peek() == ")", f"rendered text {text!r}: ')' expected at {pos}")
            pos += 1
        else:
            raise CheckFailed(f"rendered text {text!r}: unexpected {c!r} at {pos}")
        if peek() == "^":
            pos += 1
            value = value ** number()
        return value

    def product():
        value = atom()
        while peek() and peek() in "0123456789s(":
            value *= atom()
        return value

    def quotient():
        nonlocal pos
        value = product()
        if peek() == "/":
            pos += 1
            value /= product()
        return value

    def total():
        nonlocal pos
        sign = 1
        if peek() in ("-", "+"):
            sign = -1 if peek() == "-" else 1
            pos += 1
        value = sign * quotient()
        while peek() in ("+", "-"):
            sign = -1 if peek() == "-" else 1
            pos += 1
            value += sign * quotient()
        return value

    value = total()
    expect(pos == len(text), f"rendered text {text!r}: trailing input at {pos}")
    return value


def check_zeta_value(graph, z, text: str) -> None:
    """Ztop and its rendering agree with the direct sum at every probe."""
    for s in PROBES:
        direct = direct_ztop(graph, s)
        if direct is None:
            continue
        expect(z.eval(s) == direct, f"Ztop({s}) != direct sum of its terms")
        expect(eval_rendered(text, s) == direct, f"rendered Ztop at {s} != direct sum")


def check_poles(graph, z, poles: dict) -> None:
    """Poles are candidate roots of the reduced denominator, with full degree."""
    expect(set(poles) <= graph.candidate_poles(), "pole outside the candidate set")
    expect(sum(poles.values()) == z.den.degree, "pole orders do not fill the denominator")
    for s0 in poles:
        expect(z.den.eval(s0) == 0, f"pole {s0} is not a root of the denominator")


def _poles_line(poles: dict) -> str:
    return " ".join(f"{frac_to_str(s)}:{o}" for s, o in sorted(poles.items()))


def _report_line(report) -> str:
    return json.dumps(pole_report_to_json(report), sort_keys=True)


# ---------------------------------------------------------------------------
# topo-batch: hj-invariance and residues


def _counted_plane_spec(rng: random.Random, branches: int, pq=None):
    """randgen.random_plane_spec, drawn again until it has ``branches``
    branches (and the given weights, if any)."""
    while True:
        spec = random_plane_spec(rng)
        if len(spec.branches) == branches and pq in (None, spec.pq):
            return spec


def _draw_setup(rng: random.Random, d: int) -> QuotientSetup:
    """randgen.random_setup for a given d."""
    while True:
        a = rng.randrange(d) if d > 1 else 0
        b = rng.randrange(d) if d > 1 else 0
        if gcd(gcd(d, a), b) == 1:
            return QuotientSetup(d, a, b)


def _down_pair(rng: random.Random, up_branches: int, d=None, pq=None):
    """randgen's setup (with the given d, if any) and downstairs pair, drawn
    again until it has ``up_branches`` branches upstairs (and the given
    weights, if any)."""
    while True:
        setup = random_setup(rng) if d is None else _draw_setup(rng, d)
        dbar, wbar = random_down_pair(rng, setup)
        if pq not in (None, dbar.pq):
            continue
        if len(dbar.branches) * orbit_size(setup, dbar.pq) == up_branches:
            return setup, dbar, wbar


def topo_inputs(seed: int, count: int) -> list:
    """verify._random_graphs draws with their sizes taken in turn: a plane
    spec (0-4 branches, weights up to 8) and a downstairs pair (d from 1 to
    12, UP_BRANCHES upstairs branches, the quotient-sweep weights)."""
    rng = random.Random(seed)
    return [
        (
            _counted_plane_spec(rng, i % 5, PLANE_PQ_SWEEP[i % len(PLANE_PQ_SWEEP)]),
            *_down_pair(
                rng, UP_BRANCHES[i % len(UP_BRANCHES)], 1 + i % 12, PQ_SWEEP[i % len(PQ_SWEEP)]
            ),
        )
        for i in range(count)
    ]


def _zeta_layer(graph, calls, out):
    z = calls("zeta.ztop", ztop, graph)
    poles = calls("ratfunc.poles", z.poles)
    text = calls("ratfunc.render", z.render)
    check_zeta_value(graph, z, text)
    check_poles(graph, z, poles)
    out.append(f"ztop {text} | {_poles_line(poles)}")
    for s0 in sorted(graph.candidate_poles()):
        order = poles.get(s0, 0)
        if order > 1:
            continue
        try:
            res = calls("zeta.top_residue", top_residue, graph, s0, expected=(OrderTwo, ZeroAlpha))
        except (OrderTwo, ZeroAlpha):
            continue
        if order == 1:
            other = calls("ratfunc.residue", z.residue, s0)
            expect(res == other, f"top_residue {res} != RatFunc.residue {other} at {s0}")
        else:
            expect(res == 0, f"nonzero residue {res} at {s0}, which is no pole")
        out.append(f"res {frac_to_str(s0)} {frac_to_str(res)}")
    report = calls("zeta.classify_poles", classify_poles, graph)
    expect(report.top_poles() == poles, "classify_poles disagrees with RatFunc.poles")
    out.append(_report_line(report))
    if calls.tracing:
        terms, forms = zeta_forms(graph)
        calls.add("zeta.terms", terms)
        calls.add("zeta.distinct_forms", forms)
        calls.peak("ratfunc.coeff_bits_max", coeff_bits(z))
    return z


def coeff_bits(z) -> int:
    prim, _ = z.den.integer_cleared()
    return max(abs(c.numerator).bit_length() for c in prim.coeffs)


def topo_op(inp, calls, out) -> dict:
    spec, setup, dbar, wbar = inp
    plane = calls("resolution.weighted_blowup", weighted_blowup, PLANE, spec)
    pair = calls("quotient.build_quotient", build_quotient, setup, dbar, wbar)
    forms = 0
    for graph in (plane, pair.graph_up, pair.graph_down):
        smooth = calls("resolution.insert_hj_chains", insert_hj_chains, graph)
        z = _zeta_layer(graph, calls, out)
        z_smooth = _zeta_layer(smooth, calls, out)
        expect(z == z_smooth, "Ztop not invariant under HJ chain insertion")
        forms += zeta_forms(graph)[1] + zeta_forms(smooth)[1]
    return {"forms": forms}


# ---------------------------------------------------------------------------
# hodge-batch: hodge-euler


def hodge_inputs(seed: int, count: int) -> list:
    """One graph per instance, rotating plane / up / down as verify's
    hodge-euler does, with plane branch counts and UP_BRANCHES in turn
    within each kind."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind, turn = ("plane", "up", "down")[i % 3], i // 3
        if kind == "plane":
            out.append((kind, _counted_plane_spec(rng, turn % 5)))
        else:
            out.append((kind, _down_pair(rng, UP_BRANCHES[turn % len(UP_BRANCHES)])))
    return out


def hodge_op(inp, calls, out) -> dict:
    kind, data = inp
    if kind == "plane":
        graph = calls("resolution.weighted_blowup", weighted_blowup, PLANE, data)
    else:
        pair = calls("quotient.build_quotient", build_quotient, *data)
        graph = pair.graph_up if kind == "up" else pair.graph_down
    smooth = calls("resolution.insert_hj_chains", insert_hj_chains, graph)
    z = calls("zeta.ztop", ztop, graph)
    h = calls("hodge.hodge_zeta", hodge_zeta, graph)
    h_smooth = calls("hodge.hodge_zeta", hodge_zeta, smooth)
    for expr, where in ((h, "Q-resolution"), (h_smooth, "smooth model")):
        e = calls("hodge.euler_specialize", euler_specialize, expr)
        expect(e == z, f"euler(hodge) != ztop on the {where}")
    factors = len({(c.data.N, c.data.nu) for c in smooth.components})
    if factors <= STRONG_MAX_FACTORS:
        same = calls("hodge.expr_eq", operator.eq, h, h_smooth)
        expect(same is True, "Hodge zeta not invariant under chain insertion")
        calls.add("hodge.strong_checked", 1)
    else:
        calls.add("hodge.strong_skipped", 1)
    out.append(f"{kind} factors {factors} ztop {z.render()}")
    for s0 in sorted(graph.candidate_poles()):
        try:
            res = calls("zeta.top_residue", top_residue, graph, s0, expected=(OrderTwo, ZeroAlpha))
        except (OrderTwo, ZeroAlpha):
            continue
        hres = calls("hodge.hodge_residue", hodge_residue, graph, s0)
        e = calls("hodge.euler_specialize", euler_specialize, hres)
        expect(e == res, f"euler(hodge residue) != top residue at {s0}")
        out.append(f"res {frac_to_str(s0)} {frac_to_str(res)}")
    if calls.tracing:
        calls.add("hodge.terms", len(h.terms) + len(h_smooth.terms))
        calls.peak("hodge.distinct_factors_max", factors)
    return {}


# ---------------------------------------------------------------------------
# quotient-sweep: theoremA, theoremB, theoremC over a wide range of d


def quotient_inputs(seed: int, count: int) -> list:
    """Theorems A/B/C with verify's Wbar modes over the d and (p, q) sweep;
    the seed draws a, b and the divisor tables (randgen.random_down_pair,
    drawn again until it has the sweep's weights)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        bucket, visit = i % len(D_BUCKETS), i // len(D_BUCKETS)
        lo, hi = D_BUCKETS[bucket]
        d = lo + int((visit * GOLDEN) % 1 * (hi - lo + 1))
        which = "ABC"[visit % 3]
        pq = PQ_SWEEP[i % len(PQ_SWEEP)]
        mode = "minus_branch" if which == "B" else "general"
        while True:
            setup = _draw_setup(rng, d)
            dbar, wbar = random_down_pair(
                rng, setup, wbar_mode=mode, invariant_only=(which == "C")
            )
            if dbar.pq == pq:
                break
        out.append((which, bucket, setup, dbar, wbar))
    return out


def _en(graph):
    return en_analyze(en_graph(graph), graph)


def quotient_op(inp, calls, out) -> dict:
    which, bucket, setup, dbar, wbar = inp
    info = {"bucket": bucket}
    report = calls("quotient.verify_theorem", verify_theorem, which, setup, dbar, wbar)
    expect(report.verdict == "holds", f"theorem {which} verdict {report.verdict} on {setup}")
    out.append(f"theorem {which} {report.verdict}")
    try:
        pair = calls(
            "quotient.build_quotient", build_quotient, setup, dbar, wbar,
            expected=(PathologicalCase,),
        )
    except PathologicalCase:
        out.append("pathological")
        return info
    corr = calls("quotient.verify_correspondence", verify_correspondence, pair)
    expect(corr["holds"], "correspondence: " + "; ".join(corr["failures"][:3]))
    out.append(json.dumps(corr, sort_keys=True))
    p, q = pair.spec_up.pq
    e = calls("quotient.exceptional_ramification", exceptional_ramification, setup, (p, q))
    closed = gcd(setup.d, p * setup.b - q * setup.a)
    expect(e == closed == pair.table.e_exc, f"ramification {e} != gcd form {closed}")
    out.append(f"e {e}")
    for action in chart_actions(setup.germ, p, q):
        t = calls("cyclic.smallify_action", smallify_action, action)
        order = t.m * t.e1 * t.e2
        expect(order == prod(abelian_invariants(action)), "smallify order != SNF order")
        calls.add("cyclic.group_order_sum", order)
        out.append(f"small {t.m} {t.a} {t.b} {t.e1} {t.e2}")
    if which == "B":
        analysis = calls("engraph.en_analyze", _en, pair.graph_down)
        expect(analysis["is_tree"], "EN graph is not a tree")
        out.append(json.dumps(analysis, sort_keys=True, default=str))
    return info


# ---------------------------------------------------------------------------
# bigrat-zeta: the qzeta zeta command path on growing rationals


def _primes(bits: int) -> list[int]:
    return [n for n in range(max(2, 1 << (bits - 1)), 1 << bits)
            if all(n % k for k in range(2, int(n**0.5) + 1))]


PRIMES = {b: _primes(b) for b in BITS}


def _bits_rationals(rng: random.Random, bits: int, count: int) -> list[Fraction]:
    """``count`` fractions p/q of b-bit primes, so that no draw reduces below
    b bits; all 2 * count primes distinct where there are that many b-bit
    primes (6 and 7 bits), else distinct within each fraction.

    Random b-bit integers reduce to anything from 1 to b bits, and their
    many small factors multiply the divisor pairs the root search tries;
    either made the cost of one bit size vary by two orders of magnitude.
    A prime shared between fractions shrinks the search in the same way:
    at 7 bits, distinct primes took the cost variation (stdev / mean) of
    one size from 0.75 to 0.52 at about the same mean.
    """
    primes = PRIMES[bits]
    if len(primes) >= 2 * count:
        ps = rng.sample(primes, 2 * count)
    else:
        ps = [p for _ in range(count) for p in rng.sample(primes, 2)]
    return [Fraction(ps[2 * k], ps[2 * k + 1]) for k in range(count)]


def bigrat_documents(seed: int, count: int) -> list:
    """qres-instance/1 documents: two branches and an axis W coefficient
    with b-bit numerators and denominators.  The bit sweep runs on the plane,
    then on X(d;a,b) (d <= 12); the weights run through the quotient-sweep
    pairs."""
    rng = random.Random(seed)
    docs = []
    for i in range(count):
        bits = BITS[i % len(BITS)]
        quotient = (i // len(BITS)) % 2 == 1
        pq = PQ_SWEEP[i % len(PQ_SWEEP)]
        if quotient:
            # at most 3 upstairs branches per orbit, as in randgen's batches
            setup = random_setup(rng)
            while orbit_size(setup, pq) > 3:
                setup = random_setup(rng)
            surface = {"kind": "cyclic_quotient", "d": setup.d, "a": setup.a, "b": setup.b}
        else:
            surface = {"kind": "plane"}
        w, *ns = _bits_rationals(rng, bits, 3)
        branches = [{"label": f"c{k}", "N": str(n), "w": "0"} for k, n in enumerate(ns)]
        docs.append(
            (
                bits,
                {
                    "schema": INSTANCE_SCHEMA,
                    "surface": surface,
                    "mode": "weighted_homogeneous",
                    "divisor": {
                        "pq": list(pq),
                        "axis_x": {"N": "0", "w": str(w)},
                        "branches": branches,
                    },
                },
            )
        )
    return docs


def bigrat_inputs(seed: int, count: int, directory: Path) -> list:
    """Write the documents as instance files; inputs are (path, bits)."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, (bits, doc) in enumerate(bigrat_documents(seed, count)):
        path = directory / f"{i:05d}-b{bits}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        out.append((str(path), bits))
    return out


def bigrat_op(inp, calls, out) -> dict:
    path, bits = inp
    inst = calls("instances.load_instance", load_instance, path)
    if inst.is_quotient:
        pair = calls("quotient.build_quotient", build_quotient, inst.surface, *inst.down_pair)
        graph = pair.graph_down
    else:
        graph = calls("resolution.weighted_blowup", weighted_blowup, PLANE, inst.spec)
    z = calls("zeta.ztop", ztop, graph)
    report = calls("zeta.classify_poles", classify_poles, graph)
    text = calls("ratfunc.render", z.render)
    payload = calls("serialize.pole_report_to_json", pole_report_to_json, report)
    check_zeta_value(graph, z, text)
    poles = report.top_poles()
    check_poles(graph, z, poles)
    expect(
        [(Fraction(e["s0"]), e["top_order"]) for e in payload["entries"]]
        == [(e.s0, e.top_order) for e in report.entries],
        "pole report JSON disagrees with the report",
    )
    out.append(f"ztop {text}")
    out.append(json.dumps(payload, sort_keys=True))
    if calls.tracing:
        terms, forms = zeta_forms(graph)
        calls.add("zeta.terms", terms)
        calls.add("zeta.distinct_forms", forms)
        calls.peak("ratfunc.coeff_bits_max", coeff_bits(z))
    return {"bits": bits}


# ---------------------------------------------------------------------------
# registry


class Workload:
    def __init__(self, name, op, make_inputs, pool, canary):
        self.name = name
        self.op = op
        self.make_inputs = make_inputs  # (seed, count, file directory) -> inputs
        self.pool = pool  # inputs drawn per run; the loop wraps around
        self.canary = canary  # default-seed instances checked against digests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("topo-batch", topo_op, lambda s, n, _d: topo_inputs(s, n), 180, 8),
        Workload("hodge-batch", hodge_op, lambda s, n, _d: hodge_inputs(s, n), 800, 12),
        Workload("quotient-sweep", quotient_op, lambda s, n, _d: quotient_inputs(s, n), 600, 15),
        Workload("bigrat-zeta", bigrat_op, bigrat_inputs, 600, 10),
    )
}


def input_bytes(name: str, seed: int, count: int, directory: Path) -> bytes:
    """Canonical bytes of the generated inputs, for the determinism test."""
    inputs = WORKLOADS[name].make_inputs(seed, count, directory)
    if name == "bigrat-zeta":
        return b"".join(Path(p).read_bytes() for p, _ in inputs)
    return repr(inputs).encode()

