"""Command-line entry point.

Subcommands: ``resolve`` (emit resolution graphs), ``zeta`` (topological
zeta function with the pole report), ``quotient`` (both levels, the
correspondence table and theorem reports) and ``verify`` (randomized check
batches).  Machine output is JSON; summaries go to standard output; DOT is
emitted on request.  Exit codes: 0 ok, 1 internal error, 2 invalid input,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engraph import en_graph, en_to_dot
from .errors import InputError, QzetaError
from .instances import Instance, load_instance
from .quotient import build_quotient, compare_levels, lift_pair, verify_correspondence
from .cyclic import PLANE
from .resolution import NumericalData, insert_hj_chains, weighted_blowup
from .serialize import (
    frac_to_str,
    graph_to_json,
    pole_report_to_json,
    quotient_pair_to_json,
    theorem_report_to_json,
)
from .verify import FAMILIES, run_family
from .zeta import classify_poles, ztop, ztop_nc_quotient

ALL_EMITS = ("graph", "zeta", "poles", "quotient", "dot")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qzeta",
        description="Q-resolutions and zeta functions on cyclic quotient surface germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="instance file (JSON)")
        p.add_argument(
            "--emit",
            default=None,
            help=f"comma-separated artifacts from {{{','.join(ALL_EMITS)}}}",
        )
        p.add_argument("--out", default=None, help="directory for JSON/DOT artifacts")

    p = sub.add_parser("resolve", help="construct the embedded Q-resolution")
    common(p)
    p.add_argument("--smooth", action="store_true", help="also emit the smooth model")
    p.set_defaults(handler=cmd_resolve)

    p = sub.add_parser("zeta", help="topological zeta function and pole report")
    common(p)
    p.set_defaults(handler=cmd_zeta)

    p = sub.add_parser("quotient", help="compare the pair upstairs and downstairs")
    common(p)
    p.set_defaults(handler=cmd_quotient)

    p = sub.add_parser("verify", help="run a randomized verification batch")
    common(p, with_input=False)
    p.add_argument("--family", required=True, help=f"one of {', '.join(FAMILIES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(handler=cmd_verify)
    return parser


def _emits(args) -> set[str]:
    if args.emit is None:
        return set(ALL_EMITS)
    chosen = {e.strip() for e in args.emit.split(",") if e.strip()}
    unknown = chosen - set(ALL_EMITS)
    if unknown:
        raise InputError(f"unknown --emit values {sorted(unknown)}")
    return chosen


def _write(args, name: str, payload) -> None:
    if args.out is None:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _instance_graphs(inst: Instance):
    """(primary graph, quotient pair or None) for an instance."""
    if inst.mode == "explicit_graph":
        return inst.graph, None
    if not inst.is_quotient:
        return weighted_blowup(PLANE, inst.spec), None
    pair = build_quotient(inst.surface, *inst.down_pair)
    return pair.graph_down, pair


def cmd_resolve(args) -> int:
    emits = _emits(args)
    inst = load_instance(args.input)
    graph, pair = _instance_graphs(inst)
    print(f"resolved {inst.path}: {len(graph.components)} components, {len(graph.points)} points")
    for comp in graph.components:
        print(f"  {comp.id:12s} {comp.kind:12s} (N,nu) = {comp.data}")
    for p in graph.points:
        print(f"  point {p.id:10s} order {p.order:3d} on {', '.join(p.incident) or '-'}")
    if "graph" in emits:
        _write(args, "graph.json", graph_to_json(graph))
        if pair is not None:
            _write(args, "graph_up.json", graph_to_json(pair.graph_up))
    if args.smooth:
        smooth = insert_hj_chains(graph)
        print(f"smooth model: {len(smooth.components)} components")
        if "graph" in emits:
            _write(args, "smooth.json", graph_to_json(smooth))
    if "dot" in emits:
        _write(args, "en.dot", en_to_dot(en_graph(graph)))
    return 0


def cmd_zeta(args) -> int:
    emits = _emits(args)
    inst = load_instance(args.input)
    graph, pair = _instance_graphs(inst)
    z = ztop(graph)
    if (
        inst.is_quotient
        and inst.mode == "weighted_homogeneous"
        and not inst.spec.branches
    ):
        # Q-normal-crossing at the origin: cross-check the direct formula
        spec_up = lift_pair(inst.surface, *inst.down_pair)
        lemma = ztop_nc_quotient(
            inst.surface.d,
            NumericalData(spec_up.axis_x[0], 1 + spec_up.axis_x[1]),
            NumericalData(spec_up.axis_y[0], 1 + spec_up.axis_y[1]),
        )
        if lemma != z:
            raise QzetaError("normal-crossing formula disagrees with the resolution")
    report = classify_poles(graph)
    print(f"Ztop = {z.render()}")
    for e in report.entries:
        res = f", residue {frac_to_str(e.residue)}" if e.residue is not None else ""
        print(
            f"  s0 = {frac_to_str(e.s0)}: topological order {e.top_order}, "
            f"motivic order {e.motivic_order}{res}"
        )
    if "zeta" in emits:
        _write(args, "zeta.txt", z.render() + "\n")
    if "poles" in emits:
        _write(args, "poles.json", pole_report_to_json(report))
    if "dot" in emits:
        _write(args, "en.dot", en_to_dot(en_graph(graph)))
    return 0


def cmd_quotient(args) -> int:
    emits = _emits(args)
    inst = load_instance(args.input)
    if not inst.is_quotient:
        raise InputError("quotient command requires a cyclic_quotient surface")
    if inst.mode != "weighted_homogeneous":
        raise InputError("quotient command requires a weighted_homogeneous divisor")
    _, pair = _instance_graphs(inst)
    reports = [compare_levels(pair, which) for which in ("A", "B", "C")]
    corr = verify_correspondence(pair)
    setup = pair.setup
    print(
        f"quotient X({setup.d};{setup.a},{setup.b}): correspondence "
        + ("holds" if corr["holds"] else "FAILS")
    )
    # Theorem C records both levels' Ztop whatever its verdict
    print(f"Ztop upstairs   = {reports[2].evidence['z_up'].render()}")
    print(f"Ztop downstairs = {reports[2].evidence['z_down'].render()}")
    if "quotient" in emits:
        payload = quotient_pair_to_json(pair)
        payload["correspondence"] = corr
        payload["theorems"] = [theorem_report_to_json(r) for r in reports]
        _write(args, "quotient.json", payload)
    if "dot" in emits:
        _write(args, "en_down.dot", en_to_dot(en_graph(pair.graph_down)))
    if not corr["holds"]:
        return 3
    for rep in reports:
        print(f"theorem {rep.theorem}: {rep.verdict}")
    if any(r.verdict == "fails" for r in reports):
        return 3
    return 0


def cmd_verify(args) -> int:
    result = run_family(args.family, args.seed, args.count)
    summary = {
        "family": result.family,
        "seed": result.seed,
        "count": result.count,
        "passed": result.passed,
        "failed": result.failed,
        "failures": result.failures,
    }
    print(
        f"family {result.family}: {result.passed} passed, {result.failed} failed "
        f"(seed {result.seed})"
    )
    for f in result.failures[:5]:
        print(f"  instance {f['instance']}: {'; '.join(f['problems'][:2])}")
    _write(args, f"verify_{result.family}.json", summary)
    return 0 if result.ok else 3


if __name__ == "__main__":
    sys.exit(main())
