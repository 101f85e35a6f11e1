"""Versioned JSON (de)serialization.

Rational numbers travel as "p/q" strings to avoid float loss; unknown
fields in input documents are rejected.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclic import CyclicType
from .errors import InputError
from .quotient import CorrespondenceTable, QuotientPair, TheoremReport
from .ratfunc import RatFunc
from .resolution import ResolutionGraph, graph_from_spec
from .zeta import PoleReport

GRAPH_SCHEMA = "qres-graph/1"
INSTANCE_SCHEMA = "qres-instance/1"


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_str(s, where: str = "value") -> Fraction:
    """A rational field, as a 'p/q' string or a JSON integer."""
    if isinstance(s, bool):
        raise InputError(f"{where}: expected a rational, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: invalid rational {s!r}") from exc
    raise InputError(f"{where}: expected a rational as 'p/q' string or integer, got {s!r}")


def check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"{where}: unknown fields {sorted(unknown)}")


def required(obj: dict, key: str, where: str):
    """obj[key] of a field the document must have."""
    if key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    return obj[key]


def list_from_json(x, where: str) -> list:
    """A field the document must give as a JSON list."""
    if not isinstance(x, list):
        raise InputError(f"{where}: expected a JSON list, got {x!r}")
    return x


def int_from_json(x, where: str) -> int:
    """An integer field, as a JSON integer or a string of one."""
    try:
        if isinstance(x, (int, str)) and not isinstance(x, bool):
            return int(x)
    except ValueError:
        pass
    raise InputError(f"{where}: expected an integer, got {x!r}")


def cyclic_to_json(t: CyclicType) -> dict:
    return {
        "m": t.m,
        "a": t.a,
        "b": t.b,
        "axis_swap": t.axis_swap,
        "e1": t.e1,
        "e2": t.e2,
    }


def cyclic_from_json(obj: dict, where: str = "cyclic_type") -> CyclicType:
    check_keys(obj, {"m", "a", "b", "axis_swap", "e1", "e2"}, where)
    m, a, b = (int_from_json(required(obj, k, where), f"{where}.{k}") for k in "mab")
    e1, e2 = (int_from_json(obj.get(k, 1), f"{where}.{k}") for k in ("e1", "e2"))
    return CyclicType(m, a, b, bool(obj.get("axis_swap", False)), e1, e2)


def graph_to_json(graph: ResolutionGraph) -> dict:
    return {
        "schema": GRAPH_SCHEMA,
        "ambient": cyclic_to_json(graph.ambient),
        "components": [
            {
                "id": c.id,
                "kind": c.kind,
                "genus": c.genus,
                "N": frac_to_str(c.data.N),
                "nu": frac_to_str(c.data.nu),
                "log_discrepancy": (
                    frac_to_str(c.log_discrepancy) if c.log_discrepancy is not None else None
                ),
                "label": c.label,
                "self_intersection": (
                    frac_to_str(c.self_intersection)
                    if c.self_intersection is not None
                    else None
                ),
            }
            for c in graph.components
        ],
        "points": [
            {
                "id": p.id,
                "local_type": cyclic_to_json(p.local_type),
                "incident": list(p.incident),
            }
            for p in graph.points
        ],
    }


def graph_from_json(obj: dict) -> ResolutionGraph:
    check_keys(obj, {"schema", "ambient", "components", "points"}, "graph")
    if obj.get("schema") != GRAPH_SCHEMA:
        raise InputError(f"unsupported graph schema {obj.get('schema')!r}")
    comps = []
    items = list_from_json(required(obj, "components", "graph"), "graph.components")
    for i, c in enumerate(items):
        check_keys(
            c,
            {"id", "kind", "genus", "N", "nu", "log_discrepancy", "label", "self_intersection"},
            f"graph.components[{i}]",
        )
        where = f"component {c.get('id')!r}"
        comps.append(
            {
                "id": required(c, "id", where),
                "kind": required(c, "kind", where),
                "genus": int_from_json(c.get("genus", 0), f"{where}.genus"),
                "N": frac_from_str(required(c, "N", where), f"{where}.N"),
                "nu": frac_from_str(required(c, "nu", where), f"{where}.nu"),
                "log_discrepancy": (
                    frac_from_str(c["log_discrepancy"], f"{where}.log_discrepancy")
                    if c.get("log_discrepancy") is not None
                    else None
                ),
                "label": c.get("label", ""),
                "self_intersection": (
                    frac_from_str(c["self_intersection"], f"{where}.self_intersection")
                    if c.get("self_intersection") is not None
                    else None
                ),
            }
        )
    points = []
    for i, p in enumerate(list_from_json(obj.get("points", []), "graph.points")):
        check_keys(p, {"id", "local_type", "incident"}, f"graph.points[{i}]")
        where = f"point {p.get('id')!r}"
        points.append(
            {
                "id": required(p, "id", where),
                "local_type": cyclic_from_json(required(p, "local_type", where), where),
                "incident": list_from_json(required(p, "incident", where), f"{where}.incident"),
            }
        )
    ambient = cyclic_from_json(obj["ambient"], "ambient") if obj.get("ambient") else None
    return graph_from_spec({"ambient": ambient, "components": comps, "points": points})


def pole_report_to_json(report: PoleReport) -> dict:
    return {
        "entries": [
            {
                "s0": frac_to_str(e.s0),
                "top_order": e.top_order,
                "motivic_order": e.motivic_order,
                "witnesses": [list(w) for w in e.witnesses],
                "residue": frac_to_str(e.residue) if e.residue is not None else None,
            }
            for e in report.entries
        ]
    }


def table_to_json(table: CorrespondenceTable) -> dict:
    return {
        "d": table.d,
        "exceptional_ramification": table.e_exc,
        "components": [
            {"up": list(r.up_ids), "down": r.down_id, "e": r.e, "r": r.r}
            for r in table.components
        ],
        "points": [
            {
                "up": list(r.up_ids),
                "down": r.down_id,
                "n": r.n,
                "m": r.m,
                "m_bar": r.m_bar,
                "r": r.r,
                "e_pair": list(r.e_pair),
            }
            for r in table.points
        ],
    }


def _evidence_to_json(value):
    if isinstance(value, Fraction):
        return frac_to_str(value)
    if isinstance(value, RatFunc):
        return value.render()
    if isinstance(value, dict):
        return {
            (frac_to_str(k) if isinstance(k, Fraction) else str(k)): _evidence_to_json(v)
            for k, v in value.items()
        }
    if isinstance(value, (set, frozenset)):
        return sorted(_evidence_to_json(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_evidence_to_json(v) for v in value]
    return value


def theorem_report_to_json(report: TheoremReport) -> dict:
    return {
        "theorem": report.theorem,
        "verdict": report.verdict,
        "evidence": _evidence_to_json(report.evidence),
    }


def quotient_pair_to_json(pair: QuotientPair) -> dict:
    return {
        "setup": {"d": pair.setup.d, "a": pair.setup.a, "b": pair.setup.b},
        "graph_up": graph_to_json(pair.graph_up),
        "graph_down": graph_to_json(pair.graph_down),
        "table": table_to_json(pair.table),
    }
