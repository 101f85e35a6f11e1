"""Instance files: the CLI's JSON input format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError
from .quotient import DownDivisor, QuotientSetup, split_down_spec
from .resolution import BranchEntry, CClass, DivisorSpec, ResolutionGraph
from .serialize import (
    INSTANCE_SCHEMA, check_keys, frac_from_str, graph_from_json, int_from_json, list_from_json,
    required,
)


@dataclass(frozen=True)
class Instance:
    path: str
    surface: QuotientSetup | None  # None for the plane
    mode: str  # "weighted_homogeneous" | "explicit_graph"
    spec: DivisorSpec | None
    down_pair: tuple[DownDivisor, DownDivisor] | None
    graph: ResolutionGraph | None

    @property
    def is_quotient(self) -> bool:
        return self.surface is not None


def _parse_axis(obj, where: str):
    if obj is None:
        return (frac_from_str(0), frac_from_str(0))
    check_keys(obj, {"N", "w"}, where)
    return tuple(frac_from_str(obj.get(k, 0), f"{where}.{k}") for k in ("N", "w"))


def _parse_branches(items, where: str):
    out = []
    for i, b in enumerate(list_from_json(items, f"{where}.branches")):
        here = f"{where}.branches[{i}]"
        check_keys(b, {"label", "N", "w", "c"}, here)
        label = str(b.get("label", f"b{i}"))
        c = b.get("c")
        if c is None:
            cclass = CClass(label, 0)
        else:
            check_keys(c, {"family", "k"}, f"{here}.c")
            k = int_from_json(c.get("k", 0), f"{here}.c.k")
            cclass = CClass(str(c.get("family", label)), k)
        N, w = (frac_from_str(b.get(k, 0), f"{here}.{k}") for k in ("N", "w"))
        out.append(BranchEntry(label, cclass, N, w))
    return tuple(out)


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: instance must be a JSON object")
    check_keys(doc, {"schema", "surface", "mode", "divisor", "graph"}, str(path))
    if doc.get("schema") != INSTANCE_SCHEMA:
        raise InputError(f"{path}: unsupported schema {doc.get('schema')!r}")

    surf = doc.get("surface") or {"kind": "plane"}
    where = f"{path}: surface"
    check_keys(surf, {"kind", "d", "a", "b"}, where)
    kind = surf.get("kind")
    if kind == "plane":
        setup = None
    elif kind == "cyclic_quotient":
        d, a, b = (int_from_json(required(surf, k, where), f"{where}.{k}") for k in "dab")
        try:
            setup = QuotientSetup(d, a, b)
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
    else:
        raise InputError(f"{path}: unknown surface kind {kind!r}")

    mode = doc.get("mode", "weighted_homogeneous")
    if mode == "explicit_graph":
        if "graph" not in doc:
            raise InputError(f"{path}: explicit_graph mode requires a graph")
        try:
            graph = graph_from_json(doc["graph"])
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
        return Instance(str(path), setup, mode, None, None, graph)
    if mode != "weighted_homogeneous":
        raise InputError(f"{path}: unknown mode {mode!r}")

    div = doc.get("divisor")
    if div is None:
        raise InputError(f"{path}: weighted_homogeneous mode requires a divisor")
    check_keys(div, {"pq", "axis_x", "axis_y", "branches"}, f"{path}: divisor")
    pq = div.get("pq", [1, 1])
    if not (isinstance(pq, list) and len(pq) == 2):
        raise InputError(f"{path}: divisor.pq must be a pair")
    pq = tuple(int_from_json(x, f"{path}: divisor.pq") for x in pq)
    axis_x = _parse_axis(div.get("axis_x"), f"{path}: divisor.axis_x")
    axis_y = _parse_axis(div.get("axis_y"), f"{path}: divisor.axis_y")
    branches = _parse_branches(div.get("branches", []), f"{path}: divisor")
    spec = DivisorSpec(pq=pq, axis_x=axis_x, axis_y=axis_y, branches=branches)

    down_pair = split_down_spec(spec) if setup is not None else None
    return Instance(str(path), setup, mode, spec, down_pair, None)
