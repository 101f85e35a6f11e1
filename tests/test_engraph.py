from fractions import Fraction

from qzeta import (
    PLANE,
    DownDivisor,
    QuotientSetup,
    build_quotient,
    en_analyze,
    en_graph,
    en_to_dot,
    graph_from_spec,
    minus_branch_divisor,
    weighted_blowup,
)
from tests.conftest import cusp_spec


def test_single_blowup_star():
    g = weighted_blowup(PLANE, cusp_spec((3, 2), 0))
    en = en_graph(g)
    out = en_analyze(en, g)
    assert out["is_tree"] and out["alpha_condition"]
    assert out["minimal_subgraph_shape"] == 1
    assert out["monotone"]


def test_quotient_w0_tree_and_monotone():
    setup = QuotientSetup(6, 2, 3)
    dbar = DownDivisor(pq=(3, 2), branches=(("c", Fraction(2)),), axis_x=Fraction(1, 2))
    pair = build_quotient(setup, dbar, minus_branch_divisor(setup, (3, 2)))
    out = en_analyze(en_graph(pair.graph_down), pair.graph_down)
    assert out["alpha_condition"]
    assert out["is_tree"] and out["monotone"]
    assert out["minimal_subgraph_shape"] in (1, 2, 3, 4)


def test_cycle_negative_control():
    g = graph_from_spec(
        {
            "components": [
                {"id": "E1", "kind": "exceptional", "N": 1, "nu": 1},
                {"id": "E2", "kind": "exceptional", "N": 1, "nu": 1},
            ],
            "points": [
                {"id": "p", "local_type": (1, 0, 0), "incident": ("E1", "E2")},
                {"id": "q", "local_type": (1, 0, 0), "incident": ("E1", "E2")},
            ],
        }
    )
    out = en_analyze(en_graph(g), g)
    assert out["alpha_condition"]
    assert not out["is_tree"]
    assert out["contradiction"]


def test_en_decorations_and_dot(graph_x4y6):
    en = en_graph(graph_x4y6)
    # W-only strict transform is a dashed arrow with infinite ratio
    lx = en.vertex("Lx")
    assert lx.style == "arrow" and lx.dashed and lx.ratio is None
    # the order-3 singular point becomes a dashed edge to an open vertex
    open_ids = [v.id for v in en.vertices if v.style == "open"]
    assert len(open_ids) == 1
    orders = sorted(e.order for e in en.edges)
    assert orders == [1, 1, 2, 3]
    dot = en_to_dot(en)
    assert dot.startswith("graph en {") and '"E"' in dot and "style=dashed" in dot
    assert any(v.ratio == Fraction(7, 6) for v in en.vertices)
