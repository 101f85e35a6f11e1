from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ratfunc_oracle import fraction_sum, ratfunc, rational_roots

import qzeta.ratfunc
from qzeta import (
    NumericalData,
    Poly,
    RatFunc,
    check_alpha_condition,
    classify_poles,
    graph_from_spec,
    insert_hj_chains,
    rupture_components,
    top_residue,
    ztop,
    ztop_nc_quotient,
)
from qzeta.errors import OrderTwo, ZeroAlpha, ZeroDenominatorForm


def lin(nu, N):
    return Poly.linear_form(Fraction(nu), Fraction(N))


def test_ztop_x4y6(graph_x4y6):
    assert ztop(graph_x4y6) == ratfunc(lin(7, 3), Poly.const(4) * lin(1, 1) * lin(7, 6))


def test_ztop_x4y10(graph_x4y10):
    assert ztop(graph_x4y10) == ratfunc(Poly.const(1), Poly.const(6) * lin(1, 1))


def test_ztop_downstairs(pair_x4y6, pair_x4y10):
    assert ztop(pair_x4y6.graph_down) == ratfunc(Poly.const(1), Poly.const(2) * lin(1, 1))
    assert ztop(pair_x4y10.graph_down) == ratfunc(
        lin(32, 29), Poly.const(12) * lin(1, 1) * lin(8, 5)
    )


def test_ztop_invariance_under_chains(graph_x4y6, graph_x4y10, pair_x4y6, pair_x4y10):
    for g in (graph_x4y6, graph_x4y10, pair_x4y6.graph_down, pair_x4y10.graph_down):
        assert ztop(insert_hj_chains(g)) == ztop(g)
        assert g.candidate_poles() <= insert_hj_chains(g).candidate_poles()


def test_ztop_nc_quotient():
    one = ztop_nc_quotient(1, NumericalData(3, 1), NumericalData(0, 1))
    assert one == ratfunc(Poly.const(1), lin(1, 3))
    d = ztop_nc_quotient(5, NumericalData(2, 3), NumericalData(1, 7))
    assert d == ratfunc(Poly.const(5), lin(3, 2) * lin(7, 1))
    four = ztop_nc_quotient(4, NumericalData(1, 1), NumericalData(1, 1))
    assert four == ratfunc(Poly.const(4), lin(1, 1) * lin(1, 1))
    with pytest.raises(ZeroDenominatorForm):
        ztop_nc_quotient(2, NumericalData(0, 0), NumericalData(1, 1))


def test_top_residue_fixtures(graph_x4y6, graph_x4y10):
    assert top_residue(graph_x4y10, Fraction(-8, 5)) == 0
    assert top_residue(graph_x4y6, Fraction(-7, 6)) == Fraction(-7, 8)
    # residues agree with the reduced rational function
    assert ztop(graph_x4y6).residue(Fraction(-7, 6)) == Fraction(-7, 8)


def test_residue_two_point_component_vanishes():
    g = graph_from_spec(
        {
            "components": [
                {"id": "E", "kind": "exceptional", "N": 1, "nu": 1},
                {"id": "A", "kind": "strict_D", "N": 1, "nu": 2},
                {"id": "B", "kind": "strict_D", "N": 1, "nu": 0},
            ],
            "points": [
                {"id": "p", "local_type": (1, 0, 0), "incident": ("E", "A")},
                {"id": "q", "local_type": (1, 0, 0), "incident": ("E", "B")},
            ],
        }
    )
    # alpha values at E are +1 and -1: the contribution of E cancels
    assert top_residue(g, Fraction(-1)) == 0


def test_classify_poles_fixture_sets(graph_x4y6, graph_x4y10, pair_x4y6):
    up = classify_poles(graph_x4y6)
    assert up.motivic_poles() == {Fraction(-1): 1, Fraction(-7, 6): 1}
    down = classify_poles(pair_x4y6.graph_down)
    assert down.motivic_poles() == {Fraction(-1): 1}
    up2 = classify_poles(graph_x4y10)
    assert up2.motivic_poles() == {Fraction(-1): 1, Fraction(-8, 5): 1}
    assert up2.entry(Fraction(-8, 5)).top_order == 0
    assert up2.entry(Fraction(-8, 5)).witnesses == (("E", "rupture"),)


def test_classify_normal_crossing_double_pole():
    # ordinary blow-up of D = {x=0} {y=0}: all ratios -1, order two
    from qzeta import PLANE, DivisorSpec, weighted_blowup

    g = weighted_blowup(PLANE, DivisorSpec(pq=(1, 1), axis_x=(1, 0), axis_y=(1, 0)))
    rep = classify_poles(g)
    assert rep.motivic_poles() == {Fraction(-1): 2}
    assert rep.top_poles() == {Fraction(-1): 2}
    with pytest.raises(OrderTwo):
        top_residue(g, Fraction(-1))


def test_classify_cycle_clause():
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
    rep = classify_poles(g)
    assert rep.entry(Fraction(-1)).motivic_order == 2


def test_rupture_components(graph_x4y6, pair_x4y6):
    assert rupture_components(graph_x4y6) == ["E"]
    # downstairs the alpha-value 1 at the order-4 point kills rupture
    assert rupture_components(pair_x4y6.graph_down) == []


def test_alpha_condition(graph_x4y6, graph_x4y10):
    ok, viol = check_alpha_condition(graph_x4y6)
    assert not ok and any("2" in v for v in viol)
    ok2, _ = check_alpha_condition(graph_x4y10)
    assert not ok2


def test_top_order_bounded_by_motivic(graph_x4y6, graph_x4y10, pair_x4y6, pair_x4y10):
    for g in (graph_x4y6, graph_x4y10, pair_x4y6.graph_down, pair_x4y10.graph_down):
        for e in classify_poles(g).entries:
            assert e.top_order <= e.motivic_order


def test_non_rational_clause_motivic_only():
    # genus-one exceptional curve: motivic pole via the non-rational clause,
    # invisible at the topological level, with a nonzero Hodge witness
    from qzeta import euler_specialize, graph_from_spec, hodge_residue

    g = graph_from_spec(
        {
            "components": [
                {"id": "E", "kind": "exceptional", "genus": 1, "N": 2, "nu": 2},
                {"id": "A", "kind": "strict_D", "N": 1, "nu": 2},
                {"id": "B", "kind": "strict_D", "N": 1, "nu": 2},
            ],
            "points": [
                {"id": "p", "local_type": (1, 0, 0), "incident": ("E", "A")},
                {"id": "q", "local_type": (1, 0, 0), "incident": ("E", "B")},
            ],
        }
    )
    rep = classify_poles(g)
    entry = rep.entry(Fraction(-1))
    assert entry.motivic_order == 1 and entry.top_order == 0
    assert entry.witnesses == (("E", "non-rational"),)
    assert top_residue(g, Fraction(-1)) == 0
    witness = hodge_residue(g, Fraction(-1))
    assert not witness.is_zero  # H-image is (u-1)(v-1)/N up to the prefactor
    assert euler_specialize(witness) == RatFunc.zero()


def _gcd_route(graph):
    """Ztop as a reduced (num, den), summed term by term by the gcd oracle."""
    fracs = [
        (Poly.const(chi), lin(comp.data.nu, comp.data.N))
        for comp in graph.exceptional
        if (chi := graph.euler_open(comp.id))
    ]
    for point in graph.points:
        d1, d2 = graph.incident_data(point)
        fracs.append((Poly.const(point.order), lin(d1.nu, d1.N) * lin(d2.nu, d2.N)))
    return fraction_sum(fracs)


def _oracle_graphs(draws, seed, smooth=True):
    """verify._random_graphs draws, each followed by its smooth model."""
    import random

    from qzeta.verify import _random_graphs

    rng = random.Random(seed)
    for _ in range(draws):
        for g in _random_graphs(rng):
            yield g
            if smooth:
                yield insert_hj_chains(g)


def test_ztop_matches_gcd_route_poles_and_residues():
    for g in _oracle_graphs(200, 20261018):
        z = ztop(g)
        assert (z.num, z.den) == _gcd_route(g)
        poles = z.poles()
        assert poles == rational_roots(z.den)
        entries = classify_poles(g).entries
        assert [e.s0 for e in entries] == sorted(g.candidate_poles(), reverse=True)
        for e in entries:
            assert e.top_order == poles.get(e.s0, 0)
            assert (e.residue is None) == (e.motivic_order == 2)
            if e.motivic_order < 2:
                # the combinatorial route raises neither OrderTwo nor ZeroAlpha here
                assert e.residue == top_residue(g, e.s0) == z.residue(e.s0)
            else:
                with pytest.raises(OrderTwo):
                    top_residue(g, e.s0)


def test_classify_poles_reads_ztop_split_directly(monkeypatch):
    # the report reads orders and residues off Ztop's partial fractions: it
    # multiplies nothing out and runs no combinatorial residue; neither do
    # equality, hashing, evaluation and scaling of the graph's Ztop, nor the
    # hodge-euler comparison of Ztop with the Euler specialization
    import random

    import qzeta.zeta
    from qzeta import euler_specialize, hodge_zeta
    from qzeta.verify import _random_graphs

    def refuse(*_):
        raise AssertionError("a library path multiplied Ztop out")

    monkeypatch.setattr(RatFunc, "_multiply_out", refuse)
    monkeypatch.setattr(qzeta.zeta, "top_residue", refuse)
    residues = 0
    for seed in range(3):
        for g in _random_graphs(random.Random(seed)):
            for graph in (g, insert_hj_chains(g)):
                report = classify_poles(graph)
                residues += sum(e.residue is not None for e in report.entries)
                z = ztop(graph)
                # a graph rebuilt from the same fields splits its own Ztop
                fresh = ztop(replace(graph))
                assert fresh is not z and z == fresh and hash(z) == hash(fresh)
                assert (z * 3).poles() == z.poles() and (z * 0).is_zero
                assert z.is_zero == (z == 0)
                z.eval(max(z.poles(), default=0) + 1)
                for e in report.entries:
                    if e.top_order:
                        with pytest.raises(ZeroDivisionError):
                            z.eval(e.s0)
                assert z == euler_specialize(hodge_zeta(graph))
    assert residues >= 10


def test_ztop_and_report_computed_once_per_graph(monkeypatch):
    # any mix of ztop and classify_poles calls splits a graph's terms once
    # and returns the kept objects; the store is not part of the graph's
    # value, and a call that raises keeps nothing
    import random

    import qzeta.zeta
    from qzeta import PLANE, Component, ResolutionGraph
    from qzeta.verify import _random_graphs

    splits = []
    split = qzeta.zeta._split

    def counting(terms):
        splits.append(terms)
        return split(terms)

    monkeypatch.setattr(qzeta.zeta, "_split", counting)
    graphs = [g for seed in range(3) for g in _random_graphs(random.Random(seed))]
    for g in graphs:
        splits.clear()
        z, report = ztop(g), classify_poles(g)
        assert ztop(g) is z and classify_poles(g) is report
        assert len(splits) == 1
        rebuilt = replace(g)
        assert rebuilt == g and hash(rebuilt) == hash(g)
        assert ztop(rebuilt) is not z and ztop(rebuilt) == z
        assert classify_poles(rebuilt) is not report and classify_poles(rebuilt) == report
        assert len(splits) == 2
    zero = ResolutionGraph(PLANE, (Component("E", "exceptional", NumericalData(0, 0)),), ())
    for call in (ztop, classify_poles, ztop, classify_poles):
        with pytest.raises(ZeroDenominatorForm):
            call(zero)
        assert not zero._kept


def test_graph_pickles_and_deep_copies_with_kept_values():
    # a graph that keeps alpha-values, a Ztop and a pole report travels by
    # its fields alone and computes its values again
    import copy
    import pickle
    import random

    from qzeta.verify import _random_graphs

    for g in _random_graphs(random.Random(0)):
        z, report = ztop(g), classify_poles(g)
        for c in g.exceptional:
            g.alpha_values(c.id)
        assert g._alphas and g._kept
        for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert twin == g and hash(twin) == hash(g)
            assert not twin._kept
            assert ztop(twin) == z and classify_poles(twin) == report


def test_hj_invariance_compares_motivic_orders(graph_x4y6, monkeypatch):
    import qzeta.verify
    from qzeta.zeta import PoleReport

    smooth = insert_hj_chains(graph_x4y6)
    assert qzeta.verify._chain_checks(graph_x4y6, smooth) == []
    # a smooth model whose report lost its motivic poles is caught
    monkeypatch.setattr(
        qzeta.verify,
        "classify_poles",
        lambda g: PoleReport(()) if g is smooth else classify_poles(g),
    )
    assert qzeta.verify._chain_checks(graph_x4y6, smooth) == [
        "motivic pole orders not invariant under chain insertion"
    ]


def test_alpha_values_computed_once_per_component(monkeypatch):
    # construction (check_adjunction), classify_poles and top_residue at
    # every candidate pole read one kept computation per component; a
    # second round computes nothing
    import random

    import qzeta.resolution
    from qzeta.verify import _random_graphs

    made = []
    freeze = qzeta.resolution.MappingProxyType

    def counting(values):
        made.append(freeze(values))
        return made[-1]

    monkeypatch.setattr(qzeta.resolution, "MappingProxyType", counting)
    graphs = []
    for seed in range(3):
        for g in _random_graphs(random.Random(seed)):
            graphs += [g, insert_hj_chains(g)]
    # build_quotient also builds and checks graphs it does not return
    built = len(made)
    rounds = []
    for _ in range(2):
        for graph in graphs:
            classify_poles(graph)
            for s0 in graph.candidate_poles():
                try:
                    top_residue(graph, s0)
                except (OrderTwo, ZeroAlpha):
                    pass
        rounds.append(len(made))
    assert rounds[0] == rounds[1]
    # every kept value was counted, and none counted later was dropped for a
    # second computation of the same component
    kept = {id(a) for graph in graphs for a in graph._alphas.values()}
    assert kept <= {id(a) for a in made} and {id(a) for a in made[built:]} <= kept
    assert rounds[0] > built
    for graph in graphs:
        assert {c.id for c in graph.exceptional if c.data.N != 0} <= set(graph._alphas)
    with pytest.raises(TypeError):
        graphs[0].alpha_values("E")["U"] = Fraction(0)


def test_ztop_path_runs_no_root_finding():
    # polynomial gcds and root finding live only in the tests' oracle
    for name in ("gcd", "monic", "__mod__", "derivative", "rational_roots"):
        assert not hasattr(Poly, name), name
    for name in ("from_poly", "pole_order", "_factorisation", "__add__", "__radd__",
                 "__sub__", "__rsub__", "__neg__", "__truediv__", "__rtruediv__"):
        assert not hasattr(RatFunc, name), name
    assert not hasattr(qzeta.ratfunc, "_divisors")
    with pytest.raises(TypeError):
        RatFunc(Poly.const(1), lin(1, 1))
    with pytest.raises(TypeError):
        RatFunc.const(1) * RatFunc.const(2)


def test_ztop_agrees_with_sympy_apart():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    def rat(x):
        return sympy.Rational(x.numerator, x.denominator)

    def form(d):
        return rat(d.nu) + rat(d.N) * s

    def poly(p):
        return sum(rat(c) * s**i for i, c in enumerate(p.coeffs))

    for g in _oracle_graphs(8, 7, smooth=False):
        terms = [
            sympy.Integer(g.euler_open(c.id)) / form(c.data)
            for c in g.exceptional
            if g.euler_open(c.id)
        ]
        for p in g.points:
            d1, d2 = g.incident_data(p)
            terms.append(sympy.Integer(p.order) / (form(d1) * form(d2)))
        expr = sympy.Add(*terms)
        z = ztop(g)
        ours = poly(z.num) / poly(z.den)
        assert sympy.cancel(expr - ours) == 0
        # sympy's own split, rebuilt through from_partial_fractions
        const, parts = Fraction(0), {}
        for t in sympy.Add.make_args(sympy.apart(expr, s)):
            _, den = t.as_numer_denom()
            if not den.has(s):
                const += Fraction(str(t))
                continue
            ((root, k),) = sympy.roots(sympy.Poly(den, s)).items()
            c = sympy.cancel(t * (s - root) ** k)
            parts.setdefault(Fraction(str(root)), [0, 0])[k - 1] += Fraction(str(c))
        assert RatFunc.from_partial_fractions(const, parts) == z
        assert z.poles() == {s0: 2 if c2 else 1 for s0, (c1, c2) in parts.items() if c1 or c2}


def test_big_rational_plane_instance_is_fast():
    # cleared denominators with 62-bit coefficients: trial-division root
    # finding did not finish in 120 s
    import time

    from qzeta import PLANE, BranchEntry, CClass, DivisorSpec, weighted_blowup

    N = Fraction(10**6 + 1, 10**6 + 3)
    W = Fraction(10**6 + 7, 10**6 + 1)
    spec = DivisorSpec(
        pq=(3, 2),
        axis_x=(Fraction(0), W),
        branches=tuple(BranchEntry(f"b{k}", CClass("c", k), N, Fraction(0)) for k in range(2)),
    )
    g = weighted_blowup(PLANE, spec)
    for step in (ztop, lambda g: ztop(g).poles(), lambda g: ztop(g).render(), classify_poles):
        start = time.perf_counter()
        step(g)
        assert time.perf_counter() - start < 2.0
    z = ztop(g)
    assert classify_poles(g).top_poles() == z.poles()
    assert set(z.poles()) <= g.candidate_poles()
    assert (z.num, z.den) == _gcd_route(g)


# primes of 64 to 512 bits: components whose N and nu have large numerators
# and denominators, on a scale r of up to 1024 bits
LATTICE_PRIMES = (2**64 - 59, 2**127 - 1, 2**255 - 19, 2**512 - 569)
_small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_big = st.builds(
    lambda p, q, sign: Fraction(sign * p, q),
    st.sampled_from(LATTICE_PRIMES),
    st.sampled_from(LATTICE_PRIMES),
    st.sampled_from((1, -1)),
)
_rational = st.one_of(_small, _big)
_positive = _rational.map(abs).filter(bool)


def _local_types(m: int) -> list:
    from math import gcd

    from qzeta import CyclicType

    if m == 1:
        return [CyclicType(1, 0, 0)]
    return [CyclicType(m, 1, b) for b in range(1, m) if gcd(b, m) == 1]


@st.composite
def lattice_graphs(draw):
    """Graphs with small and 64- to 512-bit N and nu, components with N = 0
    (now and then the (0, 0) form), points with missing incidences, and
    optionally a second form with the first one's root: a double root."""
    from qzeta import PLANE, Component, MarkedPoint, ResolutionGraph

    comps = []
    for i in range(draw(st.integers(1, 5))):
        N = draw(_positive) if i == 0 or draw(st.booleans()) else Fraction(0)
        kind = "strict_D" if N and draw(st.booleans()) else "exceptional"
        b = draw(st.one_of(st.none(), _positive))
        comps.append(Component(f"C{i}", kind, NumericalData(N, draw(_rational)),
                               genus=draw(st.integers(0, 1)), log_discrepancy=b))
    ids = [c.id for c in comps]
    points = []
    if draw(st.booleans()):
        d = comps[0].data
        comps.append(Component("D", "exceptional", NumericalData(2 * d.N, 2 * d.nu)))
        points.append(MarkedPoint("pD", _local_types(1)[0], ("C0", "D")))
    for j in range(draw(st.integers(0, 6))):
        incident = draw(st.lists(st.sampled_from(ids), max_size=2, unique=True))
        local_type = draw(st.sampled_from(_local_types(draw(st.integers(1, 7)))))
        points.append(MarkedPoint(f"p{j}", local_type, tuple(incident)))
    return ResolutionGraph(PLANE, tuple(comps), tuple(points))


def _check_lattice(g) -> None:
    """The lattice kernels against the Fraction route of ``resolution_oracle``."""
    import copy
    import pickle
    from math import lcm

    import resolution_oracle as oracle

    from qzeta.errors import ZeroN

    r = lcm(*[x.denominator for c in g.components for x in (c.data.N, c.data.nu)])
    assert g._r == r
    assert g._vec == {c.id: (int(c.data.N * r), int(c.data.nu * r)) for c in g.components}
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), replace(g)):
        assert twin == g and (twin._r, twin._vec) == (r, g._vec)
    poles = {}
    for c in g.components:
        if c.data.N:
            poles.setdefault(-c.data.ratio, []).append(c)
            assert g.alpha_values(c.id) == oracle.alpha_values(g, c.id)
        else:
            for alphas in (g.alpha_values, lambda cid: oracle.alpha_values(g, cid)):
                with pytest.raises(ZeroN):
                    alphas(c.id)
    assert g._poles == {s0: tuple(cs) for s0, cs in poles.items()}
    if any(c.data.is_zero_form for c in g.components):
        with pytest.raises(ZeroDenominatorForm):
            ztop(g)
        assert not g._kept
    else:
        assert ztop(g) == oracle.ztop(g)
        for s0 in poles:
            try:
                residue = top_residue(g, s0)
            except (OrderTwo, ZeroAlpha):
                continue
            assert residue == oracle.top_residue(g, s0)
    smooth = insert_hj_chains(g)
    chains = {}
    for c in smooth.components[len(g.components):]:
        chains.setdefault(c.id.rsplit("#", 1)[0], []).append((c.data, c.log_discrepancy))
    assert chains == {p.id: oracle.chain_data(g, p) for p in g.points if p.order > 1}


def _example_graphs():
    """A (0, 0) form; a double root beside N = 0 forms and free points."""
    from qzeta import PLANE, Component, CyclicType, MarkedPoint, ResolutionGraph

    def graph(data, points):
        comps = tuple(Component(cid, "exceptional", NumericalData(*d)) for cid, d in data)
        return ResolutionGraph(PLANE, comps, tuple(MarkedPoint(*p) for p in points))

    zero = graph([("E", (2, 3)), ("Z", (0, 0))], [("p", CyclicType(3, 1, 1), ("E", "Z"))])
    big = Fraction(LATTICE_PRIMES[3], LATTICE_PRIMES[0])
    double = graph(
        [("E", (big, 3)), ("F", (2 * big, 6)), ("Z", (0, Fraction(5, 7)))],
        [("p", CyclicType(1, 0, 0), ("E", "F")), ("q", CyclicType(5, 1, 2), ("Z", "E")),
         ("u", CyclicType(4, 1, 3), ("F",)), ("v", CyclicType(3, 1, 1), ())],
    )
    return zero, double


@settings(max_examples=60, deadline=None)
@example(seed=0, graph=_example_graphs()[0])
@example(seed=1, graph=_example_graphs()[1])
@given(seed=st.integers(0, 2**32), graph=lattice_graphs())
def test_lattice_kernels_match_fraction_route(seed, graph):
    # alpha-values, Ztop, residues and chain data on each graph's integer
    # vectors equal the Fraction formulas, on verify's random draws, their
    # smooth models and 64- to 512-bit graphs
    import random

    from qzeta.verify import _random_graphs

    for g in _random_graphs(random.Random(seed)):
        _check_lattice(g)
        _check_lattice(insert_hj_chains(g))
    _check_lattice(graph)
    _check_lattice(insert_hj_chains(graph))
