from fractions import Fraction

import pytest
from hodge_oracle import fraction_terms, lattice
from ratfunc_oracle import ratfunc

from qzeta import (
    PLANE,
    DivisorSpec,
    Poly,
    RatFunc,
    euler_specialize,
    hodge_residue,
    hodge_zeta,
    insert_hj_chains,
    s_factor,
    top_residue,
    weighted_blowup,
    ztop,
)
from qzeta.errors import NonSmallAction
from qzeta.hodge import HodgeExpr, HodgeTerm, _divide


def test_s_factor_trivial_and_count():
    sf = s_factor(1, 0, 0, (3, 0), (4, 1))
    assert sf.terms == ((Fraction(0), Fraction(0)),)
    for m, a, b in [(2, 1, 1), (5, 2, 3), (12, 5, 7)]:
        sf = s_factor(m, a, b, (3, 1), (2, 5))
        assert len(sf.terms) == m
        assert sf.chi_specialize() == m


def test_s_factor_example_terms():
    sf = s_factor(2, 1, 1, (12, 1), (14, 1))
    assert set(sf.terms) == {
        (Fraction(0), Fraction(0)),
        (Fraction(15, 2), Fraction(13, 2)),
    }


def test_s_factor_rejects_non_small():
    with pytest.raises(NonSmallAction):
        s_factor(4, 2, 1, (1, 1), (1, 1))


def test_euler_of_simple_quotient_term():
    # (uv - 1)/((uv)^alpha - 1) -> 1/alpha
    for alpha in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
        expr = lattice([({(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-1)}, [(0, alpha)])])
        assert euler_specialize(expr) == RatFunc.const(1 / alpha)


def test_hodge_single_line_blowup():
    g = weighted_blowup(PLANE, DivisorSpec(pq=(1, 1), axis_x=(1, 0)))
    z = euler_specialize(hodge_zeta(g))
    assert z == ratfunc(Poly.const(1), Poly.linear_form(1, 1))


def test_hodge_euler_matches_ztop(graph_x4y6, graph_x4y10, pair_x4y6, pair_x4y10):
    for g in (graph_x4y6, graph_x4y10, pair_x4y6.graph_down, pair_x4y10.graph_down):
        z = ztop(g)
        assert euler_specialize(hodge_zeta(g)) == z
        assert euler_specialize(hodge_zeta(insert_hj_chains(g))) == z


def test_hodge_resolution_invariance(graph_x4y6, graph_x4y10, pair_x4y6, pair_x4y10):
    # full motivic-level (Hodge) agreement between the Q-resolution and its
    # smooth model; this is sensitive to the chain orientation
    for g in (graph_x4y6, graph_x4y10, pair_x4y6.graph_down, pair_x4y10.graph_down):
        assert hodge_zeta(g) == hodge_zeta(insert_hj_chains(g))


def test_hodge_residue_low_valency_vanishes():
    from qzeta import graph_from_spec

    one_pt = graph_from_spec(
        {
            "components": [
                {"id": "E", "kind": "exceptional", "N": 1, "nu": 1},
                {"id": "F", "kind": "exceptional", "N": 3, "nu": 2},
                {"id": "A", "kind": "strict_D", "N": 4, "nu": 3},
            ],
            "points": [
                {"id": "p", "local_type": (1, 0, 0), "incident": ("E", "F")},
                {"id": "q", "local_type": (1, 0, 0), "incident": ("F", "A")},
                {"id": "r", "local_type": (1, 0, 0), "incident": ("F", "A")},
            ],
        }
    )
    # E has a single point with alpha = -1: its residue witness vanishes
    expr = hodge_residue(one_pt, Fraction(-1))
    assert expr.is_zero
    assert euler_specialize(expr) == RatFunc.zero()


def test_hodge_residue_two_points_vanishes():
    from qzeta import graph_from_spec

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
    assert hodge_residue(g, Fraction(-1)).is_zero


def test_hodge_residue_specializes_to_top_residue(graph_x4y6, graph_x4y10):
    for g, s0 in ((graph_x4y6, Fraction(-7, 6)), (graph_x4y10, Fraction(-8, 5))):
        assert euler_specialize(hodge_residue(g, s0)) == RatFunc.const(top_residue(g, s0))
    # the rupture witness at -7/6 is a nonzero Hodge class
    assert not hodge_residue(graph_x4y6, Fraction(-7, 6)).is_zero


def test_hodge_residue_nonzero_but_top_zero(graph_x4y10):
    # -8/5 upstairs: motivic pole with vanishing topological residue
    expr = hodge_residue(graph_x4y10, Fraction(-8, 5))
    assert not expr.is_zero
    assert euler_specialize(expr) == RatFunc.zero()


def test_euler_indeterminate_limit():
    from qzeta.errors import IndeterminateLimit

    # a bare 1/((uv)^alpha - 1) has a genuine pole at uv = 1
    expr = lattice([({(0, 0, 0): Fraction(1)}, [(0, 2)])])
    with pytest.raises(IndeterminateLimit):
        euler_specialize(expr)


def _lattice_scale(g) -> int:
    """The scale hodge_zeta states: the lcm of every component's
    denominators and, at each point of order m, of m times those of its
    incident data."""
    from math import lcm

    r = lcm(*(x.denominator for c in g.components for x in (c.data.N, c.data.nu)))
    for p in g.points:
        d1, d2 = g.incident_data(p)
        r = lcm(r, p.local_type.m * lcm(*(x.denominator for x in (d1.N, d1.nu, d2.N, d2.nu))))
    return r


def _rescaled(expr, k):
    """expr by hand on the scale k*r: every key and factor times k."""
    return HodgeExpr(
        tuple(
            HodgeTerm(
                tuple(((x * k, y * k, g), c) for (x, y, g), c in t.num),
                tuple((a * k, b * k) for a, b in t.den),
            )
            for t in expr.terms
        ),
        expr.r * k,
    )


def test_hodge_terms_on_one_integer_lattice(pair_x4y10):
    import random
    from math import lcm

    import hodge_oracle
    from qzeta.errors import IndeterminateLimit, OrderTwo, ZeroAlpha
    from qzeta.verify import _random_graphs
    from qzeta.zeta import residue_alphas

    def on_lattice(expr):
        return all(
            type(x) is int for t in expr.terms for key, _c in t.num for x in key
        ) and all(type(x) is int for t in expr.terms for f in t.den for x in f)

    down = pair_x4y10.graph_down
    graphs = [down, insert_hj_chains(down)]
    for seed in range(3):
        for g in _random_graphs(random.Random(seed)):
            graphs += [g, insert_hj_chains(g)]
    exprs = []
    for g in graphs:
        h = hodge_zeta(g)
        # integer keys, factors and coefficients on the stated scale
        assert h.r == _lattice_scale(g) and on_lattice(h)
        assert all(type(c) is int for t in h.terms for _k, c in t.num)
        exprs.append(h)
        for s0 in sorted(g.candidate_poles()):
            try:
                res = hodge_residue(g, s0)
            except (OrderTwo, ZeroAlpha):
                continue
            alphas = [a for _c, al in residue_alphas(g, s0) for a in al.values()]
            assert res.r == lcm(s0.denominator, *(a.denominator for a in alphas))
            assert on_lattice(res)
            exprs.append(res)
    assert hodge_zeta(down).r > 1 and hodge_zeta(insert_hj_chains(down)).r > 1
    assert HodgeExpr.zero().r == 1
    half = lattice([({(Fraction(1, 2), Fraction(1, 3), 0): Fraction(5, 4)}, [(Fraction(2, 5), 1)])])
    assert half.r == 30 and half.terms == (HodgeTerm((((15, 10, 0), Fraction(5, 4)),), ((30, 12),)),)
    exprs.append(half)
    # a copy on k times the scale is the same expression (half has a pole
    # in eps, so it has no Euler specialization)
    for expr in exprs:
        for k in (2, 3):
            copy = _rescaled(expr, k)
            assert copy == expr and expr == copy
            if expr is not half:
                assert euler_specialize(copy) == euler_specialize(expr)
        assert expr != _rescaled(expr, 2).scale(2) or expr.is_zero

    # sums across coprime scales against the clearing oracle:
    # c ((uv)^(1/n) - 1)/((uv)^(1/n) - 1) = c on the scale n
    def one(n, c):
        f = [(0, Fraction(1, n))]
        return lattice([({(Fraction(1, n), 0, 0): c}, f), ({(0, 0, 0): -c}, f)])

    # 3 (u+v) (uv)^(2s/5) (uv - 1) / ((uv)^(1 + s/5) - 1) -> 6/(1 + s/5)
    fifth = lattice([({(1, Fraction(2, 5), 1): 3, (0, Fraction(2, 5), 1): -3}, [(Fraction(1, 5), 1)])])
    cases = [
        (one(2, 1), one(3, -1), True),
        (one(2, 1), one(3, -2), False),
        (one(2, 1), fifth, False),
        (one(3, 1), fifth, False),
        (fifth, one(7, 1), False),
    ]
    for a, b, zero in cases:
        total = a + b
        assert total.r == a.r * b.r
        assert total.is_zero is zero and hodge_oracle.is_zero(total) is zero
        assert hodge_oracle.cleared_numerator(total) == hodge_oracle.cleared_numerator(
            lattice(fraction_terms(a) + fraction_terms(b))
        )
    # each term of the two-term one(n, c) has a pole in eps, so
    # euler_specialize refuses it although the poles cancel; the same value
    # written as one term vanishes to order 1
    with pytest.raises(IndeterminateLimit):
        euler_specialize(one(2, 1) + one(3, -1))

    def one_term(n, c):
        return lattice([({(Fraction(1, n), 0, 0): c, (0, 0, 0): -c}, [(0, Fraction(1, n))])])

    assert one_term(2, 1) == one(2, 1)
    assert euler_specialize(one_term(2, 1) + one_term(3, -1)) == RatFunc.zero()
    assert euler_specialize(one_term(2, 1) + one_term(3, -2)) == RatFunc.const(-1)
    assert euler_specialize(fifth + one_term(7, 1)) == ratfunc(Poly([35, 1]), Poly([5, 1]))


def test_is_zero_drops_cancelled_groups(monkeypatch):
    # h - h merges every term with its negative: no group is left to
    # multiply out or divide
    import random

    import qzeta.hodge
    from qzeta.verify import _random_graphs

    calls = []
    for name in ("_times_factor", "_divide"):
        original = getattr(qzeta.hodge, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(qzeta.hodge, name, counted)
    checked = 0
    for seed in range(3):
        for g in _random_graphs(random.Random(seed)):
            for graph in (g, insert_hj_chains(g)):
                h = hodge_zeta(graph)
                assert (h - h).is_zero
                checked += 1
    assert calls == [] and checked == 18
    # the counters are live: a real equality still multiplies and divides
    assert hodge_zeta(g) == hodge_zeta(insert_hj_chains(g))
    assert {"_times_factor", "_divide"} <= set(calls)


def _cycle_graph():
    """Two exceptional curves meeting at two points: a cycle."""
    from qzeta import graph_from_spec

    return graph_from_spec(
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


def test_intersection_points_count_per_point():
    # H(E_i n E_j) = number of intersection points: each marked point
    # contributes its own term, so a double intersection doubles the factor
    cycle = _cycle_graph()
    expr = hodge_zeta(cycle)
    pair_terms = [t for t in expr.terms if len(t.den) == 2]
    assert len(pair_terms) == 2
    assert euler_specialize(expr) == ztop(cycle)


def test_euler_zero_form_factor_raises():
    from qzeta.errors import ZeroDenominatorForm

    expr = lattice([({(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-1)}, [(0, 0)])])
    with pytest.raises(ZeroDenominatorForm):
        euler_specialize(expr)


UV_2S_MINUS_1 = {(0, 2, 0): Fraction(1), (0, 0, 0): Fraction(-1)}  # ~ 2s eps


def _cleared(M, factors, S):
    """M * prod_{i in S} (f_i - 1) / prod_i (f_i - 1) with f_i = (uv)^(nu_i + N_i s),
    written out as one term per subset T of S, each over every factor."""
    terms = []
    for mask in range(1 << len(S)):
        T = [S[i] for i in range(len(S)) if mask >> i & 1]
        sign = (-1) ** (len(S) - len(T))
        dA = sum(factors[i][1] for i in T)
        dB = sum(factors[i][0] for i in T)
        num = {(A + dA, B + dB, g): sign * c for (A, B, g), c in M.items()}
        terms.append((num, factors))
    return lattice(terms)


def _doubled(expr):
    """expr with its first term rewritten over a doubled first factor f:
    1/(f - 1) = (f + 1)/(f^2 - 1).  The value stays; the terms no longer
    share one denominator, so their unit series differ."""
    (head, head_den), *rest = fraction_terms(expr)
    (N, nu), *others = head_den
    num = {}
    for (A, B, g), c in head.items():
        for key in ((A, B, g), (A + nu, B + N, g)):
            num[key] = num.get(key, 0) + c
    return lattice([(num, [(2 * N, 2 * nu), *others]), *rest])


def _cancelling_cases():
    """(expr, limit) with negative Laurent orders that cancel only across terms.

    Every term's numerator vanishes to an order v below its k factors, and
    some terms have k = 3 factors; each case comes once over a shared
    denominator and once with a doubled factor.  The limit exists, but no
    term is in the closed form euler_specialize computes.
    """
    six = {(Fraction(1, 2), Fraction(1), 1): Fraction(3)}  # 3 (uv)^(1/2+s) (u+v) -> 6
    cases = [
        # M/(f2 - 1) -> 2s/(3s + 2): j up to 1
        (_cleared(UV_2S_MINUS_1, [(1, 1), (3, 2)], [0]),
         RatFunc.from_partial_fractions(Fraction(2, 3), {Fraction(-2, 3): (Fraction(-4, 9),)})),
        # M/(f3 - 1) -> 2s/(s + 4), two roots shared by f1 and f2: j up to 2
        (_cleared(UV_2S_MINUS_1, [(2, 2), (1, 1), (1, 4)], [0, 1]),
         RatFunc.from_partial_fractions(2, {-4: (-8,)})),
        # the regular M = 6 at uv = 1, with an N = 0 factor: j up to 2
        (_cleared(six, [(5, 3), (0, 2)], [0, 1]), RatFunc.const(6)),
        (_cleared(six, [(5, 3), (2, 7), (1, 0)], [0, 1, 2]), RatFunc.const(6)),
    ]
    return cases + [(_doubled(expr), expected) for expr, expected in cases]


def test_euler_negative_orders_cancel_across_terms():
    # terms outside the closed form raise, even where their poles in eps
    # cancel across terms (the sympy series test checks each limit exists)
    from qzeta.errors import IndeterminateLimit
    from qzeta.hodge import _closed_split

    for expr, _limit in _cancelling_cases():
        assert all(_closed_split(t) is None for t in expr.terms)
        with pytest.raises(IndeterminateLimit, match=f"over {len(expr.terms[0].den)} factors"):
            euler_specialize(expr)
        # one term alone keeps its pole in eps
        with pytest.raises(IndeterminateLimit):
            euler_specialize(HodgeExpr(expr.terms[1:], expr.r))


def _times_factors(num, shifts):
    """num * prod ((uv)^((dx + dy*s)/r) - 1) over integer keys, for shifts (dx, dy)."""
    for dx, dy in shifts:
        out = {}
        for (x, y, g), c in num.items():
            for key, v in (((x + dx, y + dy, g), c), ((x, y, g), -c)):
                out[key] = out.get(key, 0) + v
        num = {key: c for key, c in out.items() if c}
    return num


def _term(num, den):
    return HodgeTerm(tuple(num.items()), den)


# hand-built terms on the scale 6: M's c 2^g sum to 9/2, so M vanishes to
# order 0, and M times two factors to order 2
BRANCH_SCALE = 6
M6 = {(1, 2, 0): Fraction(3, 2), (-4, 1, 1): 2, (0, 0, 0): -1}
M6_TWO = _times_factors(M6, [(1, 1), (2, 3)])


def _branch_cases():
    """{branch of _closed_split: terms that take it}."""
    one = [_times_factors(M6, [shift]) for shift in ((6, 0), (2, 3))]
    return {
        "k = 0": [_term(M6, ())],
        "k = 1": [_term(num, ((3, 2),)) for num in one],
        "k = 1, N = 0": [_term(num, ((4, 0),)) for num in one],
        "k = 2": [_term(M6_TWO, ((3, 2), (5, 1)))],
        "k = 2, double root": [_term(M6_TWO, den) for den in (((3, 2), (-6, -4)), ((3, 2), (3, 2)))],
        "k = 2, one N = 0": [_term(M6_TWO, den) for den in (((3, 2), (4, 0)), ((4, 0), (3, 2)))],
        "k = 2, two N = 0": [_term(M6_TWO, ((4, 0), (-2, 0)))],
        "beyond k": [_term(_times_factors(M6_TWO, [(6, 0)]), ((3, 2), (5, 1)))],
    }


def _outside_terms():
    """Terms outside the closed form: a numerator vanishing below k (a pole
    in eps), and k = 3 factors over a numerator vanishing to order 3 (a
    limit)."""
    return [
        _term(M6, ((3, 2),)),
        _term(M6, ((3, 2), (4, 0))),
        _term(_times_factors(M6, [(2, 3)]), ((3, 2), (5, 1))),
        _term(_times_factors(M6_TWO, [(6, 0)]), ((3, 2), (5, 1), (1, 1))),
    ]


def _sympy_laurent(expr, sympy):
    """{order: coefficient in Q(s)} of expr under uv = 1 + eps, u + v = 2,
    each term by sympy's power-series inversion over Q(s)."""
    from sympy.polys.ring_series import rs_mul, rs_series_inversion

    QQ = sympy.QQ
    F, s = sympy.field("s", QQ)
    R, eps = sympy.ring("epsilon", F)
    P = F.ring  # Q[s], where the binomial coefficients live

    def rat(x):
        return QQ(x.numerator, x.denominator)

    def binomials(A, B, n):
        """binomial(A + B s, i) for i < n: (1 + eps)^(A + B s) to order n."""
        a = rat(A) + rat(B) * P.gens[0]
        out = [P.one]
        for j in range(1, n):
            out.append(out[-1] * (a - (j - 1)) * QQ(1, j))
        return out

    def series(coeffs):
        return sum((F(c) * eps**i for i, c in enumerate(coeffs)), R.zero)

    orders = {}
    for t_num, t_den in fraction_terms(expr):
        n = len(t_den) + 1
        num = [P.zero] * n
        for (A, B, g), c in t_num.items():
            for i, b in enumerate(binomials(A, B, n)):
                num[i] += rat(c) * 2**g * b
        # (uv)^a - 1 = eps * (a + binomial(a, 2) eps + ...)
        unit = R.one
        for N, nu in t_den:
            unit = rs_mul(unit, series(binomials(nu, N, n + 1)[1:]), eps, n)
        q = rs_mul(series(num), rs_series_inversion(unit, eps, n), eps, n)
        for i in range(n):
            orders[i - n + 1] = orders.get(i - n + 1, F.zero) + q.coeff(eps**i)
    return orders, F, s


def _sympy_value(z, sympy, F, s):
    """The RatFunc z in sympy's field F = Q(s)."""
    num, den = (
        sum((sympy.QQ(c.numerator, c.denominator) * s**i for i, c in enumerate(p.coeffs)), F.zero)
        for p in (z.num, z.den)
    )
    return num / den


def test_euler_specialize_agrees_with_sympy_series():
    sympy = pytest.importorskip("sympy")
    import random

    from qzeta.errors import IndeterminateLimit, OrderTwo, ZeroAlpha
    from qzeta.verify import _random_graphs

    # every closed-form branch, and single terms with a pole in eps
    hand = [t for ts in _branch_cases().values() for t in ts] + _outside_terms()[:3]
    exprs = [HodgeExpr((t,), BRANCH_SCALE) for t in hand]
    exprs += [HodgeExpr(e.terms[1:], e.r) for e, _ in _cancelling_cases()]
    for g in _random_graphs(random.Random(11)):
        exprs += [hodge_zeta(g), hodge_zeta(insert_hj_chains(g))]
        for s0 in sorted(g.candidate_poles()):
            try:
                top_residue(g, s0)
            except (OrderTwo, ZeroAlpha):
                continue
            exprs.append(hodge_residue(g, s0))
    for expr in exprs:
        orders, F, s = _sympy_laurent(expr, sympy)
        if any(c for o, c in orders.items() if o < 0):
            with pytest.raises(IndeterminateLimit):
                euler_specialize(expr)
            continue
        assert _sympy_value(euler_specialize(expr), sympy, F, s) == orders.get(0, F.zero)
    # terms outside the closed form raise even where the limit exists
    outside = _cancelling_cases() + [(HodgeExpr((_outside_terms()[3],), BRANCH_SCALE), None)]
    for expr, limit in outside:
        orders, F, s = _sympy_laurent(expr, sympy)
        assert not any(c for o, c in orders.items() if o < 0)
        if limit is not None:
            assert orders.get(0, F.zero) == _sympy_value(limit, sympy, F, s)
        with pytest.raises(IndeterminateLimit):
            euler_specialize(expr)


def test_top_and_hodge_residues_raise_alike():
    import random

    from qzeta import CyclicType
    from qzeta.errors import OrderTwo, ZeroAlpha
    from qzeta.resolution import Component, MarkedPoint, NumericalData, ResolutionGraph
    from qzeta.verify import _random_graphs

    def outcome(residue, g, s0):
        try:
            residue(g, s0)
        except (OrderTwo, ZeroAlpha) as exc:
            return type(exc)
        return None

    # a (0,0) strict transform meeting E gives a vanishing alpha-value on E
    zero_alpha = ResolutionGraph(
        PLANE,
        (
            Component("E", "exceptional", NumericalData(2, 3)),
            Component("L", "strict_W", NumericalData(0, 0)),
        ),
        (MarkedPoint("P", CyclicType(1, 0, 0), ("E", "L")),),
    )
    graphs = [zero_alpha]
    for seed in range(12):
        for g in _random_graphs(random.Random(seed)):
            graphs += [g, insert_hj_chains(g)]
    seen = set()
    for g in graphs:
        for s0 in sorted(g.candidate_poles()):
            kind = outcome(top_residue, g, s0)
            assert outcome(hodge_residue, g, s0) is kind, s0
            seen.add(kind)
    assert seen == {None, OrderTwo, ZeroAlpha}


def test_equality_with_zero_form_factor_raises():
    from qzeta.errors import ZeroDenominatorForm

    z, f, uv = (0, 0), (0, 1), (1, 0, 0)
    h1 = lattice([({uv: Fraction(1)}, [f]), ({uv: Fraction(1)}, [z])])
    h2 = lattice([({uv: Fraction(2)}, [f]), ({uv: Fraction(1)}, [z])])
    for check in (lambda: h1 == h2, lambda: h1.is_zero, lambda: euler_specialize(h1)):
        with pytest.raises(ZeroDenominatorForm):
            check()


def _mono(A=0, B=0, g=0):
    return (Fraction(A), Fraction(B), g)


def _expr(*terms):
    """HodgeExpr from (num, den) pairs: num maps (A, B, g) to a coefficient,
    den lists (N, nu)."""
    return lattice([({_mono(*k): Fraction(c) for k, c in num.items()}, den) for num, den in terms])


def _division_cases():
    """(expr, is zero) pairs that each need one kind of exact division."""
    M = (1, 1)  # (A, B) of (uv)^(1 + s), as the factor (N, nu) = (1, 1)
    Minv = (-1, -1)
    wide = {(50, 0): 1, (0, 0): -1}  # ((uv)^50 - 1) / (uv - 1), dense
    geometric = {(j, 0): -1 for j in range(50)}
    short = {(j, 0): -1 for j in range(49)}
    return [
        # non-primitive exponent vector: (uv)^2 - 1 = (uv - 1)(uv + 1)
        (_expr(({(1, 0): 1, (0, 0): 1}, [(0, 2)]), ({(0, 0): -1}, [(0, 1)])), True),
        (_expr(({(1, 0): 1, (0, 0): -1}, [(0, 2)]), ({(0, 0): -1}, [(0, 1)])), False),
        (_expr(({(1, 0): 1}, [(0, 2)]), ({(0, 0): -1}, [(0, 2)]), ({(0, 0): 1}, [(0, 1)])), False),
        # negative nu and N: 1/(M - 1) + M^-1/(M^-1 - 1) = 0 with M = (uv)^(s - 2)
        (_expr(({(0, 0): 1}, [(1, -2)]), ({(2, -1): 1}, [(-1, 2)])), True),
        (_expr(({(0, 0): 1}, [(1, -2)]), ({(0, 0): 1}, [(-1, 2)])), False),
        # N = 0 factors, one with a fractional exponent
        (_expr(({(2, 0): 1, (1, 0): 1, (0, 0): 1}, [(0, 3)]), ({(0, 0): -1}, [(0, 1)])), True),
        (_expr(({(Fraction(1, 2), 0): 1, (0, 0): 1}, [(0, 1)]), ({(0, 0): -1}, [(0, Fraction(1, 2))])), True),
        (_expr(({(2, 0): 1, (0, 0): 1}, [(0, 3)]), ({(0, 0): -1}, [(0, 1)])), False),
        # squared factor: M/(M - 1)^2 = 1/(M - 1) + 1/(M - 1)^2
        (_expr(({M: 1}, [(1, 1), (1, 1)]), ({(0, 0): -1}, [(1, 1)]), ({(0, 0): -1}, [(1, 1), (1, 1)])), True),
        (_expr(({M: 1}, [(1, 1), (1, 1)]), ({(0, 0): -1}, [(1, 1)])), False),
        (_expr(({M: 1, Minv: 1}, [(1, 1), (1, 1)]), ({(0, 0): -1}, [(1, 1)]), ({Minv: -1}, [(1, 1), (1, 1)])), False),
        # (u+v)^g: (u+v)(M + 1)/(M^2 - 1) = (u+v)/(M - 1); g keeps its own cosets
        (_expr(({(1, 1, 1): 1, (0, 0, 1): 1}, [(2, 2)]), ({(0, 0, 1): -1}, [(1, 1)])), True),
        (_expr(({(1, 1, 1): 1, (0, 0, 0): 1}, [(2, 2)]), ({(0, 0, 1): -1}, [(1, 1)])), False),
        (_expr(({(1, 1, 1): 1, (0, 0, 0): -1}, [(1, 1)])), False),
        # a quotient across a wide gap expands to 50 monomials
        (_expr((wide, [(0, 1)]), (geometric, [])), True),
        (_expr((wide, [(0, 1)]), (short, [])), False),
    ]


def test_is_zero_exact_division_cases():
    import hodge_oracle

    for expr, zero in _division_cases():
        assert expr.is_zero is zero
        assert hodge_oracle.is_zero(expr) is zero
    # the coset rule directly: (uv)^2 - 1 divides no odd multiple of uv - 1,
    # a (u+v) power is its own coset, and (uv)^50 - 1 over uv - 1 is dense
    assert _divide({(1, 0, 0): 1, (0, 0, 0): -1}, (2, 0)) is None
    assert _divide({(2, 0, 0): 1, (0, 0, 0): -1}, (1, 0)) == {(1, 0, 0): 1, (0, 0, 0): 1}
    assert _divide({(1, 1, 1): 1, (0, 0, 0): -1}, (1, 1)) is None
    assert _divide({(0, 3, 0): 1, (5, 0, 0): -1}, (0, 3)) is None
    assert _divide({(0, 3, 0): 1, (0, 0, 0): -1}, (0, -3)) == {(0, 3, 0): -1}
    assert _divide({(50, 0, 0): 1, (0, 0, 0): -1}, (1, 0)) == {(j, 0, 0): 1 for j in range(50)}
    assert _divide({(-7, 2, 0): 3, (-1, 0, 0): -3}, (-3, 1)) == {(-4, 1, 0): 3, (-1, 0, 0): 3}


def _perturbed(h):
    """Three nonzero changes of h: drop its last term, multiply one monomial
    by uv, add 1 to one coefficient.  Each differs from h by one nonzero term."""
    *rest, (last, den) = fraction_terms(h)
    (A, B, g), c = next(iter(last.items()))
    shifted = dict(last)
    del shifted[(A, B, g)]
    shifted[(A + 1, B, g)] = shifted.get((A + 1, B, g), 0) + c
    bumped = dict(last)
    bumped[(A, B, g)] = c + 1
    return [lattice(rest), lattice([*rest, (shifted, den)]), lattice([*rest, (bumped, den)])]


def test_is_zero_agrees_with_clearing_oracle():
    import random

    import hodge_oracle
    from qzeta.verify import _random_graphs

    checked = 0
    for seed in range(12):
        for g in _random_graphs(random.Random(seed)):
            h, h_smooth = hodge_zeta(g), hodge_zeta(insert_hj_chains(g))
            if len({f for t in (h - h_smooth).terms for f in t.den}) > 7:
                continue
            assert h == h_smooth and hodge_oracle.is_zero(h - h_smooth)
            for other in _perturbed(h_smooth):
                assert h != other and not hodge_oracle.is_zero(h - other)
            checked += 1
    assert checked >= 15


def test_largest_hodge_euler_draw_is_fast():
    # index 27 of hodge-euler at seed 20260810: 38 distinct factors, whose
    # union denominator took 85 s to clear
    import random
    import time

    from qzeta.verify import _hodge_graph

    rng = random.Random(20260810)
    for _ in range(28):
        g = _hodge_graph(rng)
    smooth = insert_hj_chains(g)
    assert len({(c.data.N, c.data.nu) for c in smooth.components}) == 38
    h, h_smooth = hodge_zeta(g), hodge_zeta(smooth)
    start = time.perf_counter()
    assert h == h_smooth
    assert time.perf_counter() - start < 2.0


def test_hodge_and_ztop_paths_run_no_polynomial_division(monkeypatch):
    import random

    import qzeta.hodge
    import qzeta.ratfunc
    import qzeta.zeta
    from qzeta import classify_poles
    from qzeta.errors import OrderTwo, ZeroAlpha
    from qzeta.hodge import SFactor, _closed_split
    from qzeta.verify import _random_graphs

    # the per-term Poly and dict products and the dead cycle clause are gone,
    # so are the Fraction-keyed monomial helpers, and so is the general
    # Laurent route with the partial-fraction kernels only it used, and so
    # is the closed split's own summing: zeta._split sums every term
    for name in (
        "_dict_mul", "_dict_add", "UV_MINUS_1", "_binom_polys",
        "Monomial", "MonoDict", "_mono_mul", "_integer_scales", "UV", "ONE", "UPLUSV",
        "_num_series", "_poly_series_mul", "_laurent_numerators", "_laurent_split",
        "partial_fractions", "comb", "_add_split", "ZERO",
    ):
        assert not hasattr(qzeta.hodge, name), name
    for name in ("partial_fractions", "_monic_product", "_times_linear", "_horner"):
        assert not hasattr(qzeta.ratfunc, name), name
    assert not hasattr(SFactor, "num_dict")
    assert not hasattr(HodgeTerm, "num_dict")
    assert not hasattr(qzeta.zeta, "_exceptional_cycle")

    def refuse(*_):
        raise AssertionError("polynomial division on a library path")

    monkeypatch.setattr(Poly, "divmod", refuse)
    graphs = [_cycle_graph()]
    for seed in range(3):
        for g in _random_graphs(random.Random(seed)):
            graphs += [g, insert_hj_chains(g)]
    residues = terms = 0
    for graph in graphs:
        z = ztop(graph)
        classify_poles(graph)
        h = hodge_zeta(graph)
        assert euler_specialize(h) == z
        exprs = [h]
        for s0 in sorted(graph.candidate_poles()):
            try:
                res = top_residue(graph, s0)
            except (OrderTwo, ZeroAlpha):
                continue
            witness = hodge_residue(graph, s0)
            assert euler_specialize(witness) == res
            exprs.append(witness)
            residues += 1
        # every term of these, and of their sums, differences, scalings and
        # lattice rescales, is split in closed form
        exprs += [h + exprs[-1], h - exprs[-1], h.scale(Fraction(-3, 2))]
        exprs += [HodgeExpr(e._terms_on(3 * e.r), 3 * e.r) for e in exprs]
        for expr in exprs:
            for t in expr.terms:
                assert _closed_split(t) is not None
                terms += 1
    assert residues >= 10 and terms >= 1000


def test_closed_split_matches_general_route():
    # the general route is sympy's series expansion of the term; the closed
    # form is one (Q, d, forms) term of the one split, zeta._split
    sympy = pytest.importorskip("sympy")
    import random

    from qzeta.errors import IndeterminateLimit, OrderTwo, ZeroAlpha, ZeroDenominatorForm
    from qzeta.hodge import _closed_split, _moments
    from qzeta.verify import _random_graphs
    from qzeta.zeta import _split

    def agree(t, r):
        """The split of t's closed form equals the constant term of its
        series, which has no negative order."""
        closed = _closed_split(t)
        assert closed is not None and closed[2] == [(b, a) for a, b in t.den]
        orders, F, s = _sympy_laurent(HodgeExpr((t,), r), sympy)
        assert not any(c for o, c in orders.items() if o < 0)
        z = RatFunc.from_partial_fractions(*_split([closed]))
        assert _sympy_value(z, sympy, F, s) == orders.get(0, F.zero)
        return z

    r = BRANCH_SCALE
    cases = _branch_cases()
    # k = 0: the constant sum of c 2^g
    assert [agree(t, r) for t in cases["k = 0"]] == [RatFunc.const(Fraction(9, 2))]
    # k = 1 with N != 0 (a constant and one root) and with N = 0 (a
    # polynomial, linear unless the numerator's shift has no s)
    for t in cases["k = 1"]:
        assert list(agree(t, r).poles().values()) == [1]
    z0, z1 = (agree(t, r) for t in cases["k = 1, N = 0"])
    assert not (z0.poles() or z1.poles()) and (z0._poly.degree, z1._poly.degree) == (0, 1)
    _, moments = _moments(tuple(M6_TWO.items()), 3)
    assert moments[0] == [0] and moments[1] == [0, 0] and moments[2][2]
    # k = 2 with distinct roots, then with a double root, twice: (-6, -4)
    # and (3, 2) are one root -3/2
    for t in cases["k = 2"]:
        assert list(agree(t, r).poles().values()) == [1, 1]
    for t in cases["k = 2, double root"]:
        z = agree(t, r)
        assert z.poles() == {Fraction(-3, 2): 2} and all(z._parts[Fraction(-3, 2)])
    # k = 2 with one N = 0 factor: Syy != 0 gives a linear polynomial part
    for t in cases["k = 2, one N = 0"]:
        z = agree(t, r)
        assert len(z.poles()) == 1 and z._poly.degree == 1
    # k = 2 with two N = 0 factors: a quadratic polynomial
    for t in cases["k = 2, two N = 0"]:
        z = agree(t, r)
        assert not z.poles() and z._poly.degree == 2
    # a numerator vanishing beyond order k contributes nothing
    assert [agree(t, r) for t in cases["beyond k"]] == [RatFunc.zero()]
    # an early numerator order or k > 2 factors is outside the closed form
    for t in _outside_terms():
        assert _closed_split(t) is None
        with pytest.raises(IndeterminateLimit, match=f"over {len(t.den)} factors"):
            euler_specialize(HodgeExpr((t,), r))
    # a (0, 0) factor raises before any split, after a closed-form term and
    # after a term outside the closed form
    for head in (cases["k = 2"][0], _outside_terms()[0]):
        for den in (((0, 0),), ((3, 2), (0, 0)), ((0, 0), (4, 0))):
            expr = HodgeExpr((head, _term(M6_TWO, den)), r)
            with pytest.raises(ZeroDenominatorForm):
                euler_specialize(expr)
    # every term hodge_zeta and hodge_residue build
    count = 0
    for seed in (0, 1):
        for g in _random_graphs(random.Random(seed)):
            exprs = [hodge_zeta(g), hodge_zeta(insert_hj_chains(g))]
            for s0 in sorted(g.candidate_poles()):
                try:
                    top_residue(g, s0)
                except (OrderTwo, ZeroAlpha):
                    continue
                exprs.append(hodge_residue(g, s0))
            for expr in exprs:
                for t in expr.terms:
                    agree(t, expr.r)
                    count += 1
    assert count >= 100
