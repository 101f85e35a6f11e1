import random
from math import gcd

import pytest
from cyclic_oracle import smallify_by_enumeration
from hypothesis import given, settings
from hypothesis import strategies as st

from qzeta import (
    ActionSpec,
    CyclicType,
    HJChain,
    delta,
    hj_expand,
    normalize_type,
    smallify_action,
)
from qzeta.cyclic import abelian_invariants, enumerate_action
from qzeta.errors import InputError
from qzeta.randgen import random_action_spec
from qzeta.resolution import chart_actions


def test_normalize_trivial_group():
    t = normalize_type(1, 0, 0)
    assert t.m == 1 and t.e1 == 1 and t.e2 == 1


def test_normalize_absorbs_reflections():
    # X(6;1,3): three elements act trivially on y, so the covering ramifies
    # along {x=0} with index 3
    t = normalize_type(6, 1, 3)
    assert (t.m, t.a, t.b) == (2, 1, 1)
    assert (t.e1, t.e2) == (3, 1)
    assert t.e1 * t.e2 * t.m == 6


def test_normalize_kernel_reduction():
    t = normalize_type(4, 2, 6)
    assert (t.m, t.a, t.b) == (2, 1, 1)
    assert t.e1 == t.e2 == 1


def invariant_lattice(gens, box=12):
    """Monomials x^u y^v invariant under all generators, inside a box."""
    pts = set()
    for u in range(box):
        for v in range(box):
            if all((u * a + v * b) % m == 0 for m, a, b in gens):
                pts.add((u, v))
    return pts


def check_smallify_against_invariants(spec, box=12):
    """Oracle: C[x,y]^G = C[x^e1, y^e2]^(small action)."""
    small = smallify_action(spec)
    original = invariant_lattice(spec.generators, box)
    rebuilt = set()
    for u in range(box):
        for v in range(box):
            if u % small.e1 or v % small.e2:
                continue
            i, j = u // small.e1, v // small.e2
            if (i * small.a + j * small.b) % small.m == 0:
                rebuilt.add((u, v))
    assert original == rebuilt


def test_normalize_invariant_monomials_oracle():
    for args in [(4, 2, 6), (6, 1, 3), (12, 3, 10), (8, 2, 3), (9, 3, 3)]:
        check_smallify_against_invariants(ActionSpec((args,)))


def test_smallify_chart_groups():
    t = smallify_action(ActionSpec(((3, 2, 2), (6, 1, 1))))
    assert (t.m, t.a, t.b) == (6, 1, 1)
    u = smallify_action(ActionSpec(((2, 1, 1), (4, 3, 1))))
    assert u.m == 4 and u.is_small
    assert smallify_action(ActionSpec(((1, 0, 0),))).m == 1


def test_smallify_two_generator_oracle():
    check_smallify_against_invariants(ActionSpec(((3, 2, 2), (6, 1, 1))))
    check_smallify_against_invariants(ActionSpec(((2, 1, 1), (4, 3, 1))))
    check_smallify_against_invariants(ActionSpec(((2, 1, 0), (2, 0, 1))))


def _smallified(t):
    return (t.m, t.a, t.b, t.e1, t.e2, t.axis_swap)


def test_smallify_closed_form_matches_enumeration_on_chart_actions():
    # both chart groups of the (p,q)-blow-up of every X(d;a,b), d <= 10, over
    # all 23 coprime weights p, q <= 6
    pqs = [(p, q) for p in range(1, 7) for q in range(1, 7) if gcd(p, q) == 1]
    assert len(pqs) == 23
    for d in range(1, 11):
        for a in range(d):
            for b in range(d):
                if gcd(gcd(d, a), b) != 1:
                    continue
                for p, q in pqs:
                    for action in chart_actions(CyclicType(d, a, b), p, q):
                        expected = _smallified(smallify_by_enumeration(action))
                        assert _smallified(smallify_action(action)) == expected, (d, a, b, p, q)


def test_smallify_closed_form_matches_enumeration_on_random_actions():
    rng = random.Random(20261019)
    for _ in range(1000):
        spec = random_action_spec(rng)
        assert _smallified(smallify_action(spec)) == _smallified(smallify_by_enumeration(spec)), spec
    # unreduced and negative weights, order-one generators
    for _ in range(1000):
        gens = tuple(
            (rng.randint(1, 12), rng.randint(-30, 30), rng.randint(-30, 30))
            for _ in range(rng.randint(1, 3))
        )
        spec = ActionSpec(gens)
        assert _smallified(smallify_action(spec)) == _smallified(smallify_by_enumeration(spec)), spec


def test_smallify_rejects_empty():
    with pytest.raises(InputError):
        ActionSpec(())


def test_smallify_idempotent_examples():
    for gens in [((6, 1, 3),), ((3, 2, 2), (6, 1, 1)), ((12, 4, 3),)]:
        small = smallify_action(ActionSpec(gens))
        again = smallify_action(ActionSpec(((small.m, small.a, small.b),)))
        assert (again.m, again.a, again.b) == (small.m, small.a, small.b)
        assert again.e1 == again.e2 == 1


def test_hj_expand_examples():
    assert hj_expand(2, 1).ks == (2,)
    assert hj_expand(5, 2).ks == (3, 2)
    assert hj_expand(5, 3).ks == (2, 3)
    # continued-fraction identity 3 - 1/2 = 5/2 checked through delta
    assert hj_expand(5, 2).delta(1, 2) == 5


def test_hj_expand_rejects_non_coprime():
    with pytest.raises(InputError):
        hj_expand(6, 2)
    with pytest.raises(InputError):
        hj_expand(5, 5)


def test_delta_conventions():
    chain = hj_expand(2, 1)
    assert delta(chain, 1, 1) == 2
    assert delta(chain, 1, 0) == 1
    assert delta(chain, 1, -1) == 0
    assert delta(hj_expand(5, 2), 1, 2) == 5
    with pytest.raises(InputError):
        delta(chain, 1, 5)


def test_delta_2x2_oracle():
    # direct 2x2 determinant |k1 k2 - 1| against the recursion
    chain = HJChain(5, 2, (3, 2))
    assert chain.delta(1, 2) == abs(3 * 2 - 1)


@given(st.integers(min_value=2, max_value=200), st.data())
@settings(max_examples=150, deadline=None)
def test_hj_determinant_is_order(m, data):
    qs = [q for q in range(1, m) if gcd(m, q) == 1]
    q = data.draw(st.sampled_from(qs))
    chain = hj_expand(m, q)
    assert all(k >= 2 for k in chain.ks)
    assert chain.delta(1, chain.length) == m


@given(st.integers(min_value=1, max_value=24), st.integers(), st.integers())
@settings(max_examples=150, deadline=None)
def test_normalize_swap_property(m, a, b):
    left = normalize_type(m, a, b).swapped().normalized()
    right = normalize_type(m, b, a)
    assert (left.m, left.a, left.b) == (right.m, right.a, right.b)
    assert (left.e1, left.e2) == (right.e1, right.e2)


def test_group_order_invariant_random():
    rng = random.Random(5)
    for _ in range(100):
        gens = tuple(
            (m, rng.randrange(m), rng.randrange(m))
            for m in (rng.randint(1, 20), rng.randint(1, 20))
        )
        spec = ActionSpec(gens)
        small = smallify_action(spec)
        order = len(enumerate_action(spec))
        assert order <= 500
        assert small.m * small.e1 * small.e2 == order
        inv = abelian_invariants(spec)
        prod = 1
        for x in inv:
            prod *= x
        assert prod == order


def continued_fraction_value(ks):
    from fractions import Fraction

    val = Fraction(ks[-1])
    for k in reversed(ks[:-1]):
        val = k - 1 / val
    return val


@given(st.integers(min_value=2, max_value=120), st.data())
@settings(max_examples=80, deadline=None)
def test_hj_continued_fraction_identity(m, data):
    qs = [q for q in range(1, m) if gcd(m, q) == 1]
    q = data.draw(st.sampled_from(qs))
    from fractions import Fraction

    assert continued_fraction_value(hj_expand(m, q).ks) == Fraction(m, q)


def test_normalize_even_reflection_family():
    # X(d;1,d/2+1) with d = 2 mod 4 absorbs a single reflection on {x=0}
    # and halves the order
    for d in (6, 10):
        t = normalize_type(d, 1, d // 2 + 1)
        assert (t.m, t.a, t.b) == (d // 2, 1, (d + 2) // 4)
        assert (t.e1, t.e2) == (2, 1)


def test_library_paths_run_no_enumeration(monkeypatch):
    # the brute-force closure is an oracle only: no library path may call it
    import qzeta.cyclic
    from qzeta import (
        PLANE,
        DivisorSpec,
        DownDivisor,
        QuotientSetup,
        build_quotient,
        classify_poles,
        compare_levels,
        hodge_residue,
        minus_branch_divisor,
        top_residue,
        weighted_blowup,
    )
    from qzeta.errors import OrderTwo, ZeroAlpha

    def refuse(spec):
        raise AssertionError(f"enumerate_action called on {spec}")

    monkeypatch.setattr(qzeta.cyclic, "enumerate_action", refuse)
    assert (normalize_type(6, 1, 3).m, normalize_type(12, 3, 10).m) == (2, 2)
    spec = DivisorSpec(pq=(3, 2), axis_x=(1, 0), axis_y=(0, 2))
    graphs = [weighted_blowup(PLANE, spec), weighted_blowup(CyclicType(6, 1, 3), spec)]
    setup = QuotientSetup(6, 1, 3)
    dbar = DownDivisor(pq=(3, 2), axis_x=1)
    for wbar, b_applies in ((DownDivisor(pq=(3, 2), axis_y=2), False),
                            (minus_branch_divisor(setup, (3, 2)), True)):
        pair = build_quotient(setup, dbar, wbar)
        graphs += [pair.graph_up, pair.graph_down]
        verdicts = [compare_levels(pair, which).verdict for which in "ABC"]
        assert verdicts == ["holds", "holds" if b_applies else "not-applicable", "holds"]
    for g in graphs:
        classify_poles(g)
        for s0 in g.candidate_poles():
            try:
                top_residue(g, s0)
                hodge_residue(g, s0)
            except (OrderTwo, ZeroAlpha):
                pass
