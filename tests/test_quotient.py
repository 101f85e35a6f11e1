import random
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from quotient_oracle import swapped_pair_divisors, swapped_pair_zeta, swapped_setups
from ratfunc_oracle import ratfunc

from qzeta import (
    DownDivisor,
    Poly,
    QuotientSetup,
    branch_orbit_analysis,
    build_quotient,
    classify_poles,
    compare_levels,
    exceptional_ramification,
    lift_pair,
    minus_branch_divisor,
    verify_correspondence,
    verify_theorem,
    ztop,
)
from qzeta.errors import InputError, MixedOrbitMultiplicity
from qzeta.quotient import orbit_size
from qzeta.randgen import random_down_pair, random_setup
from qzeta.resolution import BranchEntry, CClass, DivisorSpec, NumericalData


def lin(nu, N):
    return Poly.linear_form(Fraction(nu), Fraction(N))


def test_setup_rejects_common_divisor():
    with pytest.raises(InputError):
        QuotientSetup(4, 2, 2)


def test_lift_small_action_keeps_w_zero(setup_mu2):
    spec = lift_pair(
        setup_mu2,
        DownDivisor(pq=(3, 2), branches=(("c", Fraction(1)),)),
        DownDivisor(pq=(3, 2)),
    )
    assert spec.axis_x == (0, 0) and spec.axis_y == (0, 0)
    assert [b.w for b in spec.branches] == [0, 0]
    assert len(spec.branches) == 2  # the orbit of c has two members


def test_lift_minus_branch_divisor_cancels_ramification():
    setup = QuotientSetup(6, 2, 3)  # e1 = 3, e2 = 2
    spec = lift_pair(
        setup,
        DownDivisor(pq=(1, 1), axis_x=Fraction(1)),
        minus_branch_divisor(setup, (1, 1)),
    )
    # W = rho*(-B_rho) + Ram_rho = 0
    assert spec.axis_x == (3, 0) and spec.axis_y == (0, 0)
    # and only then: the lifted W vanishes exactly when Wbar = -B_rho,
    # which is how Theorem B reads its hypothesis off a built pair
    rng = random.Random(17)
    seen = set()
    for mode in ("general", "minus_branch"):
        for _ in range(150):
            setup = random_setup(rng)
            dbar, wbar = random_down_pair(rng, setup, wbar_mode=mode)
            minus = minus_branch_divisor(setup, dbar.pq)
            is_minus = (wbar.axis_x, wbar.axis_y) == (minus.axis_x, minus.axis_y) and not any(
                c for _, c in wbar.branches
            )
            spec = lift_pair(setup, dbar, wbar)
            w_zero = spec.axis_x[1] == spec.axis_y[1] == 0 and not any(b.w for b in spec.branches)
            assert w_zero == is_minus, (setup, dbar, wbar)
            seen.add(w_zero)
    assert seen == {True, False}


def test_lift_adds_ramification_to_w():
    # X(d;l,1) with e2 = gcd(d,l): W gains (e2-1) {y=0}
    setup = QuotientSetup(6, 3, 1)
    assert setup.e2 == 3
    spec = lift_pair(setup, DownDivisor(axis_x=Fraction(1)), DownDivisor())
    assert spec.axis_y == (0, 2)


def test_branch_orbit_analysis_swap(setup_mu2):
    spec = lift_pair(
        setup_mu2,
        DownDivisor(pq=(3, 2), branches=(("c", Fraction(1)),)),
        DownDivisor(pq=(3, 2), axis_x=Fraction(3)),
    )
    out = branch_orbit_analysis(setup_mu2, spec)
    assert out.size == 2 and len(out.orbits) == 1
    assert out.orbits[0].members == ("c.0", "c.1")


def test_branch_orbit_invariant_when_congruent():
    setup = QuotientSetup(5, 1, 2)
    assert orbit_size(setup, (1, 2)) == 1  # q a = p b mod d
    spec = lift_pair(setup, DownDivisor(pq=(1, 2), branches=(("c", 1),)), DownDivisor(pq=(1, 2)))
    out = branch_orbit_analysis(setup, spec)
    assert all(o.invariant for o in out.orbits)


def test_branch_orbit_mixed_multiplicities_rejected(setup_mu2):
    spec = DivisorSpec(
        pq=(3, 2),
        branches=(
            BranchEntry("a", CClass("c", 0), 1, 0),
            BranchEntry("b", CClass("c", 1), 2, 0),
        ),
    )
    with pytest.raises(MixedOrbitMultiplicity):
        branch_orbit_analysis(setup_mu2, spec)


def _brute_ramification(setup: QuotientSetup, pq: tuple[int, int]) -> int:
    """Counts the i in Z/d admitting t with zeta^{ia} = t^p, zeta^{ib} = t^q,
    enumerating t among the (pqd)-th roots of unity as exponent arithmetic.
    """
    d = setup.d
    p, q = pq
    mod = d * p * q
    count = 0
    for i in range(d):
        for j in range(mod):
            # t = zeta_{dpq}^j: t^p = zeta_d^{ia} iff j = i a q (mod d q)
            if (j - i * setup.a * q) % (d * q) == 0 and (j - i * setup.b * p) % (d * p) == 0:
                count += 1
                break
    return count


def test_exceptional_ramification_examples(setup_mu2):
    assert exceptional_ramification(setup_mu2, (3, 2)) == 1
    assert exceptional_ramification(setup_mu2, (1, 1)) == 2
    assert exceptional_ramification(QuotientSetup(1, 0, 0), (5, 3)) == 1


def test_exceptional_ramification_matches_enumeration():
    weights = [(p, q) for p in range(1, 5) for q in range(1, 5) if gcd(p, q) == 1]
    for d in range(1, 25):
        for a in range(d):
            for b in range(d):
                if gcd(gcd(d, a), b) != 1:
                    continue
                setup = QuotientSetup(d, a, b)
                for pq in weights:
                    assert exceptional_ramification(setup, pq) == _brute_ramification(setup, pq)


@pytest.mark.parametrize("pq", [(2, 4), (3, 3), (0, 1), (-1, 2)])
def test_exceptional_ramification_rejects_bad_weights(setup_mu2, pq):
    with pytest.raises(InputError):
        exceptional_ramification(setup_mu2, pq)


def test_large_d_quotient_is_fast():
    # X(3000;1,3): the enumeration over Z/d x Z/(dpq) took over a minute
    setup = QuotientSetup(3000, 1, 3)
    dbar = DownDivisor(pq=(7, 5), axis_x=Fraction(1))
    wbar = DownDivisor(pq=(7, 5))
    t0 = time.perf_counter()
    build_quotient(setup, dbar, wbar)
    t1 = time.perf_counter()
    rep = verify_theorem("A", setup, dbar, wbar)
    t2 = time.perf_counter()
    assert rep.verdict == "holds"
    assert t1 - t0 < 2.0 and t2 - t1 < 2.0


def test_huge_d_chart_types_in_closed_form():
    # X(200003;1,3) with (p,q) = (7,5): enumerating the chart groups took
    # about 15 s; these are the types that enumeration gave
    setup = QuotientSetup(200003, 1, 3)
    dbar = DownDivisor(pq=(7, 5), axis_x=Fraction(1), axis_y=Fraction(1))
    t0 = time.perf_counter()
    pair = build_quotient(setup, dbar, DownDivisor(pq=(7, 5)))
    assert time.perf_counter() - t0 < 1.0
    types = {p.id: str(p.local_type) for p in pair.graph_down.points}
    assert types == {"U": "X(1400021;1,16)", "V": "X(1000015;1,812512)"}


def test_build_quotient_fixture_orders(pair_x4y6, pair_x4y10):
    down = pair_x4y6.graph_down
    assert down.component("E").data.N == 12 and down.component("E").data.nu == 14
    assert {p.id: p.order for p in down.points} == {"U": 6, "V": 4, "pt_c": 1}
    assert down.alpha_values("E") == {
        "U": Fraction(1, 6),
        "V": Fraction(1),
        "pt_c": Fraction(-1, 6),
    }
    down2 = pair_x4y10.graph_down
    assert (down2.component("E").data.N, down2.component("E").data.nu) == (20, 32)
    assert {p.id: p.order for p in down2.points} == {"U": 10, "V": 4, "pt_c": 1}


def test_build_quotient_trivial_group():
    setup = QuotientSetup(1, 0, 0)
    dbar = DownDivisor(pq=(3, 2), branches=(("c", Fraction(1)),), axis_x=Fraction(2))
    wbar = DownDivisor(pq=(3, 2), axis_y=Fraction(1, 2))
    pair = build_quotient(setup, dbar, wbar)
    up, down = pair.graph_up, pair.graph_down
    for row in pair.table.components:
        assert row.e == 1 and row.r == 1
        assert len(row.up_ids) == 1
        assert up.component(row.up_ids[0]).data == down.component(row.down_id).data
    for row in pair.table.points:
        assert (row.n, row.m) == (1, row.m_bar)
    assert ztop(up) == ztop(down)


def test_correspondence_fixture_rows(pair_x4y6):
    table = pair_x4y6.table
    u_row = next(r for r in table.points if r.down_id == "U")
    assert (u_row.m, u_row.m_bar, u_row.r) == (3, 6, 1)
    assert u_row.e_pair == (1, 1)
    assert table.d * u_row.m == u_row.r * u_row.e_pair[0] * u_row.e_pair[1] * u_row.m_bar
    out = verify_correspondence(pair_x4y6)
    assert out["holds"]
    # rupture is lost downstairs with alpha = covering degree at a chart origin
    assert out["rupture_up"] and not out["rupture_down"]
    assert out["degree_on_E"] == 2
    assert pair_x4y6.graph_up.alpha_at("V", "E") == 2


def test_proportionality_rows(pair_x4y10):
    up, down = pair_x4y10.graph_up, pair_x4y10.graph_down
    for row in pair_x4y10.table.components:
        target = down.component(row.down_id).data
        for uid in row.up_ids:
            src = up.component(uid).data
            assert src.N == target.N * row.e and src.nu == target.nu * row.e
    assert verify_correspondence(pair_x4y10)["holds"]


def test_pathological_zeta_closed_forms():
    for d in (4, 6, 8, 10, 12):
        setup = QuotientSetup(d, 1, d // 2 + 1)
        for N in (1, 2, 3):
            down, up, graph = swapped_pair_zeta(setup, N, 1)
            form = lin(1, N)
            assert up == ratfunc(Poly.const(1), form * form)
            assert down == ratfunc(Poly.const(Fraction(d, 4)) * lin(4, 3 * N), form * form)
        down, _, _ = swapped_pair_zeta(setup, 2, Fraction(3, 2))
        form = lin(Fraction(3, 2), 2)
        assert down == ratfunc(
            Poly.const(Fraction(d, 4)) * lin(Fraction(11, 2), 6), form * form
        )


def _swapped_pair(setup, N, nu):
    return build_quotient(setup, *swapped_pair_divisors(setup, N, nu))


def test_swapped_pairs_match_the_oracle():
    # every swapped setup with d <= 12: 10 small and 12 non-small, 16 (N, nu) each
    setups = swapped_setups(12)
    assert (len(setups), sum(s.is_small for s in setups)) == (22, 10)
    for setup in setups:
        for N in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)):
            for nu in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 2)):
                down, up, graph = swapped_pair_zeta(setup, N, nu)
                pair = _swapped_pair(setup, N, nu)
                assert ztop(pair.graph_up) == up
                assert ztop(pair.graph_down) == down
                motivic = classify_poles(pair.graph_down).motivic_poles()
                assert motivic == classify_poles(graph).motivic_poles()
                assert verify_correspondence(pair)["holds"]


def test_build_quotient_swapped_pair():
    setup = QuotientSetup(4, 1, 3)
    pair = _swapped_pair(setup, 1, 1)
    assert [o.members for o in pair.analysis.orbits] == [("c.0", "c.1")]
    assert {p.id: p.order for p in pair.graph_down.points} == {"U": 2, "V": 2, "pt_c": 1}
    out = verify_correspondence(pair)
    # Ebar is a rupture component and E is not: its pole -1 has order two
    # upstairs, where the two strict transforms meet
    assert out["holds"] and out["rupture_down"] and not out["rupture_up"]
    assert classify_poles(pair.graph_up).motivic_poles() == {Fraction(-1): 2}


def test_rupture_row_needs_a_motivic_pole_upstairs():
    # Ebar made a rupture component at s0 = -3, which is no pole upstairs
    pair = _swapped_pair(QuotientSetup(4, 1, 3), 1, 1)
    down = pair.graph_down
    comps = tuple(
        replace(c, data=NumericalData(1, 3)) if c.id == "E" else c for c in down.components
    )
    doctored = replace(pair, graph_down=replace(down, components=comps))
    assert Fraction(-3) not in classify_poles(pair.graph_up).motivic_poles()
    out = verify_correspondence(doctored)
    assert out["rupture_down"] and not out["rupture_up"]
    assert "rupture component downstairs at -3, no motivic pole upstairs" in out["failures"]


def test_verify_theorem_a_strict_containment(setup_mu2):
    rep = verify_theorem(
        "A",
        setup_mu2,
        DownDivisor(pq=(3, 2), branches=(("c", Fraction(1)),)),
        DownDivisor(pq=(3, 2), axis_x=Fraction(3)),
    )
    assert rep.verdict == "holds"
    assert set(rep.evidence["motivic_down"]) < set(rep.evidence["motivic_up"])
    # top_up is not contained in top_down: -7/6 is a pole upstairs only
    assert Fraction(-7, 6) in rep.evidence["top_up"]
    assert Fraction(-7, 6) not in rep.evidence["top_down"]


def test_verify_theorem_a_downstairs_topological_pole_not_upstairs():
    # top_down is not contained in top_up: upstairs E is a rupture component
    # at -8/5 with residue 0, downstairs -8/5 is a simple topological pole
    rep = verify_theorem(
        "A",
        QuotientSetup(2, 1, 1),
        DownDivisor(pq=(2, 1), axis_y=Fraction(1), branches=(("c", Fraction(1)),)),
        DownDivisor(pq=(2, 1), axis_x=Fraction(2), axis_y=Fraction(1)),
    )
    assert rep.verdict == "holds"
    assert set(rep.evidence["top_up"]) == {Fraction(-1), Fraction(-2)}
    assert set(rep.evidence["top_down"]) == {Fraction(-1), Fraction(-8, 5), Fraction(-2)}


def test_verify_theorem_b_w0_variant(setup_mu2):
    rep = verify_theorem(
        "B",
        setup_mu2,
        DownDivisor(pq=(3, 2), branches=(("c", Fraction(1)),)),
        minus_branch_divisor(setup_mu2, (3, 2)),
    )
    assert rep.verdict == "holds"
    assert rep.evidence["top_up"] == rep.evidence["mot_down"]


def test_verify_theorem_b_rejects_other_w(setup_mu2):
    rep = verify_theorem(
        "B",
        setup_mu2,
        DownDivisor(pq=(3, 2), branches=(("c", Fraction(1)),)),
        DownDivisor(pq=(3, 2), axis_x=Fraction(3)),
    )
    assert rep.verdict == "not-applicable"
    # -B_rho on both axes is not enough: a branch coefficient of Wbar
    # survives in W upstairs
    setup = QuotientSetup(6, 2, 3)  # e1 = 3, e2 = 2
    dbar = DownDivisor(pq=(1, 1), branches=(("c", Fraction(1)),))
    wbar = replace(minus_branch_divisor(setup, (1, 1)), branches=(("c", Fraction(1, 2)),))
    pair = build_quotient(setup, dbar, wbar)
    assert pair.spec_up.axis_x[1] == pair.spec_up.axis_y[1] == 0
    assert compare_levels(pair, "B").verdict == "not-applicable"
    wbar0 = replace(wbar, branches=(("c", Fraction(0)),))
    assert verify_theorem("B", setup, dbar, wbar0).verdict == "holds"


def test_verify_theorem_c_invariant_and_sharp():
    setup = QuotientSetup(5, 1, 2)
    rep = verify_theorem(
        "C",
        setup,
        DownDivisor(pq=(1, 2), branches=(("c", Fraction(1)),), axis_y=Fraction(1)),
        DownDivisor(pq=(1, 2), axis_x=Fraction(1, 3)),
    )
    assert rep.verdict == "holds"
    sharp = verify_theorem(
        "C",
        QuotientSetup(4, 1, 3),
        DownDivisor(pq=(1, 1), branches=(("c", Fraction(2)),)),
        DownDivisor(pq=(1, 1)),
    )
    assert sharp.verdict == "not-applicable"
    assert not sharp.evidence["ratio_constant"]


def test_axes_only_agrees_with_direct_formula():
    # Q-normal crossing at the origin: the quotient formula
    # |G|/((nu1+N1 s)(nu2+N2 s)) in upstairs exponents matches the
    # transported one-blow-up graph exactly
    from qzeta import NumericalData, ztop_nc_quotient

    cases = [
        (QuotientSetup(2, 1, 1), Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (QuotientSetup(6, 2, 3), Fraction(2), Fraction(1, 2), Fraction(1), Fraction(-1, 2)),
        (QuotientSetup(5, 1, 3), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 3)),
    ]
    for setup, nx, wx, ny, wy in cases:
        dbar = DownDivisor(pq=(1, 1), axis_x=nx, axis_y=ny)
        wbar = DownDivisor(pq=(1, 1), axis_x=wx, axis_y=wy)
        pair = build_quotient(setup, dbar, wbar)
        spec = pair.spec_up
        lemma = ztop_nc_quotient(
            setup.d,
            NumericalData(spec.axis_x[0], 1 + spec.axis_x[1]),
            NumericalData(spec.axis_y[0], 1 + spec.axis_y[1]),
        )
        assert ztop(pair.graph_down) == lemma


def test_weighted_blowup_on_quotient_ambient_delegates(setup_mu2, pair_x4y6):
    from qzeta import CyclicType, weighted_blowup
    from qzeta.resolution import BranchEntry, CClass, DivisorSpec

    spec_down = DivisorSpec(
        pq=(3, 2),
        axis_x=(Fraction(0), Fraction(3)),
        branches=(BranchEntry("c", CClass("c", 0), Fraction(1), Fraction(0)),),
    )
    g = weighted_blowup(CyclicType(2, 1, 1), spec_down)
    assert g.components == pair_x4y6.graph_down.components
    assert g.points == pair_x4y6.graph_down.points


def test_downstairs_axis_kinds_reflect_own_pair():
    # e1 = 2: upstairs the axis carries Ram in W (strict_DW), downstairs it
    # is a plain component of Dbar
    setup = QuotientSetup(6, 3, 2)
    assert setup.e1 == 2
    pair = build_quotient(
        setup,
        DownDivisor(pq=(1, 1), axis_x=Fraction(1), axis_y=Fraction(1)),
        DownDivisor(pq=(1, 1)),
    )
    assert pair.graph_up.component("Lx").kind == "strict_DW"
    assert pair.graph_down.component("Lx").kind == "strict_D"


def test_w_only_branch_orbit(setup_mu2):
    # a branch orbit carried by Wbar alone (N = 0) transports as strict_W
    dbar = DownDivisor(pq=(3, 2), axis_x=Fraction(2))
    wbar = DownDivisor(pq=(3, 2), branches=(("w", Fraction(1, 2)),))
    pair = build_quotient(setup_mu2, dbar, wbar)
    down = pair.graph_down
    assert down.component("w").kind == "strict_W"
    assert down.component("w").data.N == 0
    assert verify_correspondence(pair)["holds"]
    from qzeta import insert_hj_chains

    assert ztop(insert_hj_chains(down)) == ztop(down)
