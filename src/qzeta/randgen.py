"""Seeded random instances for the verification batches."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .cyclic import ActionSpec
from .quotient import DownDivisor, QuotientSetup, minus_branch_divisor, orbit_size, orbit_step
from .resolution import BranchEntry, CClass, DivisorSpec

N_POOL = [Fraction(x) for x in (1, 2, 3, 4)] + [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
W_POOL = [Fraction(x) for x in (-2, 0, 1, 2, 3)] + [
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(3, 2),
]
NU_POOL = [Fraction(x) for x in (1, 2, 3)] + [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]


def random_setup(rng: random.Random, dmax: int = 12) -> QuotientSetup:
    while True:
        d = rng.randint(1, dmax)
        a = rng.randrange(d) if d > 1 else 0
        b = rng.randrange(d) if d > 1 else 0
        if gcd(gcd(d, a), b) == 1:
            return QuotientSetup(d, a, b)


def random_pq(rng: random.Random, pmax: int = 6) -> tuple[int, int]:
    while True:
        p = rng.randint(1, pmax)
        q = rng.randint(1, pmax)
        if gcd(p, q) == 1:
            return (p, q)


def _axis_coeffs(rng: random.Random) -> tuple[Fraction, Fraction]:
    N = rng.choice([Fraction(0), Fraction(0)] + N_POOL)
    w = rng.choice(W_POOL)
    return N, w


def random_down_pair(
    rng: random.Random,
    setup: QuotientSetup,
    *,
    wbar_mode: str = "general",
    invariant_only: bool = False,
    max_upstairs_branches: int = 6,
) -> tuple[DownDivisor, DownDivisor]:
    """A random downstairs pair (Dbar, Wbar) presented as coefficient tables.

    ``wbar_mode``: "general" for arbitrary Wbar, "minus_branch" for -B_rho
    (the Theorem-B hypothesis).  ``invariant_only`` restricts to weights
    making every branch mu_d-invariant (the Theorem-C hypothesis), falling
    back to axes-only divisors when no small weight pair works.
    """
    for _ in range(200):
        if invariant_only:
            pq = _invariant_pq(rng, setup)
            n_orbits = rng.randint(0, 2) if pq is not None else 0
            if pq is None:
                pq = random_pq(rng)
        else:
            pq = random_pq(rng)
            r = orbit_size(setup, pq)
            n_orbits = rng.randint(0, max(0, max_upstairs_branches // r))
        nx, wx = _axis_coeffs(rng)
        ny, wy = _axis_coeffs(rng)
        branches = []
        wbranches = []
        for i in range(n_orbits):
            branches.append((f"c{i}", rng.choice(N_POOL)))
            wbranches.append((f"c{i}", rng.choice(W_POOL)))
        dbar = DownDivisor(pq=pq, axis_x=nx, axis_y=ny, branches=tuple(branches))
        if wbar_mode == "minus_branch":
            wbar = minus_branch_divisor(setup, pq)
        else:
            wbar = DownDivisor(pq=pq, axis_x=wx, axis_y=wy, branches=tuple(wbranches))
        if _valid_pair(setup, dbar, wbar):
            return dbar, wbar
    raise RuntimeError("could not draw a valid instance")


def _invariant_pq(rng: random.Random, setup: QuotientSetup) -> tuple[int, int] | None:
    pairs = [
        (p, q)
        for p in range(1, 7)
        for q in range(1, 7)
        if gcd(p, q) == 1 and orbit_step(setup, (p, q)) == 0
    ]
    return rng.choice(pairs) if pairs else None


def _valid_pair(setup: QuotientSetup, dbar: DownDivisor, wbar: DownDivisor) -> bool:
    # D nonzero effective, no logarithmic poles outside D (both levels)
    entries = [
        (dbar.axis_x, wbar.axis_x, setup.e1),
        (dbar.axis_y, wbar.axis_y, setup.e2),
    ] + [(N, wbar.branch_coeff(l), 1) for l, N in dbar.branches]
    if all(N == 0 for N, _, _ in entries):
        return False
    for N, w, e in entries:
        if N == 0 and (w == -1 or e * w + (e - 1) == -1):
            return False
    return True


def random_plane_spec(rng: random.Random, max_branches: int = 4) -> DivisorSpec:
    """A random one-blow-up pair on the plane."""
    for _ in range(100):
        pq = random_pq(rng, pmax=8)
        n = rng.randint(0, max_branches)
        nx, wx = _axis_coeffs(rng)
        ny, wy = _axis_coeffs(rng)
        branches = tuple(
            BranchEntry(f"b{i}", CClass(f"b{i}", 0), rng.choice(N_POOL), rng.choice(W_POOL))
            for i in range(n)
        )
        if (nx == 0 and wx == -1) or (ny == 0 and wy == -1):
            continue
        if nx == ny == 0 and not branches:
            continue
        return DivisorSpec(pq=pq, axis_x=(nx, wx), axis_y=(ny, wy), branches=branches)
    raise RuntimeError("could not draw a plane spec")


def random_action_spec(rng: random.Random, max_order: int = 500) -> ActionSpec:
    n = rng.randint(1, 3)
    gens = []
    order = 1
    for _ in range(n):
        m = rng.randint(1, 24)
        if order * m > max_order:
            m = max(1, max_order // max(order, 1))
            m = rng.randint(1, max(1, m))
        order *= m
        gens.append((m, rng.randrange(m) if m > 1 else 0, rng.randrange(m) if m > 1 else 0))
    return ActionSpec(tuple(gens))


def random_swapped_setup(rng: random.Random, dmax: int = 12) -> QuotientSetup:
    """X(d;a,b) with 2(b - a) = d: a (1,1) branch orbit has two members."""
    while True:
        d = 2 * rng.randint(2, dmax // 2)
        a = rng.randrange(d)
        b = (a + d // 2) % d
        if gcd(gcd(d, a), b) == 1:
            return QuotientSetup(d, a, b)
