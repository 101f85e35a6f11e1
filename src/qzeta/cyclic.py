"""Exact arithmetic of cyclic quotient surface germs X(m;a,b).

A germ X(m;a,b) is the quotient of C^2 by the diagonal action
zeta.(x,y) = (zeta^a x, zeta^b y) of the group of m-th roots of unity.
This module normalizes such presentations, collapses arbitrary finite
diagonal abelian actions to small cyclic ones while keeping track of the
reflections absorbed along the two axes, and expands Hirzebruch-Jung
continued fractions together with their chain determinants.

Everything is integer arithmetic; no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import InputError


@dataclass(frozen=True)
class CyclicType:
    """A cyclic quotient germ X(m;a,b) with coordinate bookkeeping.

    ``e1`` and ``e2`` record the orders of the reflection subgroups absorbed
    along {x=0} and {y=0}: the covering C^2 -> X(m;a,b) derived from the
    original presentation ramifies with index e1 along {x=0} and e2 along
    {y=0}.  ``axis_swap`` records whether the two coordinates were exchanged
    relative to the input presentation.
    """

    m: int
    a: int
    b: int
    axis_swap: bool = False
    e1: int = 1
    e2: int = 1

    def __post_init__(self):
        if self.m < 1 or self.e1 < 1 or self.e2 < 1:
            raise InputError(f"invalid cyclic type ({self.m};{self.a},{self.b})")
        if not (0 <= self.a < self.m and 0 <= self.b < self.m):
            raise InputError("weights must be reduced mod m")

    @property
    def is_small(self) -> bool:
        return gcd(self.m, self.a) == 1 and gcd(self.m, self.b) == 1

    def swapped(self) -> "CyclicType":
        """The same germ with coordinates exchanged (isomorphism (x,y)->(y,x))."""
        return CyclicType(self.m, self.b, self.a, not self.axis_swap, self.e2, self.e1)

    def unit_a_weight(self) -> int:
        """q with X(m;a,b) = X(m;1,q) through rescaling the group generator.

        Requires gcd(m,a) = 1; the rescaling does not touch coordinates.
        """
        if self.m == 1:
            return 0
        if gcd(self.m, self.a) != 1:
            raise InputError(f"({self.m};{self.a},{self.b}) has gcd(m,a) != 1")
        return (pow(self.a, -1, self.m) * self.b) % self.m

    def normalized(self) -> "CyclicType":
        """The presentation X(m;1,q) of a small type (coordinates unchanged)."""
        if self.m == 1:
            return CyclicType(1, 0, 0, self.axis_swap, self.e1, self.e2)
        return CyclicType(
            self.m, 1, self.unit_a_weight(), self.axis_swap, self.e1, self.e2
        )

    def __str__(self) -> str:
        s = f"X({self.m};{self.a},{self.b})"
        extra = []
        if self.e1 != 1 or self.e2 != 1:
            extra.append(f"e1={self.e1},e2={self.e2}")
        if self.axis_swap:
            extra.append("swapped")
        return s + (f" [{', '.join(extra)}]" if extra else "")


PLANE = CyclicType(1, 0, 0)


@dataclass(frozen=True)
class ActionSpec:
    """A finite diagonal abelian action given by generators (m_i, a_i, b_i).

    Generator (m, a, b) acts by zeta.(x,y) = (zeta^a x, zeta^b y) for zeta
    an m-th root of unity.
    """

    generators: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not self.generators:
            raise InputError("action requires at least one generator")
        for m, _, _ in self.generators:
            if m < 1:
                raise InputError("generator orders must be positive")

    @property
    def modulus(self) -> int:
        """Common modulus M = lcm of the generator orders."""
        return lcm(*(m for m, _, _ in self.generators))

    def exponent_vectors(self) -> list[tuple[int, int]]:
        """Generators as exponent vectors in (Z/M)^2."""
        big = self.modulus
        return [((a * big // m) % big, (b * big // m) % big) for m, a, b in self.generators]


def enumerate_action(spec: ActionSpec) -> set[tuple[int, int]]:
    """All group elements as exponent pairs in (Z/M)^2 (brute-force closure).

    An independent route for checks only; :func:`smallify_action` does not
    enumerate the group.
    """
    big = spec.modulus
    elems = {(0, 0)}
    frontier = [(0, 0)]
    gens = spec.exponent_vectors()
    while frontier:
        x, y = frontier.pop()
        for gx, gy in gens:
            nxt = ((x + gx) % big, (y + gy) % big)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return elems


def smith_invariants_2xk(rows: list[list[int]]) -> tuple[int, int]:
    """Invariant factors (s1, s2), s1 | s2, of the column lattice of a 2xk matrix.

    Read off the determinantal divisors: s1 is the gcd of the entries and
    s1*s2 the gcd of the 2x2 minors.  The lattice is assumed to have full
    rank 2 (always true here because it contains M*Z^2).
    """
    top, bottom = rows
    s1 = 0
    for v in top + bottom:
        s1 = gcd(s1, v)
    minor_gcd = 0
    for i in range(len(top)):
        for j in range(i + 1, len(top)):
            minor_gcd = gcd(minor_gcd, top[i] * bottom[j] - top[j] * bottom[i])
    if s1 == 0 or minor_gcd == 0:
        raise InputError("lattice does not have full rank")
    return s1, minor_gcd // s1


def abelian_invariants(spec: ActionSpec) -> tuple[int, ...]:
    """Structure of the acting group as invariant factors (d1 | d2), via SNF.

    The group is L/MZ^2 where L is spanned by the generator exponent vectors
    together with M*Z^2; if SNF(L) = diag(s1,s2) then the invariants are
    (M/s2, M/s1) with trivial factors dropped.
    """
    big = spec.modulus
    vecs = spec.exponent_vectors()
    rows = [[v[0] for v in vecs] + [big, 0], [v[1] for v in vecs] + [0, big]]
    s1, s2 = smith_invariants_2xk(rows)
    inv = tuple(sorted(x for x in (big // s2, big // s1) if x > 1))
    return inv if inv else (1,)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) = u*a + v*b."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - k * u1, v0 - k * v1
    return a, u0, v0


def smallify_action(spec: ActionSpec) -> CyclicType:
    """Collapse a finite diagonal abelian action to a small cyclic type.

    Reflections through {x=0} (elements acting trivially on y) and {y=0}
    (trivially on x) are absorbed by the substitutions x -> x^e1, y -> y^e2;
    the residual group is small and cyclic, and e1, e2 are recorded.  The
    invariant |G| = e1 * e2 * m holds for the returned type.

    Closed form from the Smith normal form, with no enumeration of G: |G|
    is the product of the invariants; e1 = |G| gcd(M, y-exponents)/M and
    e2 = |G| g_x/M with g_x = gcd(M, x-exponents) count the reflections; the
    residual group, of order m = |G|/(e1 e2), injects into its x-exponents
    and is generated by the image (M/m, e2 y) of the element (g_x, y) of G
    that one extended-gcd pass over the generators finds.
    """
    big = spec.modulus
    order = prod(abelian_invariants(spec))
    g_x, y = big, 0  # (M, 0) = (0, 0) is in G
    g_y = big
    for vx, vy in spec.exponent_vectors():
        g_x, u, v = _xgcd(g_x, vx)
        y = (u * y + v * vy) % big
        g_y = gcd(g_y, vy)
    e1 = order * g_y // big
    e2 = order * g_x // big
    m = order // (e1 * e2)
    if m == 1:
        return CyclicType(1, 0, 0, e1=e1, e2=e2)
    return CyclicType(m, 1, (e2 * y * m // big) % m, e1=e1, e2=e2)


def normalize_type(m: int, a: int, b: int) -> CyclicType:
    """Small normalized presentation X(m';1,q) of X(m;a,b).

    Applies the isomorphisms X(km;ka,kb) = X(m;a,b), X(m;ka,kb) = X(m;a,b)
    for gcd(k,m) = 1 and X(m;a,b) = X(m/e;a,b/e), e = gcd(m,b), recording in
    e1, e2 the reflection orders absorbed along {x=0}, {y=0}.  The trivial
    germ comes back as X(1;0,0).
    """
    if m < 1:
        raise InputError("m must be positive")
    return smallify_action(ActionSpec(((m, a % m, b % m),))).normalized()


@dataclass(frozen=True)
class HJChain:
    """Hirzebruch-Jung data of an A_{m,q} germ.

    ``ks`` are the negated self-intersections of the resolution chain
    F_1..F_r, satisfying m/q = k1 - 1/(k2 - 1/(... - 1/kr)).
    """

    m: int
    q: int
    ks: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.ks)

    def delta(self, k: int, ell: int) -> int:
        """|det| of the tridiagonal intersection matrix of F_k..F_ell.

        Conventions delta(k, k-1) = 1 and delta(k, k-2) = 0 make the chain
        recursions uniform at the ends.
        """
        r = len(self.ks)
        if not (1 <= k <= r + 2) or ell > r:
            raise InputError(f"delta indices ({k},{ell}) out of range for r={r}")
        if ell == k - 1:
            return 1
        if ell < k - 1:
            if ell == k - 2:
                return 0
            raise InputError(f"delta indices ({k},{ell}) out of range")
        prev2, prev = 0, 1  # delta(k,k-2), delta(k,k-1)
        val = 1
        for t in range(k, ell + 1):
            val = self.ks[t - 1] * prev - prev2
            prev2, prev = prev, val
        return abs(val)


def hj_expand(m: int, q: int) -> HJChain:
    """Negative continued fraction m/q = [k1,...,kr], all k_t >= 2."""
    if not (1 <= q < m):
        raise InputError(f"hj_expand requires 1 <= q < m, got ({m},{q})")
    if gcd(m, q) != 1:
        raise InputError(f"hj_expand requires gcd(m,q)=1, got ({m},{q})")
    ks = []
    a, b = m, q
    while b > 0:
        k = -(-a // b)  # ceil
        ks.append(k)
        a, b = b, k * b - a
    chain = HJChain(m, q, tuple(ks))
    assert all(k >= 2 for k in ks)
    assert chain.delta(1, len(ks)) == m
    return chain
