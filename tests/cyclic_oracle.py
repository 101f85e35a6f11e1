"""The enumeration route to smallification, kept as a test oracle.

The library reads the small cyclic type of a diagonal abelian action off
the Smith normal form of its exponent lattice.  This module is the
independent route it is checked against: enumerate every group element,
count the reflections along each axis, absorb them, and scan the residual
group for a generator.
"""

from __future__ import annotations

from math import gcd, lcm

from qzeta import ActionSpec, CyclicType
from qzeta.cyclic import enumerate_action


def _cyclic_generator(elems: set[tuple[int, int]], big: int) -> tuple[int, int]:
    order = len(elems)
    for x, y in sorted(elems):
        ox = big // gcd(x, big) if x else 1
        oy = big // gcd(y, big) if y else 1
        if lcm(ox, oy) == order:
            return x, y
    raise AssertionError("quotient group is not cyclic")


def smallify_by_enumeration(spec: ActionSpec) -> CyclicType:
    """Small cyclic type of the action, with e1 and e2, by enumerating G."""
    big = spec.modulus
    elems = enumerate_action(spec)
    e1 = sum(1 for _, y in elems if y == 0)
    e2 = sum(1 for x, _ in elems if x == 0)
    elems = {((x * e1) % big, (y * e2) % big) for x, y in elems}
    # a single absorption suffices: the image contains no further reflections
    assert sum(1 for _, y in elems if y == 0) == 1
    assert sum(1 for x, _ in elems if x == 0) == 1
    d = len(elems)
    if d == 1:
        return CyclicType(1, 0, 0, e1=e1, e2=e2)
    x, y = _cyclic_generator(elems, big)
    small = CyclicType(d, (x * d // big) % d, (y * d // big) % d, e1=e1, e2=e2)
    assert small.is_small
    return small
