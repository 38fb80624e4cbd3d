"""The conjugation isomorphism c_g on N_L(P), built and checked map by map.

Nothing in the engine calls it; the tests keep it as a definitional check of
conjugation in a locality.
"""

from dataclasses import dataclass
from typing import Iterable

from localities.locality import Locality


@dataclass
class ConjIso:
    """The conjugation isomorphism N_L(P) -> N_L(P^g) induced by g."""

    g: int
    source: frozenset[int]
    target: frozenset[int]
    source_members: frozenset[int]
    target_members: frozenset[int]
    mapping: dict[int, int]
    bijective: bool
    product_preserving: bool

    @property
    def ok(self) -> bool:
        return self.bijective and self.product_preserving


def conj_iso(loc: Locality, P: Iterable[int], g: int) -> ConjIso:
    """Build and verify the conjugation map c_g on N_L(P), P in Delta, P <= S_g."""
    P = frozenset(P)
    if P not in loc.delta.members:
        raise ValueError("P must belong to Delta")
    if not P <= loc.thread_subgroup((g,)):
        raise ValueError("P must lie inside S_g")
    Q = loc.conjugate_set(P, g)
    if Q is None:
        raise ValueError("P does not conjugate through g")
    src = loc.normalizer(P)
    tgt = loc.normalizer(Q)
    mapping = {}
    bijective = True
    for x in sorted(src):
        v = loc.conjugate(x, g)
        if v is None or v not in tgt:
            bijective = False
            break
        mapping[x] = v
    if bijective:
        bijective = len(set(mapping.values())) == len(src) == len(tgt)
    preserving = bijective
    if bijective:
        for x in src:
            for y in src:
                xy = loc.pg.mul2(x, y)
                fg = loc.pg.mul2(mapping[x], mapping[y])
                if xy is None or fg is None or mapping.get(xy) != fg:
                    preserving = False
                    break
            if not preserving:
                break
    return ConjIso(
        g=g,
        source=P,
        target=Q if Q is not None else frozenset(),
        source_members=src,
        target_members=tgt,
        mapping=mapping,
        bijective=bijective,
        product_preserving=preserving,
    )
