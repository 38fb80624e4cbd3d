"""Built-in worked structures: the order-20 amalgam and three localities.

These ship with the package so verification commands run with zero setup.
Element ids are the partial group's own; each fixture carries a dictionary
of named subsets used by the CLI and the test corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groups import (
    FiniteGroup,
    SubgroupRef,
    closure_members,
    generate_group,
    sylow_p,
)
from .locality import (
    Locality,
    as_locality,
    delta_close,
    delta_min_order,
    locality_from_group,
)
from .partial import AmalgamPartialGroup, AmalgamSpec, build_amalgam


@dataclass
class AmalgamFixture:
    name: str
    pg: AmalgamPartialGroup
    spec: AmalgamSpec
    left_set: frozenset[int]
    right_set: frozenset[int]
    shared: frozenset[int]
    subsets: dict[str, frozenset[int]]

    def as_locality(self) -> Locality:
        """The (failing) locality candidate with S = G2 and Delta = {shared, G2}."""
        return as_locality(self.pg, 2, self.right_set, [self.shared, self.right_set])


@dataclass
class LocalityFixture:
    name: str
    loc: Locality
    group: FiniteGroup
    subsets: dict[str, frozenset[int]]


def _c2xc4() -> FiniteGroup:
    # a = (1 2), b = (3 4 5 6): C2 x C4 on six points
    return generate_group([(1, 0), (0, 1, 3, 4, 5, 2)])


def _d16() -> FiniteGroup:
    # r = (1 2 3 4 5 6 7 8), s = reversal: dihedral of order 16
    return generate_group([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)])


@lru_cache(maxsize=None)
def amalgam_counterexample() -> AmalgamFixture:
    """C2xC4 glued to a dihedral group of order 16 along a fours group.

    The gluing matches the Frattini subgroup of the abelian side with the
    center of the dihedral side, which is what makes the product of the two
    cyclic order-4 subgroups fail to be conjugation-closed.
    """
    G1 = _c2xc4()
    G2 = _d16()
    a = G1.index_of_perm((1, 0))
    b = G1.index_of_perm((0, 1, 3, 4, 5, 2))
    b2 = G1.mul(b, b)
    r = G2.index_of_perm((1, 2, 3, 4, 5, 6, 7, 0))
    s = G2.index_of_perm((0, 7, 6, 5, 4, 3, 2, 1))
    r4 = G2.fold([r] * 4)
    pairing = {
        G1.identity: G2.identity,
        a: s,
        b2: r4,
        G1.mul(a, b2): G2.mul(s, r4),
    }
    pg = build_amalgam(AmalgamSpec(G1, G2, pairing))
    left = frozenset(pg.from_left)
    right = frozenset(pg.from_right)
    m_cyclic = frozenset(pg.from_left[x] for x in (G1.identity, b, b2, G1.fold([b] * 3)))
    ab = G1.mul(a, b)
    n_cyclic = frozenset(
        pg.from_left[x] for x in (G1.identity, ab, b2, G1.mul(ab, b2))
    )
    subsets = {
        "1": frozenset({pg.identity}),
        "M": m_cyclic,
        "N": n_cyclic,
        "G1": left,
        "G2": right,
        "shared": left & right,
    }
    return AmalgamFixture(
        name="PG-AM20",
        pg=pg,
        spec=pg.spec,
        left_set=left,
        right_set=right,
        shared=left & right,
        subsets=subsets,
    )


def _loc_subset(loc: Locality, group_members) -> frozenset[int]:
    return frozenset(loc.to_local[g] for g in group_members)  # type: ignore[attr-defined]


@lru_cache(maxsize=None)
def locality_s4() -> LocalityFixture:
    """S4 at p = 2 with objects above the normal fours group; a group locality."""
    M = generate_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    S = sylow_p(M, 2)
    v4 = frozenset(
        {
            M.identity,
            M.index_of_perm((1, 0, 3, 2)),
            M.index_of_perm((2, 3, 0, 1)),
            M.index_of_perm((3, 2, 1, 0)),
        }
    )
    delta = delta_close(S, [SubgroupRef(M, v4)], M)
    loc = locality_from_group(M, 2, delta)
    a4 = frozenset(
        g for g in M.elements() if _perm_sign(M.perms[g]) == 1
    )
    subsets = {
        "1": frozenset({loc.identity}),
        "V4": _loc_subset(loc, v4),
        "A4": _loc_subset(loc, a4),
        "S": loc.sylow_set,
        "L": frozenset(loc.elements()),
    }
    return LocalityFixture(name="GRP-S4", loc=loc, group=M, subsets=subsets)


def _perm_sign(p) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = p[i]
        length = 1
        seen[i] = True
        while j != i:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def locality_c2xs4() -> LocalityFixture:
    """C2 x S4 at p = 2 with objects of order at least 8; several kernels."""
    M = generate_group([(1, 0), (0, 1, 3, 4, 5, 2), (0, 1, 3, 2, 4, 5)])
    S = sylow_p(M, 2)
    delta = delta_min_order(S, 8)
    loc = locality_from_group(M, 2, delta)
    flip = M.index_of_perm((1, 0))

    def closure(perms):
        return closure_members(M, [M.index_of_perm(p) for p in perms])

    c2 = closure([(1, 0)])
    v4 = closure([(0, 1, 3, 2, 5, 4), (0, 1, 4, 5, 2, 3)])
    a4 = closure([(0, 1, 3, 4, 2, 5), (0, 1, 3, 2, 5, 4)])
    s4 = closure([(0, 1, 3, 2, 4, 5), (0, 1, 3, 4, 5, 2)])
    twist = closure([(1, 0, 3, 2, 4, 5), (1, 0, 3, 4, 5, 2)])
    subsets = {
        "1": frozenset({loc.identity}),
        "C2": _loc_subset(loc, c2),
        "V4": _loc_subset(loc, v4),
        "C2xV4": _loc_subset(loc, c2 | v4 | {M.mul(flip, x) for x in v4}),
        "A4": _loc_subset(loc, a4),
        "C2xA4": _loc_subset(loc, frozenset(M.mul(f, x) for f in c2 for x in a4)),
        "S4": _loc_subset(loc, s4),
        "S4twist": _loc_subset(loc, twist),
        "S": loc.sylow_set,
        "L": frozenset(loc.elements()),
    }
    return LocalityFixture(name="GRP-C2xS4", loc=loc, group=M, subsets=subsets)


@lru_cache(maxsize=None)
def locality_s5() -> LocalityFixture:
    """S5 at p = 2 with every nontrivial subgroup of S as an object.

    This is the genuinely partial corpus member: the element set has 56
    members and plenty of length-2 words fall outside the domain.
    """
    M = generate_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    S = sylow_p(M, 2)
    delta = delta_min_order(S, 2)
    loc = locality_from_group(M, 2, delta)
    from .normal import partial_normals

    subsets = {
        "1": frozenset({loc.identity}),
        "S": loc.sylow_set,
        "L": frozenset(loc.elements()),
    }
    for handle in partial_normals(loc):
        n = len(handle.members)
        if 1 < n < loc.size:
            subsets[f"N{n}"] = handle.members
    return LocalityFixture(name="LOC-S5", loc=loc, group=M, subsets=subsets)


BUILTIN_LOADERS = {
    "PG-AM20": amalgam_counterexample,
    "GRP-S4": locality_s4,
    "GRP-C2xS4": locality_c2xs4,
    "LOC-S5": locality_s5,
}

ALIASES = {
    "counterexample": "PG-AM20",
    "amalgam": "PG-AM20",
}


def builtin_names() -> list[str]:
    return sorted(BUILTIN_LOADERS)


def get_builtin(name: str):
    key = ALIASES.get(name, name)
    loader = BUILTIN_LOADERS.get(key)
    if loader is None:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(builtin_names())}")
    return loader()
