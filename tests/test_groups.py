import random

import numpy as np
import pytest

from localities.groups import (
    FiniteGroup,
    SizeCapExceeded,
    SubgroupRef,
    all_subgroups,
    certify_group_table,
    closure_members,
    generate_group,
    sylow_p,
)

import _frozen as frozen
from oracle import OGroup, o_all_subgroups, o_subgroup_closure
from theorem_checks import is_normal_subset


def s4():
    return generate_group([(1, 2, 3, 0), (1, 0, 2, 3)])


def c2xc4():
    return generate_group([(1, 0), (0, 1, 3, 4, 5, 2)])


def d16():
    return generate_group([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)])


def test_generate_trivial():
    G = generate_group([])
    assert G.order == frozen.CLOSURE_ORDERS["empty"]
    assert G.identity == 0


def test_generate_closure_orders():
    assert generate_group([(1, 0), (1, 2, 0)]).order == frozen.CLOSURE_ORDERS["s3"]
    assert generate_group([(1, 2, 3, 0), (2, 1, 0, 3)]).order == frozen.CLOSURE_ORDERS["d8"]


def test_generate_rejects_non_permutation():
    with pytest.raises(ValueError):
        generate_group([(0, 0)])


def test_order_cap():
    with pytest.raises(SizeCapExceeded):
        generate_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], order_cap=50)


def test_identity_is_element_zero():
    G = s4()
    assert G.identity == 0
    assert G.labels[0] == "()"


def test_subgroup_closure_empty_seed():
    G = s4()
    sub = SubgroupRef(G, closure_members(G, []))
    assert sub.members == frozenset({G.identity})


def test_subgroup_closure_fours_group():
    G = s4()
    sub = SubgroupRef(
        G, closure_members(G, [G.index_of_perm((1, 0, 3, 2)), G.index_of_perm((2, 3, 0, 1))])
    )
    assert sub.order == 4


def test_subgroup_closure_cyclic_factor():
    G = c2xc4()
    sub = SubgroupRef(G, closure_members(G, [G.index_of_perm((0, 1, 3, 4, 5, 2))]))
    assert sub.order == 4


def test_all_subgroups_counts():
    assert len(all_subgroups(generate_group([(1, 0)]))) == 2
    assert len(all_subgroups(generate_group([]))) == 1
    c2c2 = generate_group([(1, 0), (0, 1, 3, 2)])
    assert len(all_subgroups(c2c2)) == frozen.SUBGROUP_COUNTS["C2xC2"]
    assert len(all_subgroups(c2xc4())) == frozen.SUBGROUP_COUNTS["C2xC4"]
    assert len(all_subgroups(s4())) == frozen.SUBGROUP_COUNTS["S4"]
    assert len(all_subgroups(d16())) == frozen.SUBGROUP_COUNTS["D16"]


def test_all_subgroups_are_valid_and_sorted():
    G = s4()
    subs = all_subgroups(G)
    for sub in subs:
        SubgroupRef(G, sub.members)  # re-validates closure
    keys = [(sub.order, sub.sorted_members()) for sub in subs]
    assert keys == sorted(keys)


def test_landmarks_s4_normals():
    G = s4()
    normals = [s for s in all_subgroups(G) if is_normal_subset(G, s.members)]
    assert sorted(s.order for s in normals) == frozen.S4_NORMAL_ORDERS


def test_sylow_trivial_when_coprime():
    G = generate_group([(1, 2, 0)])  # C3
    assert sylow_p(G, 2).order == 1


def test_sylow_orders():
    assert sylow_p(s4(), 2).order == 8
    S5 = generate_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    assert sylow_p(S5, 2).order == 8
    assert len(all_subgroups(S5)) == frozen.SUBGROUP_COUNTS["S5"]


def test_sylow_is_full_p_part():
    for G, p, expect in [(s4(), 2, 8), (s4(), 3, 3), (c2xc4(), 2, 8), (d16(), 2, 16)]:
        assert sylow_p(G, p).order == expect


def lattice_sylow(G, p):
    """The rule sylow_p used before p-element growth: the Sylow p-subgroup
    with the least sorted member tuple among all subgroups of G."""
    target = 1
    n = G.order
    while n % p == 0:
        target *= p
        n //= p
    return min(
        (s for s in all_subgroups(G) if s.order == target), key=lambda s: s.sorted_members()
    )


@pytest.mark.parametrize(
    "gens, primes",
    [
        ([(1, 2, 3, 0), (1, 0, 2, 3)], (2, 3)),  # S4
        ([(1, 0), (0, 1, 3, 4, 5, 2), (0, 1, 3, 2, 4, 5)], (2, 3)),  # C2xS4
        ([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], (2, 3, 5)),  # S5
        ([(1, 0), (0, 1, 3, 4, 5, 2)], (2,)),  # C2xC4
        ([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)], (2,)),  # D16
        ([(1, 2, 0)], (2,)),  # C3
    ],
)
def test_sylow_growth_picks_the_lattice_rule_subgroup(gens, primes):
    G = generate_group(gens)
    for p in primes:
        assert sylow_p(G, p).members == lattice_sylow(G, p).members, p


def test_sylow_rejects_composite():
    with pytest.raises(ValueError):
        sylow_p(s4(), 4)


def test_table_group_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # no inverse structure
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative


# ---------------------------------------------------------------------------
# the group-table certificate and the numpy Cayley table


def reference_generate_group(generators, order_cap=10_000):
    """The pure-Python closure and table that generate_group replaced."""

    def compose(p, q):
        return tuple(q[p[i]] for i in range(len(p)))

    degree = max((len(p) for p in generators), default=0)
    gens = [tuple(p) + tuple(range(len(p), degree)) for p in generators]
    e = tuple(range(degree))
    found = {e}
    frontier = [e]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in found:
                    if len(found) >= order_cap:
                        raise SizeCapExceeded(f"closure exceeds the order cap of {order_cap}")
                    found.add(q)
                    fresh.append(q)
        frontier = fresh
    elems = sorted(found)
    index = {p: i for i, p in enumerate(elems)}
    mult = [[index[compose(a, b)] for b in elems] for a in elems]
    return mult, elems


@pytest.mark.parametrize(
    "gens",
    [
        [],
        [(1, 0)],
        [(1, 2, 0), (1, 0, 2)],
        [(1, 2, 3, 0), (2, 1, 0, 3)],
        [(1, 2, 3, 0), (1, 0, 2, 3)],
        [(1, 0), (0, 1, 3, 4, 5, 2), (0, 1, 3, 2, 4, 5)],
        [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
        [tuple(range(1, 17)) + (0,)],  # degree 17: keys past int64
    ],
    ids=["empty", "C2", "S3", "D8", "S4", "C2xS4", "S5", "C17-on-17-points"],
)
def test_generate_group_matches_the_reference(gens):
    G = generate_group(gens)
    mult, elems = reference_generate_group(gens)
    assert G.mult.tolist() == mult
    assert G.perms == tuple(elems)


def test_order_cap_fires_at_the_reference_bound():
    s5 = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    for cap in (50, 119):
        with pytest.raises(SizeCapExceeded):
            generate_group(s5, order_cap=cap)
    assert generate_group(s5, order_cap=120).order == 120


@pytest.mark.parametrize(
    "table",
    [
        [[1, 1], [1, 0]],  # no two-sided identity
        [[0, 1, 2], [1, 0, 0], [2, 2, 1]],  # 1*2 = 0 but 2*1 = 2
        [[0, 1], [1, 2]],  # entry out of range
        [[0, 1, 2], [1, 0, 2]],  # not square
        [],  # no elements
    ],
)
def test_bad_tables_are_rejected(table):
    with pytest.raises(ValueError):
        FiniteGroup(table)


def associative(T):
    T = np.asarray(T)
    return (T[T] == T[:, T].transpose(1, 0, 2)).all()


def right_closure(T, gens, start):
    reached = {start}
    frontier = [start]
    while frontier:
        frontier = [T[x][a] for x in frontier for a in gens if T[x][a] not in reached]
        reached.update(frontier)
    return reached


# A loop of order 5: identity 0, every element its own inverse, every row
# and column a permutation, and (1 1) 2 = 2 != 3 = 1 (1 2).
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Identity 0 and two-sided inverses; Light's test holds for 1, the first
# greedy generator, whose left-normed powers reach only {0, 1}.  The failing
# triple (2 2) 1 = 0 != 1 = 2 (2 1) needs the second generator, 2.
SECOND_GENERATOR = [
    [0, 1, 2, 3],
    [1, 0, 2, 3],
    [2, 2, 0, 0],
    [3, 3, 0, 0],
]


@pytest.mark.parametrize("table", [LOOP5, SECOND_GENERATOR], ids=["loop5", "second-generator"])
def test_non_associative_tables_with_identity_and_inverses_are_rejected(table):
    assert not associative(table)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(table)


def test_second_generator_table_passes_light_on_the_first():
    T = np.asarray(SECOND_GENERATOR)
    assert (T[T[:, 1]] == T[:, T[1]]).all()
    assert right_closure(SECOND_GENERATOR, [1], 0) == {0, 1}
    assert not (T[T[:, 2]] == T[:, T[2]]).all()


def test_certificate_agrees_with_the_cube_on_every_order_4_table():
    """Every 4x4 table with identity 0 and two-sided inverses: the
    certificate accepts exactly the associative ones."""
    n = 4
    fill = np.indices((n,) * (n - 1) ** 2).reshape((n - 1) ** 2, -1).T
    tables = np.empty((len(fill), n, n), dtype=np.int64)
    tables[:, 0, :] = np.arange(n)
    tables[:, :, 0] = np.arange(n)
    tables[:, 1:, 1:] = fill.reshape(-1, n - 1, n - 1)
    zero = tables == 0
    inverses = (zero == zero.transpose(0, 2, 1)).all(axis=(1, 2)) & zero.any(axis=2).all(axis=1)
    candidates = tables[inverses]
    idx = np.arange(len(candidates))[:, None, None, None]
    a, b, c = np.indices((n, n, n))
    left = candidates[idx, candidates[idx, a, b], c]
    right = candidates[idx, a, candidates[idx, b, c]]
    assoc = (left == right).all(axis=(1, 2, 3))
    assert len(candidates) == 6409 and 0 < assoc.sum() < len(candidates)
    for table, expected in zip(candidates, assoc):
        try:
            FiniteGroup(table)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == expected, table.tolist()


def test_certificate_returns_identity_and_inverses():
    G = generate_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    assert certify_group_table(G.mult) == (G.identity, G.inv)
    assert all(G.mul(x, G.inv[x]) == G.identity for x in G.elements())


# ---------------------------------------------------------------------------
# the closure kernel against the oracle


def same_lattice(G, O):
    """all_subgroups(G) lists the oracle's subgroups of O, in the same order;
    id i of G is position i of O."""
    assert [sub.members for sub in all_subgroups(G)] == o_all_subgroups(O)


@pytest.mark.parametrize(
    "gens",
    [
        [(1, 0), (0, 1, 3, 2)],  # C2xC2
        [(1, 0), (0, 1, 3, 4, 5, 2)],  # C2xC4
        [(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)],  # D16
        [(1, 2, 3, 0), (1, 0, 2, 3)],  # S4
        [(1, 0), (0, 1, 3, 4, 5, 6, 7, 8, 9, 2), (0, 1, 2, 9, 8, 7, 6, 5, 4, 3)],  # C2xD16
    ],
    ids=["C2xC2", "C2xC4", "D16", "S4", "C2xD16"],
)
def test_all_subgroups_matches_the_oracle(gens):
    G = generate_group(gens)
    same_lattice(G, OGroup(G.perms))


@pytest.mark.parametrize("fixture", ["s4f", "c2s4f", "s5f"])
def test_the_lattices_of_s_match_the_oracle(fixture, request):
    """S of each builtin locality, as a subgroup of the ambient group and as
    the locality's own S group (the locality's products)."""
    fix = request.getfixturevalue(fixture)
    M = fix.group
    S_group, elems = sylow_p(M, 2).as_group()
    same_lattice(S_group, OGroup([M.perms[g] for g in elems]))
    loc = fix.loc
    loc_group, local = loc.s_group()
    same_lattice(loc_group, OGroup([M.perms[loc.to_ambient[s]] for s in local]))


def test_the_lattices_of_the_amalgams_s_match_the_oracle(am20):
    """S = G2 of PG-AM20, as a subgroup of G2 and under the amalgam's products."""
    G2 = am20.spec.right
    S_group, elems = SubgroupRef(G2, G2.elements()).as_group()
    same_lattice(S_group, OGroup([G2.perms[g] for g in elems]))
    to_right = {pid: j for j, pid in enumerate(am20.pg.from_right)}
    loc_group, local = am20.as_locality().s_group()
    same_lattice(loc_group, OGroup([G2.perms[to_right[s]] for s in local]))


@pytest.mark.parametrize("group", ["S5", "GRP-C2xS4"])
def test_closure_members_matches_the_oracle_on_random_seeds(group, c2s4f):
    """The empty seed and 40 seeds of 1-4 elements (repeats allowed)."""
    if group == "S5":
        G = generate_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    else:
        G = c2s4f.group
    O = OGroup(G.perms)
    rng = random.Random(1)
    seeds = [()] + [
        tuple(rng.randrange(G.order) for _ in range(rng.randrange(1, 5))) for _ in range(40)
    ]
    for seed in seeds:
        assert closure_members(G, seed) == o_subgroup_closure(O, seed), seed
