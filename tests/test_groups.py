import pytest

from localities.groups import (
    FiniteGroup,
    SizeCapExceeded,
    SubgroupRef,
    all_subgroups,
    generate_group,
    group_landmarks,
    subgroup_closure,
    sylow_p,
)

import _frozen as frozen


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
    sub = subgroup_closure(G, [])
    assert sub.members == frozenset({G.identity})


def test_subgroup_closure_fours_group():
    G = s4()
    sub = subgroup_closure(
        G, [G.index_of_perm((1, 0, 3, 2)), G.index_of_perm((2, 3, 0, 1))]
    )
    assert sub.order == 4


def test_subgroup_closure_cyclic_factor():
    G = c2xc4()
    sub = subgroup_closure(G, [G.index_of_perm((0, 1, 3, 4, 5, 2))])
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


def test_landmarks_abelian_center():
    G = c2xc4()
    lm = group_landmarks(G)
    assert lm.center.order == G.order


def test_landmarks_d16():
    lm = group_landmarks(d16())
    assert lm.center.order == frozen.D16_CENTER_ORDER


def test_landmarks_frattini_c2xc4():
    lm = group_landmarks(c2xc4())
    assert lm.frattini.order == frozen.C2XC4_FRATTINI_ORDER


def test_landmarks_s4_normals():
    lm = group_landmarks(s4())
    assert sorted(s.order for s in lm.normal_subgroups) == frozen.S4_NORMAL_ORDERS


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
