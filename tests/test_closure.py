"""The product table and the frontier closure kernel against references.

The reference closure is the round-by-round fixpoint loop the kernel
replaced: every round re-multiplies every pair of members through mul2.
"""

import random

import pytest

from localities.groups import generate_group
from localities.normal import partial_normal_closure
from localities.partial import (
    GroupPartialGroup,
    partial_subgroup_closure,
)
from localities.quotient import build_quotient

from fault_injection import swap_two_products
import list_tables


def fixpoint_closure(pg, seed):
    members = {pg.identity}
    members.update(int(x) for x in seed)
    changed = True
    while changed:
        changed = False
        for x in list(members):
            y = pg.inverse(x)
            if y not in members:
                members.add(y)
                changed = True
        snapshot = list(members)
        for a in snapshot:
            for b in snapshot:
                c = pg.mul2(a, b)
                if c is not None and c not in members:
                    members.add(c)
                    changed = True
    return frozenset(members)


@pytest.fixture(scope="module")
def s5_mod_n5(s5f):
    return build_quotient(s5f.loc, s5f.subsets["N5"]).quotient.pg


@pytest.fixture(scope="module")
def s4_swapped():
    """S4 with the products of (1, 2) and (2, 1) swapped."""
    gp = GroupPartialGroup(generate_group([(1, 2, 3, 0), (1, 0, 2, 3)]))
    return swap_two_products(gp, (1, 2), (2, 1))


PARTIAL_GROUPS = {
    "PG-AM20": lambda r: r.getfixturevalue("am20").pg,
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc.pg,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc.pg,
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc.pg,
    "LOC-S5/N5": lambda r: r.getfixturevalue("s5_mod_n5"),
    "S4-swapped": lambda r: r.getfixturevalue("s4_swapped"),
}


@pytest.mark.parametrize("name", sorted(PARTIAL_GROUPS))
def test_closure_matches_fixpoint_reference(request, name):
    pg = PARTIAL_GROUPS[name](request)
    rng = random.Random(name)
    for _ in range(25):
        seed = rng.sample(range(pg.size), rng.randint(1, 3))
        assert partial_subgroup_closure(pg, seed) == fixpoint_closure(pg, seed), seed


@pytest.mark.parametrize("name", sorted(PARTIAL_GROUPS))
def test_product_table_matches_mul2(request, name):
    pg = PARTIAL_GROUPS[name](request)
    assert pg.padded_products() is pg.padded_products()
    table = list_tables.products(pg)
    assert len(table) == pg.size
    for a in pg.elements():
        assert len(table[a]) == pg.size
        for b in pg.elements():
            v = pg.pi((a, b))
            assert table[a][b] == (-1 if v is None else v), (a, b)
            assert pg.mul2(a, b) == v, (a, b)


def test_swapped_products_reach_the_table(s4_swapped):
    table = list_tables.products(s4_swapped)
    base = list_tables.products(s4_swapped.base)
    assert (table[1][2], table[2][1]) == (base[2][1], base[1][2])
    diff = [
        (a, b) for a in s4_swapped.elements() for b in s4_swapped.elements()
        if table[a][b] != base[a][b]
    ]
    assert diff == [(1, 2), (2, 1)]


@pytest.mark.parametrize(
    "fixture, oracle", [("s5f", "oracle_s5"), ("c2s4f", "oracle_c2s4")]
)
def test_normal_closure_matches_oracle(request, fixture, oracle):
    loc = request.getfixturevalue(fixture).loc
    olc = request.getfixturevalue(oracle)
    assert olc.n == loc.size
    for x in loc.elements():
        assert partial_normal_closure(loc, [x]).members == olc.pn_closure([x]), x
