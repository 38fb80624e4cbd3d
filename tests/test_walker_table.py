"""walker_table() against the walker it numbers: a table backend's, whose
codes are its automaton's states masked by accept, and a test double's,
built from walk_step by automaton_reference.

On words up to length 3, the code a word reaches through the table rows is
-1 exactly where walk_step returns None, and two words get the same code
exactly when they have the same walker state.  Words are taken a level at
a time as their distinct (walker state, code) pairs: every word of a level
has its pair in that level's set, so each word is covered without listing
each one.  A test double's table interns at most STATE_FIXPOINT_CAP states.
"""

import numpy as np
import pytest

from localities import partial
from localities.partial import GroupPartialGroup, SweepBudgetExceeded
from localities.quotient import build_quotient

from fault_injection import swap_two_products
from test_l2_sweep import GappedC2

WALKERS = {
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc.pg,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc.pg,
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc.pg,
    "PG-AM20": lambda r: r.getfixturevalue("am20").pg,
    "GRP-S4-swapped": lambda r: swap_two_products(
        r.getfixturevalue("s4f").loc.pg, (0, 0, 0), (0, 1, 0)
    ),
    "LOC-S5/N5": lambda r: build_quotient(
        r.getfixturevalue("s5f").loc, r.getfixturevalue("s5f").subsets["N5"]
    ).quotient.pg,
    "GroupPartialGroup-S4": lambda r: GroupPartialGroup(r.getfixturevalue("s4f").group),
}


@pytest.mark.parametrize("name", list(WALKERS))
def test_codes_follow_the_walker_on_words_up_to_length_3(request, name):
    pg = WALKERS[name](request)
    rows, array = pg.walker_table()
    assert array.dtype == np.int64
    assert array.tolist() == rows + [[-1] * pg.size]
    level = {(pg.walk_start(), 0)}
    pairs = set(level)
    for _ in range(3):
        grown = set()
        for state, code in level:
            for x in pg.elements():
                nxt = pg.walk_step(state, x)
                assert (nxt is None) == (rows[code][x] == -1), (state, x)
                if nxt is not None:
                    grown.add((nxt, rows[code][x]))
        level = grown
        pairs |= grown
    # the pairs are a bijection between the states and the codes reached
    assert len({s for s, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)


def test_the_table_is_built_once_per_instance(s4f):
    pg = s4f.loc.pg
    assert pg.walker_table() is pg.walker_table()
    assert pg.padded_products() is pg.padded_products()
    assert swap_two_products(pg, (0, 0, 0), (0, 1, 0)).walker_table() is not pg.walker_table()


def test_a_walker_with_unbounded_states_meets_the_budget(monkeypatch):
    """GappedC2's walker state counts the word length, so its table would
    never end."""
    monkeypatch.setattr(partial, "STATE_FIXPOINT_CAP", 40)
    with pytest.raises(SweepBudgetExceeded,
                       match=r"^walker table reached 41 states, over the budget of 40$"):
        GappedC2().walker_table()

