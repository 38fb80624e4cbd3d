"""The word-state fixpoint one state at a time, as the engine ran it
before the level-by-level array kernel (partial.state_fixpoint), and the
quotient word checks on it, stepping the walkers of the base and of the
quotient one state at a time (list_tables.walk) and reading values from
list copies of the base's products and the quotient's raw product.  The
tests compare the kernel with these.
"""

import numpy as np

from localities import partial

import list_tables


def state_fixpoint(start, letters, step):
    """(states, failing words) of a breadth-first search over hashable
    states: step(state, x) returns (next or None, whether the word fails).
    Same order, words and budget as partial.state_fixpoint."""
    seen = {start}
    states = [start]
    reached_by = [(-1, -1)]  # (id of the state it was reached from, letter)
    failing = []
    for i, state in enumerate(states):  # states grows while it is read
        for x in letters:
            nxt, bad = step(state, x)
            if bad:
                failing.append((i, x))
            if nxt is None or nxt in seen:
                continue
            if len(states) == partial.STATE_FIXPOINT_CAP:
                raise partial.SweepBudgetExceeded(
                    f"word-state search reached {len(states) + 1} states,"
                    f" over the budget of {partial.STATE_FIXPOINT_CAP}"
                )
            seen.add(nxt)
            states.append(nxt)
            reached_by.append((i, x))

    def least_word(i):
        word = []
        while i > 0:
            i, x = reached_by[i]
            word.append(x)
        return tuple(reversed(word))

    return len(states), [least_word(i) + (x,) for i, x in failing]


def per_state(step):
    """An array step of partial.state_fixpoint as a step of the reference:
    one state (a tuple of ints) and one letter, next state None where the
    array step does not extend the word."""

    def one(state, x):
        nxt, live, bad = step(tuple(np.array([c]) for c in state), np.array([x]))
        return (tuple(int(c[0, 0]) for c in nxt) if live[0, 0] else None), bool(bad[0, 0])

    return one


def _reads(pg, qpg):
    """The base products, rho and the quotient's raw product as padded lists:
    the missing value -1 reads -1."""
    table = pg.padded_products().tolist()
    raw = qpg._raw.tolist()
    return table, qpg.rho + (-1,), raw


def homomorphism_failures(pg, qpg):
    """quotient._homomorphism_failures on walker states, one step at a time."""
    table, rho, raw = _reads(pg, qpg)
    (start, walk), (bar_start, bar_walk) = list_tables.walk(pg), list_tables.walk(qpg)

    def step(state, f):
        base, v, bar, r = state
        base = walk(base, f)
        if base is None:
            return None, False
        bar = bar_walk(bar, rho[f])
        v, r = table[v][f], raw[r][rho[f]]
        if bar is None or r < 0 or rho[v] != r:
            return None, True
        return (base, v, bar, r), False

    start = (start, pg.identity, bar_start, qpg.identity)
    return state_fixpoint(start, pg.elements(), step)


def descent_failures(pg, qpg, letters):
    """quotient._descent_failures on walker states, one step at a time."""
    table, rho, raw = _reads(pg, qpg)
    (start, walk), (bar_start, bar_walk) = list_tables.walk(pg), list_tables.walk(qpg)

    def step(state, f):
        base, v, bar, r = state
        bar = bar_walk(bar, rho[f])
        if bar is None:
            return None, False
        if base is not None:
            base = walk(base, f)
        v = -1 if base is None else table[v][f]
        r = raw[r][rho[f]]
        return (base, v, bar, r), base is None or r < 0 or rho[v] != r

    start = (start, pg.identity, bar_start, qpg.identity)
    return state_fixpoint(start, letters, step)
