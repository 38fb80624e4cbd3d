"""The automata one state at a time, as the engine built them before the
level-by-level array kernel (partial.intern_states): a hashable state, a
Python step(state, letter) per pair, and the walker table numbered from
the walk of list_tables.walk (trans masked by accept, or a test double's
walk_step).  The test doubles build their walker tables here, and the
tests compare the kernel with these.
"""

import numpy as np

from localities import partial

import list_tables


def intern_states(start, step, letters, what):
    """(states, rows): the states that step(state, x) reaches from start
    over the letters 0..letters-1, numbered 0, 1, ... in the order one
    breadth-first pass reaches them (states[0] is start), and their
    transition rows: rows[c][x] is the number of step(states[c], x), or -1
    where it is None.  States must be hashable; interning more than
    STATE_FIXPOINT_CAP of them raises SweepBudgetExceeded, naming what is
    built.
    """
    codes = {start: 0}
    states = [start]
    rows = []
    for state in states:  # states grows while it is read
        row = []
        for x in range(letters):
            nxt = step(state, x)
            code = -1 if nxt is None else codes.get(nxt)
            if code is None:
                if len(states) == partial.STATE_FIXPOINT_CAP:
                    raise partial.SweepBudgetExceeded(
                        f"{what} reached {len(states) + 1} states,"
                        f" over the budget of {partial.STATE_FIXPOINT_CAP}"
                    )
                code = codes[nxt] = len(states)
                states.append(nxt)
            row.append(code)
        rows.append(row)
    return states, rows


def walker_table(pg) -> np.ndarray:
    """The walker states of pg as codes 0, 1, ... in the order one breadth
    first pass over the letters 0..size-1 reaches them from the start of
    list_tables.walk(pg) (code 0), by its step, as an int64 array with a
    last row of -1; built once per instance, on first use."""
    if getattr(pg, "_walker_table", None) is None:
        _, rows = intern_states(*list_tables.walk(pg), pg.size, "walker table")
        pg._walker_table = np.array(rows + [[-1] * pg.size], dtype=np.int64)
    return pg._walker_table


def maps(automaton) -> list[list[int]]:
    """The conjugation maps of a ThreadAutomaton as lists: row g holds the
    position in S of s_i^g at i, -1 where that leaves S."""
    return automaton._padded[:, :-1].tolist()
