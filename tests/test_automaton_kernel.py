"""partial.intern_states, the level-by-level array kernel, against the
one-state-at-a-time callback form it replaced (automaton_reference).

Each automaton the engine interns is rebuilt here with its state as it was
before the kernel: the threading automaton with tuples of (start, current)
pairs, the chain fronts of check_locality with frozensets of Delta
indices, and the transition monoid of the axiom searches with tuple maps.
Kernel and reference must reach the same states in the same order, with
the same rows (and, for the threading automaton, the same start sets), on
every automaton of the builtins, of the quotients by all 18 kernels, of
PG-AM20 read as a locality and of S6 at k = 4.  The walker table, which
interns nothing, is the reference's walker table once its codes are
numbered in breadth-first order.
"""

import numpy as np
import pytest

from localities import locality, partial
from localities.groups import generate_group, sylow_p
from localities.locality import (
    ThreadAutomaton, check_locality, delta_min_order, locality_from_group,
)
from localities.quotient import build_quotient

import automaton_reference as reference
from test_dense_tables import pairs
from test_quotient_tables import KERNEL_IDS, KERNELS, _kernel


@pytest.fixture(scope="module")
def s6():
    M = generate_group([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])
    return locality_from_group(M, 2, delta_min_order(sylow_p(M, 2), 4))


CASES = {
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc,
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc,
    "PG-AM20": lambda r: r.getfixturevalue("am20").as_locality(),
    "S6-k4": lambda r: r.getfixturevalue("s6"),
    **{
        f"quotient-{case_id}": (lambda r, case=case: build_quotient(*_kernel(r, *case)).quotient)
        for case, case_id in zip(KERNELS, KERNEL_IDS)
    },
}


def record(monkeypatch):
    """{what: [(states, rows), ...]} of every kernel call made from now on,
    from partial and from locality, which imports the kernel by name."""
    calls = {}
    kernel = partial.intern_states

    def recording(start, step, what):
        got = kernel(start, step, what)
        calls.setdefault(what, []).append(got)
        return got

    monkeypatch.setattr(partial, "intern_states", recording)
    monkeypatch.setattr(locality, "intern_states", recording)
    return calls


@pytest.mark.parametrize("name", list(CASES))
def test_the_threading_automaton_matches_the_reference(request, name):
    loc = CASES[name](request)
    aut = loc.automaton
    maps = reference.maps(aut)

    def step(state, g):
        mp = maps[g]
        return tuple((start, mp[cur]) for start, cur in state if mp[cur] >= 0)

    start = tuple((i, i) for i in range(len(aut.s_elems)))
    states, rows = reference.intern_states(start, step, len(maps), "threading automaton")
    for dense in (aut, ThreadAutomaton(aut.s_elems, maps)):
        assert [pairs(row) for row in dense.states] == states
        assert dense.array.tolist() == rows
        assert dense.start_sets == [frozenset(aut.s_elems[a] for a, _ in st) for st in states]


@pytest.mark.parametrize("name", list(CASES))
def test_the_chain_fronts_match_the_reference(request, name, monkeypatch):
    loc = CASES[name](request)
    interned = record(monkeypatch)
    chains = []
    chain_word_steps = locality._chain_word_steps

    def keeping(loc, chain):
        chains.append(chain)
        return chain_word_steps(loc, chain)

    monkeypatch.setattr(locality, "_chain_word_steps", keeping)
    check_locality(loc)
    (chain,), ((fronts, rows),) = chains, interned["chain fronts"]
    chain = chain.tolist()

    def step(front, g):
        return frozenset(t for t in (chain[i][g] for i in front) if t >= 0) or None

    want = reference.intern_states(frozenset(range(len(chain))), step, loc.size, "chain fronts")
    assert fronts.dtype == bool and rows.dtype == np.int64
    assert ([frozenset(np.flatnonzero(row).tolist()) for row in fronts], rows.tolist()) == want


def table_backend(request, name):
    if name == "PG-AM20-amalgam":
        return request.getfixturevalue("am20").pg
    return CASES[name](request).pg


@pytest.mark.parametrize("name", [*CASES, "PG-AM20-amalgam"])
def test_the_walker_table_matches_the_reference(request, name, monkeypatch):
    """The codes are the automaton's states: numbered in the order one
    breadth-first pass from code 0 meets them, the rows are those of the
    reference's walker table, numbered from list_tables.walk.  Nothing is interned."""
    pg = table_backend(request, name)
    interned = record(monkeypatch)
    monkeypatch.setattr(pg, "_walker_table", None)
    array = pg.walker_table()
    assert interned == {}
    assert array.dtype == np.int64
    assert array[-1].tolist() == [-1] * pg.size
    rows = array[:-1].tolist()
    order, number = [0], {0: 0}  # the codes met, and the number of each
    for code in order:  # order grows while it is read
        for c in rows[code]:
            if c >= 0 and c not in number:
                number[c] = len(order)
                order.append(c)
    renumbered = [[number.get(c, -1) for c in rows[code]] for code in order]
    monkeypatch.setattr(pg, "_walker_table", None)
    want = reference.walker_table(pg)
    assert want.tolist() == renumbered + [[-1] * pg.size]


@pytest.mark.parametrize("name", [*CASES, "PG-AM20-amalgam"])
def test_the_transition_monoid_matches_the_reference(request, name, monkeypatch):
    """The monoid is interned after the split and collapse searches, which
    are stubbed out here: they do not feed it."""
    pg = table_backend(request, name)
    interned = record(monkeypatch)
    trans = pg.trans
    monkeypatch.setattr(partial, "state_fixpoint", lambda *args: (0, []))
    partial._axiom_searches(pg)
    ((maps, rows),) = interned["transition monoid"]
    k, m = trans.shape
    cols = [tuple(col) for col in trans.T.tolist()]
    def step(mp, x):
        return tuple(map(cols[x].__getitem__, mp))

    want = reference.intern_states(tuple(range(k)), step, m, "transition monoid")
    assert ([tuple(row) for row in maps.tolist()], rows.tolist()) == want


def test_a_dead_front_is_code_minus_1(s5f, monkeypatch):
    """LOC-S5 has chains that leave Delta: some front rows hold -1, and no
    front interned is empty."""
    interned = record(monkeypatch)
    check_locality(s5f.loc)
    ((fronts, rows),) = interned["chain fronts"]
    assert (rows == -1).any(axis=1).any()
    assert fronts.any(axis=1).all()


def test_the_kernel_meets_the_budget(s5f, monkeypatch):
    """The kernel raises as the callback form does, with the same text."""
    aut = s5f.loc.automaton
    monkeypatch.setattr(partial, "STATE_FIXPOINT_CAP", 14)
    with pytest.raises(partial.SweepBudgetExceeded) as got:
        ThreadAutomaton(aut.s_elems, reference.maps(aut))
    with pytest.raises(partial.SweepBudgetExceeded) as want:  # states without end
        reference.intern_states(0, lambda s, x: s + x + 1, 2, "threading automaton")
    assert str(got.value) == str(want.value) == (
        "threading automaton reached 15 states, over the budget of 14"
    )
