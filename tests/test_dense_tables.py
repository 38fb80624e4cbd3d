"""The dense tables under the domain layer against literal recomputation.

ThreadAutomaton interns every reachable state once, with intern_states, a
level at a time; its states are the rows of one array of current
positions.  The reference here is the dict-keyed automaton it replaced,
filled lazily as walks reach its states, whose states are tuples of
(start, current) pairs; the states themselves are recomputed straight
from the conjugation step maps.  pairs() reads an array state as those
pairs, and is the one place the two forms meet.  The two number their
states in different orders (breadth first against walk order), so words
are compared by the state they reach.  locality_from_group tabulates the
ambient product once; the reference is the ambient product read element
by element.
"""

import itertools
import random

import pytest

from localities import partial
from localities.locality import LocalityConstructionError, ThreadAutomaton
from localities.partial import SweepBudgetExceeded
from localities.quotient import build_quotient

from automaton_reference import maps as maps_of


def pairs(row):
    """An array state of ThreadAutomaton as its (start, current) pairs: the
    starts still in S, in order, each with its current position."""
    return tuple((a, c) for a, c in enumerate(row.tolist()) if c >= 0)


class DictAutomaton:
    """The automaton with transitions in a dict keyed by (state, letter)."""

    def __init__(self, s_elems, step_of):
        self.s_elems = s_elems
        self._step_of = step_of
        start = tuple((i, i) for i in range(len(s_elems)))
        self.states = [start]
        self._state_ids = {start: 0}
        self.start_sets = [frozenset(s_elems)]
        self._trans = {}

    def step(self, sid, g):
        got = self._trans.get((sid, g))
        if got is not None:
            return got
        mp = self._step_of(g)
        state = tuple((start, mp[cur]) for start, cur in self.states[sid] if mp[cur] >= 0)
        nid = self._state_ids.get(state)
        if nid is None:
            nid = len(self.states)
            self.states.append(state)
            self._state_ids[state] = nid
            self.start_sets.append(frozenset(self.s_elems[a] for a, _ in state))
        self._trans[(sid, g)] = nid
        return nid

    def walk(self, word):
        sid = 0
        for g in word:
            sid = self.step(sid, g)
        return sid


def _s5_mod_n5(request):
    s5f = request.getfixturevalue("s5f")
    return build_quotient(s5f.loc, s5f.subsets["N5"]).quotient


# Each locality with the number of threading states reachable from the start.
CASES = {
    "LOC-S5": (lambda r: r.getfixturevalue("s5f").loc, 15),
    "GRP-S4": (lambda r: r.getfixturevalue("s4f").loc, 10),
    "LOC-S5/N5": (_s5_mod_n5, 10),
    "PG-AM20": (lambda r: r.getfixturevalue("am20").as_locality(), 17),
}


def _words(n, name):
    short = [w for k in (1, 2) for w in itertools.product(range(n), repeat=k)]
    rng = random.Random(name)
    return short + [tuple(rng.randrange(n) for _ in range(4)) for _ in range(3000)]


@pytest.mark.parametrize("name", list(CASES))
def test_walk_matches_literal_states(request, name):
    build, reachable = CASES[name]
    aut = build(request).automaton
    maps = maps_of(aut)
    n = len(maps)
    start = tuple((i, i) for i in range(len(aut.s_elems)))
    for word in _words(n, name):
        pairs_of_word = start
        for g in word:
            pairs_of_word = tuple((s, maps[g][c]) for s, c in pairs_of_word if maps[g][c] >= 0)
        assert pairs(aut.states[aut.walk(word)]) == pairs_of_word, word

    # a fresh automaton over the same step maps reaches the same state and
    # the same threading subgroup on every word as the dict-keyed reference
    dense = ThreadAutomaton(aut.s_elems, maps)
    ref = DictAutomaton(aut.s_elems, maps.__getitem__)
    for word in _words(n, name):
        sid, rid = dense.walk(word), ref.walk(word)
        assert pairs(dense.states[sid]) == ref.states[rid], word
        assert dense.start_sets[sid] == ref.start_sets[rid], word
    assert dense.array.dtype == "int32"

    seen, queue = {0}, [0]
    while queue:
        rid = queue.pop()
        for g in range(n):
            nid = ref.step(rid, g)
            if nid not in seen:
                seen.add(nid)
                queue.append(nid)
    assert len(seen) == len(dense.states) == reachable
    assert set(ref.states) == {pairs(row) for row in dense.states}


def test_automaton_build_meets_the_state_budget(s5f, monkeypatch):
    """LOC-S5 has 15 threading states: a fresh build within a budget of 14
    raises, and one within 15 is whole."""
    aut = s5f.loc.automaton
    args = (aut.s_elems, maps_of(aut))
    monkeypatch.setattr(partial, "STATE_FIXPOINT_CAP", 14)
    with pytest.raises(SweepBudgetExceeded) as err:
        ThreadAutomaton(*args)
    assert str(err.value) == "threading automaton reached 15 states, over the budget of 14"
    monkeypatch.setattr(partial, "STATE_FIXPOINT_CAP", 15)
    assert ThreadAutomaton(*args).states.tolist() == aut.states.tolist()


def test_raw_product_table_matches_ambient(s5f):
    loc = s5f.loc
    M, to_ambient, to_local = loc.ambient, loc.to_ambient, loc.to_local
    escaping = []
    for a, b in itertools.product(range(loc.size), repeat=2):
        v = M.mul(to_ambient[a], to_ambient[b])
        if v in to_local:
            assert loc.pg._mul_raw(a, b) == to_local[v], (a, b)
            continue
        with pytest.raises(LocalityConstructionError) as err:
            loc.pg._mul_raw(a, b)
        assert [c.name for c in err.value.report.failures()] == ["product-closure"]
        assert f"({a},{b})" in err.value.report.checks[0].detail
        escaping.append((a, b))
    assert len(escaping) == 1536
    assert escaping[0] == (2, 24)
