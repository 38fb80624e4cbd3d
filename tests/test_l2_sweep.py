"""The (L2) and threading checks of check_locality against the literal
word-by-word sweep.

check_locality decides both checks for words of every length, by two
state_fixpoint searches over (chain front, walker code, threading state).
The reference is the bounded sweep it ran before: every word asks
pg.in_domain and loc.thread_subgroup from the start and builds its own
chain front, and no subtree is ever skipped.  On every candidate and on
the quotient by every partial normal subgroup of the three localities:
- both check statuses equal the literal ones at the lengths the bounded
  sweep ran;
- every reported witness is a genuine failure, re-derived from scratch
  with pg.in_domain and a front built from loc.conjugate_set;
- the witnesses come in shortlex order, and the first has the least length
  at which the literal sweep finds a failure;
- the state count and the witnesses equal those of the one-state-at-a-time
  fixpoint of tests/fixpoint_reference.py over keys built from the
  definitions: the front as a set of Delta members, the walker state of
  list_tables.walk and the partial map of S that threads through the word.
"""

import pytest

from localities import locality, partial
from localities.locality import Locality, as_locality, check_locality
from localities.partial import SweepBudgetExceeded
from localities.quotient import build_quotient

import fixpoint_reference as reference
from fault_injection import WordPartialGroup, swap_two_products
from test_quotient_tables import KERNEL_IDS, KERNELS, _kernel
import list_tables


def literal_l2_sweep(loc, max_len):
    """(domain/chain mismatches, threading mismatches, words visited)."""
    pg = loc.pg
    delta_list = sorted(loc.delta.members, key=sorted)
    delta_idx = {P: i for i, P in enumerate(delta_list)}
    chain_step = []
    for P in delta_list:
        row = []
        for g in pg.elements():
            img = loc.conjugate_set(P, g)
            row.append(delta_idx.get(img, -1) if img is not None else -1)
        chain_step.append(tuple(row))
    full_front = frozenset(range(len(delta_list)))
    mismatches = []
    prop_e_mismatches = []
    visited = 0

    def sweep(word, front, budget):
        nonlocal visited
        if budget == 0 or len(mismatches) + len(prop_e_mismatches) > 20:
            return
        for g in pg.elements():
            visited += 1
            w = word + (g,)
            nxt = frozenset(
                t for t in (chain_step[i][g] for i in front) if t >= 0
            )
            in_dom = pg.in_domain(w)
            if in_dom != bool(nxt):
                mismatches.append((w, in_dom, bool(nxt)))
            if (loc.thread_subgroup(w) in loc.delta.members) != in_dom:
                prop_e_mismatches.append(w)
            if nxt:
                sweep(w, nxt, budget - 1)

    sweep((), full_front, max_len)
    return mismatches, prop_e_mismatches, visited


class GappedC2(WordPartialGroup):
    """C2 = {1, t} whose domain leaves out the length-4 words starting with t.

    Not a partial group: words below the gap are back in the domain.  The
    walker state (first letter, length) decides every extension, but it
    counts the word length, so the walker has no finite table.
    """

    size = 2
    identity = 0
    labels = ("1", "t")

    def inverse(self, x):
        return x

    def in_domain(self, word):
        return not (len(word) == 4 and word[0] == 1)

    def _raw_product(self, word):
        return sum(word) % 2

    def walk_start(self):
        return (None, 0)

    def walk_step(self, state, x):
        first, n = state
        nxt = (x if first is None else first, n + 1)
        return None if nxt == (1, 4) else nxt


def _s5_without_smallest(k):
    def make(request):
        loc = request.getfixturevalue("s5f").loc
        members = sorted(loc.delta.members, key=lambda P: (len(P), sorted(P)))
        return as_locality(loc.pg, 2, loc.sylow_set, members[k:]), 3

    return make


def _s5_all_subgroups(request):
    loc = request.getfixturevalue("s5f").loc
    return as_locality(loc.pg, 2, loc.sylow_set, loc.s_subgroup_sets()), 3


def _s4_swapped(request):
    loc = request.getfixturevalue("s4f").loc
    pg = swap_two_products(loc.pg, (0, 0, 0), (0, 1, 0))
    return as_locality(pg, 2, loc.sylow_set, loc.delta.members), 3


CANDIDATES = {
    "GRP-S4-len4": lambda r: (r.getfixturevalue("s4f").loc, 4),
    "LOC-S5-len3": lambda r: (r.getfixturevalue("s5f").loc, 3),
    "PG-AM20-len3": lambda r: (r.getfixturevalue("am20").as_locality(), 3),
    "PG-AM20-len4": lambda r: (r.getfixturevalue("am20").as_locality(), 4),
    "LOC-S5-without-1-smallest": _s5_without_smallest(1),
    "LOC-S5-without-2-smallest": _s5_without_smallest(2),
    "LOC-S5-without-4-smallest": _s5_without_smallest(4),
    "LOC-S5-all-subgroups": _s5_all_subgroups,
    "GRP-S4-swapped": _s4_swapped,
}


def chain_front(loc, word):
    """The Delta members a conjugation chain through word can reach, from
    loc.conjugate_set alone."""
    front = set(loc.delta.members)
    for g in word:
        front = {img for P in front if (img := loc.conjugate_set(P, g)) in loc.delta.members}
    return front


def s_of(loc, word):
    """S_w by its definition: the s in S whose conjugates by the letters
    of word, one after another, are defined and stay in S."""
    out = set()
    for s in loc.sylow:
        x = s
        for g in word:
            x = loc.conjugate(x, g)
            if x is None or x not in loc.sylow_set:
                break
        else:
            out.add(s)
    return frozenset(out)


def reference_chain_checks(loc):
    """((states, words) of (L2), (states, words) of the threading check) by
    the reference fixpoint.  A key is (front, walker state or None once
    dead, the pairs (s, s^w) for the s in S_w), from loc.conjugate_set,
    list_tables.walk and loc.conjugate; a word is extended while its front is
    nonempty."""
    pg, delta = loc.pg, loc.delta.members
    start, walk = list_tables.walk(pg)

    def step_of(fails):
        def step(key, g):
            front, state, pairs = key
            front = frozenset(img for P in front if (img := loc.conjugate_set(P, g)) in delta)
            state = None if state is None else walk(state, g)
            pairs = tuple((s, y) for s, x in pairs
                          if (y := loc.conjugate(x, g)) is not None and y in loc.sylow_set)
            nxt = (front, state, pairs)
            return (nxt if front else None), fails(nxt)

        return step

    start = (frozenset(delta), start, tuple((s, s) for s in loc.sylow))
    return [
        reference.state_fixpoint(start, pg.elements(), step_of(fails))
        for fails in [
            lambda key: bool(key[0]) != (key[1] is not None),
            lambda key: (frozenset(s for s, _ in key[2]) in delta) != (key[1] is not None),
        ]
    ]


def first_failing_length(loc, max_len, which):
    """The least n <= max_len at which the literal sweep finds a failure
    of check which (0: (L2), 1: threading), None if there is none."""
    for n in range(1, max_len + 1):
        if literal_l2_sweep(loc, n)[which]:
            return n
    return None


def assert_matches_the_literal_sweep(loc, max_len):
    pg = loc.pg
    mismatches, prop_e_mismatches, _ = literal_l2_sweep(loc, max_len)
    checks = {c.name: c for c in check_locality(loc).checks}
    l2 = checks["L2-domain-iff-chain"]
    threading = checks["threading-matches-domain"]
    assert l2.status == ("fail" if mismatches else "pass")
    assert threading.status == ("fail" if prop_e_mismatches else "pass")
    for w, in_dom, chain in l2.witnesses:
        assert chain_front(loc, w[:-1])
        assert in_dom == pg.in_domain(w) != chain == bool(chain_front(loc, w))
    for w in threading.witnesses:
        assert chain_front(loc, w[:-1])
        assert (s_of(loc, w) in loc.delta.members) != pg.in_domain(w)
    for witnesses, which in [([w for w, _, _ in l2.witnesses], 0), (threading.witnesses, 1)]:
        assert witnesses == sorted(witnesses, key=lambda w: (len(w), w))
        if witnesses:
            assert len(witnesses[0]) == first_failing_length(loc, max_len, which)
    (states, l2_words), (_, threading_words) = reference_chain_checks(loc)
    assert l2.detail.endswith(f"({states} states)")
    assert [w for w, _, _ in l2.witnesses] == l2_words[:10]
    assert threading.witnesses == threading_words[:10]


@pytest.mark.parametrize("name", list(CANDIDATES))
def test_l2_records_match_literal_sweep(request, name):
    assert_matches_the_literal_sweep(*CANDIDATES[name](request))


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_l2_on_every_quotient_matches_the_literal_sweep(request, fixture, index):
    """At length 3, the length build_quotient checked the quotient to."""
    loc, K = _kernel(request, fixture, index)
    assert_matches_the_literal_sweep(build_quotient(loc, K).quotient, 3)


def test_a_walker_without_a_finite_table_meets_the_budget(monkeypatch):
    monkeypatch.setattr(partial, "STATE_FIXPOINT_CAP", 40)
    with pytest.raises(SweepBudgetExceeded,
                       match=r"^walker table reached 41 states, over the budget of 40$"):
        check_locality(as_locality(GappedC2(), 2, {0, 1}, []))


def test_each_delta_image_is_computed_once(s5f, monkeypatch):
    """(L2) and (L3) read one table of the images P^g: each check_locality
    call builds it by one _image_index call over every Delta member and
    element, and calls conjugate_set on no pair."""
    loc = s5f.loc
    calls = {"conjugate_set": 0, "_image_index": 0}
    conjugate_set = Locality.conjugate_set
    image_index = locality._image_index

    def counting_set(self, X, g):
        calls["conjugate_set"] += 1
        return conjugate_set(self, X, g)

    def counting_index(rows, pos, family):
        calls["_image_index"] += 1
        assert rows.shape == (len(loc.delta.members), len(loc.sylow))
        assert pos.shape == (loc.size, len(loc.sylow))
        return image_index(rows, pos, family)

    monkeypatch.setattr(Locality, "conjugate_set", counting_set)
    monkeypatch.setattr(locality, "_image_index", counting_index)
    assert check_locality(loc).ok
    assert calls == {"conjugate_set": 0, "_image_index": 1}
    assert check_locality(loc).ok
    assert calls == {"conjugate_set": 0, "_image_index": 2}
