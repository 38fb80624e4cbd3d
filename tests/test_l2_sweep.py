"""The (L2) sweep of check_locality against the literal word-by-word sweep.

The reference is the sweep check_locality ran before it carried prefix
state: every word asks pg.in_domain and loc.thread_subgroup from the start
and builds its own chain front, and no subtree is ever skipped.
"""

import re

import pytest

from localities.locality import as_locality, check_locality
from localities.partial import PartialGroup, swap_two_products


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


class GappedC2(PartialGroup):
    """C2 = {1, t} whose domain leaves out the length-4 words starting with t.

    Not a partial group: words below the gap are back in the domain, so the
    sweep must ask in_domain there rather than assume the gap persists.
    The walker state (first letter, length) decides every extension.
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
    "C2-gapped-len5": lambda r: (as_locality(GappedC2(), 2, {0, 1}, []), 5),
}


# Candidates whose findings reach the cap before any key recurs, so the
# sweep skips nothing and visits exactly the literal sweep's words.
CAPPED_BEFORE_ANY_SKIP = {
    "LOC-S5-without-1-smallest",
    "LOC-S5-without-2-smallest",
    "LOC-S5-without-4-smallest",
    "LOC-S5-all-subgroups",
    "GRP-S4-swapped",
}


def _visited(detail):
    return int(re.search(r"\((\d+) words visited\)", detail).group(1))


@pytest.mark.parametrize("name", list(CANDIDATES))
def test_l2_records_match_literal_sweep(request, name):
    loc, max_len = CANDIDATES[name](request)
    mismatches, prop_e_mismatches, visited = literal_l2_sweep(loc, max_len)
    checks = {c.name: c for c in check_locality(loc, max_len=max_len).checks}
    l2 = checks["L2-domain-iff-chain"]
    threading = checks["threading-matches-domain"]
    assert (l2.status, l2.witnesses) == (
        "fail" if mismatches else "pass", mismatches[:10]
    )
    assert (threading.status, threading.witnesses) == (
        "fail" if prop_e_mismatches else "pass", prop_e_mismatches[:10]
    )
    if name in CAPPED_BEFORE_ANY_SKIP:
        assert _visited(l2.detail) == visited
    else:
        assert _visited(l2.detail) < visited
