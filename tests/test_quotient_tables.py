"""The quotient layer on dense tables against the definitions it replaced.

- up_maximal_flags against is_up_maximal, element by element, and against
  the naive relation of tests/oracle.py;
- the max-word-descent level sweep against the recursive word sweep the
  lemma suite ran before;
- sweep_word_levels against a depth-first sweep, at several block sizes;
- partial_subgroups_containing against the enumeration that closed
  current | {x} from scratch for every x outside current.
"""

import numpy as np
import pytest

from localities import partial, quotient
from localities.groups import SizeCapExceeded
from localities.partial import partial_subgroup_closure, sweep_word_levels
from localities.quotient import (
    QuotientPartialGroup,
    _descent_failures,
    _partial_normals_cached,
    build_quotient,
    coset_partition,
    is_up_maximal,
    partial_subgroups_containing,
    up_maximal_flags,
    verify_quotient_lemmas,
)

import _frozen as frozen

FIXTURES = [
    ("s4f", frozen.S4_PN_ORDERS),
    ("c2s4f", frozen.C2XS4_PN_ORDERS),
    ("s5f", frozen.S5_PN_ORDERS),
]
# (fixture, index of the kernel in the sorted partial normal subgroups)
KERNELS = [(name, i) for name, orders in FIXTURES for i in range(len(orders))]
KERNEL_IDS = [f"{name}-{orders[i]}-{i}" for name, orders in FIXTURES for i in range(len(orders))]


def _kernel(request, fixture, index):
    loc = request.getfixturevalue(fixture).loc
    return loc, _partial_normals_cached(loc)[index]


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_flags_match_is_up_maximal(request, fixture, index):
    loc, K = _kernel(request, fixture, index)
    flags = up_maximal_flags(loc, K)
    assert flags == tuple(is_up_maximal(loc, K, f) for f in loc.elements())
    assert coset_partition(loc, K).up_max == flags


# The oracle scans every (g, P) pair with a double loop over K; GRP-C2xS4's
# larger kernels take seconds each, so it runs on its two smallest.
ORACLE_KERNELS = [
    *((("s4f", "oracle_s4"), i) for i in range(len(frozen.S4_PN_ORDERS))),
    *((("s5f", "oracle_s5"), i) for i in range(len(frozen.S5_PN_ORDERS))),
    *((("c2s4f", "oracle_c2s4"), i) for i in range(2)),
]


@pytest.mark.parametrize("fixtures,index", ORACLE_KERNELS, ids=lambda v: str(v))
def test_flags_match_the_oracle(request, fixtures, index):
    fixture, oracle = fixtures
    loc, K = _kernel(request, fixture, index)
    olc = request.getfixturevalue(oracle)
    assert olc.n == loc.size
    assert up_maximal_flags(loc, K) == tuple(olc.is_up_maximal(K, f) for f in olc.elements())


def recursive_descent(pg, qpg, rho, max_elements):
    """The max-word-descent sweep as the lemma suite ran it word by word."""
    bad = []

    def word_sweep(word, bar):
        if len(bad) > 5 or len(word) >= 3:
            return
        for f in max_elements:
            w = word + (f,)
            b = bar + (rho[f],)
            in_q = qpg.in_domain(b)
            in_l = pg.in_domain(w)
            if in_q:
                if not in_l or rho[pg.pi(w)] != qpg.pi(b):
                    bad.append(w)
            word_sweep(w, b)

    word_sweep((), ())
    return bad[:5]


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_descent_sweep_matches_the_recursive_sweep(request, fixture, index):
    loc, K = _kernel(request, fixture, index)
    bundle = build_quotient(loc, K)
    qpg = bundle.quotient.pg
    max_elements = [f for f in loc.elements() if coset_partition(loc, K).up_max[f]]
    got = _descent_failures(loc.pg, qpg, bundle.rho, max_elements)
    assert got == recursive_descent(loc.pg, qpg, bundle.rho, max_elements) == []


@pytest.mark.parametrize("block", [1, 7, None], ids=["block-1", "block-7", "block-default"])
def test_descent_sweep_finds_a_corrupted_coset_product(s4f, monkeypatch, block):
    """Sixteen words over the maximal elements map to the corrupted coset
    word (1, 2); both sweeps report the same first five."""
    if block is not None:
        monkeypatch.setattr(partial, "_LEVEL_BLOCK", block)
    loc, K = s4f.loc, s4f.subsets["V4"]
    honest = QuotientPartialGroup._raw_product

    def corrupted(self, word):
        v = honest(self, word)
        return (v + 1) % self.size if word == (1, 2) else v

    monkeypatch.setattr(QuotientPartialGroup, "_raw_product", corrupted)
    part = coset_partition(loc, K)
    qpg = QuotientPartialGroup(loc.pg, part, loc.p)
    max_elements = [f for f in loc.elements() if part.up_max[f]]
    got = _descent_failures(loc.pg, qpg, part.coset_of, max_elements)
    assert len(got) == 5
    assert all(tuple(part.coset_of[x] for x in w) == (1, 2) for w in got)
    assert got == recursive_descent(loc.pg, QuotientPartialGroup(loc.pg, part, loc.p),
                                    part.coset_of, max_elements)


def dfs_levels(n, max_len, is_bad, extends, limit=5):
    bad = []

    def rec(word):
        if len(bad) > limit or len(word) >= max_len:
            return
        for x in range(n):
            w = word + (x,)
            if is_bad(w):
                bad.append(w)
            if extends(w):
                rec(w)

    rec(())
    return bad[:limit]


@pytest.mark.parametrize("block", [1, 5, 64, None])
@pytest.mark.parametrize("rule", ["fail-stops", "fail-extends"])
def test_level_sweep_reports_what_the_depth_first_sweep_reports(monkeypatch, block, rule):
    """Words over 6 letters carrying their letter sum; a word fails when
    the sum is 11 mod 13, and either stops there or is extended too."""
    if block is not None:
        monkeypatch.setattr(partial, "_LEVEL_BLOCK", block)

    def is_bad(w):
        return sum(w) % 13 == 11

    def extends(w):
        return rule == "fail-extends" or not is_bad(w)

    def grow(k, carried, letters):
        (total,) = carried
        total = total + letters
        bad = total % 13 == 11
        keep = ~bad if rule == "fail-stops" else np.ones_like(bad)
        return (total,), bad, keep

    for limit in (1, 5, 50):
        monkeypatch.setattr(partial, "_WITNESS_LIMIT", limit)
        got = sweep_word_levels(6, 4, (0,), grow)
        assert got == dfs_levels(6, 4, is_bad, extends, limit=limit)
        assert got


def enumerate_by_full_closures(pg, seed, cap=20_000):
    """partial_subgroups_containing as it closed current | {x} from scratch."""
    base = partial_subgroup_closure(pg, seed)
    found = {base}
    queue = [base]
    while queue:
        current = queue.pop()
        for x in pg.elements():
            if x in current:
                continue
            grown = partial_subgroup_closure(pg, current | {x})
            if grown not in found:
                if len(found) >= cap:
                    raise SizeCapExceeded("too many partial subgroups to enumerate")
                found.add(grown)
                queue.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# every kernel but the trivial one of LOC-S5 (its enumeration is the slowest)
OVER_KERNELS = [case for case, case_id in zip(KERNELS, KERNEL_IDS) if case_id != "s5f-1-0"]


@pytest.mark.parametrize(
    "fixture,index", OVER_KERNELS, ids=[i for i in KERNEL_IDS if i != "s5f-1-0"]
)
def test_oversubgroups_match_the_full_closure_enumeration(request, fixture, index):
    loc, K = _kernel(request, fixture, index)
    assert partial_subgroups_containing(loc.pg, K) == enumerate_by_full_closures(loc.pg, K)


def test_oversubgroup_cap_is_kept(s4f):
    loc = s4f.loc
    trivial = frozenset({loc.identity})
    assert len(partial_subgroups_containing(loc.pg, trivial, cap=30)) == 30
    with pytest.raises(SizeCapExceeded):
        partial_subgroups_containing(loc.pg, trivial, cap=29)


def test_oversubgroup_cap_error_names_the_cap(s4f):
    with pytest.raises(SizeCapExceeded, match=r"more than the cap of 29$"):
        partial_subgroups_containing(s4f.loc.pg, frozenset({s4f.loc.identity}), cap=29)


def test_lemma_cap_error_names_the_cap_and_the_size(s4f, monkeypatch):
    monkeypatch.setattr(quotient, "LEMMA_CAP", 20)
    with pytest.raises(SizeCapExceeded, match=r"capped at 20 elements; the locality has 24$"):
        verify_quotient_lemmas(s4f.loc, s4f.subsets["V4"])
