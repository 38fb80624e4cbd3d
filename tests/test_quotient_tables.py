"""The quotient layer on dense tables against the definitions it replaced.

- up_maximal_flags against is_up_maximal, element by element, on every
  partial normal kernel, on product swaps of GRP-S4 and LOC-S5 and on
  quotients gathered over a foreign representative, and against the naive
  relation of tests/oracle.py;
- the max-word-descent check, a state_fixpoint search over words of every
  length, against the recursive word sweep up to length 3 the lemma suite
  ran before;
- state_fixpoint against a sweep bounded at length 3, on a defect that
  first shows at length 4, with the toy checks run as array steps on both
  the kernel and the one-state-at-a-time reference, and a stack of two
  such verdicts in one search against each searched alone;
- partial_subgroups_containing against the enumeration that closed
  current | {x} from scratch for every x outside current.
"""

import random

import numpy as np
import pytest

from localities import partial, quotient
from localities.groups import SizeCapExceeded
from localities.locality import DeltaFamily, Locality
from localities.normal import partial_normals
from localities.partial import partial_subgroup_closure, state_fixpoint
from localities.quotient import (
    QuotientPartialGroup,
    _descent_failures,
    build_quotient,
    coset_partition,
    is_up_maximal,
    partial_subgroups_containing,
    up_maximal_flags,
    verify_quotient_lemmas,
)

import _frozen as frozen
import fixpoint_reference as reference
from fault_injection import swap_two_products, with_representatives

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
    return loc, partial_normals(loc)[index].members


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_flags_match_is_up_maximal(request, fixture, index):
    loc, K = _kernel(request, fixture, index)
    flags = up_maximal_flags(loc, K)
    assert flags == tuple(is_up_maximal(loc, K, f) for f in loc.elements())
    assert coset_partition(loc, K).up_max == flags


def flags_both_ways(loc, K):
    """(up_maximal_flags, is_up_maximal per element), each the refusal's
    message where it raises ValueError."""
    def outcome(flags):
        try:
            return flags()
        except ValueError as exc:
            return str(exc)

    return (outcome(lambda: up_maximal_flags(loc, K)),
            outcome(lambda: tuple(is_up_maximal(loc, K, f) for f in loc.elements())))


def swapped_localities(loc, kind, count):
    """count localities over loc's S and Delta whose products swap those of
    two domain words with distinct products: words of length 2, or
    conjugation words (f^-1, s, f) with s in S, which move the conjugation
    table and so the stations."""
    pg, rng, out = loc.pg, random.Random(1), []
    while len(out) < count:
        if kind == "product":
            w1, w2 = [(rng.randrange(pg.size), rng.randrange(pg.size)) for _ in range(2)]
        else:
            w1, w2 = [(pg.inverse(f), rng.choice(loc.sylow), f)
                      for f in (rng.randrange(pg.size), rng.randrange(pg.size))]
        v1, v2 = pg.pi(w1), pg.pi(w2)
        if None not in (v1, v2) and v1 != v2:
            out.append(Locality(swap_two_products(pg, w1, w2), loc.p, loc.sylow, loc.delta))
    return out


@pytest.mark.parametrize("fixture,kernel", [("s4f", "V4"), ("s5f", "N5")])
def test_flags_match_is_up_maximal_on_product_swaps(request, fixture, kernel):
    """Some swaps move the flags, and some leave a station outside Delta,
    which both forms refuse."""
    fx = request.getfixturevalue(fixture)
    loc, K = fx.loc, fx.subsets[kernel]
    genuine = up_maximal_flags(loc, K)
    outcomes = []
    for cand in swapped_localities(loc, "product", 4) + swapped_localities(loc, "conjugation", 13):
        got, expected = flags_both_ways(cand, K)
        assert got == expected
        outcomes.append(got)
    assert any(isinstance(o, tuple) and o != genuine for o in outcomes)
    assert any(isinstance(o, str) for o in outcomes)


@pytest.mark.parametrize("fixture,kernel,coset,rep", [("s4f", "V4", 1, 0), ("s5f", "N5", 0, 26)],
                         ids=["GRP-S4-V4", "LOC-S5-N5"])
def test_flags_match_is_up_maximal_on_a_foreign_representative(request, fixture, kernel, coset, rep):
    """The quotient with the given coset represented by an element outside
    it (GRP-S4 / V4: the identity) or by another member of the kernel
    (LOC-S5 / N5: 26), over its trivial kernel, its S and the images of the
    partial normal subgroups above the kernel."""
    fx = request.getfixturevalue(fixture)
    loc, K = fx.loc, fx.subsets[kernel]
    part = coset_partition(loc, K)
    reps = [rec.base for rec in part.maximal]
    reps[coset] = rep
    qpg = QuotientPartialGroup(loc, with_representatives(part, reps))
    q_delta = DeltaFamily(sylow=frozenset(qpg.s_elems), members=qpg.delta_sets)
    q = Locality(qpg, loc.p, qpg.s_elems, q_delta)
    images = [frozenset(qpg.rho[x] for x in h.members)
              for h in partial_normals(loc) if K <= h.members]
    for kernel in [frozenset({q.identity}), q.sylow_set, *images]:
        got, expected = flags_both_ways(q, kernel)
        assert got == expected


def test_flags_and_lemmas_take_no_conjugate_set(s5f, c2s4f, monkeypatch):
    """The stations, their images and the normalizers come from scatters of
    whole rows; Locality.conjugate_set (one set and one element at a time)
    is left to the definitional references.  The flags are computed anew;
    the lemma suites take the bundles the builds keep."""
    calls = []
    conjugate_set = Locality.conjugate_set

    def counting(self, X, g):
        calls.append((X, g))
        return conjugate_set(self, X, g)

    cases = [(s5f, "N5", "N5"), (c2s4f, "V4", "A4")]
    bundles = [build_quotient(fix.loc, fix.subsets[lem]) for fix, _, lem in cases]
    monkeypatch.setattr(Locality, "conjugate_set", counting)
    for (fix, flag_kernel, lemma_kernel), bundle in zip(cases, bundles):
        assert up_maximal_flags(fix.loc, fix.subsets[flag_kernel])
        assert verify_quotient_lemmas(fix.loc, fix.subsets[lemma_kernel], bundle=bundle).ok
    assert calls == []


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


def fails_descent(pg, qpg, word):
    """The recursive sweep's predicate: bar(word) is in the quotient domain
    while word is off the base domain or has another image."""
    bar = tuple(qpg.rho[f] for f in word)
    return qpg.in_domain(bar) and (
        not pg.in_domain(word) or qpg.rho[pg.pi(word)] != qpg.pi(bar)
    )


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_descent_sweep_matches_the_recursive_sweep(request, fixture, index):
    loc, K = _kernel(request, fixture, index)
    bundle = build_quotient(loc, K)
    qpg = bundle.quotient.pg
    max_elements = [f for f in loc.elements() if coset_partition(loc, K).up_max[f]]
    _, got = _descent_failures(loc.pg, qpg, max_elements)
    assert got == recursive_descent(loc.pg, qpg, bundle.rho, max_elements) == []


def test_descent_sweep_matches_the_recursive_sweep_on_a_quotient_base(s5f):
    base = build_quotient(s5f.loc, s5f.subsets["N5"]).quotient
    for K in (h.members for h in partial_normals(base)):
        qpg = build_quotient(base, K).quotient.pg
        max_elements = [f for f in base.elements() if coset_partition(base, K).up_max[f]]
        _, got = _descent_failures(base.pg, qpg, max_elements)
        assert got == recursive_descent(base.pg, qpg, qpg.rho, max_elements) == []


def test_descent_sweep_finds_a_corrupted_coset_product(s4f):
    """GRP-S4 / V4 with coset 1 represented by the identity, outside it:
    both sweeps read the representatives, and both fail."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    part = coset_partition(loc, K)
    reps = [rec.base for rec in part.maximal]
    assert part.coset_of[loc.identity] != 1
    reps[1] = loc.identity
    qpg = QuotientPartialGroup(loc, with_representatives(part, reps))
    max_elements = [f for f in loc.elements() if part.up_max[f]]
    states, got = _descent_failures(loc.pg, qpg, max_elements)
    assert (states, len(got)) == (153, 2980)
    assert got[0] == (1,)
    assert got == sorted(got, key=lambda w: (len(w), w))
    assert all(fails_descent(loc.pg, qpg, w) for w in got)
    assert recursive_descent(loc.pg, qpg, qpg.rho, max_elements)


def bounded_sweep(start, letters, step, max_len):
    """The failing words up to max_len, depth first, from the same step."""
    bad = []

    def rec(state, word):
        for x in letters:
            nxt, fails = step(state, x)
            if fails:
                bad.append(word + (x,))
            if nxt is not None and len(word) + 1 < max_len:
                rec(nxt, word + (x,))

    rec(start, ())
    return bad


def both_fixpoints(start, letters, step):
    """The kernel's answer, asserted equal to the reference's."""
    got = state_fixpoint(start, letters, step)
    assert got == reference.state_fixpoint(start, letters, reference.per_state(step))
    return got


def count_twos(level, xs):
    """Words over 0, 1, 2 carry their number of 2s mod 5; a fourth 2 fails."""
    (count,) = level
    count = (count[:, None] + (xs == 2)) % 5
    return (count,), np.ones(count.shape, dtype=bool), (xs == 2) & (count == 4)


def test_a_defect_first_shown_at_length_4_fails_only_the_fixpoint():
    step = reference.per_state(count_twos)
    assert bounded_sweep((0,), range(3), step, 3) == []
    assert both_fixpoints((0,), range(3), count_twos) == (5, [(2, 2, 2, 2)])
    assert bounded_sweep((0,), range(3), step, 4) == [(2, 2, 2, 2)]


@pytest.mark.parametrize("block", [None, 1], ids=["block-default", "block-1"])
def test_a_stack_of_verdicts_gives_each_verdict_its_own_words(monkeypatch, block):
    """count_twos with a second verdict, a third 2, stacked in one search:
    one failing list per verdict, each the single-verdict search's, in
    stack order, at the same state count, one state a step or many."""
    if block is not None:
        monkeypatch.setattr(partial, "_FIXPOINT_BLOCK", block)

    def third_two(level, xs):
        nxt, live, _ = count_twos(level, xs)
        return nxt, live, (xs == 2) & (nxt[0] == 3)

    def both(level, xs):
        nxt, live, fourth = count_twos(level, xs)
        return nxt, live, np.stack((fourth, third_two(level, xs)[2]))

    states, fourth = both_fixpoints((0,), range(3), count_twos)
    _, third = both_fixpoints((0,), range(3), third_two)
    assert third == [(2, 2, 2)]
    assert state_fixpoint((0,), range(3), both) == (states, [fourth, third])


def test_fixpoint_words_are_the_least_word_of_each_failing_transition():
    """Words over 0, 1 carry their letter sum mod 3; a word ending in 1 at
    sum 0 fails and is not extended."""

    def step(level, xs):
        (total,) = level
        total = (total[:, None] + xs) % 3
        bad = (xs == 1) & (total == 0)
        return (total,), ~bad, bad

    states, words = both_fixpoints((0,), (0, 1), step)
    assert states == 3
    # sum 2 is first reached by (1, 1); from it, 1 fails
    assert words == [(1, 1, 1)]
    assert set(bounded_sweep((0,), (0, 1), reference.per_state(step), 4)) == {
        (1, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)
    }


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
