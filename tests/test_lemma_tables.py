"""The lemma suite's table checks against the per-element reference.

verify_quotient_lemmas reads checks 3, 4, 8, 9, 11, 13, 14 and 15 from
product-table rows, coset arrays, conjugation gathers and automaton
numbers; tests/lemma_reference.py computes the same checks element by
element, and check 7 by enumerating the quotient's partial subgroups too.
They are compared on every partial normal kernel of GRP-S4, GRP-C2xS4 and
LOC-S5, where the suite searches only the base, and on bundles whose rho
moves one element, or a whole coset, into another coset, where checks 8,
9 and 15 fail, and on pairs that are not partial normal, where check 15
finds no witness.  On the moved bundles, every X that the sampled form of
check 8 finds failing, at three seeds, holds an element whose singleton
fails the check the suite runs.
"""

import dataclasses
from types import SimpleNamespace

import pytest

import lemma_reference
import localities.report as report_module
from localities import normal, quotient
from localities.groups import generate_group, sylow_p
from localities.locality import (
    Locality, ThreadAutomaton, delta_min_order, locality_from_group,
)
from localities.normal import partial_normals
from localities.quotient import build_quotient, verify_quotient_lemmas

import _frozen as frozen
from lemma_reference import (
    bijection_agrees, reference_bijection, reference_checks, sampled_image_intersection,
)
from subset_reference import right_coset

FIXTURES = [
    ("s4f", frozen.S4_PN_ORDERS),
    ("c2s4f", frozen.C2XS4_PN_ORDERS),
    ("s5f", frozen.S5_PN_ORDERS),
]
# (fixture, index of the kernel in the sorted partial normal subgroups)
KERNELS = [(name, i) for name, orders in FIXTURES for i in range(len(orders))]
KERNEL_IDS = [f"{name}-{orders[i]}-{i}" for name, orders in FIXTURES for i in range(len(orders))]
# seeds of the sampled form of check 8
SEEDS = (0, 1, 3)


def table_checks(report, names):
    return {c.name: (c.status, c.witnesses) for c in report.checks if c.name in names}


def bijection(report):
    (check,) = [c for c in report.checks if c.name == "oversubgroup-bijection"]
    return check


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_table_checks_match_the_reference(request, fixture, index, monkeypatch):
    """Check 7 too, which enumerates the partial subgroups of L above K
    once, on loc.pg, and never those of the quotient."""
    loc = request.getfixturevalue(fixture).loc
    K = partial_normals(loc)[index].members
    bundle = build_quotient(loc, K)
    expected = reference_checks(loc, K, bundle)
    expected_bijection = reference_bijection(loc, K, bundle)
    searched = []
    search = quotient.partial_subgroups_containing

    def spying(pg, seed, **kwargs):
        searched.append(pg)
        return search(pg, seed, **kwargs)

    monkeypatch.setattr(quotient, "partial_subgroups_containing", spying)
    report = verify_quotient_lemmas(loc, K, bundle=bundle)
    assert report.ok
    assert table_checks(report, expected) == expected
    check = bijection(report)
    assert (check.status, check.witnesses) == expected_bijection
    assert searched == ([loc.pg] if len(K) > 1 else [])


def moved(bundle, xs, coset):
    """The bundle with the elements xs sent to another coset by rho."""
    rho = list(bundle.rho)
    for x in xs:
        assert rho[x] != coset
        rho[x] = coset
    return dataclasses.replace(bundle, rho=tuple(rho))


def moved_to_the_identity_coset(s4f, whole_coset):
    """GRP-S4 over V4 and its bundle with element 1 of S, or its whole
    coset, moved into the identity coset."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    bundle = build_quotient(loc, K)
    xs = [x for x in loc.elements() if bundle.rho[x] == bundle.rho[1]] if whole_coset else [1]
    return loc, K, moved(bundle, xs, 0)


@pytest.mark.parametrize("whole_coset", [False, True], ids=["one-element", "whole-coset"])
def test_a_tampered_rho_fails_alike(s4f, whole_coset):
    """Moving the whole coset leaves it empty, so the coset sort has a
    coset with no run."""
    loc, K, bundle = moved_to_the_identity_coset(s4f, whole_coset)
    failing = {"image-intersection", "preimage-is-KR", "product-preimage-splitting"}
    expected = reference_checks(loc, K, bundle)
    report = verify_quotient_lemmas(loc, K, bundle=bundle)
    assert failing <= {c.name for c in report.failures()}
    assert table_checks(report, expected) == expected
    assert bijection_agrees(bijection(report), reference_bijection(loc, K, bundle))


@pytest.mark.parametrize("whole_coset", [False, True], ids=["one-element", "whole-coset"])
def test_image_intersection_is_at_least_as_strong_as_sampling(s4f, whole_coset):
    """Each X the sampled check finds failing at some H holds an x outside
    H with bar x in bar(H), a singleton failure, and the check fails."""
    loc, K, bundle = moved_to_the_identity_coset(s4f, whole_coset)
    (check,) = [c for c in verify_quotient_lemmas(loc, K, bundle=bundle).checks
                if c.name == "image-intersection"]
    rho = bundle.rho
    found = 0
    for seed in SEEDS:
        for X, H in sampled_image_intersection(loc, K, seed, bundle):
            hbar = {rho[x] for x in H}
            assert any(rho[x] in hbar and x not in H for x in X)
            assert check.status == "fail"
            found += 1
    assert found > 0


def test_pairs_that_are_not_partial_normal_fail_alike(s4f, monkeypatch):
    """Checks 14 and 15 on the pair V4 u V4a, V4 u V4b of GRP-S4, for
    every a and b, in place of the partial normal subgroups: some products
    of such a pair have no witness (m, n) with a matching threading
    subgroup."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    bundle = build_quotient(loc, K)
    unions = sorted({K | right_coset(loc.pg, K, f) for f in loc.elements()}, key=sorted)
    found = set()
    for M in unions:
        for N in unions:
            pair = (SimpleNamespace(members=M), SimpleNamespace(members=N))
            for module in (quotient, lemma_reference):
                monkeypatch.setattr(module, "partial_normals", lambda loc: pair)
            expected = reference_checks(loc, K, bundle)
            report = verify_quotient_lemmas(loc, K, bundle=bundle)
            assert table_checks(report, expected) == expected
            found.update(w[-1] for w in expected["product-preimage-splitting"][1])
    assert found == {"no-witness"}


def test_a_bundle_for_another_kernel_or_locality_is_refused(s4f, c2s4f):
    loc = s4f.loc
    bundle = build_quotient(loc, s4f.subsets["V4"])
    with pytest.raises(ValueError, match="another locality or kernel"):
        verify_quotient_lemmas(loc, s4f.subsets["A4"], bundle=bundle)
    with pytest.raises(ValueError, match="another locality or kernel"):
        verify_quotient_lemmas(c2s4f.loc, c2s4f.subsets["V4"], bundle=bundle)
    assert verify_quotient_lemmas(loc, s4f.subsets["V4"], bundle=bundle).ok


def test_each_check_carries_its_own_time(c2s4f, monkeypatch):
    """A clock that moves only in conjugate_set, normalizer, thread_subgroup
    and thread_ids calls, and in the _image_index gathers of the suite.
    preimage-exactness-over-T reads rho alone and images-intersect-trivially
    images alone, so neither carries time; normalizer-image gathers the
    normalizers by _image_index and product-preimage-splitting threads, so
    both do."""
    loc, K = c2s4f.loc, c2s4f.subsets["A4"]
    bundle = build_quotient(loc, K)
    partial_normals(loc)
    clock = [0.0]

    def ticking(method):
        def wrapper(*args, **kwargs):
            clock[0] += 1.0
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(report_module, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    for name in ("conjugate_set", "normalizer", "thread_subgroup"):
        monkeypatch.setattr(Locality, name, ticking(getattr(Locality, name)))
    monkeypatch.setattr(ThreadAutomaton, "thread_ids", ticking(ThreadAutomaton.thread_ids))
    monkeypatch.setattr(quotient, "_image_index", ticking(quotient._image_index))
    report = verify_quotient_lemmas(loc, K, bundle=bundle)
    ms = {c.name: c.timing_ms for c in report.checks}
    assert ms["preimage-exactness-over-T"] == ms["images-intersect-trivially"] == 0
    assert ms["normalizer-image"] > 0
    assert ms["product-preimage-splitting"] > 0


def test_the_family_is_enumerated_before_the_first_check_is_timed(c2s4f, monkeypatch):
    """A fresh locality, whose partial normal family is not enumerated
    yet, and an enumeration that moves the clock by one second: the suite
    enumerates the family before its report starts, so no check carries
    that second (images-intersect-trivially, the first to read the family,
    once did).  The first check is left out: its mark is the report's
    creation, read from the real clock."""
    M = c2s4f.group
    loc = locality_from_group(M, 2, delta_min_order(sylow_p(M, 2), 8))
    K = frozenset(loc.to_local[c2s4f.loc.to_ambient[x]] for x in c2s4f.subsets["A4"])
    bundle = build_quotient(loc, K)
    clock = [0.0]
    enumerate_partial_normals = normal.enumerate_partial_normals

    def slowed(loc):
        clock[0] += 1.0
        return enumerate_partial_normals(loc)

    monkeypatch.setattr(normal, "enumerate_partial_normals", slowed)
    monkeypatch.setattr(report_module, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    report = verify_quotient_lemmas(loc, K, bundle=bundle)
    assert clock[0] == 1.0
    assert {c.name: c.timing_ms for c in report.checks[1:]} == {
        c.name: 0.0 for c in report.checks[1:]
    }


def test_two_localities_on_one_group_keep_their_own_family_and_bundle(monkeypatch):
    """Two localities from one group and Delta: each enumerates its own
    family, and the lemma suite takes only the bundle built for its own."""
    M = generate_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    delta = delta_min_order(sylow_p(M, 2), 8)
    a, b = locality_from_group(M, 2, delta), locality_from_group(M, 2, delta)
    family = partial_normals(a)
    assert partial_normals(a) is family
    assert partial_normals(b) is not family
    assert [h.members for h in partial_normals(b)] == [h.members for h in family]
    assert all(h.owner is a.pg for h in family)
    assert all(h.owner is b.pg for h in partial_normals(b))
    K = family[1].members
    bundle = build_quotient(a, K)
    builds = []
    build = quotient.build_quotient

    def counting(loc, K):
        builds.append(loc)
        return build(loc, K)

    monkeypatch.setattr(quotient, "build_quotient", counting)
    assert verify_quotient_lemmas(a, K).ok
    assert builds == []
    assert verify_quotient_lemmas(b, K).ok
    assert builds == [b]
    with pytest.raises(ValueError, match="another locality or kernel"):
        verify_quotient_lemmas(b, K, bundle=bundle)


@pytest.mark.parametrize("fixture,kernel", [("s5f", "N5"), ("c2s4f", "A4"), ("c2s4f", "S4twist")])
def test_the_suite_threads_at_most_three_words_per_element(request, fixture, kernel, monkeypatch):
    """Checks 3, 13 and 15 compare threading subgroups as numbers read for
    whole arrays of words (ThreadAutomaton.thread_ids), and checks 2 and 12
    gather S_f, and the quotient's station of bar f, as start-set rows of
    the states the relatively maximal letters reach: no word is threaded
    one at a time, far below the bound of 3|L| calls."""
    fx = request.getfixturevalue(fixture)
    loc, K = fx.loc, fx.subsets[kernel]
    bundle = build_quotient(loc, K)
    calls = []
    thread_subgroup = Locality.thread_subgroup

    def counting(self, word):
        calls.append(word)
        return thread_subgroup(self, word)

    monkeypatch.setattr(Locality, "thread_subgroup", counting)
    assert verify_quotient_lemmas(loc, K, bundle=bundle).ok
    assert calls == []
