import gc
import weakref

import pytest

from localities import quotient
from localities.groups import generate_group, sylow_p
from localities.locality import delta_min_order, locality_from_group
from localities.normal import enumerate_partial_normals, partial_normals
from localities.quotient import (
    LDeltaPair,
    QuotientConstructionError,
    QuotientPartialGroup,
    build_quotient,
    coset_partition,
    is_up_maximal,
    transporter_in_K,
    up_relates,
    verify_quotient_lemmas,
)

import _frozen as frozen
import list_tables


def _pairs(loc):
    for f in loc.elements():
        sf = loc.thread_subgroup((f,))
        for P in loc.delta.members:
            if P <= sf:
                yield LDeltaPair(f, P)


def test_transporter_trivial_kernel(s4f):
    loc = s4f.loc
    v4 = s4f.subsets["V4"]
    assert transporter_in_K(loc, {loc.identity}, v4, v4) == {loc.identity}
    other = loc.thread_subgroup((next(iter(frozenset(loc.elements()) - s4f.subsets["A4"])),))
    if other != v4:
        assert transporter_in_K(loc, {loc.identity}, v4, other) == frozenset()


def test_transporter_abelian_self(s4f):
    loc = s4f.loc
    v4 = s4f.subsets["V4"]
    assert transporter_in_K(loc, v4, v4, v4) == v4


def test_transporter_a4_moves_c2(s4f):
    loc = s4f.loc
    M = s4f.group
    P = frozenset({loc.identity, loc.to_local[M.index_of_perm((1, 0, 3, 2))]})
    Q = frozenset({loc.identity, loc.to_local[M.index_of_perm((2, 3, 0, 1))]})
    assert transporter_in_K(loc, s4f.subsets["A4"], P, Q)


def test_up_relates_to_top_station_via_identities(s4f, s5f):
    """(f, P) relates upward to (f, S_f), witnessed by the identity pair."""
    for fix in (s4f, s5f):
        loc = fix.loc
        K = fix.subsets.get("V4") or fix.subsets["N5"]
        for pair in _pairs(loc):
            top = LDeltaPair(pair.f, loc.thread_subgroup((pair.f,)))
            wit = up_relates(loc, K, pair, top)
            assert wit is not None
            x, y = wit
            if pair.station == top.station:
                assert (x, y) == (loc.identity, loc.identity)


def test_up_relates_reflexive(s4f):
    loc = s4f.loc
    K = s4f.subsets["V4"]
    for pair in _pairs(loc):
        assert up_relates(loc, K, pair, pair) is not None


def test_up_relates_transitive_spot(s4f):
    loc = s4f.loc
    K = s4f.subsets["V4"]
    pairs = list(_pairs(loc))
    hits = 0
    for a in pairs[:12]:
        for b in pairs[:12]:
            if up_relates(loc, K, a, b) is None:
                continue
            for c in pairs[:12]:
                if up_relates(loc, K, b, c) is not None:
                    assert up_relates(loc, K, a, c) is not None
                    hits += 1
    assert hits


def test_up_relates_validates_pairs(s4f):
    loc = s4f.loc
    with pytest.raises(ValueError):
        up_relates(
            loc,
            s4f.subsets["V4"],
            LDeltaPair(loc.identity, frozenset({loc.identity})),
            LDeltaPair(loc.identity, loc.sylow_set),
        )


def test_sylow_elements_are_maximal(s4f, c2s4f):
    for fix, kernel in ((s4f, "V4"), (c2s4f, "C2")):
        loc = fix.loc
        K = fix.subsets[kernel]
        for s in loc.sylow:
            assert is_up_maximal(loc, K, s)


def test_trivial_kernel_everything_maximal(s4f):
    loc = s4f.loc
    for f in loc.elements():
        assert is_up_maximal(loc, {loc.identity}, f)


def test_upmax_flags_match_oracle_freeze(s4f):
    loc = s4f.loc
    got = "".join(
        "1" if is_up_maximal(loc, s4f.subsets["V4"], f) else "0"
        for f in loc.elements()
    )
    assert got == frozen.S4_V4_UPMAX_FLAGS
    got = "".join(
        "1" if is_up_maximal(loc, s4f.subsets["A4"], f) else "0"
        for f in loc.elements()
    )
    assert got == frozen.S4_A4_UPMAX_FLAGS


def test_normalizer_elements_maximal(s4f):
    loc = s4f.loc
    nls = loc.normalizer(loc.sylow_set)
    for kernel in ("V4", "A4"):
        K = s4f.subsets[kernel]
        for f in nls:
            assert is_up_maximal(loc, K, f)


def test_maximal_cosets_trivial_kernel(s4f):
    loc = s4f.loc
    part = coset_partition(loc, {loc.identity})
    assert part.report.ok
    records = part.maximal
    assert len(records) == loc.size
    assert all(len(r.members) == 1 for r in records)


def test_maximal_cosets_full_kernel(s4f):
    loc = s4f.loc
    part = coset_partition(loc, frozenset(loc.elements()))
    assert part.report.ok
    records = part.maximal
    assert len(records) == 1
    assert records[0].members == frozenset(loc.elements())


def test_maximal_cosets_a4(s4f):
    part = coset_partition(s4f.loc, s4f.subsets["A4"])
    assert part.report.ok
    records = part.maximal
    assert len(records) == 2
    assert sorted(len(r.members) for r in records) == [12, 12]


def test_maximal_coset_counts_match_frozen(s4f, c2s4f, s5f):
    for fix, table in (
        (s4f, frozen.S4_MAX_COSET_COUNTS),
        (c2s4f, frozen.C2XS4_MAX_COSET_COUNTS),
        (s5f, frozen.S5_MAX_COSET_COUNTS),
    ):
        for handle in enumerate_partial_normals(fix.loc):
            part = coset_partition(fix.loc, handle.members)
            assert part.report.ok
            records = part.maximal
            assert len(records) == table[len(handle.members)]


def test_partition_report_checks(s4f):
    part = coset_partition(s4f.loc, s4f.subsets["V4"])
    names = {c.name for c in part.report.checks}
    assert {"partition", "up-maximal-gives-maximal-coset", "two-sided-for-maximal"} <= names
    assert part.report.ok


def test_build_quotient_trivial_kernel_is_isomorphic(s4f):
    loc = s4f.loc
    bundle = build_quotient(loc, {loc.identity})
    assert bundle.quotient.size == loc.size
    assert bundle.report.ok
    # identical domain decisions through the relabeling
    rho = bundle.rho
    import itertools

    for w in itertools.islice(itertools.product(loc.elements(), repeat=2), 200):
        assert loc.in_domain(w) == bundle.quotient.in_domain(tuple(rho[x] for x in w))


def test_build_quotient_s4_mod_v4(s4f):
    bundle = build_quotient(s4f.loc, s4f.subsets["V4"])
    q = bundle.quotient
    assert q.size == 6
    assert q.pg.domain_is_total
    qs = {q.pg.mul2(a, b) for a in q.elements() for b in q.elements()}
    assert len(qs) == 6
    noncomm = any(
        q.pg.mul2(a, b) != q.pg.mul2(b, a) for a in q.elements() for b in q.elements()
    )
    assert noncomm  # order 6 and nonabelian: the symmetric group S3
    assert len(bundle.quotient.sylow) == 2


def test_build_quotient_c2xs4_mod_c2(c2s4f):
    bundle = build_quotient(c2s4f.loc, c2s4f.subsets["C2"])
    assert bundle.quotient.size == 24
    assert bundle.report.ok


def test_quotient_kernel_identity(s5f):
    n5 = s5f.subsets["N5"]
    bundle = build_quotient(s5f.loc, n5)
    rho = bundle.rho
    ker = frozenset(x for x in s5f.loc.elements() if rho[x] == rho[s5f.loc.identity])
    assert ker == n5


def test_build_quotient_rejects_non_normal(s4f):
    with pytest.raises(ValueError):
        build_quotient(s4f.loc, s4f.loc.sylow_set)


def test_lemma_suite_trivial_kernel(s4f):
    rep = verify_quotient_lemmas(s4f.loc, {s4f.loc.identity})
    assert rep.ok


def test_lemma_suite_s4_v4(s4f):
    rep = verify_quotient_lemmas(s4f.loc, s4f.subsets["V4"])
    assert rep.ok
    names = {c.name for c in rep.checks}
    assert "kernel-splitting" in names
    assert "same-image-same-station-maximal" in names


def test_lemma_suite_s5_nontrivial_kernels(s5f):
    for name in ("N5", "N20", "N28"):
        rep = verify_quotient_lemmas(s5f.loc, s5f.subsets[name])
        assert rep.ok, [c.name for c in rep.failures()]


def test_lemma_suite_enumerates_the_oversubgroups_once(s5f, monkeypatch):
    calls = []
    enumerate_all = quotient.partial_subgroups_containing

    def counted(pg, seed, *args, **kwargs):
        calls.append(pg)
        return enumerate_all(pg, seed, *args, **kwargs)

    monkeypatch.setattr(quotient, "partial_subgroups_containing", counted)
    rep = verify_quotient_lemmas(s5f.loc, s5f.subsets["N5"])
    assert rep.ok, [c.name for c in rep.failures()]
    assert sum(pg is s5f.loc.pg for pg in calls) == 1


def test_bridge_checks_present_when_kernel_is_intersection(c2s4f):
    """K = S4 part cap twisted S4 part = A4 part; bridges must run."""
    rep = verify_quotient_lemmas(c2s4f.loc, c2s4f.subsets["A4"])
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["images-intersect-trivially"].status == "pass"
    assert by_name["product-preimage-splitting"].status == "pass"


def test_kernel_cache_ignores_reused_ids(monkeypatch):
    """A collected locality's partitions never reach a later locality.

    CPython may hand a collected object's id() to a new one; the patched
    id() below makes that happen every time, as a cache keyed by id() would
    see it.
    """
    monkeypatch.setattr(quotient, "id", lambda obj: 0, raising=False)
    M = generate_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    S = sylow_p(M, 2)
    small = locality_from_group(M, 2, delta_min_order(S, 8))
    assert small.size == 8
    assert len(coset_partition(small, {small.identity}).maximal) == 8
    del small
    gc.collect()
    big = locality_from_group(M, 2, delta_min_order(S, 1))
    assert big.size == 120
    assert len(coset_partition(big, {big.identity}).maximal) == 120


def test_kept_results_do_not_keep_a_locality_alive():
    """The family, partition and bundle kept for a locality go when it is
    collected: no kept value refers back to its key."""
    M = generate_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    loc = locality_from_group(M, 2, delta_min_order(sylow_p(M, 2), 8))
    K = partial_normals(loc)[1].members
    assert verify_quotient_lemmas(loc, K).ok
    assert K in quotient._BUNDLE_CACHE[loc] and K in quotient._KERNEL_CACHE[loc]
    ref = weakref.ref(loc)
    del loc
    gc.collect()
    assert ref() is None


def bfs_domain_is_total(qpg):
    """The walk domain_is_total used to run: every base walker state reached
    over the representatives has every representative extension."""
    start, walk = list_tables.walk(qpg.base)
    seen = {start}
    queue = list(seen)
    while queue:
        state = queue.pop()
        for x in range(qpg.size):
            nxt = walk(state, qpg.reps[x])
            if nxt is None:
                return False
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def test_trivial_kernel_quotient_domain_is_partial(s5f):
    loc = s5f.loc
    qpg = QuotientPartialGroup(loc, coset_partition(loc, {loc.identity}))
    assert qpg.size == 56
    assert bfs_domain_is_total(qpg) is False
    assert qpg.domain_is_total is False
    ok, wit = qpg.words_all_in_domain(frozenset(qpg.elements()))
    assert not ok
    assert all(0 <= c < qpg.size for c in wit)
    assert not qpg.in_domain(wit)
