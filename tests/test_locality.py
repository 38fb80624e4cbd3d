import itertools

import pytest

from localities import model
from localities.groups import SubgroupRef, all_subgroups, generate_group, sylow_p
from localities.partial import PartialGroup
from localities.locality import (
    DeltaFamily,
    LocalityConstructionError,
    as_locality,
    check_locality,
    delta_close,
    locality_from_group,
)

import _frozen as frozen
from chain_reference import chain_is_valid, domain_chain
from conj_iso_reference import conj_iso
from test_model import S3
import list_tables


def test_delta_close_sylow_alone(s4f):
    M = s4f.group
    S = sylow_p(M, 2)
    d = delta_close(S, [S], M)
    assert d.members == frozenset({S.members})


def test_delta_close_fours_group(s4f):
    M = s4f.group
    S = sylow_p(M, 2)
    v4 = SubgroupRef(
        M,
        {
            M.identity,
            M.index_of_perm((1, 0, 3, 2)),
            M.index_of_perm((2, 3, 0, 1)),
            M.index_of_perm((3, 2, 1, 0)),
        },
    )
    d = delta_close(S, [v4], M)
    assert d.members == frozenset({v4.members, S.members})


def test_delta_close_s5_order_four_seeds(s5f):
    M = s5f.group
    S = sylow_p(M, 2)
    sg, selems = S.as_group()
    seeds = [
        SubgroupRef(M, frozenset(selems[i] for i in sub.members))
        for sub in all_subgroups(sg)
        if sub.order == 4
    ]
    d = delta_close(S, seeds, M)
    expect = frozenset(
        frozenset(selems[i] for i in sub.members)
        for sub in all_subgroups(sg)
        if sub.order >= 4
    )
    assert d.members == expect


def delta_close_by_pairs(S, seeds, ambient_group):
    """delta_close with one conjugation read per member of P and element g,
    from list_tables.group_conj, as it conjugated before its one gather per
    member."""
    conj = list_tables.group_conj(ambient_group)
    group, elems = S.as_group()
    lattice = [frozenset(elems[i] for i in sub.members) for sub in all_subgroups(group)]
    family, queue = set(), [seed.members for seed in seeds]
    while queue:
        P = queue.pop()
        if P in family:
            continue
        family.add(P)
        queue += [Q for Q in lattice if P < Q and Q not in family]
        for g in ambient_group.elements():
            img = frozenset(conj[x][g] for x in P)
            if img <= S.members and img not in family:
                queue.append(img)
    return frozenset(family)


SEED_GROUPS = {
    "S4": [(1, 2, 3, 0), (1, 0, 2, 3)],
    "S5": [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
    "S3xS3xC2": [(1, 2, 0, 3, 4, 5, 6, 7), (1, 0, 2, 3, 4, 5, 6, 7), (0, 1, 2, 4, 5, 3, 6, 7),
                 (0, 1, 2, 4, 3, 5, 6, 7), (0, 1, 2, 3, 4, 5, 7, 6)],
}


@pytest.mark.parametrize("name", list(SEED_GROUPS))
def test_delta_close_matches_the_conjugation_loop_on_every_single_seed(name):
    M = generate_group(SEED_GROUPS[name])
    S = sylow_p(M, 2)
    sg, selems = S.as_group()
    subgroups = all_subgroups(sg)
    for sub in subgroups:
        seed = SubgroupRef(M, frozenset(selems[i] for i in sub.members))
        assert delta_close(S, [seed], M).members == delta_close_by_pairs(S, [seed], M)
    assert len(subgroups) > 2


def test_delta_close_matches_the_conjugation_loop_on_the_model_seed_lines(tmp_path, monkeypatch):
    """The seeds: lines of test_model, read through the parser."""
    calls = []
    monkeypatch.setattr(model, "delta_close", lambda *args: calls.append(args) or delta_close(*args))
    for k, line in enumerate(["seeds:{(1 2)}; {}", "seeds:{(1 2)};{}"]):
        path = tmp_path / f"l{k}.model"
        path.write_text(S3 + f"locality L = s3 p=2 sylow={{(1 2)}} delta={line}\n")
        model.parse_model(path)
    assert len(calls) == 2
    for args in calls:
        assert delta_close(*args).members == delta_close_by_pairs(*args)


def test_delta_close_rejects_empty():
    M = generate_group([(1, 0)])
    with pytest.raises(ValueError):
        delta_close(sylow_p(M, 2), [], M)


def test_locality_from_sylow_only_delta():
    M = generate_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    S = sylow_p(M, 2)
    loc = locality_from_group(M, 2, delta_close(S, [S], M))
    assert loc.size == 8  # the Sylow normalizes itself


def test_grp_s4_is_whole_group_with_total_domain(s4f):
    loc = s4f.loc
    assert loc.size == frozen.S4_LOC_SIZE
    assert loc.pg.domain_is_total


def test_loc_s5_is_genuinely_partial(s5f):
    loc = s5f.loc
    assert loc.size == frozen.S5_LOC_SIZE
    assert not loc.pg.domain_is_total
    w = tuple(
        loc.to_local[s5f.group.index_of_perm(p)] for p in frozen.S5_FIRST_EXCLUDED
    )
    assert not loc.in_domain(w)


def test_check_locality_passes_on_corpus(s4f, s5f):
    assert check_locality(s4f.loc).ok
    assert check_locality(s5f.loc).ok


def test_amalgam_as_locality_fails(am20):
    loc = am20.as_locality()
    report = check_locality(loc)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "L2-domain-iff-chain" in failed
    assert "L3-overgroup-closure" in failed


def test_thread_subgroup_empty_and_sylow_words(s4f):
    loc = s4f.loc
    assert loc.thread_subgroup(()) == loc.sylow_set
    for s in loc.sylow:
        assert loc.thread_subgroup((s,)) == loc.sylow_set


def test_a_locality_over_another_s_threads_through_its_own_s(s4f):
    """GRP-S4's partial group read as a candidate over S = V4: its
    automaton is built over V4, not taken from the partial group, whose
    own is over the Sylow subgroup of GRP-S4.  Every S_x then lies in V4,
    and the report is that of the same tables wrapped as a plain
    PartialGroup, threading-matches-domain passing."""
    pg, V4 = s4f.loc.pg, s4f.subsets["V4"]
    loc = as_locality(pg, 2, V4, [V4])
    plain = PartialGroup(pg.size, pg.identity, pg.labels, pg._inv, pg._raw[:-1, :-1],
                         pg.trans, pg.accept)
    assert loc.automaton is not pg.automaton
    assert all(loc.thread_subgroup((x,)) <= V4 for x in pg.elements())
    records = [[(c.name, c.status, c.witnesses, c.detail) for c in candidate.report.checks]
               for candidate in (loc, as_locality(plain, 2, V4, [V4]))]
    assert records[0] == records[1]
    assert ("threading-matches-domain", "pass") in [r[:2] for r in records[0]]
    assert s4f.loc.automaton is pg.automaton


def test_thread_subgroup_order_four_example(s5f):
    loc = s5f.loc
    g = loc.to_local[s5f.group.index_of_perm(frozen.S5_ORDER4_STATION_ELEMENT)]
    expect = frozenset(loc.to_local[x] for x in frozen.S5_ORDER4_STATION)
    assert loc.thread_subgroup((g,)) == expect
    assert len(expect) == 4


def test_domain_chain_empty_word(s4f):
    chain = domain_chain(s4f.loc, ())
    assert chain is not None
    assert chain.stations == (s4f.loc.sylow_set,)


def test_domain_chain_length_three(s4f):
    loc = s4f.loc
    v4 = s4f.subsets["V4"]
    for word in itertools.islice(itertools.product(loc.elements(), repeat=3), 500):
        chain = domain_chain(loc, word)
        assert chain is not None
        assert v4 <= chain.stations[0]
        assert chain_is_valid(loc, chain)


def test_domain_chain_absent_outside_domain(s5f):
    loc = s5f.loc
    w = tuple(
        loc.to_local[s5f.group.index_of_perm(p)] for p in frozen.S5_FIRST_EXCLUDED
    )
    assert domain_chain(loc, w) is None


def test_domain_chain_agrees_with_domain(s5f):
    loc = s5f.loc
    for word in itertools.islice(itertools.product(loc.elements(), repeat=2), 800):
        assert (domain_chain(loc, word) is not None) == loc.in_domain(word)


def test_conjugate_by_identity(s5f):
    loc = s5f.loc
    for x in loc.elements():
        assert loc.conjugate(x, loc.identity) == x


def test_conjugation_matches_group_everywhere(s4f):
    loc = s4f.loc
    conj = list_tables.group_conj(s4f.group)
    for x in loc.elements():
        for g in loc.elements():
            expect = loc.to_local[conj[loc.to_ambient[x]][loc.to_ambient[g]]]
            assert loc.conjugate(x, g) == expect


def test_conjugation_absent_on_excluded_pair(s5f):
    loc = s5f.loc
    found = None
    for x in loc.elements():
        for g in loc.elements():
            if loc.conjugate(x, g) is None:
                found = (x, g)
                break
        if found:
            break
    assert found is not None


def test_ambient_and_abstract_stations_agree(s5f):
    """S_g from the ambient group equals the abstract threading subgroup."""
    loc = s5f.loc
    conj = list_tables.group_conj(s5f.group)
    S_m = frozenset(loc.to_ambient[s] for s in loc.sylow)
    for g in loc.elements():
        ambient = frozenset(
            loc.to_local[s] for s in S_m if conj[s][loc.to_ambient[g]] in S_m
        )
        abstract = frozenset(
            s
            for s in loc.sylow
            if loc.conjugate(s, g) is not None and loc.conjugate(s, g) in loc.sylow_set
        )
        assert ambient == loc.thread_subgroup((g,)) == abstract


def test_normalizer_of_sylow(s4f, s5f):
    for fix in (s4f, s5f):
        assert fix.loc.normalizer(fix.loc.sylow_set) == fix.loc.sylow_set


def test_normalizer_of_fours_group_is_everything(s4f):
    assert s4f.loc.normalizer(s4f.subsets["V4"]) == frozenset(s4f.loc.elements())


def test_conj_iso_identity(s4f):
    loc = s4f.loc
    iso = conj_iso(loc, s4f.subsets["V4"], loc.identity)
    assert iso.ok
    assert iso.mapping == {x: x for x in iso.source_members}


def test_conj_iso_transposition(s4f):
    loc = s4f.loc
    g = loc.to_local[s4f.group.index_of_perm((1, 0, 2, 3))]
    iso = conj_iso(loc, s4f.subsets["V4"], g)
    assert iso.ok
    assert iso.source_members == frozenset(loc.elements())
    assert iso.target_members == frozenset(loc.elements())


def test_conj_iso_rejects_bad_station(s4f):
    loc = s4f.loc
    with pytest.raises(ValueError):
        conj_iso(loc, {loc.identity}, loc.identity)


def test_conj_iso_composition_along_chains(s5f):
    """Composing the two step isomorphisms equals the product's, pointwise."""
    loc = s5f.loc
    checked = 0
    for w in itertools.product(loc.elements(), repeat=2):
        if checked >= 40 or not loc.in_domain(w):
            continue
        P0 = loc.thread_subgroup(w)
        if P0 not in loc.delta.members:
            continue
        g1, g2 = w
        P1 = loc.conjugate_set(P0, g1)
        iso1 = conj_iso(loc, P0, g1)
        iso2 = conj_iso(loc, P1, g2)
        total = conj_iso(loc, P0, loc.pi(w))
        assert iso1.ok and iso2.ok and total.ok
        for x in iso1.source_members:
            assert iso2.mapping[iso1.mapping[x]] == total.mapping[x]
        checked += 1
    assert checked


def test_station_in_delta_for_every_element(s4f, c2s4f, s5f):
    for fix in (s4f, c2s4f, s5f):
        loc = fix.loc
        for g in loc.elements():
            assert loc.thread_subgroup((g,)) in loc.delta.members


def test_station_monotone_and_domain_iff(s5f):
    loc = s5f.loc
    count = 0
    for w in itertools.product(loc.elements(), repeat=2):
        sw = loc.thread_subgroup(w)
        in_dom = loc.in_domain(w)
        assert (sw in loc.delta.members) == in_dom
        if in_dom:
            assert sw <= loc.thread_subgroup((loc.pi(w),))
            count += 1
    assert count


def test_sylow_always_in_delta(am20, s4f, c2s4f, s5f):
    for fix in (s4f, c2s4f, s5f):
        assert fix.loc.sylow_set in fix.loc.delta.members
    as_loc = am20.as_locality()
    assert as_loc.sylow_set in as_loc.delta.members


def test_construction_rejects_partial_sylow():
    M = generate_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    v4 = frozenset(
        {
            M.identity,
            M.index_of_perm((1, 0, 3, 2)),
            M.index_of_perm((2, 3, 0, 1)),
            M.index_of_perm((3, 2, 1, 0)),
        }
    )
    with pytest.raises(ValueError):
        locality_from_group(M, 2, DeltaFamily(sylow=v4, members=frozenset({v4})))
