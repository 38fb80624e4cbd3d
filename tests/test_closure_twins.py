"""The closure loops that skip proved-equal candidates, against the loops
that close every candidate.

- _p_subgroup_above against the search that closes base | {x} for every
  candidate x;
- enumerate_partial_normals against the enumeration that closes every
  singleton, and every join from scratch;
- partial_subgroups_containing against enumerate_by_full_closures
  (tests/test_quotient_tables.py);

on the builtins and their kernels, and on candidates that are not partial
groups or localities: product swaps of GRP-S4, PG-AM20 read as a locality,
S smaller than a Sylow 2-subgroup, and GRP-S4 with an inverse that is not
an involution.  Two controls show that the swaps tell apart a labelling
without its return lookups and an (L1) search that trusts S to be closed.

The kernels under the loops are checked on their own: over every base the
two searches meet, on all of these inputs and on the quotients by every
kernel of the builtins, the elements with one twin_labels label share one
closure; on genuine partial groups the label classes are the twin classes
of the per-pair reference subset_reference.closure_twins, and the
searches make as many closures as the per-element search over that
reference; and a closure handed sets known to be closed equals the
closure without them.
"""

import itertools
import random

import numpy as np
import pytest

from localities import locality, normal, quotient
from localities.groups import _p_part
from localities.locality import _p_subgroup_above, as_locality, check_locality
from localities.normal import enumerate_partial_normals, partial_normal_closure, partial_normals
from localities.partial import _close, partial_subgroup_closure, twin_labels
from localities.quotient import build_quotient, partial_subgroups_containing

from fault_injection import CorruptedProducts, swap_two_products
from subset_reference import closure_twins
from test_quotient_tables import enumerate_by_full_closures
import list_tables


def p_subgroup_above_by_every_candidate(loc, base, candidates):
    """_p_subgroup_above as it closed base | {x} for every candidate x."""
    pg = loc.pg
    for x in candidates:
        if x in base:
            continue
        grown = partial_subgroup_closure(pg, base | {x})
        if len(grown) == len(base) or _p_part(len(grown), loc.p) != len(grown):
            continue
        ok, _ = pg.words_all_in_domain(grown)
        if ok:
            return (x, grown)
    return None


def enumerate_by_every_closure(loc):
    """enumerate_partial_normals as it closed every singleton, and every
    join from scratch."""
    closures = {}
    for x in loc.elements():
        h = partial_normal_closure(loc, [x])
        closures.setdefault(h.members, h)
    family = dict(closures)
    queue = list(closures.values())
    while queue:
        h = queue.pop()
        for other in list(family.values()):
            joined = h.members | other.members
            if joined in family:
                continue
            grown = partial_normal_closure(loc, joined)
            if grown.members not in family:
                family[grown.members] = grown
                queue.append(grown)
    return sorted(family.values(), key=lambda h: (len(h.members), sorted(h.members)))


def one_way_labels(pg, base):
    """twin_labels with each y = h*x (h in base) taken as a twin of x, both
    ways, without its return lookup: not a proof."""
    table, label = list_tables.products(pg), list(range(pg.size))

    def root(x):
        while label[x] != x:
            x = label[x]
        return x

    for x in pg.elements():
        for h in base:
            if (y := table[h][x]) >= 0:
                a, b = sorted((root(x), root(y)))
                label[b] = a
    out = np.array([root(x) for x in pg.elements()])
    out[list(base)] = -1
    return out


LOCALITIES = {
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc,
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc,
    "PG-AM20": lambda r: r.getfixturevalue("am20").as_locality(),
}


@pytest.mark.parametrize("name", list(LOCALITIES))
def test_l1_search_matches_every_candidate(request, name):
    loc = LOCALITIES[name](request)
    S = loc.sylow_set
    searches = [(S, list(loc.elements()))]
    if name != "PG-AM20":
        for N in (h.members for h in partial_normals(loc)):
            T = N & S
            searches += [(T, sorted(N - T)), (T, list(loc.elements()))]
    for base, candidates in searches:
        assert _p_subgroup_above(loc, base, candidates) == p_subgroup_above_by_every_candidate(
            loc, base, candidates
        )


@pytest.mark.parametrize("name", list(LOCALITIES))
def test_enumeration_matches_every_closure(request, name):
    loc = LOCALITIES[name](request)
    assert enumerate_partial_normals(loc) == enumerate_by_every_closure(loc)


def _order_four_subgroups(pg):
    table = list_tables.products(pg)
    others = [x for x in pg.elements() if x != pg.identity]
    fours = []
    for c in itertools.combinations(others, 3):
        X = frozenset((pg.identity,) + c)
        if all(table[a][b] in X for a in X for b in X):
            fours.append(X)
    return fours


def test_l1_witness_when_s_is_not_sylow_maximal(s4f):
    pg = s4f.loc.pg
    for S in _order_four_subgroups(pg):
        cand = as_locality(pg, 2, S, [S])
        expect = p_subgroup_above_by_every_candidate(cand, S, pg.elements())
        assert expect is not None and len(expect[1]) == 8
        assert _p_subgroup_above(cand, S, pg.elements()) == expect
        (l1,) = [c for c in check_locality(cand).checks if c.name == "L1-sylow-maximal"]
        assert l1.status == "fail"
        assert l1.witnesses == [("larger-p-subgroup", sorted(expect[1]))]


@pytest.fixture(scope="module")
def swapped(s4f):
    """Product swaps of two random length-2 words of GRP-S4, each read as a
    locality candidate with S one of its subgroups of order 4, with the
    oversubgroups of the identity by full closures.  The stream holds swaps
    at which a one-way skip and a search trusting S to be closed go wrong
    (the controls below check that it still does)."""
    pg = s4f.loc.pg
    fours = _order_four_subgroups(pg)
    rng = random.Random(1)
    out = []
    while len(out) < 50:
        w1, w2 = [(rng.randrange(pg.size), rng.randrange(pg.size)) for _ in range(2)]
        if pg.pi(w1) == pg.pi(w2):
            continue
        S = rng.choice(fours)
        cand = as_locality(swap_two_products(pg, w1, w2), 2, S, [S])
        out.append((cand, enumerate_by_full_closures(cand.pg, {pg.identity})))
    return out


def test_closure_loops_match_the_references_on_product_swaps(swapped):
    for cand, oversubgroups in swapped:
        pg, S = cand.pg, cand.sylow_set
        trivial = {pg.identity}
        assert partial_subgroups_containing(pg, trivial) == oversubgroups
        assert _p_subgroup_above(cand, S, pg.elements()) == p_subgroup_above_by_every_candidate(
            cand, S, pg.elements()
        )
        assert enumerate_partial_normals(cand) == enumerate_by_every_closure(cand)


def test_the_swaps_tell_a_one_way_skip_apart(swapped, monkeypatch):
    monkeypatch.setattr(quotient, "twin_labels", one_way_labels)
    monkeypatch.setattr(locality, "twin_labels", one_way_labels)
    wrong_oversubgroups = wrong_l1 = 0
    for cand, oversubgroups in swapped:
        pg, S = cand.pg, cand.sylow_set
        trivial = {pg.identity}
        wrong_oversubgroups += partial_subgroups_containing(pg, trivial) != oversubgroups
        wrong_l1 += _p_subgroup_above(cand, S, pg.elements()) != p_subgroup_above_by_every_candidate(
            cand, S, pg.elements()
        )
    assert wrong_oversubgroups > 0 and wrong_l1 > 0


def test_the_swaps_tell_a_search_that_trusts_s_to_be_closed_apart(swapped, monkeypatch):
    """_p_subgroup_above, labels and all, with each closure started from S
    as if it were closed."""
    wrong = 0
    for cand, _ in swapped:
        S, elements = cand.sylow_set, cand.pg.elements()
        monkeypatch.setattr(locality, "partial_subgroup_closure", lambda pg, seed, S=S: (
            partial_subgroup_closure(pg, seed - S, closed=S)))
        wrong += _p_subgroup_above(cand, S, elements) != p_subgroup_above_by_every_candidate(
            cand, S, elements
        )
    assert wrong > 0


def test_a_conjugate_without_the_return_lookup_keeps_its_own_closure(s4f):
    """x^f = y is faked for a 3-cycle x and each element y of V4 but the
    identity, while y^(f^-1) stays genuine.  <y> = V4 is a partial normal
    subgroup of the candidate that a skip of every x^f would never close."""
    loc = s4f.loc
    pg = loc.pg
    V4, A4 = s4f.subsets["V4"], s4f.subsets["A4"]
    x = min(A4 - V4)
    ys = sorted(V4 - {pg.identity})
    assert x < ys[0]
    fs = [f for f in pg.elements() if f != pg.identity][: len(ys)]
    bad = CorruptedProducts(pg, {(pg.inverse(f), x, f): y for f, y in zip(fs, ys)})
    cand = as_locality(bad, 2, loc.sylow_set, [loc.sylow_set])
    got = enumerate_partial_normals(cand)
    assert got == enumerate_by_every_closure(cand)
    assert V4 in [h.members for h in got]


def _counting(monkeypatch, module, name, seed_len=None):
    calls = []
    real = getattr(module, name)

    def counted(pg, seed, *args, **kwargs):
        seed = list(seed)
        if seed_len is None or len(seed) == seed_len:
            calls.append(seed)
        return real(pg, seed, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_oversubgroups_of_n5_close_at_most_one_coset_each(s5f, monkeypatch):
    # 864 closures when every x with a new singleton closure <x> was tried,
    # 301 when one left coset current*x was closed per x
    calls = _counting(monkeypatch, quotient, "partial_subgroup_closure")
    assert len(partial_subgroups_containing(s5f.loc.pg, s5f.subsets["N5"])) == 30
    assert len(calls) <= 101


def test_l1_on_loc_s5_closes_at_most_one_coset_each(s5f, monkeypatch):
    # 48 closures when every element outside S was tried, 6 with left cosets
    loc = s5f.loc
    calls = _counting(monkeypatch, locality, "partial_subgroup_closure")
    assert _p_subgroup_above(loc, loc.sylow_set, loc.elements()) is None
    assert len(calls) <= 2


def test_loc_s5_enumeration_closes_one_singleton_per_class(s5f, monkeypatch):
    loc = s5f.loc
    conj = loc.conj_table()
    classes = {x: {x} for x in loc.elements()}
    for x in loc.elements():
        for y in conj[x]:
            if y >= 0 and classes[x] is not classes[y]:
                merged = classes[x] | classes[y]
                for z in merged:
                    classes[z] = merged
    n_classes = len({id(c) for c in classes.values()})
    singles = _counting(monkeypatch, normal, "partial_normal_closure", seed_len=1)
    enumerate_partial_normals(loc)
    assert len(singles) <= n_classes == 9


def test_enumeration_classifies_each_set_once(request, monkeypatch):
    classified = _counting(monkeypatch, normal, "classify_subset")
    for name in LOCALITIES:
        classified.clear()
        got = enumerate_partial_normals(LOCALITIES[name](request))
        assert sorted(map(sorted, classified)) == sorted(sorted(h.members) for h in got)


# -- the kernels: twin labels and closures stopped at known closed sets


def assert_labels_share_the_closure(pg, base):
    """base is labelled -1, and the elements x outside it with one label
    close with base to one closure, for every x."""
    label = twin_labels(pg, base)
    closure_of = {}
    for x in pg.elements():
        assert (label[x] < 0) == (x in base), (sorted(base), x)
        if x not in base:
            grown = partial_subgroup_closure(pg, base | {x})
            assert closure_of.setdefault(int(label[x]), grown) == grown, (sorted(base), x)


def assert_labels_are_the_reference_twin_classes(pg, base):
    """On a genuine partial group, with base a partial subgroup: each label
    class is the twin class closure_twins gives each of its members."""
    label = twin_labels(pg, base)
    classes = {}
    for x in pg.elements():
        if x not in base:
            classes.setdefault(int(label[x]), set()).add(x)
    for twins in classes.values():
        assert closure_twins(pg, base, min(twins)) == twins, sorted(base)


def _bases(pg, S):
    """A closed base (the closure of S) and one that is not: three elements
    of S, never a subgroup of a 2-group."""
    return partial_subgroup_closure(pg, S), frozenset(sorted(S)[:3])


@pytest.mark.parametrize("name", list(LOCALITIES))
def test_twins_share_the_closure(request, name):
    loc = LOCALITIES[name](request)
    closed, loose = _bases(loc.pg, loc.sylow_set)
    assert partial_subgroup_closure(loc.pg, loose) != loose
    assert_labels_share_the_closure(loc.pg, closed)
    assert_labels_share_the_closure(loc.pg, loose)
    assert_labels_are_the_reference_twin_classes(loc.pg, closed)


@pytest.mark.parametrize("name", ["GRP-S4", "GRP-C2xS4"])
def test_twin_classes_of_a_group_are_double_cosets_with_inverses(request, name):
    pg = LOCALITIES[name](request).pg
    assert pg.domain_is_total
    table = list_tables.products(pg)
    H = partial_subgroup_closure(pg, LOCALITIES[name](request).sylow_set)
    label = twin_labels(pg, H)
    for x in pg.elements():
        coset = {table[table[h][x]][k] for h in H for k in H}
        twins = coset | {pg.inverse(y) for y in coset}
        assert closure_twins(pg, H, x) == twins
        if x not in H:
            assert set(np.flatnonzero(label == label[x]).tolist()) == twins


def test_twins_share_the_closure_on_product_swaps(swapped):
    for cand, _ in swapped:
        for base in _bases(cand.pg, cand.sylow_set):
            assert_labels_share_the_closure(cand.pg, base)


def _bases_met(monkeypatch, searches):
    """The (partial group, base) pairs twin_labels is called on while each
    search runs, each pair once."""
    met = {}

    def recording(pg, base):
        met.setdefault((id(pg), frozenset(base)), (pg, frozenset(base)))
        return twin_labels(pg, base)

    with monkeypatch.context() as m:
        m.setattr(quotient, "twin_labels", recording)
        m.setattr(locality, "twin_labels", recording)
        for search in searches:
            search()
    return list(met.values())


def _both_searches(loc, seeds):
    """partial_subgroups_containing from each seed and the (L1) search
    above S, as zero-argument calls."""
    out = [lambda seed=seed: partial_subgroups_containing(loc.pg, seed) for seed in seeds]
    return out + [lambda: _p_subgroup_above(loc, loc.sylow_set, loc.elements())]


def _genuine_searches(request):
    """The searches of the lemma suite on every kernel of the builtins: over
    L above K, but for LOC-S5's trivial kernel (its enumeration is the
    slowest), and over L/K from the trivial subgroup."""
    searches = []
    for name in ("GRP-S4", "GRP-C2xS4", "LOC-S5"):
        loc = LOCALITIES[name](request)
        for i, K in enumerate(h.members for h in partial_normals(loc)):
            seeds = [K] if (name, i) != ("LOC-S5", 0) else []
            searches += _both_searches(loc, seeds)
            bar = build_quotient(loc, K).quotient
            searches += _both_searches(bar, [{bar.identity}])
    return searches


def test_label_classes_share_the_closure_over_every_base_met(request, monkeypatch):
    met = _bases_met(monkeypatch, _genuine_searches(request))
    assert len(met) > 100
    for pg, base in met:
        assert_labels_share_the_closure(pg, base)
        assert_labels_are_the_reference_twin_classes(pg, base)


def test_label_classes_share_the_closure_over_every_base_met_on_tamperings(
    request, swapped, s4f, monkeypatch
):
    """The swaps, GRP-S4 with an inverse that is not an involution, PG-AM20
    read as a locality, and GRP-S4 with S of order 4."""
    pg = s4f.loc.pg
    searches = [s for cand, _ in swapped for s in _both_searches(cand, [{pg.identity}])]
    searches += _both_searches(LOCALITIES["PG-AM20"](request), [{0}])
    skewed = as_locality(_skewed_s4(s4f)[0], 2, s4f.loc.sylow_set, [s4f.loc.sylow_set])
    searches += _both_searches(skewed, [{pg.identity}])
    for S in _order_four_subgroups(pg):
        searches += _both_searches(as_locality(pg, 2, S, [S]), [])
    met = _bases_met(monkeypatch, searches)
    assert {type(pg).__name__ for pg, _ in met} == {
        "CorruptedProducts", "SkewedInverse", "LocalityPartialGroup", "AmalgamPartialGroup"
    }
    for pg, base in met:
        assert_labels_share_the_closure(pg, base)


def per_element_search(pg, seed):
    """(found, closures) of partial_subgroups_containing as it closed each x
    outside current not yet in the closure_twins class of an x it closed."""
    base = partial_subgroup_closure(pg, seed)
    found, queue, closures = {base}, [base], 1
    while queue:
        current = queue.pop()
        done = set(current)
        for x in pg.elements():
            if x not in done:
                grown = partial_subgroup_closure(pg, current | {x})
                closures += 1
                done |= closure_twins(pg, current, x)
                if grown not in found:
                    found.add(grown)
                    queue.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s))), closures


@pytest.mark.parametrize("name", ["GRP-S4", "GRP-C2xS4", "LOC-S5", "PG-AM20"])
def test_closure_counts_match_the_per_element_search(request, name):
    loc = LOCALITIES[name](request)
    if name == "PG-AM20":
        kernels = [{loc.identity}]
    else:  # LOC-S5's trivial kernel left out, as above
        kernels = [h.members for h in partial_normals(loc)][1 if name == "LOC-S5" else 0:]
    for K in kernels:
        stats = {}
        found = partial_subgroups_containing(loc.pg, K, stats=stats)
        assert (found, stats["closures"]) == per_element_search(loc.pg, K)


def assert_known_sets_change_no_closure(pg, family, conj=None, closed_sets=()):
    """_close handed the closed sets of family equals _close without them,
    from every seed {x}, alone and over each of closed_sets."""
    family = set(family)
    for x in pg.elements():
        for H in [frozenset(), *closed_sets]:
            assert _close(pg, {x}, conj, closed=H, known=family) == _close(
                pg, {x}, conj, closed=H
            )


@pytest.mark.parametrize("fixture,kernel", [("s4f", None), ("c2s4f", "V4"), ("s5f", "N5")])
def test_close_with_known_sets_matches_close_without(request, fixture, kernel):
    """The family: the partial subgroups above the kernel (by full closures),
    each also taken as closed; then the partial normals, with conj rows."""
    f = request.getfixturevalue(fixture)
    loc = f.loc
    overs = enumerate_by_full_closures(loc.pg, f.subsets[kernel] if kernel else {loc.identity})
    assert_known_sets_change_no_closure(loc.pg, overs, closed_sets=overs)
    normals = [h.members for h in enumerate_by_every_closure(loc)]
    assert_known_sets_change_no_closure(loc.pg, normals, loc.conj_table(), normals)


def test_close_with_known_sets_matches_close_without_on_am20_and_swaps(am20, swapped):
    loc = am20.as_locality()
    overs = enumerate_by_full_closures(loc.pg, {loc.identity})
    assert_known_sets_change_no_closure(loc.pg, overs, closed_sets=overs)
    for cand, oversubgroups in swapped:
        pg = cand.pg
        closed = [partial_subgroup_closure(pg, cand.sylow_set)]
        assert_known_sets_change_no_closure(pg, oversubgroups, closed_sets=closed)
        normals = [h.members for h in enumerate_by_every_closure(cand)]
        assert_known_sets_change_no_closure(pg, normals, cand.conj_table(), normals)


class SkewedInverse(CorruptedProducts):
    """A partial group whose inverse map is overridden on chosen elements."""

    def __init__(self, base, inverses):
        super().__init__(base, {})
        self.inverses = dict(inverses)

    def inverse(self, x):
        return self.inverses.get(x, self.base.inverse(x))


def _skewed_s4(s4f):
    """(GRP-S4 with the inverse of the least 3-cycle a read as a
    transposition b > a of the S3 through a, a, b)."""
    table = list_tables.products(s4f.loc.pg)

    def order(x):
        k, y = 1, x
        while y != s4f.loc.identity:
            k, y = k + 1, table[y][x]
        return k

    a = min(x for x in s4f.loc.elements() if order(x) == 3)
    b = min(
        y for y in s4f.loc.elements()
        if y > a and order(y) == 2 and table[table[y][a]][y] == s4f.loc.pg.inverse(a)
    )
    return SkewedInverse(s4f.loc.pg, {a: b}), a, b


def test_an_inverse_without_the_return_lookup_keeps_its_own_closure(s4f):
    """GRP-S4 with the inverse of a 3-cycle a read as a transposition b.
    inv(inv(a)) = b, so b is no inverse twin of a: the closure of {a} holds
    b, but the closure of {b} is {1, b}, which only x = b reaches from the
    trivial subgroup."""
    pg, a, b = _skewed_s4(s4f)
    trivial = frozenset({pg.identity})
    assert b not in closure_twins(pg, trivial, a)
    assert twin_labels(pg, trivial)[a] != twin_labels(pg, trivial)[b]
    assert_labels_share_the_closure(pg, trivial)
    oversubgroups = enumerate_by_full_closures(pg, trivial)
    assert frozenset({pg.identity, b}) in oversubgroups
    assert partial_subgroups_containing(pg, trivial) == oversubgroups
