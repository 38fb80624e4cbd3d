"""partial.product_scan, the one array kernel of both product scans,
against the dict folds it replaced (tests/subset_reference.py).

Compared: subset_product's set, and _scan_product's set, witnesses (in
dict order) and number of keys visited.  The cases: every ordered pair
and triple of partial normals of GRP-S4, GRP-C2xS4 and LOC-S5 and of
their quotients by all 18 kernels; PG-AM20's locality candidate on every
ordered pair of its 36 partial subgroups; product swaps of GRP-S4 and
LOC-S5 (fault_injection.swap_two_products), on pairs and triples of the
base's partial normals; and LOC-S5 with (1, 1) faked to 24, where 24 * 2
is undefined, so folds stop in the middle of domain words.
"""

import itertools

import pytest

import subset_reference as ref
from localities import normal
from localities.locality import Locality
from localities.normal import partial_normals
from localities.partial import subset_product
from localities.quotient import build_quotient, partial_subgroups_containing

from fault_injection import CorruptedProducts
from test_conj_table import KERNELS
from test_subset_masks import _swap


def _pairs_and_triples(sets):
    return [t for n in (2, 3) for t in itertools.product(sets, repeat=n)]


def _builtin(fixture):
    def build(r):
        loc = r.getfixturevalue(fixture).loc
        return loc, _pairs_and_triples([h.members for h in partial_normals(loc)])

    return build


def _quotient(fixture, kernel):
    def build(r):
        f = r.getfixturevalue(fixture)
        qloc = build_quotient(f.loc, f.subsets[kernel]).quotient
        return qloc, _pairs_and_triples([h.members for h in partial_normals(qloc)])

    return build


def _amalgam_candidate(r):
    loc = r.getfixturevalue("am20").as_locality()
    subgroups = partial_subgroups_containing(loc.pg, frozenset({loc.pg.identity}))
    assert len(subgroups) == 36
    return loc, list(itertools.product(subgroups, repeat=2))


def _swapped(fixture, kind, i, name):
    def build(r):
        loc = r.getfixturevalue(fixture).loc
        pg = _swap(fixture, kind == "conjugation", f"{name}{kind}{i}")(r)
        cand = Locality(pg, loc.p, loc.sylow_set, loc.delta)
        return cand, _pairs_and_triples([h.members for h in partial_normals(loc)])

    return build


def _undefined_mid_fold(r):
    loc = r.getfixturevalue("s5f").loc
    bad = CorruptedProducts(loc.pg, {(1, 1): 24})
    assert bad.mul2(1, 1) == 24 and bad.mul2(24, 2) is None
    cand = Locality(bad, loc.p, loc.sylow_set, loc.delta)
    sets = [h.members for h in partial_normals(loc)] + [frozenset({1}), frozenset({2})]
    return cand, _pairs_and_triples(sets) + [({1}, {1}, {2}, {2})]


CASES = {
    "GRP-S4": _builtin("s4f"),
    "GRP-C2xS4": _builtin("c2s4f"),
    "LOC-S5": _builtin("s5f"),
    **{
        f"{name}/{kernel}": _quotient(fixture, kernel)
        for (fixture, name), kernels in KERNELS.items()
        for kernel in kernels.split()
    },
    "PG-AM20-candidate": _amalgam_candidate,
    **{
        f"{name}-{kind}-swap-{i}": _swapped(fixture, kind, i, name)
        for fixture, name in (("s4f", "GRP-S4"), ("s5f", "LOC-S5"))
        for kind in ("product", "conjugation")
        for i in range(3)
    },
    "LOC-S5-undefined-mid-fold": _undefined_mid_fold,
}


@pytest.mark.parametrize("name", list(CASES))
def test_the_kernel_matches_the_dict_folds(request, name):
    loc, factor_tuples = CASES[name](request)
    for factors in factor_tuples:
        factors = [frozenset(f) for f in factors]
        product, witnesses, visited = normal._scan_product(loc, factors)
        want_product, want_witnesses, want_visited = ref.scan_product(loc, factors)
        where = [sorted(f) for f in factors]
        assert (product, visited) == (want_product, want_visited), where
        assert list(witnesses.items()) == list(want_witnesses.items()), where
        assert subset_product(loc.pg, factors) == ref.subset_product(loc.pg, factors), where
