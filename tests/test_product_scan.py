"""The product scans against the literal enumeration of their words.

partial.product_scan merges the words of a product by (walker code, value)
after each factor for subset_product, and by (walker code, threading state,
value) for normal._scan_product; both decide the domain from the walker
table alone.  The references below ask the engine about every word x1..xl
on its own and read the words in the lexicographic order of
itertools.product over the sorted factors.
"""

import functools
import itertools

import numpy as np
import pytest

from localities import normal
from localities.locality import Locality
from localities.normal import enumerate_partial_normals, product_theorem2
from localities.partial import subset_product
from localities.quotient import QuotientPartialGroup, build_quotient, partial_subgroups_containing

from fault_injection import CorruptedProducts, swap_two_products
import list_tables


class WordTable:
    """The engine's answer on every word of each length over all of L,
    asked once per word, as arrays indexed by the word's letters.

    A product over sorted factors reads the block np.ix_(*factors) of the
    array for its length; flattened in C order, that block lists the words
    of itertools.product(*factors), in lexicographic order.
    """

    def __init__(self, pg, answer):
        self.pg, self.answer, self.arrays = pg, answer, {}

    def block(self, factors):
        n = len(factors)
        if n not in self.arrays:
            words = itertools.product(range(self.pg.size), repeat=n)
            values = np.array([self.answer(word) for word in words])
            self.arrays[n] = values.reshape((self.pg.size,) * n)
        return self.arrays[n][np.ix_(*(sorted(f) for f in factors))].ravel()


def fold_table(pg):
    """x1 * ... * xl folded left to right by mul2, or -1 off the domain."""
    return WordTable(pg, lambda w: functools.reduce(pg.mul2, w) if pg.in_domain(w) else -1)


def fold_product(table, factors):
    values = table.block(factors)
    return set(values[values >= 0].tolist())


class ScanReference:
    """(product, witnesses) as _scan_product defines them, from pi(word)
    and thread_subgroup(word) asked of the engine per word: the product of
    every domain word and the least word of each value whose threading
    subgroup is that of the value.
    """

    def __init__(self, loc):
        self.subgroups = {}  # threading subgroup -> its id
        self.values = WordTable(loc.pg, lambda w: -1 if (v := loc.pi(w)) is None else v)
        self.threads = WordTable(loc.pg, lambda w: self.subgroup_id(loc.thread_subgroup(w)))
        self.target = np.array(
            [self.subgroup_id(loc.thread_subgroup((v,))) for v in loc.elements()]
        )

    def subgroup_id(self, s):
        return self.subgroups.setdefault(s, len(self.subgroups))

    def __call__(self, factors):
        values, threads = self.values.block(factors), self.threads.block(factors)
        domain = values >= 0
        matching = np.flatnonzero(domain & (threads == self.target[np.where(domain, values, 0)]))
        firsts = np.sort(matching[np.unique(values[matching], return_index=True)[1]])
        letters = np.unravel_index(firsts, [len(f) for f in factors])
        words = zip(*(np.array(sorted(f))[k].tolist() for f, k in zip(factors, letters)))
        witnesses = dict(zip(values[firsts].tolist(), words))
        return set(values[domain].tolist()), witnesses


def pool(loc):
    """The partial normals, S, and the three least elements other than
    the identity, which is not a subgroup."""
    others = [x for x in loc.elements() if x != loc.identity][:3]
    return [h.members for h in enumerate_partial_normals(loc)] + [
        loc.sylow_set,
        frozenset(others),
    ]


def tuples(sets, lengths):
    for n in lengths:
        yield from itertools.product(sets, repeat=n)


def assert_scan_matches(loc, factor_tuples):
    reference = ScanReference(loc)
    for factors in factor_tuples:
        product, witnesses = reference(factors)
        got = normal._scan_product(loc, list(factors))
        assert got[0] == product
        assert list(got[1].items()) == list(witnesses.items())
        assert subset_product(loc.pg, factors) == product


@pytest.mark.parametrize("name", ["s4f", "c2s4f", "s5f"])
def test_scan_and_subset_product_match_the_word_enumeration(request, name):
    loc = request.getfixturevalue(name).loc
    assert_scan_matches(loc, tuples(pool(loc), (1, 2, 3)))


def test_four_factor_products_match_the_word_enumeration(s4f):
    normals = [h.members for h in enumerate_partial_normals(s4f.loc)]
    assert_scan_matches(s4f.loc, tuples(normals, (4,)))


def test_subset_product_on_the_amalgam(am20):
    table = fold_table(am20.pg)
    for factors in tuples(list(am20.subsets.values()), (1, 2, 3)):
        assert subset_product(am20.pg, factors) == fold_product(table, factors)


def test_subset_product_on_corrupted_products(s4f):
    """Two swapped binary products: the fold reads them, pi of a longer word
    does not, so the reference folds mul2 as subset_product does."""
    pg = swap_two_products(s4f.loc.pg, (1, 2), (2, 1))
    table, genuine = fold_table(pg), fold_table(s4f.loc.pg)
    changed = 0
    for factors in tuples(pool(s4f.loc), (1, 2, 3)):
        expected = fold_product(table, factors)
        assert subset_product(pg, factors) == expected
        changed += expected != fold_product(genuine, factors)
    assert changed


def test_a_word_whose_fold_is_undefined_has_no_value(s5f):
    """(1, 1) is faked to 24 on LOC-S5, where 24*2 is undefined although
    (1, 1, 2) and (1, 1, 2, 2) are domain words: their folds have no value,
    so neither scan puts None in the product or restarts the fold at 2."""
    loc = s5f.loc
    bad = CorruptedProducts(loc.pg, {(1, 1): 24})
    assert bad.mul2(1, 1) == 24 and bad.mul2(24, 2) is None
    assert bad.in_domain((1, 1, 2)) and bad.in_domain((1, 1, 2, 2))
    cand = Locality(bad, loc.p, loc.sylow_set, loc.delta)
    for factors in ([{1}, {1}, {2}], [{1}, {1}, {2}, {2}]):
        assert subset_product(bad, factors) == frozenset()
        assert normal._scan_product(cand, factors)[:2] == (frozenset(), {})


def test_subset_product_on_a_quotient(s5f):
    qloc = build_quotient(s5f.loc, s5f.subsets["N5"]).quotient
    qpg = qloc.pg
    assert isinstance(qpg, QuotientPartialGroup)
    table = fold_table(qpg)
    for factors in tuples(pool(qloc), (1, 2, 3)):
        assert subset_product(qpg, factors) == fold_product(table, factors)


class CountingArray(np.ndarray):
    """A table that counts the entries each index expression reads from it
    and hands them out as plain arrays or scalars."""

    def __getitem__(self, key):
        out = np.asarray(super().__getitem__(key))
        self.reads += out.size
        return out if out.ndim else out[()]


class CountingTables:
    """A partial group's walker table and padded product array, each
    counting the entries gathered from it."""

    def __init__(self, pg):
        self.size = pg.size
        self.walker = pg.walker_table().view(CountingArray)
        self.table = pg.padded_products().view(CountingArray)
        self.walker.reads = self.table.reads = 0

    def walker_table(self):
        return self.walker

    def padded_products(self):
        return self.table


def fold_each_word(pg, factors):
    """The product word by word: one walker entry per (prefix word, letter)
    and one product entry per such read after the first factor, never
    merging words."""
    walk, table = pg.walker_table(), pg.padded_products()
    words = [(0, None)]
    for xs in factors:
        words = [
            (nxt, x if value is None else table[value, x])
            for code, value in words
            for x in sorted(xs)
            if (nxt := walk[code, x]) >= 0
        ]
        words = [(code, value) for code, value in words if value >= 0]
    return {int(value) for _, value in words}


def test_subset_product_work_stays_within_the_frontier_bound(c2s4f):
    """C2 * V4 * A4 * S4 on GRP-C2xS4: subset_product gathers one walker
    entry per (frontier key, letter), where a key is a distinct (walker
    state, value) pair of the domain words before that factor, and one
    product entry per such candidate after the first factor.  Enumerating
    the words takes one read per (prefix word, letter): 2,410 here, so the
    word-by-word fold breaks the bound."""
    loc = c2s4f.loc
    factors = [c2s4f.subsets[n] for n in ("C2", "V4", "A4", "S4")]
    pg = loc.pg
    start, walk = list_tables.walk(pg)
    keys = [{(start, None)}]
    for n in range(1, len(factors)):
        keys.append(set())
        for word in itertools.product(*(sorted(f) for f in factors[:n])):
            if pg.in_domain(word):
                state = functools.reduce(walk, word, start)
                keys[-1].add((state, pg.pi(word)))
    bound = sum(len(k) * len(f) for k, f in zip(keys, factors))
    words = sum(
        len(f) * sum(1 for w in itertools.product(*factors[:n]) if pg.in_domain(w))
        for n, f in enumerate(factors)
    )
    assert (bound, words) == (682, 2410)
    expected = {pg.pi(w) for w in itertools.product(*factors) if pg.in_domain(w)}

    def within_bound(product):
        counting = CountingTables(pg)
        assert product(counting, factors) == expected
        walker, table = counting.walker.reads, counting.table.reads
        return walker <= bound and table <= bound - len(factors[0])

    assert within_bound(subset_product)
    assert not within_bound(fold_each_word)


def test_scan_decides_the_domain_by_the_walker_alone(am20):
    """PG-AM20 read as a locality: S_w lies in Delta on words off its domain
    (64 of length 2), so a scan that asked the automaton would count them.
    On every ordered pair of its 36 partial subgroups the scan's product is
    that of subset_product, and each witness is a domain word; on 1 to 3
    factors from its named subsets the whole scan matches the reference."""
    loc = am20.as_locality()
    pg = loc.pg
    subgroups = partial_subgroups_containing(pg, frozenset({pg.identity}))
    assert len(subgroups) == 36
    for A, B in itertools.product(subgroups, repeat=2):
        product, witnesses, _ = normal._scan_product(loc, [A, B])
        assert product == subset_product(pg, [A, B]), (sorted(A), sorted(B))
        assert all(pg.in_domain(w) for w in witnesses.values()), (sorted(A), sorted(B))
    assert_scan_matches(loc, tuples(list(am20.subsets.values()), (1, 2, 3)))


def test_product_certificate_counts_its_word_states(c2s4f):
    """word_states is the number of distinct (walker code, automaton state,
    value) keys of the domain words over every prefix length 1..l."""
    loc = c2s4f.loc
    walk = loc.pg.walker_table().tolist()
    factors = [c2s4f.subsets[n] for n in ("C2", "V4", "A4", "S4")]
    keys = 0
    for n in range(1, len(factors) + 1):
        keys += len({
            (functools.reduce(lambda c, x: walk[c][x], word, 0), loc.automaton.walk(word),
             loc.pi(word))
            for word in itertools.product(*factors[:n])
            if loc.in_domain(word)
        })
    cert = product_theorem2(loc, factors)
    assert cert.word_states == keys
    assert len(cert.product) == 48
