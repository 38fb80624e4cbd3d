"""The mask gathers of the subset layer against the list loops they
replaced (tests/subset_reference.py).

Compared: the verdicts and exact witness tuples of _closure_failure and
_conjugation_failure; the family flags of subset_flags against
is_partial_normal and the two witness kernels, one row at a time or all
rows at once; the closures of _close, without and with the
conjugation array, from scratch and from a closed start with known sets;
and the right and left cosets of quotient._cosets.  The partial groups:
GRP-S4, GRP-C2xS4, LOC-S5 and their quotients by all 18 kernels, PG-AM20
read as a locality candidate, and product swaps of GRP-S4 and LOC-S5
(fault_injection.swap_two_products), which are no partial groups: swaps
of two binary products, and swaps of two conjugation words, which change
the conjugation array.
"""

import random

import numpy as np
import pytest

import subset_reference as ref
from localities import partial
from localities.locality import as_locality
from localities.normal import is_partial_normal
from localities.partial import _close, _closure_failure, _conjugation_failure, subset_flags
from localities.quotient import _cosets

from fault_injection import swap_two_products
from test_conj_table import KERNELS, _quotient
import list_tables


def _swap(fixture, conjugation, seed):
    """A swap of two random domain words with distinct products: binary
    words, or conjugation words (f^-1, x, f)."""
    def build(r):
        pg = r.getfixturevalue(fixture).loc.pg
        rng = random.Random(seed)
        while True:
            words = []
            for _ in range(2):
                a, b = rng.randrange(pg.size), rng.randrange(pg.size)
                words.append((pg.inverse(b), a, b) if conjugation else (a, b))
            values = [pg.pi(w) for w in words]
            if None not in values and values[0] != values[1]:
                return swap_two_products(pg, *words)

    return build


CASES = {
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc.pg,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc.pg,
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc.pg,
    **{
        f"{name}/{kernel}": _quotient(fixture, kernel)
        for (fixture, name), kernels in KERNELS.items()
        for kernel in kernels.split()
    },
    "PG-AM20-candidate": lambda r: r.getfixturevalue("am20").as_locality().pg,
    **{
        f"{name}-{kind}-swap-{i}": _swap(fixture, kind == "conjugation", f"{name}{kind}{i}")
        for fixture, name in (("s4f", "GRP-S4"), ("s5f", "LOC-S5"))
        for kind in ("product", "conjugation")
        for i in range(3)
    },
}


def _subsets(pg, rows, rng):
    """Every singleton, its closures with and without conjugation, each
    also without its largest member, and random subsets."""
    closures = {ref.close(pg, {x}, r) for x in pg.elements() for r in ((), rows)}
    out = closures | {X - {max(X)} for X in closures if len(X) > 1}
    out |= {frozenset({x}) for x in pg.elements()}
    for _ in range(2 * pg.size):
        out.add(frozenset(rng.sample(range(pg.size), rng.randint(1, pg.size))))
    return sorted(out, key=sorted)


def _members(row):
    return frozenset(np.flatnonzero(row).tolist())


@pytest.mark.parametrize("name", list(CASES))
def test_the_masks_match_the_list_loops(request, name):
    pg = CASES[name](request)
    conj, rows = pg.conj_table(), list_tables.conj(pg)
    rng = random.Random(name)
    subsets = _subsets(pg, rows, rng)
    verdicts = set()
    for X in subsets:
        got, want = _closure_failure(pg, X), ref.closure_failure(pg, X)
        assert got == want, sorted(X)
        verdicts.add(got is None)
        for witness in (got, _conjugation_failure(pg, X)):
            assert witness is None or all(type(v) in (int, str) for v in witness)
        assert _conjugation_failure(pg, X) == ref.conjugation_failure(pg, X), sorted(X)
    assert verdicts == ({True, False} if pg.size > 1 else {True})

    last = pg.size - 1
    for c, r in ((None, ()), (conj, rows)):
        known = {ref.close(pg, {x}, r) for x in pg.elements()}
        closed = ref.close(pg, {last}, r)
        for x in pg.elements():
            assert _close(pg, {x}, c) == ref.close(pg, {x}, r), x
            assert _close(pg, {x}, c, closed=closed, known=known) == ref.close(
                pg, {x}, r, closed=closed, known=known
            ), x

    kernels = {ref.close(pg, {x}, rows) for x in pg.elements()}
    kernels |= set(rng.sample(subsets, min(3, len(subsets))))
    for K in kernels:
        right, left = _cosets(pg, K)
        for f in pg.elements():
            assert _members(right[f]) == ref.right_coset(pg, K, f), (sorted(K), f)
            assert _members(left[f]) == ref.left_coset(pg, K, f), (sorted(K), f)


def _rows(pg, subsets):
    """Each subset as a boolean row over the elements, set by set."""
    rows = np.zeros((len(subsets), pg.size), dtype=bool)
    for row, X in zip(rows, subsets):
        row[list(X)] = True
    return rows


@pytest.mark.parametrize("block", [None, 1], ids=["block-default", "block-1"])
@pytest.mark.parametrize("name", list(CASES))
def test_subset_flags_match_is_partial_normal(request, monkeypatch, name, block):
    """The flags of every subset of _subsets in one call: closed is
    _closure_failure's verdict, normal is is_partial_normal's on the
    partial group read as a locality candidate (over S = 1), on swaps that
    are no partial groups too."""
    if block is not None:
        monkeypatch.setattr(partial, "_FLAGS_BLOCK", block)
    pg = CASES[name](request)
    subsets = _subsets(pg, list_tables.conj(pg), random.Random(name))
    closed, normal = subset_flags(pg, _rows(pg, subsets))
    loc = as_locality(pg, 2, [pg.identity], [])
    assert closed.tolist() == [_closure_failure(pg, X) is None for X in subsets]
    assert normal.tolist() == [is_partial_normal(loc, X)[0] for X in subsets]
    assert set(normal.tolist()) == ({True, False} if pg.size > 1 else {True})
