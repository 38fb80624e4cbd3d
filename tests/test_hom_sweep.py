"""The product-homomorphism check of build_quotient against the per-word sweep.

build_quotient decides the check on base domain words of every length by a
state_fixpoint search.  The reference asks qpg.pi of the coset word of
every base domain word up to length 3, one word at a time.  Both must give
the same verdict, and every word the fixpoint reports must fail the
per-word predicate.
"""

import pytest

from localities import quotient
from localities.normal import partial_normals
from localities.quotient import (
    QuotientConstructionError,
    QuotientPartialGroup,
    _homomorphism_failures,
    build_quotient,
    coset_partition,
)

from fault_injection import with_representatives
import list_tables


def per_word_hom_sweep(loc, qpg, rho, hom_len=3):
    mism = []
    start, walk = list_tables.walk(loc.pg)

    def sweep(word, bar, state, value):
        if len(mism) > 5:
            return
        for g in loc.elements():
            nxt = walk(state, g)
            if nxt is None:
                continue
            v = g if value is None else loc.pg.mul2(value, g)
            w = word + (g,)
            b = bar + (rho[g],)
            if qpg.pi(b) != rho[v]:
                mism.append(w)
            elif len(w) < hom_len:
                sweep(w, b, nxt, v)

    sweep((), (), start, None)
    return mism


def fails_per_word(loc, qpg, word):
    """The reference's predicate: word is a base domain word whose coset
    word is off the quotient domain or has the wrong product."""
    return loc.pg.in_domain(word) and qpg.pi(tuple(qpg.rho[x] for x in word)) != qpg.rho[
        loc.pg.pi(word)
    ]


def _hom_record(loc, K):
    try:
        report = build_quotient(loc, K).report
    except QuotientConstructionError as exc:
        report = exc.report
    return next(c for c in report.checks if c.name == "product-homomorphism")


def _assert_matches_reference(loc, K):
    rec = _hom_record(loc, K)
    part = coset_partition(loc, K)
    qpg = QuotientPartialGroup(loc, part)
    mism = per_word_hom_sweep(loc, qpg, part.coset_of)
    assert rec.status == ("pass" if not mism else "fail")
    assert all(fails_per_word(loc, qpg, w) for w in rec.witnesses)
    return rec


# every partial normal subgroup of the three localities, by fixture name
CASES = [
    ("s5f", "N5"),
    ("s5f", "N20"),
    ("c2s4f", "V4"),
    ("c2s4f", "A4"),
    ("c2s4f", "S4twist"),
    ("s4f", "1"),
    ("s4f", "V4"),
    ("s4f", "A4"),
    ("s4f", "L"),
    ("c2s4f", "1"),
    ("c2s4f", "C2"),
    ("c2s4f", "C2xV4"),
    ("c2s4f", "S4"),
    ("c2s4f", "C2xA4"),
    ("c2s4f", "L"),
    ("s5f", "1"),
    ("s5f", "N28"),
    ("s5f", "L"),
]


@pytest.mark.parametrize("fixture", ["s4f", "c2s4f", "s5f"])
def test_cases_name_every_partial_normal_subgroup(request, fixture):
    fix = request.getfixturevalue(fixture)
    named = {fix.subsets[k] for name, k in CASES if name == fixture}
    assert named == {h.members for h in partial_normals(fix.loc)}


@pytest.mark.parametrize("fixture,kernel", CASES)
def test_sweep_matches_per_word_reference(request, fixture, kernel):
    fix = request.getfixturevalue(fixture)
    rec = _assert_matches_reference(fix.loc, fix.subsets[kernel])
    assert rec.status == "pass"
    assert rec.detail.startswith("bar(pi(v)) = pi(bar(v)) on all domain words (")


def test_sweep_matches_per_word_reference_on_a_quotient_base(s5f):
    """A base whose pg is a QuotientPartialGroup: its tables are gathered
    from LOC-S5's, and its walker is its own threading automaton."""
    base = build_quotient(s5f.loc, s5f.subsets["N5"]).quotient
    assert isinstance(base.pg, QuotientPartialGroup)
    for K in (h.members for h in partial_normals(base)):
        rec = _assert_matches_reference(base, K)
        assert rec.status == "pass"


def _mutated(loc, K, coset, rep):
    """The quotient by K with the representative of one coset replaced."""
    part = coset_partition(loc, K)
    reps = [rec.base for rec in part.maximal]
    reps[coset] = rep
    return QuotientPartialGroup(loc, with_representatives(part, reps))


def test_sweep_finds_a_corrupted_coset_product(s5f, monkeypatch):
    """LOC-S5 / N5 with the identity coset represented by 26, another member
    of N5: both sweeps read the representatives, and both fail."""
    loc, K = s5f.loc, s5f.subsets["N5"]
    assert 26 in K
    qpg = _mutated(loc, K, 0, 26)
    states, words = _homomorphism_failures(loc.pg, qpg)
    assert (states, len(words)) == (112, 256)
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert all(fails_per_word(loc, qpg, w) for w in words)
    assert per_word_hom_sweep(loc, qpg, qpg.rho)

    class Mutated(QuotientPartialGroup):
        def __init__(self, base, part):
            super().__init__(base, with_representatives(part, qpg.reps))

    monkeypatch.setattr(quotient, "QuotientPartialGroup", Mutated)
    rec = _hom_record(loc, K)
    assert rec.status == "fail"
    assert rec.witnesses == words[:5]


@pytest.mark.parametrize("kernel,rep", [("N20", 7), ("N28", 3)])
def test_another_identity_representative_in_the_kernel_passes_both_sweeps(s5f, kernel, rep):
    loc, K = s5f.loc, s5f.subsets[kernel]
    assert rep in K
    qpg = _mutated(loc, K, 0, rep)
    assert _homomorphism_failures(loc.pg, qpg)[1] == []
    assert per_word_hom_sweep(loc, qpg, qpg.rho) == []
