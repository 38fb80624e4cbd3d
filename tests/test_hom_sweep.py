"""The product-homomorphism sweep of build_quotient against the per-word sweep.

The reference is the sweep build_quotient ran before it kept one answer per
coset word: every base domain word up to hom_len asks qpg.pi of its coset
word, in the same order and under the same cap.
"""

import pytest

from localities import partial, quotient
from localities.quotient import (
    QuotientConstructionError,
    QuotientPartialGroup,
    build_quotient,
    coset_partition,
)
from localities.report import VerificationReport


def per_word_hom_sweep(loc, qpg, rho, hom_len=3):
    mism = []

    def sweep(word, bar, state, value):
        if len(mism) > 5:
            return
        for g in loc.elements():
            nxt = loc.pg.walk_step(state, g)
            if nxt is None:
                continue
            v = g if value is None else loc.pg.mul2(value, g)
            w = word + (g,)
            b = bar + (rho[g],)
            if qpg.pi(b) != rho[v]:
                mism.append(w)
            elif len(w) < hom_len:
                sweep(w, b, nxt, v)

    sweep((), (), loc.pg.walk_start(), None)
    return mism


def _hom_record(loc, K):
    try:
        report = build_quotient(loc, K).report
    except QuotientConstructionError as exc:
        report = exc.report
    return next(c for c in report.checks if c.name == "product-homomorphism")


def _assert_matches_reference(loc, K):
    rec = _hom_record(loc, K)
    part = coset_partition(loc, K)
    mism = per_word_hom_sweep(loc, QuotientPartialGroup(loc.pg, part, loc.p), part.coset_of)
    assert rec.status == ("pass" if not mism else "fail")
    assert rec.witnesses == mism[:5]
    return rec


CASES = [
    ("s5f", "N5"),
    ("s5f", "N20"),
    ("c2s4f", "V4"),
    ("c2s4f", "A4"),
    ("c2s4f", "S4twist"),
    ("s4f", "1"),
]


@pytest.mark.parametrize("fixture,kernel", CASES)
def test_sweep_matches_per_word_reference(request, fixture, kernel):
    fix = request.getfixturevalue(fixture)
    rec = _assert_matches_reference(fix.loc, fix.subsets[kernel])
    assert rec.status == "pass"


def test_sweep_matches_per_word_reference_on_a_quotient_base(s5f):
    """A base whose pg is a QuotientPartialGroup, not a LocalityPartialGroup:
    its walker states are those of the LOC-S5 automaton it delegates to."""
    base = build_quotient(s5f.loc, s5f.subsets["N5"]).quotient
    assert isinstance(base.pg, QuotientPartialGroup)
    rec = _assert_matches_reference(base, frozenset({base.identity}))
    assert rec.status == "pass"


@pytest.mark.parametrize("block", [1, 50], ids=["block-1", "block-50"])
def test_sweep_finds_a_corrupted_coset_product_at_small_block_sizes(s4f, monkeypatch, block):
    monkeypatch.setattr(partial, "_LEVEL_BLOCK", block)
    test_sweep_finds_a_corrupted_coset_product(s4f, monkeypatch)


def test_sweep_finds_a_corrupted_coset_product(s4f, monkeypatch):
    loc, K = s4f.loc, s4f.subsets["V4"]
    bad_word = (1, 2)
    honest = QuotientPartialGroup._raw_product

    def corrupted(self, word):
        v = honest(self, word)
        return (v + 1) % self.size if word == bad_word else v

    monkeypatch.setattr(QuotientPartialGroup, "_raw_product", corrupted)
    qpg = QuotientPartialGroup(loc.pg, coset_partition(loc, K), loc.p)
    assert qpg.in_domain(bad_word)
    rec = _assert_matches_reference(loc, K)
    assert rec.status == "fail"
    assert all(tuple(qpg.rho[x] for x in w) == bad_word for w in rec.witnesses)


@pytest.mark.parametrize("fixture,kernel", CASES)
def test_pi_is_asked_once_per_coset_word(request, monkeypatch, fixture, kernel):
    fix = request.getfixturevalue(fixture)
    calls = 0
    pi = QuotientPartialGroup.pi

    def counted(self, word):
        nonlocal calls
        calls += 1
        return pi(self, word)

    monkeypatch.setattr(QuotientPartialGroup, "pi", counted)
    # the quotient's own locality check asks pi too; only the sweep is counted
    monkeypatch.setattr(quotient, "check_locality", lambda loc, max_len: VerificationReport("stub"))
    q = build_quotient(fix.loc, fix.subsets[kernel]).quotient.size
    assert 0 < calls <= q + q**2 + q**3
