"""The per-instance conjugation table against conjugates taken through pi.

The reference for _conjugation_failure is the loop the table replaced: it
asks pi((f^-1, x, f)) once per member x and element f, in sorted x, then f.
"""

import pytest

from localities.normal import is_partial_normal
from localities.partial import (
    _conjugation_failure,
    classify_subset,
    partial_subgroup_closure,
    subset_product,
)
from localities.quotient import build_quotient

from fault_injection import CorruptedProducts


def pi_conjugation_failure(pg, X):
    for x in sorted(X):
        for f in pg.elements():
            v = pg.pi((pg.inverse(f), x, f))
            if v is not None and v not in X:
                return (x, f, v)
    return None


@pytest.fixture(scope="module")
def s5_mod_n5(s5f):
    return build_quotient(s5f.loc, s5f.subsets["N5"]).quotient.pg


def _v4_escape(s4f):
    """(pg, x, f, v): GRP-S4 with x^f for one x in V4 moved outside V4."""
    base = s4f.loc.pg
    V4 = s4f.subsets["V4"]
    x = min(V4 - {base.identity})
    f = max(base.elements())
    v = min(frozenset(base.elements()) - V4)
    pg = CorruptedProducts(base, {(base.inverse(f), x, f): v})
    return pg, x, f, v


PARTIAL_GROUPS = {
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc.pg,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc.pg,
    "PG-AM20": lambda r: r.getfixturevalue("am20").pg,
    "LOC-S5/N5": lambda r: r.getfixturevalue("s5_mod_n5"),
    "GRP-S4-corrupted": lambda r: _v4_escape(r.getfixturevalue("s4f"))[0],
}


@pytest.mark.parametrize("name", list(PARTIAL_GROUPS))
def test_conj_table_matches_pi(request, name):
    pg = PARTIAL_GROUPS[name](request)
    table = pg.conj_table()
    assert len(table) == pg.size
    for x in pg.elements():
        for f in pg.elements():
            v = pg.pi((pg.inverse(f), x, f))
            assert table[x][f] == (-1 if v is None else v), (x, f)


def test_corrupted_conjugate_is_the_classify_witness(s4f):
    pg, x, f, v = _v4_escape(s4f)
    assert pg.conj_table()[x][f] == v
    handle = classify_subset(pg, s4f.subsets["V4"])
    assert handle.is_partial_subgroup and not handle.is_partial_normal
    assert handle.witness == ("conjugation", x, f, v)


def _reference_subsets(request):
    for name in ("s5f", "c2s4f"):
        pg = request.getfixturevalue(name).loc.pg
        for x in pg.elements():
            yield pg, partial_subgroup_closure(pg, [x])
    am20 = request.getfixturevalue("am20")
    M, N = am20.subsets["M"], am20.subsets["N"]
    for X in (M, N, subset_product(am20.pg, [M, N])):
        yield am20.pg, X


def test_conjugation_failure_matches_the_pi_loop(request):
    verdicts = []
    for pg, X in _reference_subsets(request):
        got = _conjugation_failure(pg, X)
        assert got == pi_conjugation_failure(pg, X), sorted(X)
        verdicts.append(got is None)
    # both verdicts occur, so the comparison is not all of one kind
    assert any(verdicts) and not all(verdicts)


def test_classification_reads_only_the_table(s5f, monkeypatch):
    loc = s5f.loc
    loc.conj_table()
    loc.pg.product_table()

    def no_pi(self, word):
        raise AssertionError(f"pi called on {word}")

    monkeypatch.setattr(type(loc.pg), "pi", no_pi)
    for name in ("N5", "N20", "N28"):
        N = s5f.subsets[name]
        assert classify_subset(loc.pg, N, p=loc.p).is_partial_normal, name
        assert is_partial_normal(loc, N) == (True, None), name
