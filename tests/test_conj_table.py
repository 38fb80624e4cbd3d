"""The per-instance conjugation table against conjugates taken through pi.

Every table backend gathers its table; it must hold pi((f^-1, x, f)) on
every builtin, on the quotients of all 18 kernels, on a group and an
amalgam built directly, and raise as the pi loop does where a conjugation
word's fold leaves the raw product.

The reference for _conjugation_failure is the loop the table replaced: it
asks pi((f^-1, x, f)) once per member x and element f, in sorted x, then f.
"""

import pytest

from localities.locality import LocalityConstructionError, LocalityPartialGroup
from localities.normal import is_partial_normal
from localities.partial import (
    AmalgamPartialGroup,
    GroupPartialGroup,
    _conjugation_failure,
    classify_subset,
    partial_subgroup_closure,
    subset_product,
)
from localities.quotient import build_quotient

from automaton_reference import maps as maps_of
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


KERNELS = {
    ("s4f", "GRP-S4"): "1 V4 A4 L",
    ("c2s4f", "GRP-C2xS4"): "1 C2 V4 C2xV4 A4 S4 S4twist C2xA4 L",
    ("s5f", "LOC-S5"): "1 N5 N20 N28 L",
}


def _quotient(fixture, kernel):
    def build(r):
        f = r.getfixturevalue(fixture)
        return build_quotient(f.loc, f.subsets[kernel]).quotient.pg

    return build


PARTIAL_GROUPS = {
    **{
        f"{name}/{kernel}": _quotient(fixture, kernel)
        for (fixture, name), kernels in KERNELS.items()
        for kernel in kernels.split()
    },
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc.pg,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc.pg,
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc.pg,
    "PG-AM20": lambda r: r.getfixturevalue("am20").pg,
    "LOC-S5/N5": lambda r: r.getfixturevalue("s5_mod_n5"),
    "GRP-S4-corrupted": lambda r: _v4_escape(r.getfixturevalue("s4f"))[0],
    "GroupPartialGroup-S4": lambda r: GroupPartialGroup(r.getfixturevalue("s4f").group),
    "AmalgamPartialGroup-PG-AM20": lambda r: AmalgamPartialGroup(r.getfixturevalue("am20").spec),
}


@pytest.mark.parametrize("name", list(PARTIAL_GROUPS))
def test_conj_table_matches_pi(request, name):
    pg = PARTIAL_GROUPS[name](request)
    table = pg.conj_table()
    assert table.shape == (pg.size + 1, pg.size + 1)
    assert (table[-1] == -1).all() and (table[:, -1] == -1).all()
    for x in pg.elements():
        for f in pg.elements():
            v = pg.pi((pg.inverse(f), x, f))
            assert table[x][f] == (-1 if v is None else v), (x, f)


def _with_raw(pg, changes):
    """pg rebuilt with the raw products changes[(a, b)] (-1: none)."""
    raw = pg._raw[:-1, :-1].tolist()
    for (a, b), v in changes.items():
        raw[a][b] = v
    return LocalityPartialGroup(
        size=pg.size, identity=pg.identity, inv=pg._inv, labels=pg.labels, raw=raw,
        raw_missing=pg._raw_missing, p=pg.p, s_elems=pg.s_elems, delta_sets=pg.delta_sets,
        conj_maps=maps_of(pg.automaton),
    )


def _outcome(build):
    try:
        return build()
    except LocalityConstructionError as exc:
        return str(exc)


def _a_middle_pair(pg):
    """(f^-1, x) for the first x outside S and f other than the identity
    with x^f defined: the second pair of the fold of (f^-1, x, f)."""
    x, f = next((x, f) for x in pg.elements() for f in pg.elements()
                if x not in pg.s_elems and f != pg.identity and pg.conj_table()[x][f] >= 0)
    return pg.inverse(f), x


def _left_identity_moved(pg):
    """1 * x = y for the first two elements x, y outside S: pi((x, b)) is
    then (1 x) b = y b, where the raw product x b is not."""
    x, y = [g for g in pg.elements() if g not in pg.s_elems][:2]
    return {(pg.identity, x): y}


def _pi_loop(pg, table):
    """The table as pi gives it, one word per entry in row-major order:
    (a, b) at row a and column b, or (f^-1, x, f) at row x and column f."""
    word = {"product_table": lambda r, c: (r, c),
            "conj_table": lambda r, c: (pg.inverse(c), r, c)}[table]
    n = pg.elements()
    return [[-1 if (v := pg.pi(word(r, c))) is None else v for c in n] for r in n]


# the gathered array each table names
GATHERS = {"product_table": "padded_products", "conj_table": "conj_table"}


RAW_CHANGES = {
    "off-the-raw-table": lambda pg: {(1, 1): -1},
    "middle": lambda pg: {_a_middle_pair(pg): -1},
    "both": lambda pg: {(1, 1): -1, _a_middle_pair(pg): -1},
    "left-identity-moved": _left_identity_moved,
}


@pytest.mark.parametrize("table", ["product_table", "conj_table"])
@pytest.mark.parametrize("change", list(RAW_CHANGES))
def test_a_gathered_table_is_what_the_pi_loop_gives_or_raises(s5f, change, table):
    """The gather folds each word over the raw product from the identity,
    as pi does; where a domain word's fold meets a removed entry it raises
    at the first such word, row-major, at its first such pair."""
    pg = s5f.loc.pg
    changes = RAW_CHANGES[change](pg)
    pi_loop = _outcome(lambda: _pi_loop(_with_raw(pg, changes), table))
    if change != "left-identity-moved":
        assert any(f"({a},{b})" in pi_loop for a, b in changes)
    gathered = getattr(_with_raw(pg, changes), GATHERS[table])
    assert _outcome(lambda: gathered()[:-1, :-1].tolist()) == pi_loop


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
    loc.pg.padded_products()

    def no_pi(self, word):
        raise AssertionError(f"pi called on {word}")

    monkeypatch.setattr(type(loc.pg), "pi", no_pi)
    for name in ("N5", "N20", "N28"):
        N = s5f.subsets[name]
        assert classify_subset(loc.pg, N, p=loc.p).is_partial_normal, name
        assert is_partial_normal(loc, N) == (True, None), name
