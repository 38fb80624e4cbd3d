"""The state searches of check_axioms against the literal DFS.

check_axioms decides split, collapse and cancellation for words of every
length by three reachable-state searches, _axiom_searches: over the
automaton and raw product tables of a partial domain, and over the group
table of a total component that fails its certificate, as a one-state
automaton.  The per-word DFS, fault_injection.dfs_axiom_sweep, asks pi
and in_domain of every word up to a length (for a component, those of
GroupPartialGroup on its group) and is the reference: every axiom it finds failing there is
reported failing, every reported violation is one it finds on that word,
the words a search returns fail that axiom's check at their own length,
and genuine tables pass every search.
"""

import numpy as np
import pytest

from localities import partial
from localities.groups import FiniteGroup, certify_group_table, generate_group
from localities.locality import LocalityConstructionError, LocalityPartialGroup
from localities.partial import (
    AmalgamPartialGroup,
    AmalgamSpec,
    AxiomViolation,
    GroupPartialGroup,
    _axiom_searches,
    _word_violations,
    check_axioms,
)

from automaton_reference import maps as maps_of
from fault_injection import dfs_axiom_sweep
import list_tables

SEARCHED = ("split", "collapse", "cancellation")


def rebuild(pg, delta_sets=None, raw=None, inv=None):
    """pg rebuilt with no ambient group, and another Delta, another raw
    product table or other inverses."""
    return LocalityPartialGroup(
        size=pg.size,
        identity=pg.identity,
        inv=pg._inv if inv is None else inv,
        labels=pg.labels,
        raw=pg._raw[:-1, :-1] if raw is None else raw,
        raw_missing=pg._raw_missing,
        p=pg.p,
        s_elems=pg.s_elems,
        delta_sets=pg.delta_sets if delta_sets is None else delta_sets,
        conj_maps=maps_of(pg.automaton),
    )


def minus_smallest(pg):
    smallest = min(pg.delta_sets, key=lambda P: (len(P), sorted(P)))
    return rebuild(pg, delta_sets=pg.delta_sets - {smallest})


def only_s(pg):
    return rebuild(pg, delta_sets=frozenset({frozenset(pg.s_elems)}))


def swapped(pg):
    """Two domain products of the raw table swapped: (1,1) and (1,6)."""
    table = list_tables.products(pg)
    assert -1 < table[1][1] != table[1][6] > -1
    raw = pg._raw[:-1, :-1].tolist()
    raw[1][1], raw[1][6] = raw[1][6], raw[1][1]
    return rebuild(pg, raw=raw)


def right_identity_broken(pg):
    """x * 1 moved off x for the first x outside S: of the collapses, only
    the empty word inserted after x fails on the word (x,)."""
    e = pg.identity
    x = next(g for g in pg.elements() if g not in pg.s_elems)
    raw = pg._raw[:-1, :-1].tolist()
    raw[x][e] = next(v for v in raw[x] if v >= 0 and v != x)
    return rebuild(pg, raw=raw)


def dfs_axioms(pg, max_len):
    """The searched axioms the DFS finds failing on words of length <=
    max_len, with no cap on the violations it reports."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partial, "MAX_REPORTED_VIOLATIONS", 10**9)
        return {v.axiom for v in dfs_axiom_sweep(pg, max_len)[1]}


def axioms(report):
    return {v.axiom for v in report.violations if v.axiom in SEARCHED}


def assert_reported(got, failing):
    """Every axiom the DFS finds failing is reported failing, except that
    the value half of cancellation, Pi(w^-1 w) != 1, failing where its
    domain half and single letters pass, is reported as the collapse it
    follows from (reduction (V) of check_axioms)."""
    assert failing - {"cancellation"} <= got
    assert "cancellation" not in failing or got & {"cancellation", "collapse"}


def assert_confirmed(pg, violations):
    """Each violation of a searched axiom is one the DFS reports on its word."""
    for v in violations:
        if v.axiom in SEARCHED:
            assert v in _word_violations(pg, v.word), v


def search(pg):
    """(state counts, failing words) of the searches on pg's own tables."""
    return _axiom_searches(pg)


def assert_witnesses_fail(pg, first=500):
    """The words of each axiom a search returns come in shortlex order, and
    the first of them fail that axiom's DFS check at their own length."""
    _, found = search(pg)
    for axiom, words in found.items():
        assert words == sorted(set(words), key=lambda w: (len(w), w))
        for word in words[:first]:
            assert axiom in {v.axiom for v in _word_violations(pg, word)}, (axiom, word)


CANDIDATES = [
    ("LOC-S5", rebuild, 2, set()),
    ("LOC-S5", rebuild, 3, set()),
    ("minus-smallest", minus_smallest, 3, {"split", "cancellation"}),
    ("only-S", only_s, 3, set()),
    ("swapped", swapped, 3, {"collapse", "cancellation"}),
    ("swapped-minus-smallest", lambda pg: minus_smallest(swapped(pg)), 3, set(SEARCHED)),
]


_DFS_OF_CANDIDATE: dict = {}  # (name, max_len) -> dfs_axioms, shared by the block ids


@pytest.mark.parametrize("block", [partial._FIXPOINT_BLOCK, 56], ids=["block-default", "block-56"])
@pytest.mark.parametrize(
    "name, build, max_len, failing", CANDIDATES, ids=[f"{c[0]}-{c[2]}" for c in CANDIDATES]
)
def test_table_route_matches_the_dfs(s5f, monkeypatch, name, build, max_len, failing, block):
    """The verdict per axiom, against the DFS; the report does not depend on
    how many (state, letter) pairs state_fixpoint steps at once (56 is one
    state a step)."""
    pg = build(s5f.loc.pg)
    if (name, max_len) not in _DFS_OF_CANDIDATE:
        _DFS_OF_CANDIDATE[name, max_len] = dfs_axioms(pg, max_len)
    assert _DFS_OF_CANDIDATE[name, max_len] == failing
    if block == partial._FIXPOINT_BLOCK:
        assert_witnesses_fail(pg)
    default = check_axioms(pg, max_len)
    monkeypatch.setattr(partial, "_FIXPOINT_BLOCK", block)
    report = check_axioms(pg, max_len)
    assert report == default
    assert report.words_checked == sum(56**k for k in range(1, max_len + 1))
    assert axioms(report) >= failing
    assert report.ok == (name == "LOC-S5")  # the others fail length-1 or a searched axiom
    assert_confirmed(pg, report.violations)


def test_swapped_products_fail_collapse_at_every_stated_length(s5f):
    """The DFS meets the collapse failures of the swapped table only at
    length 3; the searches report them whatever the stated length."""
    pg = swapped(s5f.loc.pg)
    assert dfs_axioms(pg, 2) == {"cancellation"}
    report = check_axioms(pg, 2)
    assert axioms(report) == {"collapse", "cancellation"}
    assert_confirmed(pg, report.violations)
    assert min(len(v.word) for v in report.violations if v.axiom == "collapse") == 3


def test_the_empty_word_collapse_is_searched(s5f):
    """Only the empty segment inserted at the end fails on (x,): the first
    collapse reported has the length of the DFS's first."""
    pg = right_identity_broken(s5f.loc.pg)
    dfs = [v for v in dfs_axiom_sweep(pg, 2)[1] if v.axiom == "collapse"]
    assert min(len(v.word) for v in dfs) == 1
    collapse = [v for v in check_axioms(pg, 2).violations if v.axiom == "collapse"]
    assert len(collapse[0].word) == 1
    assert collapse[0].detail == "collapse [1:1] changes the product"
    assert_confirmed(pg, collapse)


@pytest.mark.parametrize("fixture", ["s4f", "c2s4f", "s5f"])
def test_genuine_tables_pass_every_search(request, fixture):
    """GRP-S4 and GRP-C2xS4 take Light's test in check_axioms and LOC-S5
    its ambient certificate; their own tables pass the searches too."""
    counts, found = search(request.getfixturevalue(fixture).loc.pg)
    assert found == {axiom: [] for axiom in SEARCHED}
    assert min(counts) > 0


def test_check_axioms_takes_the_table_route(s5f):
    pg = minus_smallest(s5f.loc.pg)
    report = check_axioms(pg, 3)
    assert report.notes == [
        "route: state searches over the automaton and raw product tables, every word"
        " length: split 101, collapse 1548, cancellation 12 states"
    ]
    assert report.words_checked == 178808
    # length-1 words off the domain first, then the searches' findings
    searched = [v for v in report.violations if v.axiom in SEARCHED]
    assert report.violations[-len(searched):] == searched
    assert {v.axiom for v in report.violations[: -len(searched)]} == {"length-1"}


def test_product_off_the_raw_table_raises_what_the_dfs_raises(s5f):
    raw = s5f.loc.pg._raw[:-1, :-1].tolist()
    raw[1][1] = -1
    pg = rebuild(s5f.loc.pg, raw=raw)
    with pytest.raises(LocalityConstructionError) as dfs_error:
        dfs_axiom_sweep(pg, 3)
    with pytest.raises(LocalityConstructionError) as error:
        check_axioms(pg, 3)
    assert str(error.value) == str(dfs_error.value)
    assert "(1,1)" in str(error.value)


def test_products_off_the_raw_table_past_the_dfs_cap_raise(s5f):
    """The transposed product leaves the raw table on some domain words that
    the DFS, stopped at its cap, never multiplies; the searches reach them
    and raise as padded_products() does, at a pair off the table."""
    raw = s5f.loc.pg._raw[:-1, :-1].T.tolist()
    pg = minus_smallest(rebuild(s5f.loc.pg, raw=raw))
    assert len(dfs_axiom_sweep(pg, 3)[1]) == 200
    with pytest.raises(LocalityConstructionError):
        pg.padded_products()
    with pytest.raises(LocalityConstructionError) as error:
        check_axioms(pg, 3)
    a, b = map(int, str(error.value).rpartition("(")[2].rstrip(")").split(","))
    assert raw[a][b] == -1


# -- the product table ---------------------------------------------------------


def per_pair_table(pg):
    """LocalityPartialGroup.padded_products() as one in_domain walk per pair:
    raises raw_missing at the first pair, row-major, in the domain with no
    raw product."""
    n = range(pg.size)
    return [[pg._mul_raw(a, b) if pg.in_domain((a, b)) else -1 for b in n] for a in n]


def am20_threaded(am20):
    """PG-AM20 read as a locality, as a LocalityPartialGroup over its own
    products: S_w lies in Delta on pairs whose product is undefined."""
    loc = am20.as_locality()
    pg = loc.pg
    return LocalityPartialGroup(
        size=pg.size,
        identity=pg.identity,
        inv=tuple(pg.inverse(x) for x in pg.elements()),
        labels=pg.labels,
        raw=list_tables.products(pg),
        raw_missing=lambda a, b: KeyError((a, b)),
        p=loc.p,
        s_elems=loc.sylow,
        delta_sets=loc.delta.members,
        conj_maps=maps_of(loc.automaton),
    )


def off_the_raw_table(pg):
    raw = pg._raw[:-1, :-1].tolist()
    raw[1][1] = -1
    return rebuild(pg, raw=raw)


TABLE_CASES = {
    "GRP-S4": lambda r: rebuild(r.getfixturevalue("s4f").loc.pg),
    "GRP-C2xS4": lambda r: rebuild(r.getfixturevalue("c2s4f").loc.pg),
    "LOC-S5": lambda r: rebuild(r.getfixturevalue("s5f").loc.pg),
    "PG-AM20": lambda r: am20_threaded(r.getfixturevalue("am20")),
    **{
        name: lambda r, build=build: build(r.getfixturevalue("s5f").loc.pg)
        for name, build in [
            ("minus-smallest", minus_smallest),
            ("only-S", only_s),
            ("swapped", swapped),
            ("swapped-minus-smallest", lambda pg: minus_smallest(swapped(pg))),
            ("off-the-raw-table", off_the_raw_table),
        ]
    },
}


@pytest.mark.parametrize("name", list(TABLE_CASES))
def test_product_table_matches_per_pair_walks(request, name):
    pg = TABLE_CASES[name](request)
    if name in ("PG-AM20", "off-the-raw-table"):
        with pytest.raises((KeyError, LocalityConstructionError)) as expected:
            per_pair_table(pg)
        with pytest.raises(expected.type) as error:
            list_tables.products(pg)
        assert str(error.value) == str(expected.value)
    else:
        assert list_tables.products(pg) == per_pair_table(pg)


# -- the total-component route -------------------------------------------------


def one_state_search(group):
    """What check_axioms searches on a total component that fails its certificate."""
    return _axiom_searches(GroupPartialGroup(group))


def test_total_kernel_matches_the_reference_on_grp_s4(s4f):
    (component,) = s4f.loc.pg._vector_components()
    assert one_state_search(component[1])[1] == {axiom: [] for axiom in SEARCHED}
    assert dfs_axiom_sweep(GroupPartialGroup(component[1]), 3) == (24 + 24**2 + 24**3, [])


def test_total_kernel_matches_the_reference_on_pg_am20(am20):
    for _, group in am20.pg._vector_components():
        assert one_state_search(group)[1] == {axiom: [] for axiom in SEARCHED}
        assert dfs_axiom_sweep(GroupPartialGroup(group), 3)[1] == []


def tampered_s3():
    """S3 with the products 1*2 and 2*1 swapped after the table was validated."""
    G = generate_group([(1, 2, 0), (1, 0, 2)])
    assert G.mult[1, 2] != G.mult[2, 1]
    G.mult[1, 2], G.mult[2, 1] = G.mult[2, 1], G.mult[1, 2]
    return G


@pytest.mark.parametrize("block", [partial._FIXPOINT_BLOCK, 36], ids=["block-default", "block-36"])
def test_total_kernel_finds_what_the_reference_finds_on_a_tampered_table(monkeypatch, block):
    pg = GroupPartialGroup(tampered_s3())
    default = check_axioms(pg, 5)
    monkeypatch.setattr(partial, "_FIXPOINT_BLOCK", block)
    report = check_axioms(pg, 5)
    assert report == default
    assert report.words_checked == sum(6**k for k in range(2, 6))
    assert axioms(report) == {"collapse"}
    assert_reported(axioms(report), dfs_axioms(pg, 5))
    assert_confirmed(pg, report.violations)
    for axiom, words in one_state_search(pg.group)[1].items():
        for word in words:
            assert axiom in {v.axiom for v in _word_violations(pg, word)}, (axiom, word)


# -- the group-table certificate on total components ---------------------------


def certified_note(proved, total):
    return (
        f"route: group-table certificate (Light's test) on {proved} of {total}"
        f" total component(s), vectorized sweep on {total - proved}"
    )


@pytest.mark.parametrize(
    "pg_of, max_len, words, components",
    [
        (lambda request: request.getfixturevalue("c2s4f").loc.pg, 4, 5421312, 1),
        (lambda request: request.getfixturevalue("am20").pg, 5, 1155904, 2),
    ],
    ids=["GRP-C2xS4-4", "PG-AM20-5"],
)
def test_certified_components_sweep_no_word(request, monkeypatch, pg_of, max_len, words, components):
    def no_search(*args):
        raise AssertionError("a certified component was searched")

    monkeypatch.setattr(partial, "_axiom_searches", no_search)
    report = check_axioms(pg_of(request), max_len)
    assert report.summary() == f"axiom sweep to length {max_len}: {words} words, ok"
    assert report.notes == [certified_note(components, components)]


def z3_with_inverses(inv):
    """Z3 as a locality with S = Z3 and Delta = {S}: a total domain, and a
    table that is a group whatever inverses it holds."""
    return LocalityPartialGroup(
        size=3, identity=0, inv=inv, labels=("0", "1", "2"),
        raw=np.add.outer(range(3), range(3)) % 3, raw_missing=lambda a, b: KeyError((a, b)),
        p=3, s_elems=(0, 1, 2), delta_sets=frozenset({frozenset({0, 1, 2})}),
        conj_maps=np.tile(np.arange(3), (3, 1)),
    )


def s4_with_inverses_swapped(s4f):
    """GRP-S4 rebuilt with the inverses of two pairs of inverse 3-cycles
    swapped between the pairs: inversion stays an involution."""
    pg = s4f.loc.pg
    threes = [x for x in pg.elements() if x != pg.identity and pg.pi((x, x, x)) == pg.identity]
    a, b = threes[0], pg.inverse(threes[0])
    c = next(x for x in threes if x not in (a, b))
    d = pg.inverse(c)
    inv = list(pg._inv)
    inv[a], inv[b], inv[c], inv[d] = c, d, a, b
    return rebuild(pg, inv=tuple(inv)), sorted({a, b, c, d})


@pytest.mark.parametrize("case", ["Z3", "GRP-S4"])
def test_a_total_component_with_other_inverses_fails_cancellation(s4f, case):
    """Light's test proves the table a group; each x whose held inverse is
    not its group inverse fails cancellation on (x,), where Pi(x^-1 x) is
    not the identity, and nothing else fails."""
    if case == "Z3":
        pg, moved = z3_with_inverses((0, 1, 2)), [1, 2]
    else:
        pg, moved = s4_with_inverses_swapped(s4f)
    assert check_axioms(z3_with_inverses((0, 2, 1)), 3).ok
    report = check_axioms(pg, 3)
    assert report.notes == [certified_note(1, 1)]
    assert report.violations == [
        AxiomViolation("cancellation", (x,), "pi(w^-1 ∘ w) != 1") for x in moved
    ]
    assert_confirmed(pg, report.violations)


def test_tampered_table_is_swept_with_the_kernels_witnesses():
    pg = GroupPartialGroup(tampered_s3())
    report = check_axioms(pg, 5)
    assert axioms(report) == {"collapse"}
    assert_reported(axioms(report), dfs_axioms(pg, 5))
    assert_confirmed(pg, report.violations)
    assert report.notes == [
        certified_note(0, 1),
        "state searches on a component of 6 elements, every word length:"
        " split 3, collapse 55, cancellation 1 states",
    ]


def test_a_table_changed_into_another_group_is_swept():
    """Still a group, but its identity is no longer the one the kernel reads."""
    G = generate_group([(1, 2, 0), (1, 0, 2)])
    swap = np.array([1, 0, 2, 3, 4, 5])  # its own inverse
    G.mult[:] = swap[G.mult[np.ix_(swap, swap)]]
    assert certify_group_table(G.mult)[0] == 1 != G.identity
    pg = GroupPartialGroup(G)
    report = check_axioms(pg, 3)
    searched = [v for v in report.violations if v.axiom in SEARCHED]
    assert_reported(axioms(report), dfs_axioms(pg, 3))
    assert_confirmed(pg, searched)
    # pi((x,)) is no longer x: the length-1 check fails first
    assert {v.axiom for v in report.violations[: -len(searched)]} == {"length-1"}
    assert report.violations[-len(searched):] == searched
    assert report.notes[0] == certified_note(0, 1)


def test_a_component_table_with_an_id_outside_it_is_refused():
    G = generate_group([(1, 2, 0), (1, 0, 2)])
    G.mult[1, 2] = -1
    with pytest.raises(ValueError, match="product outside it"):
        check_axioms(GroupPartialGroup(G), 3)


def test_a_tampered_amalgam_side_is_swept_in_the_amalgams_ids(am20):
    """The right side's violations, as the DFS finds them on its own group,
    read back through from_right; the left side is still certified."""
    spec = am20.spec
    right = FiniteGroup(spec.right.mult.copy())
    pg = AmalgamPartialGroup(AmalgamSpec(spec.left, right, spec.pairing))
    a, b = 1, 2
    assert right.mult[a, b] != right.mult[b, a]
    right.mult[a, b], right.mult[b, a] = right.mult[b, a], right.mult[a, b]
    report = check_axioms(pg, 3)
    side = GroupPartialGroup(right)
    to_right = {x: j for j, x in enumerate(pg.from_right)}
    assert axioms(report) == {"collapse"}
    assert_reported(axioms(report), dfs_axioms(side, 3))
    assert_confirmed(side, [
        AxiomViolation(v.axiom, tuple(to_right[x] for x in v.word), v.detail)
        for v in report.violations
    ])
    assert report.notes[0] == certified_note(1, 2)
