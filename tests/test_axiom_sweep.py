"""The swept routes of check_axioms against the literal DFS.

Both swept routes run _table_axiom_sweep: over the automaton and raw
product tables of a partial domain, and over the group table of a total
component that fails its certificate, as a one-state automaton.  Each is
compared with the per-word DFS, _dfs_axiom_sweep, which asks pi and
in_domain of every word (for a component, those of GroupPartialGroup on its
group): equal word counts and equal violation lists, in the same order and
under the same cap.
"""

import numpy as np
import pytest

from localities import partial
from localities.groups import FiniteGroup, certify_group_table, generate_group
from localities.locality import LocalityConstructionError, LocalityPartialGroup
from localities.partial import (
    MAX_REPORTED_VIOLATIONS,
    AmalgamPartialGroup,
    AmalgamSpec,
    AxiomViolation,
    GroupPartialGroup,
    _component_tables,
    _dfs_axiom_sweep,
    _table_axiom_sweep,
    check_axioms,
)


def rebuild(pg, delta_sets=None, raw=None):
    """pg rebuilt with another Delta or another raw product table."""
    return LocalityPartialGroup(
        size=pg.size,
        identity=pg.identity,
        inv=pg._inv,
        labels=pg.labels,
        raw=pg._raw if raw is None else raw,
        raw_missing=pg._raw_missing,
        p=pg.p,
        s_elems=pg.s_elems,
        delta_sets=pg.delta_sets if delta_sets is None else delta_sets,
        conj_step_of=pg.automaton.maps.__getitem__,
    )


def minus_smallest(pg):
    smallest = min(pg.delta_sets, key=lambda P: (len(P), sorted(P)))
    return rebuild(pg, delta_sets=pg.delta_sets - {smallest})


def only_s(pg):
    return rebuild(pg, delta_sets=frozenset({frozenset(pg.s_elems)}))


def swapped(pg):
    """Two domain products of the raw table swapped: (1,1) and (1,6)."""
    table = pg.product_table()
    assert -1 < table[1][1] != table[1][6] > -1
    raw = [row[:] for row in pg._raw]
    raw[1][1], raw[1][6] = raw[1][6], raw[1][1]
    return rebuild(pg, raw=raw)


CANDIDATES = [
    ("LOC-S5", lambda pg: pg, 2, 0),
    ("LOC-S5", lambda pg: pg, 3, 0),
    ("minus-smallest", minus_smallest, 3, 201),
    ("only-S", only_s, 3, 0),
    ("swapped", swapped, 3, 200),
    ("swapped-minus-smallest", lambda pg: minus_smallest(swapped(pg)), 3, None),
]


@pytest.mark.parametrize("block", [partial._SWEEP_BLOCK, 56], ids=["block-default", "block-56"])
@pytest.mark.parametrize(
    "build, max_len, count", [c[1:] for c in CANDIDATES], ids=[f"{c[0]}-{c[2]}" for c in CANDIDATES]
)
def test_table_route_matches_the_dfs(s5f, monkeypatch, build, max_len, count, block):
    pg = build(s5f.loc.pg)
    expected = _dfs_axiom_sweep(pg, max_len)
    monkeypatch.setattr(partial, "_SWEEP_BLOCK", block)
    got = _table_axiom_sweep(pg, max_len)
    assert got is not None
    assert got[0] == expected[0] == sum(56**k for k in range(1, max_len + 1))
    assert count is None or len(got[1]) == count
    assert got[1] == expected[1]


def test_check_axioms_takes_the_table_route(s5f):
    pg = minus_smallest(s5f.loc.pg)
    report = check_axioms(pg, 3)
    assert report.notes == ["route: table sweep over the automaton and raw product tables"]
    assert report.words_checked == 178808
    # length-1 words off the domain first, then the sweep's findings
    swept = _table_axiom_sweep(pg, 3)[1]
    assert report.violations[-len(swept):] == swept
    assert {v.axiom for v in report.violations[: -len(swept)]} == {"length-1"}


def test_product_off_the_raw_table_raises_what_the_dfs_raises(s5f):
    raw = [row[:] for row in s5f.loc.pg._raw]
    raw[1][1] = -1
    pg = rebuild(s5f.loc.pg, raw=raw)
    assert _table_axiom_sweep(pg, 3) is None
    with pytest.raises(LocalityConstructionError) as dfs_error:
        _dfs_axiom_sweep(pg, 3)
    with pytest.raises(LocalityConstructionError) as error:
        check_axioms(pg, 3)
    assert str(error.value) == str(dfs_error.value)
    assert "(1,1)" in str(error.value)


def test_products_off_the_raw_table_past_the_cap_report_what_the_dfs_reports(s5f):
    # the transposed product leaves the table on some domain words, but the
    # DFS reaches its cap before it multiplies any of them
    raw = [list(row) for row in zip(*s5f.loc.pg._raw)]
    pg = minus_smallest(rebuild(s5f.loc.pg, raw=raw))
    assert _table_axiom_sweep(pg, 3) is None
    report = check_axioms(pg, 3)
    assert report.notes == ["route: per-word DFS"]
    swept = _dfs_axiom_sweep(pg, 3)[1]
    assert len(swept) == 200
    assert report.violations[-len(swept):] == swept


# -- the product table ---------------------------------------------------------


def per_pair_table(pg):
    """LocalityPartialGroup.product_table() as one in_domain walk per pair:
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
        raw=pg.product_table(),
        raw_missing=lambda a, b: KeyError((a, b)),
        p=loc.p,
        s_elems=loc.sylow,
        delta_sets=loc.delta.members,
        conj_step_of=loc.automaton.maps.__getitem__,
    )


def off_the_raw_table(pg):
    raw = [row[:] for row in pg._raw]
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
            pg.product_table()
        assert str(error.value) == str(expected.value)
    else:
        assert pg.product_table() == per_pair_table(pg)


# -- the total-component route -------------------------------------------------


def component_sweep(pg, component, max_len):
    """What check_axioms sweeps on a total component that fails its certificate."""
    return _table_axiom_sweep(pg, max_len, _component_tables(*component))


def test_total_kernel_matches_the_reference_on_grp_s4(s4f):
    pg = s4f.loc.pg
    (component,) = pg._vector_components()
    got = component_sweep(pg, component, 3)
    assert got == _dfs_axiom_sweep(GroupPartialGroup(component[1]), 3)
    assert got == (24 + 24**2 + 24**3, [])


def test_total_kernel_matches_the_reference_on_pg_am20(am20):
    for elems, group in am20.pg._vector_components():
        got = component_sweep(am20.pg, (elems, group), 3)
        assert got == _dfs_axiom_sweep(GroupPartialGroup(group), 3)


def tampered_s3():
    """S3 with the products 1*2 and 2*1 swapped after the table was validated."""
    G = generate_group([(1, 2, 0), (1, 0, 2)])
    assert G.mult[1, 2] != G.mult[2, 1]
    G.mult[1, 2], G.mult[2, 1] = G.mult[2, 1], G.mult[1, 2]
    return G


@pytest.mark.parametrize("block", [partial._SWEEP_BLOCK, 36], ids=["block-default", "block-36"])
def test_total_kernel_finds_what_the_reference_finds_on_a_tampered_table(monkeypatch, block):
    pg = GroupPartialGroup(tampered_s3())
    monkeypatch.setattr(partial, "_SWEEP_BLOCK", block)
    monkeypatch.setattr(partial, "MAX_REPORTED_VIOLATIONS", 10**9)
    dfs = _dfs_axiom_sweep(pg, 5)[1]
    assert len(dfs) > MAX_REPORTED_VIOLATIONS
    assert check_axioms(pg, 5).violations == dfs
    monkeypatch.setattr(partial, "MAX_REPORTED_VIOLATIONS", MAX_REPORTED_VIOLATIONS)
    report = check_axioms(pg, 5)
    assert report.words_checked == sum(6**k for k in range(2, 6))
    assert report.violations == _dfs_axiom_sweep(pg, 5)[1]
    # the rebracketed collapse, (u)(v)(w), also flagged words the DFS passes
    assert AxiomViolation("collapse", (1, 1, 2), "collapse [1:1] changes the product") not in dfs


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
    def no_sweep(*args):
        raise AssertionError("a certified component was swept")

    monkeypatch.setattr(partial, "_table_axiom_sweep", no_sweep)
    report = check_axioms(pg_of(request), max_len)
    assert report.summary() == f"axiom sweep to length {max_len}: {words} words, ok"
    assert report.notes == [certified_note(components, components)]


def test_tampered_table_is_swept_with_the_kernels_witnesses():
    pg = GroupPartialGroup(tampered_s3())
    report = check_axioms(pg, 5)
    dfs = _dfs_axiom_sweep(pg, 5)[1]
    assert dfs
    assert report.violations == dfs
    assert report.notes == [certified_note(0, 1)]


def test_a_table_changed_into_another_group_is_swept():
    """Still a group, but its identity is no longer the one the kernel reads."""
    G = generate_group([(1, 2, 0), (1, 0, 2)])
    swap = np.array([1, 0, 2, 3, 4, 5])  # its own inverse
    G.mult[:] = swap[G.mult[np.ix_(swap, swap)]]
    assert certify_group_table(G.mult)[0] == 1 != G.identity
    pg = GroupPartialGroup(G)
    report = check_axioms(pg, 3)
    dfs = _dfs_axiom_sweep(pg, 3)[1]
    assert dfs
    # pi((x,)) is no longer x: the length-1 check fails first
    assert {v.axiom for v in report.violations[: -len(dfs)]} == {"length-1"}
    assert report.violations[-len(dfs):] == dfs
    assert report.notes == [certified_note(0, 1)]


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
    dfs = _dfs_axiom_sweep(GroupPartialGroup(right), 3)[1]
    assert dfs
    assert report.violations == [
        AxiomViolation(v.axiom, tuple(pg.from_right[x] for x in v.word), v.detail) for v in dfs
    ]
    assert report.notes == [certified_note(1, 2)]
