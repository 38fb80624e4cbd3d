"""The table routes of check_axioms against their references.

The automaton-backed route, _table_axiom_sweep, is compared with the
per-word DFS, _dfs_axiom_sweep, which asks pg.pi and pg.in_domain of every
word: equal word counts and equal violation lists, in the same order and
under the same cap.  The total-component kernel, _vector_axiom_sweep, is
compared with the kernel it replaced, kept below as reference_vector_sweep.
"""

import numpy as np
import pytest

from localities import partial
from localities.groups import certify_group_table, generate_group
from localities.locality import LocalityConstructionError, LocalityPartialGroup
from localities.partial import (
    MAX_REPORTED_VIOLATIONS,
    GroupPartialGroup,
    _dfs_axiom_sweep,
    _table_axiom_sweep,
    _vector_axiom_sweep,
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
        conj_step_of=pg.automaton._step_of,
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
    assert report.notes == ["route: dense automaton and raw product tables"]
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


# -- the total-component kernel -------------------------------------------------


def reference_vector_sweep(elems, group, max_len):
    """_vector_axiom_sweep before the flat table and the bounded blocks."""
    out = []
    words_checked = 0
    T = group.mult
    inv = np.array(group.inv)
    m = group.order

    def digit_arrays(m, n):
        idx = np.arange(m**n)
        return [(idx // m ** (n - 1 - k)) % m for k in range(n)]

    def report(axiom, digits, bad, detail):
        for flat in bad[: partial.MAX_REPORTED_VIOLATIONS - len(out)]:
            word = tuple(elems[int(d[flat])] for d in digits)
            out.append(partial.AxiomViolation(axiom, word, detail))

    for n in range(2, max_len + 1):
        chunk_elems = m**n > 2_000_000
        first_digits = range(m) if chunk_elems else [None]
        k = n - 1 if chunk_elems else n
        digits = digit_arrays(m, k)
        R = {}
        for i in range(k):
            R[(i, i + 1)] = digits[i]
            for j in range(i + 2, k + 1):
                R[(i, j)] = T[R[(i, j - 1)], digits[j - 1]]
        for a in first_digits:
            words_checked += m**k
            if a is None:
                full = {(i, j): R[(i, j)] for i in range(k) for j in range(i + 1, k + 1)}
                digs = digits
            else:
                col = np.full(m**k, a)
                digs = [col] + digits
                full = {}
                for i in range(k):
                    for j in range(i + 1, k + 1):
                        full[(i + 1, j + 1)] = R[(i, j)]
                full[(0, 1)] = col
                for j in range(2, n + 1):
                    full[(0, j)] = T[full[(0, j - 1)], digs[j - 1]]
            total = full[(0, n)]
            e_col = np.full(total.shape, group.identity)

            def seg(i, j):
                return e_col if i == j else full[(i, j)]

            for i in range(n + 1):
                for j in range(i, n + 1):
                    if j == i + 1:
                        continue
                    val = T[T[seg(0, i), seg(i, j)], seg(j, n)]
                    bad = np.nonzero(val != total)[0]
                    if bad.size:
                        report("collapse", digs, bad, f"collapse [{i}:{j}]")
            acc = e_col
            for kk in range(n - 1, -1, -1):
                acc = T[acc, inv[digs[kk]]]
            for kk in range(n):
                acc = T[acc, digs[kk]]
            bad = np.nonzero(acc != group.identity)[0]
            if bad.size:
                report("cancellation", digs, bad, "pi(w^-1 ∘ w) != 1")
            if len(out) >= partial.MAX_REPORTED_VIOLATIONS:
                return words_checked, out
    return words_checked, out


def test_total_kernel_matches_the_reference_on_grp_s4(s4f):
    (component,) = s4f.loc.pg._vector_components()
    got = _vector_axiom_sweep(*component, 4)
    assert got == reference_vector_sweep(*component, 4)
    assert got[0] == 24**2 + 24**3 + 24**4


def test_total_kernel_matches_the_reference_on_pg_am20(am20):
    for component in am20.pg._vector_components():
        assert _vector_axiom_sweep(*component, 5) == reference_vector_sweep(*component, 5)


def tampered_s3():
    """S3 with the products 1*2 and 2*1 swapped after the table was validated."""
    G = generate_group([(1, 2, 0), (1, 0, 2)])
    assert G.mult[1, 2] != G.mult[2, 1]
    G.mult[1, 2], G.mult[2, 1] = G.mult[2, 1], G.mult[1, 2]
    return tuple(G.elements()), G


def dfs_order(violations):
    """The violations in the DFS's order: words in pre-order (a word before
    its extensions), a word's checks in the order the kernel runs them."""

    def check_index(v):
        n = len(v.word)
        spans = [(i, j) for i in range(n + 1) for j in range(i, n + 1) if j != i + 1]
        details = [f"collapse [{i}:{j}]" for i, j in spans] + ["pi(w^-1 ∘ w) != 1"]
        return details.index(v.detail)

    return sorted(violations, key=lambda v: (v.word, check_index(v)))


def capped(ordered):
    """The DFS's cap: a word's violations are all reported if fewer than
    MAX_REPORTED_VIOLATIONS came before it, and none otherwise."""
    out = []
    for v in ordered:
        if len(out) >= MAX_REPORTED_VIOLATIONS and v.word != out[-1].word:
            break
        out.append(v)
    return out


@pytest.mark.parametrize("block", [partial._SWEEP_BLOCK, 36], ids=["block-default", "block-36"])
def test_total_kernel_finds_what_the_reference_finds_on_a_tampered_table(monkeypatch, block):
    elems, G = tampered_s3()
    words = sum(6**k for k in range(2, 6))
    monkeypatch.setattr(partial, "_SWEEP_BLOCK", block)
    monkeypatch.setattr(partial, "MAX_REPORTED_VIOLATIONS", 10**9)
    ref_words, ref = reference_vector_sweep(elems, G, 5)
    got_words, got = _vector_axiom_sweep(elems, G, 5)
    assert got_words == ref_words == words
    assert len(got) > MAX_REPORTED_VIOLATIONS
    assert dfs_order(got) == got
    assert got == dfs_order(ref)
    monkeypatch.setattr(partial, "MAX_REPORTED_VIOLATIONS", MAX_REPORTED_VIOLATIONS)
    got_words, got = _vector_axiom_sweep(elems, G, 5)
    assert got_words == words
    assert got == capped(dfs_order(ref))


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

    monkeypatch.setattr(partial, "_vector_axiom_sweep", no_sweep)
    report = check_axioms(pg_of(request), max_len)
    assert report.summary() == f"axiom sweep to length {max_len}: {words} words, ok"
    assert report.notes == [certified_note(components, components)]


def test_tampered_table_is_swept_with_the_kernels_witnesses():
    elems, G = tampered_s3()
    report = check_axioms(GroupPartialGroup(G), 5)
    swept = _vector_axiom_sweep(elems, G, 5)[1]
    assert swept
    assert report.violations == swept
    assert report.notes == [certified_note(0, 1)]


def test_a_table_changed_into_another_group_is_swept():
    """Still a group, but its identity is no longer the one the kernel reads."""
    G = generate_group([(1, 2, 0), (1, 0, 2)])
    swap = np.array([1, 0, 2, 3, 4, 5])  # its own inverse
    G.mult[:] = swap[G.mult[np.ix_(swap, swap)]]
    assert certify_group_table(G.mult)[0] == 1 != G.identity
    report = check_axioms(GroupPartialGroup(G), 3)
    swept = _vector_axiom_sweep(tuple(G.elements()), G, 3)[1]
    assert swept
    assert report.violations[-len(swept):] == swept
    assert report.notes == [certified_note(0, 1)]
