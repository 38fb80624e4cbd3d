"""The ambient-group route of check_axioms.

A LocalityPartialGroup built by locality_from_group knows its group M and
the ids of L in M, and check_axioms proves the axioms from them
(LocalityPartialGroup.certify_ambient).  Each negative control below
breaks one hypothesis of that proof: the certificate must refuse, naming
the hypothesis, and check_axioms must then report exactly what it reports
on the same tables with no ambient group (a violation list or an error).
On every variant the certificate accepts, the literal DFS finds nothing.
"""

import json

import pytest

from localities import cli, partial
from localities.groups import FiniteGroup
from localities.locality import LocalityPartialGroup
from localities.model import parse_model
from localities.partial import _axiom_searches, _base_axiom_checks, _dfs_axiom_sweep, check_axioms

AMBIENT_ROUTE = "route: ambient-group certificate (L is L_Delta(M) of its group M)"
LIGHT_ROUTE = (
    "route: group-table certificate (Light's test) on {n} of {n} total component(s),"
    " vectorized sweep on 0"
)
SEARCH_ROUTE = (
    "route: state searches over the automaton and raw product tables, every word length:"
    " split 115, collapse 2282, cancellation 14 states"
)


def rebuild(pg, ambient, **fields):
    """pg as a new LocalityPartialGroup with the given ambient group and
    any constructor argument replaced."""
    args = dict(
        size=pg.size,
        identity=pg.identity,
        inv=pg._inv,
        labels=pg.labels,
        raw=pg._raw[:-1, :-1],
        raw_missing=pg._raw_missing,
        p=pg.p,
        s_elems=pg.s_elems,
        delta_sets=pg.delta_sets,
        conj_maps=pg.automaton.maps,
    )
    args.update(fields)
    return LocalityPartialGroup(**args, ambient=ambient)


def outcome(pg, max_len=3):
    """(violations, notes) of check_axioms, or the error it raises."""
    try:
        report = check_axioms(pg, max_len)
    except Exception as exc:  # compared, type and message, with the other route
        return type(exc), str(exc)
    return report.violations, report.notes


# -- negative controls: one hypothesis broken at a time -------------------------


def swapped_raw(pg, ambient):
    """Two domain products swapped: (1,1) and (1,6)."""
    raw = pg._raw[:-1, :-1].tolist()
    assert -1 < raw[1][1] != raw[1][6] > -1
    raw[1][1], raw[1][6] = raw[1][6], raw[1][1]
    return rebuild(pg, ambient, raw=raw)


def minus_smallest(pg, ambient):
    smallest = min(pg.delta_sets, key=lambda P: (len(P), sorted(P)))
    return rebuild(pg, ambient, delta_sets=pg.delta_sets - {smallest})


def no_order_4(pg, ambient):
    """Delta without its members of order 4: still closed under conjugation."""
    return rebuild(pg, ambient, delta_sets=frozenset(P for P in pg.delta_sets if len(P) != 4))


def changed_map(pg, ambient):
    """The first element outside S no longer carries the first S position
    that it keeps inside S."""
    maps = [list(m) for m in pg.automaton.maps]
    g = next(g for g in pg.elements() if g not in pg.s_elems)
    i = next(i for i, c in enumerate(maps[g]) if c >= 0)
    maps[g][i] = -1
    return rebuild(pg, ambient, conj_maps=maps)


def changed_mult(pg, ambient):
    """M copied, L built over the copy, then one entry of its table changed."""
    M, to_ambient = ambient
    copy = FiniteGroup(M.mult.copy(), labels=M.labels)
    out = rebuild(pg, (copy, to_ambient))
    a, b = to_ambient[1], to_ambient[2]
    copy.mult[a, b] = copy.mult[a, to_ambient[3]]
    return out


def element_left_out(pg, ambient):
    """L without its first involution outside S, although S_g is in Delta."""
    M, to_ambient = ambient
    x = next(g for g in pg.elements() if g not in pg.s_elems and pg.inverse(g) == g)
    keep = [g for g in pg.elements() if g != x]
    new = {g: i for i, g in enumerate(keep)}
    raw = [[new.get(pg._raw[a][b], -1) for b in keep] for a in keep]
    maps = [pg.automaton.maps[g] for g in keep]
    return rebuild(
        pg,
        (M, tuple(to_ambient[g] for g in keep)),
        size=len(keep),
        identity=new[pg.identity],
        inv=tuple(new[pg.inverse(g)] for g in keep),
        labels=tuple(pg.labels[g] for g in keep),
        raw=raw,
        s_elems=tuple(new[s] for s in pg.s_elems),
        delta_sets=frozenset(frozenset(new[s] for s in P) for P in pg.delta_sets),
        conj_maps=maps,
    )


BROKEN = [
    ("swapped-raw", swapped_raw, "(H2) the raw products are not M's restricted to L"),
    ("minus-smallest", minus_smallest, "(H4) Delta is not closed under conjugation in L"),
    ("no-order-4", no_order_4, "(H4) Delta is not closed under overgroups in S"),
    ("changed-map", changed_map, "(H3) an automaton map is not conjugation in M"),
    ("changed-mult", changed_mult, "(H1) "),
    ("element-left-out", element_left_out, "(H5) an element g of M with S_g in Delta is not in L"),
]


@pytest.mark.parametrize("build, refusal", [b[1:] for b in BROKEN], ids=[b[0] for b in BROKEN])
def test_a_broken_hypothesis_is_refused_and_swept_as_before(s5f, build, refusal):
    pg = s5f.loc.pg
    broken = build(pg, pg.ambient)
    with pytest.raises(ValueError) as error:
        broken.certify_ambient()
    assert str(error.value).startswith(refusal)
    today = outcome(rebuild(broken, None))
    got = outcome(broken)
    if isinstance(today[0], type):  # the same error, raised by the fallback
        assert got == today
    else:
        assert got[0] == today[0]
        assert got[1] == today[1] + [f"ambient-group certificate refused: {error.value}"]


def test_the_negative_controls_fail_on_their_tables(s5f):
    """Each control above but the changed table of M is a broken partial
    group on its own, so its refusal is not the certificate's only guard."""
    pg = s5f.loc.pg
    found = {}
    for name, build, _ in BROKEN:
        got = outcome(rebuild(build(pg, pg.ambient), None))
        found[name] = got[1] if isinstance(got[0], type) else len(got[0])
    assert found["swapped-raw"] == 201
    assert found["minus-smallest"] == 272  # 16 length-1 words and 256 searched
    assert found["no-order-4"] > 0
    assert found["changed-map"] > 0
    assert found["changed-mult"] == 0
    assert "domain product escapes the element set" in found["element-left-out"]


def test_tables_changed_after_construction_are_refused(s5f):
    pg = s5f.loc.pg
    tampered = rebuild(pg, pg.ambient)
    tampered.in_delta[1] = not tampered.in_delta[1]
    with pytest.raises(ValueError, match=r"^\(H3\) the start sets or the Delta mask"):
        tampered.certify_ambient()
    tampered = rebuild(pg, pg.ambient)
    tampered.automaton.rows[0][1] = 0
    with pytest.raises(ValueError, match=r"^\(H3\) the automaton states or rows are malformed"):
        tampered.certify_ambient()
    tampered = rebuild(pg, pg.ambient)
    auto = tampered.automaton
    auto.rows[0][1] = auto.array[0, 1] = (auto.rows[0][1] + 1) % len(auto.states)
    with pytest.raises(ValueError, match=r"^\(H3\) the automaton rows do not follow"):
        tampered.certify_ambient()


# -- variants the certificate accepts ------------------------------------------


ACCEPTED = [
    ("LOC-S5", lambda pg: pg),
    ("only-S", lambda pg: rebuild(pg, pg.ambient, delta_sets=frozenset({frozenset(pg.s_elems)}))),
    (
        "order-at-least-4",
        lambda pg: rebuild(
            pg, pg.ambient, delta_sets=frozenset(P for P in pg.delta_sets if len(P) >= 4)
        ),
    ),
]


@pytest.mark.parametrize("build", [a[1] for a in ACCEPTED], ids=[a[0] for a in ACCEPTED])
def test_an_accepted_variant_has_no_violation_the_dfs_finds(s5f, build):
    pg = build(s5f.loc.pg)
    pg.certify_ambient()
    base: list = []
    _base_axiom_checks(pg, base)
    assert outcome(pg) == (base, [AMBIENT_ROUTE])
    assert _dfs_axiom_sweep(pg, 3) == (sum(56**k for k in range(1, 4)), [])


def test_loc_s5_at_the_default_length_sweeps_no_word(monkeypatch, capsys):
    def no_sweep(*args):
        raise AssertionError("a word sweep started")

    for kernel in ("_axiom_searches", "_dfs_axiom_sweep"):
        monkeypatch.setattr(partial, kernel, no_sweep)
    assert cli.main(["pg-check", "--builtin", "LOC-S5", "--format", "json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["detail"] == f"axiom sweep to length 4: 10013304 words, ok; {AMBIENT_ROUTE}"


@pytest.mark.parametrize(
    "builtin, route",
    [
        ("LOC-S5", AMBIENT_ROUTE),
        ("GRP-S4", LIGHT_ROUTE.format(n=1)),
        ("GRP-C2xS4", LIGHT_ROUTE.format(n=1)),
        ("PG-AM20", LIGHT_ROUTE.format(n=2)),
    ],
    ids=["LOC-S5", "GRP-S4", "GRP-C2xS4", "PG-AM20"],
)
def test_pg_check_names_the_route_of_each_builtin(capsys, builtin, route):
    argv = ["pg-check", "--builtin", builtin, "--max-word-len", "3", "--format", "json"]
    assert cli.main(argv) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["detail"].endswith(f" words, ok; {route}")


# -- files with no ambient group -----------------------------------------------


@pytest.mark.parametrize(
    "kernel, route", [("N5", LIGHT_ROUTE.format(n=1)), ("1", SEARCH_ROUTE)], ids=["N5", "1"]
)
def test_an_emitted_quotient_falls_back_to_the_swept_routes(tmp_path, capsys, kernel, route):
    """A plocality file holds no group: the LOC-S5/N5 quotient has a total
    domain and takes Light's test, the quotient by 1 a partial one and
    the state searches; both pass, as the DFS does, and the tables of both
    pass the searches."""
    path = tmp_path / "q.model"
    argv = ["quotient", "--builtin", "LOC-S5", "--kernel", kernel, "--emit", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    (loc,) = parse_model(path).localities.values()
    assert loc.pg.ambient is None
    report = check_axioms(loc.pg, 3)
    assert report.notes == [route]
    assert report.violations == _dfs_axiom_sweep(loc.pg, 3)[1] == []
    pg = loc.pg
    found = _axiom_searches(pg)[1]
    assert found == {"split": [], "collapse": [], "cancellation": []}

