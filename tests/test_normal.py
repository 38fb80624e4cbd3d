import pytest

from localities import normal
from localities.groups import SizeCapExceeded
from localities.normal import (
    enumerate_partial_normals,
    is_partial_normal,
    partial_normal_closure,
    partial_normals,
    product_theorem1,
    product_theorem2,
)
from localities.partial import classify_subset, subset_product

import _frozen as frozen
from oracle import OGroup, o_normal_subgroups
from theorem_checks import strongly_closed_and_T


def test_trivial_and_full_are_partial_normal(s4f):
    loc = s4f.loc
    ok, wit = is_partial_normal(loc, {loc.identity})
    assert ok and wit is None
    ok, wit = is_partial_normal(loc, frozenset(loc.elements()))
    assert ok and wit is None


def test_a4_is_partial_normal_single_sylow_is_not(s4f):
    loc = s4f.loc
    ok, _ = is_partial_normal(loc, s4f.subsets["A4"])
    assert ok
    ok, wit = is_partial_normal(loc, loc.sylow_set)
    assert not ok
    x, f, img = wit
    assert x in loc.sylow_set and img not in loc.sylow_set


def test_closure_of_nothing(s4f):
    assert partial_normal_closure(s4f.loc, []).members == {s4f.loc.identity}
    assert partial_normal_closure(s4f.loc, [s4f.loc.identity]).members == {
        s4f.loc.identity
    }


def test_closure_examples_s4(s4f):
    loc = s4f.loc
    dt = loc.to_local[s4f.group.index_of_perm((1, 0, 3, 2))]
    tr = loc.to_local[s4f.group.index_of_perm((1, 0, 2, 3))]
    assert partial_normal_closure(loc, [dt]).members == s4f.subsets["V4"]
    assert partial_normal_closure(loc, [tr]).members == frozenset(loc.elements())


def test_enumeration_matches_frozen(s4f, c2s4f, s5f):
    for fix, expect in (
        (s4f, frozen.S4_PN_ORDERS),
        (c2s4f, frozen.C2XS4_PN_ORDERS),
        (s5f, frozen.S5_PN_ORDERS),
    ):
        handles = enumerate_partial_normals(fix.loc)
        assert [len(h.members) for h in handles] == expect


def test_enumeration_cap_error_names_the_cap_and_the_size(s4f, monkeypatch):
    monkeypatch.setattr(normal, "ENUMERATION_CAP", 20)
    with pytest.raises(SizeCapExceeded, match=r"capped at 20 elements; the locality has 24$"):
        enumerate_partial_normals(s4f.loc)


def test_enumeration_matches_group_normals(s4f):
    """On a group locality the partial normals are the normal subgroups."""
    G = OGroup(s4f.group.perms)
    assert G.perms == list(s4f.group.perms), "oracle and engine must index alike"
    expect = {frozenset(s4f.loc.to_local[x] for x in sub) for sub in o_normal_subgroups(G)}
    got = {h.members for h in enumerate_partial_normals(s4f.loc)}
    assert got == expect


def test_strong_closure_trivial(s4f):
    T, rep = strongly_closed_and_T(s4f.loc, {s4f.loc.identity})
    assert T == {s4f.loc.identity}
    assert rep.ok


def test_strong_closure_a4(s4f):
    T, rep = strongly_closed_and_T(s4f.loc, s4f.subsets["A4"])
    assert T == s4f.subsets["V4"]
    assert rep.ok


def test_strong_closure_whole_locality(s5f):
    T, rep = strongly_closed_and_T(s5f.loc, frozenset(s5f.loc.elements()))
    assert T == s5f.loc.sylow_set
    assert rep.ok


def test_strong_closure_rejects_non_normal(s4f):
    with pytest.raises(ValueError):
        strongly_closed_and_T(s4f.loc, s4f.loc.sylow_set)


def test_theorem1_identity_factor(s4f):
    loc = s4f.loc
    N = s4f.subsets["A4"]
    cert = product_theorem1(loc, {loc.identity}, N)
    assert cert.product == N
    assert cert.report.ok
    assert all(w[0] == loc.identity for w in cert.witnesses.values())


def test_theorem1_v4_a4(s4f):
    cert = product_theorem1(s4f.loc, s4f.subsets["V4"], s4f.subsets["A4"])
    assert cert.product == s4f.subsets["A4"]
    assert cert.report.ok
    assert cert.validate(s4f.loc)


def test_theorem1_trivial_intersection_path(c2s4f):
    cert = product_theorem1(c2s4f.loc, c2s4f.subsets["C2"], c2s4f.subsets["V4"])
    assert len(cert.product) == 8
    assert cert.report.checks[-1].name == "trivial-intersection-path"
    assert cert.report.ok


def test_theorem1_rejects_non_normal(s4f):
    with pytest.raises(ValueError):
        product_theorem1(s4f.loc, s4f.loc.sylow_set, s4f.subsets["A4"])


def test_theorem1_rejects_bare_partial_group(am20):
    with pytest.raises(ValueError):
        product_theorem1(am20.pg, am20.subsets["M"], am20.subsets["N"])


def test_theorem1_idempotence(s4f, c2s4f):
    for fix in (s4f, c2s4f):
        for handle in enumerate_partial_normals(fix.loc):
            cert = product_theorem1(fix.loc, handle.members, handle.members)
            assert cert.product == handle.members
            assert cert.report.ok


def test_enumeration_closed_under_products(c2s4f):
    handles = enumerate_partial_normals(c2s4f.loc)
    family = {h.members for h in handles}
    for a in handles:
        for b in handles:
            cert = product_theorem1(c2s4f.loc, a.members, b.members)
            assert cert.product in family


@pytest.mark.parametrize("name", ["s4f", "c2s4f", "s5f"])
def test_both_entries_give_one_certificate(request, name):
    """product_theorem1(M, N) and product_theorem2([M, N]) run one
    certificate: equal products, witnesses, word states and records,
    every record passing, on every ordered pair of partial normals."""
    loc = request.getfixturevalue(name).loc
    handles = partial_normals(loc)
    for a in handles:
        for b in handles:
            cert = product_theorem1(loc, a.members, b.members)
            other = product_theorem2(loc, [a.members, b.members])
            assert cert == other
            assert [c.to_dict() for c in cert.report.checks] == [
                c.to_dict() for c in other.report.checks
            ]
            assert cert.report.ok


def test_contrast_amalgam_product_not_normal(am20):
    """Without the locality hypotheses the product escapes normality."""
    MN = subset_product(am20.pg, [am20.subsets["M"], am20.subsets["N"]])
    handle = classify_subset(am20.pg, MN)
    assert not handle.is_partial_normal


def test_theorem2_padded_identity(c2s4f):
    loc = c2s4f.loc
    N = c2s4f.subsets["A4"]
    cert = product_theorem2(loc, [N, {loc.identity}, {loc.identity}])
    assert cert.product == N
    assert cert.report.ok


def test_theorem2_three_factors(c2s4f):
    cert = product_theorem2(
        c2s4f.loc,
        [c2s4f.subsets["C2"], c2s4f.subsets["V4"], c2s4f.subsets["A4"]],
    )
    assert cert.product == c2s4f.subsets["C2xA4"]
    assert len(cert.product) == 24
    assert cert.report.ok
    assert cert.validate(c2s4f.loc)


def test_theorem2_repeated_factors(s4f):
    cert = product_theorem2(
        s4f.loc, [s4f.subsets["V4"], s4f.subsets["V4"], s4f.subsets["A4"]]
    )
    assert cert.product == s4f.subsets["A4"]
    assert cert.report.ok


def test_theorem2_factor_count_cap(s4f):
    v4 = s4f.subsets["V4"]
    with pytest.raises(ValueError):
        product_theorem2(s4f.loc, [v4])
    with pytest.raises(ValueError):
        product_theorem2(s4f.loc, [v4] * 5)


def test_witness_invariant_recheck(s5f):
    handles = enumerate_partial_normals(s5f.loc)
    n5 = next(h for h in handles if len(h.members) == 5)
    n20 = next(h for h in handles if len(h.members) == 20)
    cert = product_theorem1(s5f.loc, n5.members, n20.members)
    assert cert.report.ok
    assert cert.validate(s5f.loc)
