import itertools
import random

import pytest

from localities.groups import generate_group, all_subgroups
from localities.partial import (
    AmalgamSpec,
    AmalgamSpecError,
    GroupPartialGroup,
    PartialGroup,
    build_amalgam,
    check_axioms,
    classify_subset,
    subset_product,
)
from localities.quotient import build_quotient

import _frozen as frozen
from fault_injection import swap_two_products
from theorem_checks import dedekind_verify, is_normal_subset


def test_degenerate_amalgam_is_the_group():
    G = generate_group([(1, 2, 0)])
    pairing = {x: x for x in G.elements()}
    pg = build_amalgam(AmalgamSpec(G, G, pairing))
    assert pg.degenerate
    assert pg.size == G.order
    for a in pg.elements():
        for b in pg.elements():
            assert pg.in_domain((a, b))
    # every word stays on both sides: the automaton reaches one state, and
    # the walker rows, all of which domain_is_total reads, hold no -1
    assert pg.trans.tolist() == [[0] * G.order]
    assert pg.domain_is_total


def test_amalgam_size_and_mixed_words(am20):
    pg = am20.pg
    assert pg.size == frozen.AM20_SIZE
    assert not pg.degenerate
    left_only = next(iter(am20.left_set - am20.right_set))
    right_only = next(iter(am20.right_set - am20.left_set))
    assert not pg.in_domain((left_only, right_only))
    assert pg.pi((left_only, right_only)) is None


def test_trivially_glued_amalgam():
    C2 = generate_group([(1, 0)])
    C3 = generate_group([(1, 2, 0)])
    pg = build_amalgam(AmalgamSpec(C2, C3, {C2.identity: C3.identity}))
    assert pg.size == 4
    a = pg.from_left[1]
    b = pg.from_right[1]
    assert not pg.in_domain((a, b))


def test_bad_identification_rejected():
    C4 = generate_group([(1, 2, 3, 0)])
    C2C2 = generate_group([(1, 0), (0, 1, 3, 2)])
    # full pairing that is a bijection but not a homomorphism
    pairing = {0: 0, 1: 1, 2: 3, 3: 2}
    with pytest.raises(AmalgamSpecError):
        build_amalgam(AmalgamSpec(C4, C2C2, pairing))


def test_pi_basics(am20):
    pg = am20.pg
    assert pg.pi(()) == pg.identity
    for f in pg.elements():
        assert pg.pi((f,)) == f


def test_invert_word(am20):
    pg = am20.pg
    assert pg.invert_word(()) == ()
    f = next(iter(am20.left_set - {pg.identity}))
    g = next(iter(am20.right_set - {pg.identity}))
    assert pg.invert_word((f,)) == (pg.inverse(f),)
    w = (f, g)
    assert pg.invert_word(w) == (pg.inverse(g), pg.inverse(f))
    assert pg.invert_word(pg.invert_word(w)) == w


def test_axioms_amalgam_to_length_five(am20):
    report = check_axioms(am20.pg, max_len=5)
    assert report.ok, report.violations[:3]


def test_axioms_group_as_partial_group():
    gp = GroupPartialGroup(generate_group([(1, 2, 3, 0), (1, 0, 2, 3)]))
    report = check_axioms(gp, max_len=4)
    assert report.ok


def test_axioms_detect_planted_swap():
    gp = GroupPartialGroup(generate_group([(1, 2, 3, 0), (1, 0, 2, 3)]))
    bad = swap_two_products(gp, (1, 2), (2, 1))
    report = check_axioms(bad, max_len=3)
    assert not report.ok
    assert any(v.axiom == "collapse" for v in report.violations)


def test_subset_product_identity_factor(am20):
    pg = am20.pg
    B = am20.subsets["N"]
    assert subset_product(pg, [{pg.identity}, B]) == B


def test_subset_product_counterexample(am20):
    pg = am20.pg
    MN = subset_product(pg, [am20.subsets["M"], am20.subsets["N"]])
    assert MN == am20.subsets["G1"]
    assert len(MN) == 8


def test_subset_product_in_locality(s4f):
    prod = subset_product(s4f.loc.pg, [s4f.subsets["V4"], s4f.subsets["A4"]])
    assert prod == s4f.subsets["A4"]


def test_classify_identity(am20):
    handle = classify_subset(am20.pg, {am20.pg.identity})
    assert handle.classification == "partial-normal"


def test_classify_cyclic_factors_partial_normal(am20):
    for name in ("M", "N"):
        handle = classify_subset(am20.pg, am20.subsets[name])
        assert handle.is_partial_normal, name


def test_classify_left_group_not_normal(am20):
    handle = classify_subset(am20.pg, am20.subsets["G1"])
    assert handle.is_partial_subgroup
    assert handle.is_subgroup
    assert not handle.is_partial_normal
    kind, x, f, img = handle.witness
    assert kind == "conjugation"
    assert f in am20.right_set


def test_classify_an_odd_prime_subgroup(s4f):
    """A subgroup of order 3 of GRP-S4 is a p-subgroup for p = 3, not for p = 2."""
    pg = s4f.loc.pg
    x = next(x for x in pg.elements() if x != pg.identity and pg.pi((x, x, x)) == pg.identity)
    members = {pg.identity, x, pg.mul2(x, x)}
    for p, is_p in ((3, True), (2, False)):
        handle = classify_subset(pg, members, p=p)
        assert handle.is_subgroup
        assert handle.is_p_subgroup is is_p
        assert handle.classification == ("p-subgroup" if is_p else "subgroup")


def test_classify_empty_rejected(am20):
    with pytest.raises(ValueError):
        classify_subset(am20.pg, set())


def _amalgam_subset_criteria(am20, members):
    """Group-side criteria for the amalgam: per-side subgroup / normality."""
    pg = am20.pg
    left = am20.spec.left
    right = am20.spec.right
    lpart = frozenset(i for i, x in enumerate(pg.from_left) if x in members)
    rpart = frozenset(j for j, x in enumerate(pg.from_right) if x in members)

    def is_subgroup(G, mem):
        if not mem or G.identity not in mem:
            return False
        return all(
            G.mul(a, b) in mem and G.inv[a] in mem for a in mem for b in mem
        )

    # members must also be covered by the two parts (always true here)
    sub = is_subgroup(left, lpart) and is_subgroup(right, rpart)
    normal = sub and is_normal_subset(left, lpart) and is_normal_subset(right, rpart)
    return sub, normal


def test_classify_matches_per_side_criterion_on_subgroups(am20):
    """Subsets arising from subgroups of either factor classify per side."""
    pg = am20.pg
    for G, lift in ((am20.spec.left, pg.from_left), (am20.spec.right, pg.from_right)):
        for sub in all_subgroups(G):
            members = frozenset(lift[x] for x in sub.members)
            handle = classify_subset(pg, members)
            expect_sub, expect_normal = _amalgam_subset_criteria(am20, members)
            assert handle.is_partial_subgroup == expect_sub
            assert handle.is_partial_normal == expect_normal


def test_classify_matches_per_side_criterion_on_random_subsets(am20):
    rng = random.Random(7)
    pg = am20.pg
    for _ in range(20):
        size = rng.randint(1, pg.size)
        members = frozenset(rng.sample(range(pg.size), size))
        handle = classify_subset(pg, members)
        expect_sub, expect_normal = _amalgam_subset_criteria(am20, members)
        assert handle.is_partial_subgroup == expect_sub
        assert handle.is_partial_normal == expect_normal


def test_dedekind_trivial_k(am20):
    pg = am20.pg
    rep = dedekind_verify(pg, am20.subsets["G1"], am20.subsets["G2"], {pg.identity})
    assert rep.ok


def test_dedekind_counterexample_slices(am20):
    A = am20.subsets["G1"]
    H = am20.subsets["G2"]
    K = am20.subsets["M"] & am20.subsets["G2"]
    assert len(K) == 2
    rep = dedekind_verify(am20.pg, A, H, K)
    assert rep.ok


def test_dedekind_s4(s4f):
    rep = dedekind_verify(
        s4f.loc.pg, s4f.subsets["A4"], s4f.subsets["S"], s4f.subsets["V4"]
    )
    assert rep.ok


def test_dedekind_rejects_bad_arguments(am20):
    pg = am20.pg
    left_only = next(iter(am20.left_set - am20.right_set))
    with pytest.raises(ValueError):
        dedekind_verify(pg, am20.subsets["G1"], am20.subsets["G2"], {left_only, pg.identity, 13})
    with pytest.raises(ValueError):
        # A not a partial subgroup
        dedekind_verify(pg, {pg.identity, left_only}, am20.subsets["G2"], {pg.identity})


def _partial_subgroups_sample(pg, rng, pool, count):
    from localities.partial import partial_subgroup_closure

    out = []
    for _ in range(count):
        seed = rng.sample(pool, rng.randint(1, 3))
        out.append(partial_subgroup_closure(pg, seed))
    return out


@pytest.mark.parametrize("which", ["am20", "s4f", "c2s4f", "s5f"])
def test_dedekind_random_triples(which, request):
    """The Dedekind identity on 100 random valid (A, H, K) triples each."""
    fix = request.getfixturevalue(which)
    pg = fix.pg if hasattr(fix, "pg") else fix.loc.pg
    rng = random.Random(11)
    pool = list(range(pg.size))
    As = _partial_subgroups_sample(pg, rng, pool, 10)
    for _ in range(100):
        A = rng.choice(As)
        H = frozenset(rng.sample(pool, rng.randint(1, pg.size)))
        K = frozenset(rng.sample(sorted(A), rng.randint(1, len(A))))
        rep = dedekind_verify(pg, A, H, K)
        assert rep.ok, (sorted(A), sorted(H), sorted(K), rep.witnesses)


def _s5_mod_n5(request):
    s5f = request.getfixturevalue("s5f")
    return build_quotient(s5f.loc, s5f.subsets["N5"]).quotient.pg, "sample"


WALKER_CASES = {
    "GroupPartialGroup-S4": lambda r: (GroupPartialGroup(r.getfixturevalue("s4f").group), "all"),
    "LocalityPartialGroup-GRP-S4": lambda r: (r.getfixturevalue("s4f").loc.pg, "all"),
    "AmalgamPartialGroup-PG-AM20": lambda r: (r.getfixturevalue("am20").pg, "all"),
    "CorruptedProducts-PG-AM20": lambda r: (
        swap_two_products(r.getfixturevalue("am20").pg, (1, 1), (1, 2)), "all"
    ),
    "LocalityPartialGroup-LOC-S5": lambda r: (r.getfixturevalue("s5f").loc.pg, "sample"),
    "QuotientPartialGroup-LOC-S5/N5": _s5_mod_n5,
}


@pytest.mark.parametrize("name", list(WALKER_CASES))
def test_walker_contract(request, name):
    """walk_step is None exactly off the domain, and equal states agree on
    the domain status of every one-letter extension."""
    pg, words = WALKER_CASES[name](request)
    if words == "all":
        words = itertools.product(pg.elements(), repeat=3)
    else:
        rng = random.Random(name)
        words = [tuple(rng.randrange(pg.size) for _ in range(4)) for _ in range(3000)]
    decided = {}
    for word in words:
        state = pg.walk_start()
        for k, x in enumerate(word):
            grown = word[: k + 1]
            in_dom = pg.in_domain(grown)
            if state is None:
                assert not in_dom, grown
                continue
            assert decided.setdefault((state, x), in_dom) == in_dom, grown
            state = pg.walk_step(state, x)
            assert (state is not None) == in_dom, grown



def test_the_base_class_brings_no_walker():
    """Every backend walks its own domain; the base class has no walker."""
    pg = PartialGroup()
    with pytest.raises(NotImplementedError):
        pg.walk_start()
    with pytest.raises(NotImplementedError):
        pg.walk_step((), 0)
