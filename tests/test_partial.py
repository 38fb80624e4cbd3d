import itertools
import random

import numpy as np
import pytest

from localities.groups import generate_group, all_subgroups
from localities.locality import LocalityPartialGroup
from localities.model import emit_quotient, parse_model
from localities.normal import is_partial_normal
from localities.partial import (
    AmalgamPartialGroup,
    AmalgamSpec,
    AmalgamSpecError,
    GroupPartialGroup,
    PartialGroup,
    _word_violations,
    build_amalgam,
    check_axioms,
    classify_subset,
    subset_product,
)
from localities.quotient import QuotientPartialGroup, build_quotient

import _frozen as frozen
from fault_injection import CorruptedProducts, swap_two_products
from test_conj_table import KERNELS, RAW_CHANGES, _quotient, _with_raw
from theorem_checks import dedekind_verify, is_normal_subset
import list_tables


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
    """S4's products 1*2 and 2*1 swapped in the raw table of a one-state
    PartialGroup: the state searches report collapse, each violation one
    that the per-word checks find on its word."""
    G = generate_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    raw = G.mult.copy()
    raw[1, 2], raw[2, 1] = G.mult[2, 1], G.mult[1, 2]
    assert raw[1, 2] != raw[2, 1]
    one_state = np.zeros((1, G.order), dtype=np.int64)
    bad = PartialGroup(G.order, G.identity, G.labels, G.inv, raw, one_state, [True])
    report = check_axioms(bad, max_len=3)
    assert not report.ok
    assert any(v.axiom == "collapse" for v in report.violations)
    assert all(v in _word_violations(bad, v.word) for v in report.violations)
    assert report.notes[0].startswith("route: state searches over the automaton")


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
    """The walker_table() code of a word is -1 exactly off the domain, and
    equal codes agree on the domain status of every one-letter extension."""
    pg, words = WALKER_CASES[name](request)
    rows = list_tables.walker(pg)
    if words == "all":
        words = itertools.product(pg.elements(), repeat=3)
    else:
        rng = random.Random(name)
        words = [tuple(rng.randrange(pg.size) for _ in range(4)) for _ in range(3000)]
    decided = {}
    for word in words:
        code = 0
        for k, x in enumerate(word):
            grown = word[: k + 1]
            in_dom = pg.in_domain(grown)
            if code < 0:
                assert not in_dom, grown
                continue
            assert decided.setdefault((code, x), in_dom) == in_dom, grown
            code = rows[code][x]
            assert (code >= 0) == in_dom, grown



def _built(request):
    """The partial groups the commands build: the four builtins, the
    quotients by all 18 kernels, a group, an amalgam built directly and a
    plocality parsed back from LOC-S5/N5's emitted quotient; and LOC-S5
    rebuilt over each tampering of its raw product in test_conj_table."""
    s5f = request.getfixturevalue("s5f")
    tmp = request.getfixturevalue("tmp_path") / "q.model"
    tmp.write_text(emit_quotient(build_quotient(s5f.loc, s5f.subsets["N5"]), "q"))
    yield "plocality", parse_model(tmp).localities["q"].pg
    for (fixture, name), kernels in KERNELS.items():
        yield name, request.getfixturevalue(fixture).loc.pg
        for kernel in kernels.split():
            yield f"{name}/{kernel}", _quotient(fixture, kernel)(request)
    am20 = request.getfixturevalue("am20")
    yield "PG-AM20", am20.pg
    yield "AmalgamPartialGroup-PG-AM20", AmalgamPartialGroup(am20.spec)
    yield "GroupPartialGroup-S4", GroupPartialGroup(request.getfixturevalue("s4f").group)
    for name, change in RAW_CHANGES.items():
        yield f"LOC-S5-{name}", _with_raw(s5f.loc.pg, change(s5f.loc.pg))


def _outcome(build):
    try:
        out = build()
    except Exception as exc:  # a fold that leaves the raw product raises
        return type(exc), str(exc)
    return out.tolist() if isinstance(out, np.ndarray) else out


def test_every_built_partial_group_is_its_tables_and_they_are_the_per_pair_ones(request):
    """One class holds every partial group the package builds, the four
    builders its only subclasses in src/; each one's gathered tables are
    those the per-pair builders of fault_injection.WordPartialGroup give
    over its own pi, or raise what they raise."""
    def subclasses(cls):
        return {c for sub in cls.__subclasses__() for c in {sub} | subclasses(sub)}

    builders = {c for c in subclasses(PartialGroup) if c.__module__.startswith("localities.")}
    assert builders == {
        GroupPartialGroup, AmalgamPartialGroup, LocalityPartialGroup, QuotientPartialGroup
    }
    names = set()
    for name, pg in _built(request):
        names.add(name)
        assert isinstance(pg, PartialGroup), name
        reference = CorruptedProducts(pg, {})
        for table in ("padded_products", "conj_table"):
            got = _outcome(getattr(pg, table))
            assert got == _outcome(getattr(reference, table)), (name, table)
    assert len(names) == 1 + 18 + 6 + len(RAW_CHANGES)


ID_READERS = {
    "classify_subset": lambda loc, bad: classify_subset(loc.pg, {0, bad}),
    "is_partial_normal": lambda loc, bad: is_partial_normal(loc, {0, bad}),
    "subset_product-first": lambda loc, bad: subset_product(loc.pg, [{bad}, {0}]),
    "subset_product-last": lambda loc, bad: subset_product(loc.pg, [{0}, {0, bad}]),
}


@pytest.mark.parametrize("reader", list(ID_READERS))
@pytest.mark.parametrize("bad", [-1, 24], ids=["minus-1", "n"])
def test_an_id_outside_the_elements_is_refused_naming_it(s4f, reader, bad):
    """GRP-S4 has the ids 0..23: -1 would read the padding entry of a mask
    or a padded table, and 24 would index past them."""
    with pytest.raises(ValueError, match=rf" holds the id {bad}, outside 0\.\.23$"):
        ID_READERS[reader](s4f.loc, bad)
