"""The quotient word checks on the array fixpoint against the reference.

_homomorphism_failures and _descent_failures run partial.state_fixpoint
over walker codes and padded products, a level at a time.  The reference
(tests/fixpoint_reference.py) runs the same checks one state at a time on
walker states, stepped one at a time.  Both must return the same (states, words):
the same interned state count and the same failing words in the same
order, on every partial normal kernel of the three localities, on a
quotient used as a base, on corrupted quotients, in smaller blocks of
states and on S6.
"""

import pytest

import fixpoint_reference as reference
from fault_injection import with_representatives
from localities import partial
from localities.groups import generate_group, sylow_p
from localities.locality import delta_min_order, locality_from_group
from localities.normal import partial_normals
from localities.quotient import (
    QuotientPartialGroup,
    _descent_failures,
    _homomorphism_failures,
    build_quotient,
    coset_partition,
)

import _frozen as frozen

FIXTURES = [
    ("s4f", frozen.S4_PN_ORDERS),
    ("c2s4f", frozen.C2XS4_PN_ORDERS),
    ("s5f", frozen.S5_PN_ORDERS),
]
KERNELS = [(name, i) for name, orders in FIXTURES for i in range(len(orders))]
KERNEL_IDS = [f"{name}-{orders[i]}-{i}" for name, orders in FIXTURES for i in range(len(orders))]


def assert_both_checks_match(loc, qpg, up_max):
    pg = loc.pg
    hom = _homomorphism_failures(pg, qpg)
    assert hom == reference.homomorphism_failures(pg, qpg)
    letters = [f for f in loc.elements() if up_max[f]]
    descent = _descent_failures(pg, qpg, letters)
    assert descent == reference.descent_failures(pg, qpg, letters)
    return hom, descent


def _quotient(loc, K, reps=None):
    """The quotient by K, its representatives replaced by reps when given,
    with the flags of the maximal letters."""
    part = coset_partition(loc, K)
    if reps is not None:
        part = with_representatives(part, reps)
    return QuotientPartialGroup(loc, part), part.up_max


def _genuine_reps(loc, K):
    return tuple(rec.base for rec in coset_partition(loc, K).maximal)


def test_the_kernels_are_all_18_partial_normals(request):
    assert len(KERNELS) == 18
    for name, orders in FIXTURES:
        loc = request.getfixturevalue(name).loc
        assert [len(h.members) for h in partial_normals(loc)] == list(orders)


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_kernel_matches_the_reference(request, fixture, index):
    loc = request.getfixturevalue(fixture).loc
    K = partial_normals(loc)[index].members
    (_, hom), (_, descent) = assert_both_checks_match(loc, *_quotient(loc, K))
    assert hom == descent == []


def test_kernel_matches_the_reference_on_a_quotient_base(s5f):
    base = build_quotient(s5f.loc, s5f.subsets["N5"]).quotient
    assert isinstance(base.pg, QuotientPartialGroup)
    for K in (h.members for h in partial_normals(base)):
        assert_both_checks_match(base, *_quotient(base, K))


def test_kernel_matches_the_reference_on_corrupted_quotients(s5f, s4f):
    """LOC-S5 / N5 with the identity coset represented by 26, and GRP-S4 /
    V4 with coset 1 represented by the identity (test_hom_sweep.py and
    test_quotient_tables.py)."""
    loc, K = s5f.loc, s5f.subsets["N5"]
    qpg, up_max = _quotient(loc, K, (26,) + _genuine_reps(loc, K)[1:])
    (states, words), _ = assert_both_checks_match(loc, qpg, up_max)
    assert (states, len(words)) == (112, 256)

    loc, K = s4f.loc, s4f.subsets["V4"]
    reps = _genuine_reps(loc, K)
    qpg, up_max = _quotient(loc, K, (reps[0], loc.identity) + reps[2:])
    _, (states, words) = assert_both_checks_match(loc, qpg, up_max)
    assert (states, len(words)) == (153, 2980)


def test_kernel_matches_the_reference_where_base_words_leave_the_domain(s5f):
    """LOC-S5 by its trivial kernel with every coset represented by the
    identity: each coset word is in the quotient domain, so the descent
    check goes on extending base words that have left the domain, which
    carry the dead code and the missing value."""
    loc = s5f.loc
    qpg, up_max = _quotient(loc, {loc.identity}, (loc.identity,) * loc.size)
    _, (states, words) = assert_both_checks_match(loc, qpg, up_max)
    assert (states, len(words)) == (82, 4511)
    assert sum(not loc.pg.in_domain(w) for w in words) == 2360


@pytest.mark.parametrize("pairs", [1, 200])
def test_kernel_matches_the_reference_in_smaller_blocks(s5f, monkeypatch, pairs):
    """Levels stepped a few states at a time: with at most 1 or 200
    (state, letter) pairs to a step, LOC-S5's 56 letters take one or three
    states per step."""
    monkeypatch.setattr(partial, "_FIXPOINT_BLOCK", pairs)
    loc, K = s5f.loc, s5f.subsets["N5"]
    qpg, up_max = _quotient(loc, K, (26,) + _genuine_reps(loc, K)[1:])
    (states, words), _ = assert_both_checks_match(loc, qpg, up_max)
    assert (states, len(words)) == (112, 256)
    qpg, up_max = _quotient(loc, {loc.identity}, (loc.identity,) * loc.size)
    assert assert_both_checks_match(loc, qpg, up_max)[1][0] == 82


def _is_even(perm):
    seen, transpositions = set(), 0
    for i in range(len(perm)):
        j = i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            transpositions += j != i
    return transpositions % 2 == 0


def test_kernel_matches_the_reference_on_s6():
    """S6 at p = 2 with Delta the subgroups of S of order >= 4 (208
    elements), by its partial normal subgroup of even permutations (104).
    The kernel is L cap A6 by the parity of the ambient permutations, not
    by an enumeration, which is capped below 208 elements."""
    M = generate_group([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])
    loc = locality_from_group(M, 2, delta_min_order(sylow_p(M, 2), 4))
    K = frozenset(x for x in loc.elements() if _is_even(M.perms[loc.to_ambient[x]]))
    assert (loc.size, len(K)) == (208, 104)
    (states, words), (_, descent) = assert_both_checks_match(loc, *_quotient(loc, K))
    assert (states, words, descent) == (512, [], [])
