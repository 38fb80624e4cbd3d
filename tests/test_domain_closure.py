"""PartialGroup.words_all_in_domain and domain_is_total, which read the
walker table, against the deciders they replaced (tests/domain_reference.py).

On every partial subgroup of the four builtins, of GRP-S4 with two products
swapped and of the LOC-S5/N5 quotient, the verdicts agree with the old
decider of the class, and on those of at most 4 elements with the generic
bounded-length sweep too.  So do they on random subsets of at most 4
elements, which need not hold the identity.  A failing verdict's witness
is a word over the members off the domain, and the shortlex-least one:
every word over the members before it in shortlex order is in the domain.
"""

import itertools
import random

import pytest

from localities.partial import AmalgamPartialGroup
from localities.quotient import build_quotient, partial_subgroups_containing

import domain_reference as reference
from fault_injection import swap_two_products

CASES = {
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc.pg,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc.pg,
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc.pg,
    "PG-AM20": lambda r: r.getfixturevalue("am20").pg,
    "GRP-S4-swapped": lambda r: swap_two_products(
        r.getfixturevalue("s4f").loc.pg, (0, 0, 0), (0, 1, 0)
    ),
    "LOC-S5/N5": lambda r: build_quotient(
        r.getfixturevalue("s5f").loc, r.getfixturevalue("s5f").subsets["N5"]
    ).quotient.pg,
}
# (partial subgroups, of which words over the members leave the domain)
COUNTS = {
    "GRP-S4": (30, 0),
    "GRP-C2xS4": (98, 0),
    "LOC-S5": (502, 450),
    "PG-AM20": (36, 14),
    "GRP-S4-swapped": (30, 0),
    "LOC-S5/N5": (30, 0),
}


def assert_shortlex_least(pg, members, witness):
    letters = sorted(members)
    assert len(witness) <= 3  # keeps the search below small
    for n in range(1, len(witness)):
        assert all(pg.in_domain(w) for w in itertools.product(letters, repeat=n))
    for w in itertools.product(letters, repeat=len(witness)):
        if w == witness:
            break
        assert pg.in_domain(w), (w, witness)


@pytest.mark.parametrize("name", list(CASES))
def test_verdicts_match_the_old_deciders_on_every_partial_subgroup(request, name):
    pg = CASES[name](request)
    subgroups = partial_subgroups_containing(pg, frozenset({pg.identity}))
    failing = 0
    for H in subgroups:
        ok, witness = pg.words_all_in_domain(H)
        old_ok, old_witness = reference.words_all_in_domain(pg, H)
        assert ok == old_ok, sorted(H)
        if len(H) <= 4:  # the generic sweep visits at most 4**5 words
            assert reference.bounded_length_sweep(pg, H)[0] == ok, sorted(H)
        if ok:
            assert witness is None
            continue
        failing += 1
        assert set(witness) <= H and not pg.in_domain(witness)
        assert_shortlex_least(pg, H, witness)
        if isinstance(pg, AmalgamPartialGroup):  # the old witness was shortlex-least too
            assert witness == old_witness
    assert (len(subgroups), failing) == COUNTS[name]


@pytest.mark.parametrize("name", list(CASES))
def test_domain_is_total_matches_the_old_deciders(request, name):
    pg = CASES[name](request)
    assert pg.domain_is_total == reference.domain_is_total(pg)


@pytest.mark.parametrize("name", list(CASES))
def test_verdicts_match_the_old_deciders_on_random_subsets(request, name):
    pg = CASES[name](request)
    rng = random.Random(17)
    for _ in range(200):
        X = frozenset(rng.sample(range(pg.size), rng.randint(1, 4)))
        ok, witness = pg.words_all_in_domain(X)
        assert ok == reference.words_all_in_domain(pg, X)[0] == reference.bounded_length_sweep(
            pg, X
        )[0], sorted(X)
        if not ok:
            assert set(witness) <= X and not pg.in_domain(witness)
            assert_shortlex_least(pg, X, witness)
