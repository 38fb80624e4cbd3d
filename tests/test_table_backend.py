"""Groups and amalgams as table backends, against the deciders they replaced.

GroupPartialGroup is one accepting state over the group's table, and
AmalgamPartialGroup four states over the side masks of its letters, with a
raw product glued from the two tables.  On every word of length at most 3,
the domain, the product and the inverses agree with the naive oracle
(tests/oracle.py: OGroup, OAmalgam), and words_all_in_domain on the word's
letters agrees with the class's old subset decider
(tests/domain_reference.py).
"""

import itertools

import pytest

from localities.partial import AmalgamPartialGroup, GroupPartialGroup
from localities.quotient import build_quotient

import domain_reference as reference
from oracle import OAmalgam, OGroup


def _words(pg, max_len=3):
    for n in range(max_len + 1):
        yield from itertools.product(pg.elements(), repeat=n)


def _group_case(request):
    group = request.getfixturevalue("s4f").group
    oracle = OGroup(group.perms)
    return GroupPartialGroup(group), (lambda w: True), oracle.fold, oracle.inv.__getitem__


def _amalgam_case(request):
    spec = request.getfixturevalue("am20").spec
    oracle = OAmalgam(OGroup(spec.left.perms), OGroup(spec.right.perms), spec.pairing)
    return AmalgamPartialGroup(spec), oracle.in_domain, oracle.pi, oracle.inv


CASES = {"GroupPartialGroup-S4": _group_case, "AmalgamPartialGroup-PG-AM20": _amalgam_case}


@pytest.mark.parametrize("name", list(CASES))
def test_words_match_the_oracle(request, name):
    pg, in_domain, pi, inverse = CASES[name](request)
    assert [pg.inverse(x) for x in pg.elements()] == [inverse(x) for x in pg.elements()]
    off = 0
    for word in _words(pg):
        assert pg.in_domain(word) == in_domain(word), word
        assert pg.pi(word) == (pi(word) if in_domain(word) else None), word
        off += not in_domain(word)
    # the amalgam's words on both sides (8 left, 16 right, 4 shared): 2 * 4 * 12
    # of length 2 and 20^3 - (8^3 + 16^3 - 4^3) of length 3; none for the group
    assert off == {"GroupPartialGroup-S4": 0, "AmalgamPartialGroup-PG-AM20": 96 + 3456}[name]


@pytest.mark.parametrize("name", list(CASES))
def test_subset_verdicts_match_the_old_decider(request, name):
    pg = CASES[name](request)[0]
    for word in _words(pg):
        members = frozenset(word)
        got, old = pg.words_all_in_domain(members), reference.words_all_in_domain(pg, members)
        assert got == old, word


BUILTINS = {
    "PG-AM20": lambda r: r.getfixturevalue("am20").pg,
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc.pg,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc.pg,
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc.pg,
    "LOC-S5/N5": lambda r: build_quotient(
        r.getfixturevalue("s5f").loc, r.getfixturevalue("s5f").subsets["N5"]
    ).quotient.pg,
}


@pytest.mark.parametrize("name", list(BUILTINS))
def test_the_scalar_api_answers_in_python_ints_and_bools(request, name):
    """The tables are numpy arrays; pi, mul2, inverse, in_domain and
    walk_step still answer in Python ints and bools (None off the domain)."""
    pg = BUILTINS[name](request)
    assert type(pg.pi(())) is int
    for a in pg.elements():
        assert type(pg.inverse(a)) is int
        assert type(pg.pi((a,))) is int
        assert type(pg.in_domain((a,))) is bool
        assert type(pg.walk_step(pg.walk_start(), a)) is int
        for b in pg.elements():
            domain = pg.in_domain((a, b))
            assert type(domain) is bool
            v = pg.mul2(a, b)
            assert v == pg.pi((a, b))
            assert type(v) is (int if domain else type(None))
