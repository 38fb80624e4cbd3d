import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracle import OGroup, OLocality, o_all_subgroups

from localities.corpus import (
    amalgam_counterexample,
    locality_c2xs4,
    locality_s4,
    locality_s5,
)


def _left_unchanged(fixture, pg):
    """Yield a session builtin, then require that its tables (raw, trans,
    accept and inverses) are as they were when it was built: a test that
    tampers with one must tamper with a copy."""
    tables = (pg._raw.copy(), pg.trans.copy(), pg.accept.copy(), tuple(pg._inv))
    yield fixture
    now = (pg._raw, pg.trans, pg.accept, tuple(pg._inv))
    changed = [name for name, old, new in zip(("raw", "trans", "accept", "inv"), tables, now)
               if not np.array_equal(old, new)]
    assert not changed, f"tests wrote into the {changed} of a shared builtin"


@pytest.fixture(scope="session")
def am20():
    fixture = amalgam_counterexample()
    yield from _left_unchanged(fixture, fixture.pg)


@pytest.fixture(scope="session")
def s4f():
    fixture = locality_s4()
    yield from _left_unchanged(fixture, fixture.loc.pg)


@pytest.fixture(scope="session")
def c2s4f():
    fixture = locality_c2xs4()
    yield from _left_unchanged(fixture, fixture.loc.pg)


@pytest.fixture(scope="session")
def s5f():
    fixture = locality_s5()
    yield from _left_unchanged(fixture, fixture.loc.pg)


def oracle_locality(fix, keep) -> OLocality:
    """Build the oracle's own locality from the fixture's input parameters.

    The generators, prime, Sylow member set, and the Delta selection rule
    are shared input data; every derived structure is recomputed naively.
    keep(member_set) decides which subgroups of S are objects.
    """
    G = OGroup(fix.group.perms)
    assert G.perms == list(fix.group.perms), "oracle and engine must index alike"
    syl_m = sorted(fix.loc.to_ambient[s] for s in fix.loc.sylow)
    sub = OGroup([G.perms[i] for i in syl_m])
    delta = [
        members
        for P in o_all_subgroups(sub)
        if keep(members := frozenset(syl_m[i] for i in P))
    ]
    return OLocality(G, 2, frozenset(syl_m), delta)


@pytest.fixture(scope="session")
def oracle_s4(s4f):
    # objects: the overgroups of the normal fours group inside S
    v4 = frozenset(
        s4f.group.index_of_perm(p)
        for p in [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    )
    return oracle_locality(s4f, lambda P: v4 <= P)


@pytest.fixture(scope="session")
def oracle_c2s4(c2s4f):
    return oracle_locality(c2s4f, lambda P: len(P) >= 8)


@pytest.fixture(scope="session")
def oracle_s5(s5f):
    return oracle_locality(s5f, lambda P: len(P) >= 2)
