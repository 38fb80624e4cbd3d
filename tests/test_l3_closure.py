"""The (L3) check of check_locality against the per-pair reference of
tests/l3_reference.py: the same status and the same witnesses, in the same
order, on the builtins, on LOC-S5 with Delta cut down, and on the quotient
by every partial normal subgroup of the three localities."""

import pytest

from localities.locality import DeltaFamily, Locality, check_locality
from localities.quotient import build_quotient

from l3_reference import l3_reference
from test_ambient_certificate import minus_smallest, no_order_4
from test_quotient_tables import KERNEL_IDS, KERNELS, _kernel


def _s5_rebuilt(cut):
    def make(request):
        pg = cut(request.getfixturevalue("s5f").loc.pg, None)
        delta = DeltaFamily(sylow=frozenset(pg.s_elems), members=pg.delta_sets)
        return Locality(pg, 2, pg.s_elems, delta)

    return make


CANDIDATES = {
    "GRP-S4": lambda r: r.getfixturevalue("s4f").loc,
    "GRP-C2xS4": lambda r: r.getfixturevalue("c2s4f").loc,
    "LOC-S5": lambda r: r.getfixturevalue("s5f").loc,
    "PG-AM20": lambda r: r.getfixturevalue("am20").as_locality(),
    "LOC-S5-minus-smallest": _s5_rebuilt(minus_smallest),
    "LOC-S5-no-order-4": _s5_rebuilt(no_order_4),
}
FAILING = {"PG-AM20", "LOC-S5-minus-smallest", "LOC-S5-no-order-4"}


def assert_matches_the_reference(loc):
    (check,) = [c for c in check_locality(loc).checks if c.name == "L3-overgroup-closure"]
    ok, witnesses = l3_reference(loc)
    assert (check.status, check.witnesses) == ("pass" if ok else "fail", witnesses)
    return ok


@pytest.mark.parametrize("name", list(CANDIDATES))
def test_l3_matches_the_per_pair_reference(request, name):
    ok = assert_matches_the_reference(CANDIDATES[name](request))
    assert ok == (name not in FAILING)


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_l3_on_every_quotient_matches_the_per_pair_reference(request, fixture, index):
    loc, K = _kernel(request, fixture, index)
    assert assert_matches_the_reference(build_quotient(loc, K).quotient)
