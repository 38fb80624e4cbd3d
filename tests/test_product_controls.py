"""Negative controls for the checks the product certificate records.

Each entry of CONTROLS is a locality, its named subsets and the factors of
a product: the paper's counterexample, or a stated tampering of a builtin
made by fault_injection.tampered_locality.  Each must fail its own check
by name in the `product` report, so the check is shown to be able to fail;
each entry lists every check its tampering fails.

Two records have no control, as no input can fail them: product-order
records the product's size as data and always passes, and
trivial-intersection-path is metadata, recorded only when it holds.
"""

import argparse
import time

import numpy as np
import pytest

from localities import cli, normal
from localities.normal import product_theorem1, product_theorem2
from localities.partial import subset_product

from fault_injection import tampered_locality


def _report(loc, subsets, names):
    """The report cmd_product prints for the factors names of loc."""
    catalog = cli.Catalog([cli.CatalogEntry("X", "locality", loc, dict(subsets))])
    return cli.cmd_product(argparse.Namespace(locality=None, ideals=",".join(names)), catalog)


def the_amalgam_candidate(am20, s4f, c2s4f):
    """PG-AM20's locality candidate (S = G2) with M and N, the paper's
    counterexample: MN = G1 is not partial normal.  The candidate is no
    locality, so the intersection formula and the witnesses fail with it."""
    return am20.as_locality(), am20.subsets, ["M", "N"]


def v4_c2_leaves_one_product_undefined(am20, s4f, c2s4f):
    """GRP-C2xS4, C2 * V4, its table leaving n*m undefined for the least
    n in V4 and m in C2 other than the identity.  C2 and V4 meet trivially,
    so each element of V4 C2 comes from one word and n*m drops out of it;
    C2 V4 reads only the products m*n."""
    loc, e = c2s4f.loc, c2s4f.loc.identity
    n, m = min(c2s4f.subsets["V4"] - {e}), min(c2s4f.subsets["C2"] - {e})
    return tampered_locality(loc, {(n, m): -1}), c2s4f.subsets, ["C2", "V4"]


def _least_outside(c2s4f):
    """The least element of C2 V4 in neither C2 nor V4."""
    C2, V4 = c2s4f.subsets["C2"], c2s4f.subsets["V4"]
    return min(subset_product(c2s4f.loc.pg, [C2, V4]) - C2 - V4)


def identity_times_a_product_left_undefined(am20, s4f, c2s4f):
    """GRP-C2xS4, 1 * C2 * V4, its table leaving 1*w undefined for w the
    least element of C2 V4 in neither factor.  The bracketing 1 (C2 V4)
    reads that product and loses w; the scan and every factor order fold
    left, and read only products whose right letter lies in a factor."""
    loc = c2s4f.loc
    w = _least_outside(c2s4f)
    return tampered_locality(loc, {(loc.identity, w): -1}), c2s4f.subsets, ["1", "C2", "V4"]


def a_sylow_set_that_is_no_group(am20, s4f, c2s4f):
    """GRP-C2xS4, C2 * V4, with S read without the least element w of
    C2 V4 in neither factor: (C2 V4) cap S loses w, and (C2 cap S)(V4 cap S)
    = C2 V4 keeps it.  No other check reads S."""
    loc = c2s4f.loc
    return (tampered_locality(loc, sylow_set=loc.sylow_set - {_least_outside(c2s4f)}),
            c2s4f.subsets, ["C2", "V4"])


def one_threading_subgroup_read_as_empty(am20, s4f, c2s4f):
    """GRP-C2xS4, C2 * V4, with the threading subgroup of the one-letter
    word (w) read as empty, for w the least element of C2 V4 in neither
    factor: no word of C2 x V4 threads through an empty S_w, so w has no
    witness."""
    loc = c2s4f.loc
    w, real = _least_outside(c2s4f), loc.thread_subgroup
    tampered = tampered_locality(
        loc, thread_subgroup=lambda word: frozenset() if tuple(word) == (w,) else real(word)
    )
    return tampered, c2s4f.subsets, ["C2", "V4"]


def a_witness_whose_product_is_another(am20, s4f, c2s4f):
    """GRP-S4, V4 * A4, its table giving 1*(2 3 4) = (2 4 3).  The set is
    unchanged, as each element of A4 comes from four words, and the two
    3-cycles have one threading subgroup, so the word (1, (2 3 4)) becomes
    the least witness of (2 4 3); pi, which reads the untouched arrays,
    gives it the product (2 3 4)."""
    loc = s4f.loc
    ids = {label: x for x, label in enumerate(loc.pg.labels)}
    entry = (loc.identity, ids["(2 3 4)"])
    return tampered_locality(loc, {entry: ids["(2 4 3)"]}), s4f.subsets, ["V4", "A4"]


CONTROLS = [
    (the_amalgam_candidate,
     ["product-partial-normal", "intersection-with-sylow", "witness-complete"]),
    (v4_c2_leaves_one_product_undefined, ["product-commutes"]),
    (identity_times_a_product_left_undefined, ["bracketings-agree"]),
    (a_sylow_set_that_is_no_group, ["intersection-with-sylow"]),
    (one_threading_subgroup_read_as_empty, ["witness-complete"]),
    (a_witness_whose_product_is_another, ["certificate-revalidates"]),
]


@pytest.mark.parametrize("make,failing", CONTROLS, ids=[c[0].__name__ for c in CONTROLS])
def test_each_control_fails_its_checks_by_name(am20, s4f, c2s4f, make, failing):
    rep = _report(*make(am20, s4f, c2s4f))
    assert [c.name for c in rep.checks if c.status == "fail"] == failing
    assert not rep.ok


def test_every_check_that_can_fail_has_a_control(c2s4f):
    """Every record of a passing report but product-order and
    trivial-intersection-path (see the module docstring)."""
    rep = _report(c2s4f.loc, c2s4f.subsets, ["C2", "V4"])
    assert rep.ok
    names = {c.name for c in rep.checks} - {"product-order", "trivial-intersection-path"}
    assert names == {name for _, failing in CONTROLS for name in failing}


@pytest.mark.parametrize("make,failing", CONTROLS, ids=[c[0].__name__ for c in CONTROLS])
def test_library_report_fails_alike(am20, s4f, c2s4f, make, failing):
    """A library caller reads the verdict from the certificate's own report:
    it fails exactly the checks that the product command's report fails."""
    loc, subsets, names = make(am20, s4f, c2s4f)
    factors = [subsets[name] for name in names]
    cert = (product_theorem1(loc, *factors) if len(factors) == 2
            else product_theorem2(loc, factors))
    assert [c.name for c in cert.report.failures()] == failing
    assert not cert.report.ok


def test_each_product_check_carries_its_own_time(c2s4f, monkeypatch):
    """C2 * V4 * A4 * S4 checks 23 other factor orders, each one
    subset_product; with every subset_product made 2 ms slower,
    product-commutes takes at least 46 ms, and product-order, which is the
    scan and calls no subset_product, less."""
    real = normal.subset_product

    def slow(*args):
        time.sleep(0.002)
        return real(*args)

    monkeypatch.setattr(normal, "subset_product", slow)
    rep = _report(c2s4f.loc, c2s4f.subsets, ["C2", "V4", "A4", "S4"])
    times = {c.name: c.timing_ms for c in rep.checks}
    assert rep.ok
    assert times["product-commutes"] >= 23 * 2.0
    assert times["product-order"] < 23 * 2.0


def test_the_controls_leave_the_builtins_as_they_were(am20, s4f, c2s4f):
    """tampered_locality changes copies: the builtins' own product arrays,
    as mul2 and the gathers read them, their conjugation arrays, S and
    threading subgroups read as before."""
    def tables(f):
        pg = f.loc.pg
        n = pg.elements()
        return ([[pg.mul2(a, b) for b in n] for a in n], pg.padded_products().copy(),
                pg.conj_table().copy(), f.loc.sylow_set)

    fixtures = (s4f, c2s4f)
    before = [tables(f) for f in fixtures]
    for make, _ in CONTROLS:
        make(am20, s4f, c2s4f)
    for f, (rows, padded, conj, S) in zip(fixtures, before):
        n = f.loc.pg.elements()
        assert [[f.loc.pg.mul2(a, b) for b in n] for a in n] == rows and f.loc.sylow_set == S
        assert np.array_equal(f.loc.pg.padded_products(), padded)
        assert np.array_equal(f.loc.pg.conj_table(), conj)
    assert all("thread_subgroup" not in vars(f.loc) for f in fixtures)
