"""Negative controls for the checks build_quotient records itself, and
for those of the lemma suite that no other test shows failing.

Each entry of CONTROLS is a stated tampering of GRP-S4 or LOC-S5's
quotient: its coset partition, its representatives or its gathered
tables.  Each entry of LEMMA_CONTROLS is one of the same kinds, made
after the quotient is built, that verify_quotient_lemmas (or, for
maximal-coset-has-maximal-base, coset_partition) reads.  Each must fail
its own check by name in the report, so the check is shown to be able to
fail; other checks may fail with it, and each entry lists every check its
tampering fails.  Checks 7 and 11 are also read against their references
(tests/lemma_reference.py) on each lemma control, and check 7 has a
control for a broken premise of its proof and one for an image that is
not closed.
"""

import weakref
from dataclasses import replace

import pytest

from localities import quotient
from localities.locality import DeltaFamily, Locality, check_locality
from localities.quotient import (
    QuotientConstructionError,
    QuotientPartialGroup,
    build_quotient,
    verify_quotient_lemmas,
)

from fault_injection import tampered_locality, with_representatives
from lemma_reference import bijection_agrees, normalizer_image, reference_bijection


def _report(loc, K):
    try:
        return build_quotient(loc, K).report
    except QuotientConstructionError as exc:
        return exc.report


def _statuses(report):
    return {c.name: c.status for c in report.checks}


def _with_reps(monkeypatch, change):
    """build_quotient with the representatives that change(reps) leaves."""

    class Tampered(QuotientPartialGroup):
        def __init__(self, base, part):
            reps = [rec.base for rec in part.maximal]
            change(base, part, reps)
            super().__init__(base, with_representatives(part, reps))

    monkeypatch.setattr(quotient, "QuotientPartialGroup", Tampered)


def stray_element_in_the_identity_coset(monkeypatch, s4f, s5f):
    """GRP-S4 / V4, its partition mapping the least element outside V4 to
    the identity coset."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    real = quotient.coset_partition

    def patched(loc, K):
        part = real(loc, K)
        coset_of = list(part.coset_of)
        coset_of[min(set(loc.elements()) - K)] = coset_of[loc.identity]
        return replace(part, coset_of=tuple(coset_of))

    monkeypatch.setattr(quotient, "coset_partition", patched)
    return loc, K


def a_coset_no_element_maps_to(monkeypatch, s4f, s5f):
    """GRP-S4 / V4, its partition given a last coset that copies coset 1
    and that rho never reaches.  The inverse of that coset is read from its
    representative, which lies in coset 1, so inverting twice leads to
    coset 1.  On the cosets rho reaches, inversion-homomorphism implies
    the involution, so only a coset outside the image can fail it alone."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    real = quotient.coset_partition

    def patched(loc, K):
        part = real(loc, K)
        return replace(part, maximal=part.maximal + [part.maximal[1]])

    monkeypatch.setattr(quotient, "coset_partition", patched)
    return loc, K


def representative_from_another_coset(monkeypatch, s4f, s5f):
    """GRP-S4 / V4 with coset 1 represented by the representative of coset
    2: the inverse of coset 1 is read from a member of another coset."""

    def change(base, part, reps):
        reps[1] = reps[2]

    _with_reps(monkeypatch, change)
    return s4f.loc, s4f.subsets["V4"]


def kernel_member_for_the_identity_coset(monkeypatch, s4f, s5f):
    """LOC-S5 / N5 with the identity coset represented by 26, another member
    of N5 (tests/test_hom_sweep.py)."""

    def change(base, part, reps):
        reps[0] = 26

    _with_reps(monkeypatch, change)
    return s5f.loc, s5f.subsets["N5"]


def trivial_subgroup_added_to_delta(monkeypatch, s4f, s5f):
    """LOC-S5 / 1 with the trivial subgroup added to the quotient's Delta:
    every word is then in the quotient domain, including words of
    representatives off the base domain.  The base domain words keep their
    images, so only the lift sees it."""

    class Widened(QuotientPartialGroup):
        def __init__(self, base, part):
            super().__init__(base, part)
            self.delta_sets = self.delta_sets | {frozenset({self.identity})}
            self.in_delta = [P in self.delta_sets for P in self.automaton.start_sets]

    monkeypatch.setattr(quotient, "QuotientPartialGroup", Widened)
    return s5f.loc, frozenset({s5f.loc.identity})


# check name -> (tampering, the checks it fails, in report order)
CONTROLS = {
    "kernel-of-rho": (
        stray_element_in_the_identity_coset,
        ["kernel-of-rho", "inversion-homomorphism", "quotient-inversion-involutory",
         "product-homomorphism", "representative-lift"],
    ),
    "inversion-homomorphism": (
        representative_from_another_coset,
        ["inversion-homomorphism", "quotient-inversion-involutory", "product-homomorphism",
         "representative-lift"],
    ),
    "quotient-inversion-involutory": (a_coset_no_element_maps_to, ["quotient-inversion-involutory"]),
    "product-homomorphism": (
        kernel_member_for_the_identity_coset,
        ["product-homomorphism", "representative-lift"],
    ),
    "representative-lift": (trivial_subgroup_added_to_delta, ["representative-lift"]),
}


@pytest.mark.parametrize("name", list(CONTROLS))
def test_each_check_fails_on_its_tampering(monkeypatch, s4f, s5f, name):
    tamper, failing = CONTROLS[name]
    loc, K = tamper(monkeypatch, s4f, s5f)
    report = _report(loc, K)
    assert _statuses(report)[name] == "fail"
    assert [c.name for c in report.failures()] == failing


def test_every_check_of_build_quotient_has_a_control(s4f):
    """The report is the partition's checks, build_quotient's own, then
    check_locality's on the quotient with a prefix; each of its own has an
    entry in CONTROLS."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    bundle = build_quotient(loc, K)
    names = [c.name for c in bundle.report.checks]
    partition = [c.name for c in quotient.coset_partition(loc, K).report.checks]
    axioms = ["quotient-" + c.name for c in check_locality(bundle.quotient).checks]
    assert names == partition + list(CONTROLS) + axioms


# -- the lemma suite -------------------------------------------------------------


def _lemmas_with_flags(monkeypatch, loc, K, pick):
    """verify_quotient_lemmas on loc and K's own quotient, reading a
    partition whose relative maximality flags pick(loc, K, flags) changes
    as {f: flag}."""
    bundle = build_quotient(loc, K)
    real = quotient.coset_partition

    def patched(loc, K):
        part = real(loc, K)
        flags = list(part.up_max)
        for f, flag in pick(loc, K, part.up_max).items():
            flags[f] = flag
        return replace(part, up_max=tuple(flags))

    monkeypatch.setattr(quotient, "coset_partition", patched)
    return verify_quotient_lemmas(loc, K, bundle=bundle)


def identity_not_maximal(monkeypatch, s4f, s5f):
    """LOC-S5 / N5 with the identity, a member of S, flagged not
    relatively maximal."""
    return _lemmas_with_flags(monkeypatch, s5f.loc, s5f.subsets["N5"],
                              lambda loc, K, flags: {loc.identity: False})


def maximal_without_t(monkeypatch, s4f, s5f):
    """GRP-S4 / L (T = S) with the least element whose S_f does not hold
    T flagged relatively maximal."""
    def pick(loc, K, flags):
        T = K & loc.sylow_set
        return {min(f for f in loc.elements() if not T <= loc.thread_subgroup((f,))): True}

    return _lemmas_with_flags(monkeypatch, s4f.loc, s4f.subsets["L"], pick)


def least_non_maximal_read_as_maximal(kernel, fixture):
    """The least element that is not relatively maximal flagged maximal:
    on GRP-S4 / A4 the image of its S_f is not the station of its image;
    on LOC-S5 / N5 words over it are off the base domain while their coset
    words are in the quotient's."""
    def tamper(monkeypatch, s4f, s5f):
        fx = {"s4f": s4f, "s5f": s5f}[fixture]
        return _lemmas_with_flags(
            monkeypatch, fx.loc, fx.subsets[kernel],
            lambda loc, K, flags: {flags.index(False): True},
        )

    return tamper


def a_coset_short_of_a_member(monkeypatch, s4f, s5f):
    """GRP-S4 / V4 with maximal coset 1 read without its largest member."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    bundle = build_quotient(loc, K)
    real = quotient.coset_partition

    def patched(loc, K):
        part = real(loc, K)
        maximal = list(part.maximal)
        maximal[1] = replace(maximal[1], members=maximal[1].members - {max(maximal[1].members)})
        return replace(part, maximal=maximal)

    monkeypatch.setattr(quotient, "coset_partition", patched)
    return verify_quotient_lemmas(loc, K, bundle=bundle)


def quotient_from_a_kernel_member(monkeypatch, s4f, s5f):
    """LOC-S5 / N5 with a bundle whose quotient gathers its tables with the
    identity coset represented by 26, another member of N5, as
    kernel_member_for_the_identity_coset does at build time."""
    loc, K = s5f.loc, s5f.subsets["N5"]
    bundle = build_quotient(loc, K)
    part = quotient.coset_partition(loc, K)
    reps = [rec.base for rec in part.maximal]
    reps[0] = 26
    qpg = QuotientPartialGroup(loc, with_representatives(part, reps))
    q_delta = DeltaFamily(sylow=frozenset(qpg.s_elems), members=qpg.delta_sets)
    bundle = replace(bundle, quotient=Locality(qpg, loc.p, qpg.s_elems, q_delta))
    return verify_quotient_lemmas(loc, K, bundle=bundle)


def _baseless_cosets(s4f) -> list[frozenset[int]]:
    """Maximal cosets 1 and 2 of GRP-S4 / V4, which the control below
    leaves without a relatively maximal element."""
    maximal = quotient.coset_partition(s4f.loc, s4f.subsets["V4"]).maximal
    return [maximal[1].members, maximal[2].members]


def cosets_with_no_maximal_element(monkeypatch, s4f, s5f):
    """GRP-S4 / V4 with every member of maximal cosets 1 and 2 flagged not
    relatively maximal, the partition built anew (none is kept)."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    cleared = frozenset().union(*_baseless_cosets(s4f))
    real = quotient.up_maximal_flags

    def patched(loc, K):
        return tuple(flag and f not in cleared for f, flag in enumerate(real(loc, K)))

    monkeypatch.setattr(quotient, "up_maximal_flags", patched)
    monkeypatch.setattr(quotient, "_KERNEL_CACHE", weakref.WeakKeyDictionary())
    return _report(loc, K)


# check name -> (tampering, the checks it fails, in report order)
LEMMA_CONTROLS = {
    "normalizer-elements-maximal": (identity_not_maximal, ["normalizer-elements-maximal"]),
    "maximal-station-contains-T": (
        maximal_without_t,
        ["maximal-station-contains-T", "kernel-splitting", "same-image-same-station-maximal"],
    ),
    "station-image-for-maximal": (
        least_non_maximal_read_as_maximal("A4", "s4f"),
        ["kernel-splitting", "station-image-for-maximal", "same-image-same-station-maximal"],
    ),
    "max-word-descent": (
        least_non_maximal_read_as_maximal("N5", "s5f"),
        ["kernel-splitting", "equal-image-lands-in-coset", "max-word-descent",
         "station-image-for-maximal", "same-image-same-station-maximal"],
    ),
    "oversubgroup-partition": (
        a_coset_short_of_a_member, ["equal-image-lands-in-coset", "oversubgroup-partition"]
    ),
    "oversubgroup-bijection": (
        quotient_from_a_kernel_member, ["oversubgroup-bijection", "station-image-for-maximal"]
    ),
    "maximal-coset-has-maximal-base": (
        cosets_with_no_maximal_element, ["maximal-coset-has-maximal-base"]
    ),
}


@pytest.mark.parametrize("name", list(LEMMA_CONTROLS))
def test_each_lemma_fails_on_its_tampering(monkeypatch, s4f, s5f, name):
    tamper, failing = LEMMA_CONTROLS[name]
    report = tamper(monkeypatch, s4f, s5f)
    assert _statuses(report)[name] == "fail"
    assert [c.name for c in report.failures()] == failing


def test_baseless_maximal_cosets_are_one_record_naming_each(monkeypatch, s4f, s5f):
    """maximal-coset-has-maximal-base is recorded once per partition: on a
    genuine one it passes with no witness, and with two cosets left without
    a relatively maximal element its one record names both."""
    (check,) = [c for c in quotient.coset_partition(s4f.loc, s4f.subsets["V4"]).report.checks
                if c.name == "maximal-coset-has-maximal-base"]
    assert (check.status, check.witnesses) == ("pass", [])
    expected = [sorted(c) for c in _baseless_cosets(s4f)]
    report = cosets_with_no_maximal_element(monkeypatch, s4f, s5f)
    (check,) = [c for c in report.checks if c.name == "maximal-coset-has-maximal-base"]
    assert (check.status, check.witnesses) == ("fail", expected)


@pytest.mark.parametrize("name", list(LEMMA_CONTROLS))
def test_lemma_controls_agree_with_the_references(monkeypatch, s4f, s5f, name):
    """Checks 7 and 11 of each suite a lemma control runs, on its own
    locality, kernel and bundle: check 11 as the per-R normalizer
    reference gives it, check 7 as bijection_agrees reads the
    two-enumeration reference.  The control of
    maximal-coset-has-maximal-base runs no suite."""
    runs, verify = [], verify_quotient_lemmas

    def spying(loc, K, bundle=None):
        report = verify(loc, K, bundle=bundle)
        runs.append((loc, K, bundle, {c.name: c for c in report.checks}))
        return report

    monkeypatch.setitem(globals(), "verify_quotient_lemmas", spying)  # the controls' own name
    LEMMA_CONTROLS[name][0](monkeypatch, s4f, s5f)
    assert len(runs) == (name != "maximal-coset-has-maximal-base")
    for loc, K, bundle, checks in runs:
        check = checks["normalizer-image"]
        assert (check.status, check.witnesses) == normalizer_image(loc, K, bundle)
        assert bijection_agrees(checks["oversubgroup-bijection"],
                                reference_bijection(loc, K, bundle))


def _bijection_failures(loc, K, bundle):
    report = verify_quotient_lemmas(loc, K, bundle=bundle)
    return [(c.name, c.witnesses) for c in report.failures()]


def test_a_quotient_missing_one_product_breaks_premise_iv(s4f):
    """GRP-S4 / V4 with the product of coset 1 by itself taken out of the
    quotient's table: premise (iv) fails at the least pair (a, b) of L
    with bar a = bar b = 1, and no other check reads that entry."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    bundle = build_quotient(loc, K)
    rho = bundle.rho
    quotient_ = tampered_locality(bundle.quotient, products={(1, 1): -1})
    a, b = min((a, b) for a in loc.elements() for b in loc.elements()
               if rho[a] == rho[b] == 1 and loc.pg.mul2(a, b) is not None)
    assert _bijection_failures(loc, K, replace(bundle, quotient=quotient_)) == [
        ("oversubgroup-bijection", [("rho-of-product", a, b)])
    ]


def test_an_image_that_is_not_closed_fails_the_bijection(monkeypatch, s4f):
    """GRP-S4 / V4 with the family above K given one more set, K u Kf for
    f in the coset c of order 3 in the quotient S3: the premises hold and
    the partition and image checks pass, but its image {1, c} is not
    closed (c c = c^-1)."""
    loc, K = s4f.loc, s4f.subsets["V4"]
    bundle = build_quotient(loc, K)
    rho, qpg = bundle.rho, bundle.quotient.pg
    c = min(c for c in qpg.elements() if qpg.mul2(c, c) not in (qpg.identity, c))
    extra = frozenset(x for x in loc.elements() if rho[x] in (qpg.identity, c))
    search = quotient.partial_subgroups_containing
    monkeypatch.setattr(quotient, "partial_subgroups_containing",
                        lambda pg, seed, **kwargs: search(pg, seed, **kwargs) + [extra])
    assert _bijection_failures(loc, K, bundle) == [
        ("oversubgroup-bijection", [("image-not-closed", sorted({qpg.identity, c}))])
    ]
