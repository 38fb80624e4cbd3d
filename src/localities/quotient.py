"""Quotients of localities by partial normal subgroups.

The elements of a quotient are the maximal cosets of the kernel; the
quotient map sends each element to the unique maximal coset containing it.
Products in the quotient are computed from relatively-maximal coset
representatives, and every structural property used along the way is
re-verified on the instance at hand.
"""

from __future__ import annotations

import random
import weakref
from itertools import compress
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .groups import SizeCapExceeded
from .locality import DeltaFamily, Locality, _set_rows, check_locality
from .normal import enumerate_partial_normals, is_partial_normal
from .partial import (
    PartialGroup,
    Word,
    closure_twins,
    partial_subgroup_closure,
    state_fixpoint,
    total_group_component,
)
from .report import VerificationReport

LEMMA_CAP = 200
# verify_quotient_lemmas checks images of intersections on this many sampled subsets.
LEMMA_SAMPLES = 100


class QuotientConstructionError(RuntimeError):
    def __init__(self, report: VerificationReport):
        super().__init__("quotient failed verification:\n" + report.text())
        self.report = report


@dataclass(frozen=True)
class LDeltaPair:
    """A pair (f, P) with P in Delta and P inside the threading subgroup of f."""

    f: int
    station: frozenset[int]


def pair_is_valid(loc: Locality, pair: LDeltaPair) -> bool:
    return pair.station in loc.delta.members and pair.station <= loc.thread_subgroup(
        (pair.f,)
    )


def transporter_in_K(
    loc: Locality, K: Iterable[int], P: Iterable[int], Q: Iterable[int]
) -> frozenset[int]:
    """{x in K : P inside D(x) and P^x = Q} (exact transporter)."""
    P = frozenset(P)
    Q = frozenset(Q)
    return frozenset(x for x in K if loc.conjugate_set(P, x) == Q)


def up_relates(
    loc: Locality, K: Iterable[int], a: LDeltaPair, b: LDeltaPair
) -> tuple[int, int] | None:
    """A witness (x, y) that a relates upward to b, None if there is none.

    The witness satisfies: x in K carries a.station into b.station, y in K
    carries a.station^f into b.station^g, and x·g = f·y holds in the domain.
    Transporters here allow proper containment of the image.
    """
    K = frozenset(K)
    for pair in (a, b):
        if not pair_is_valid(loc, pair):
            raise ValueError("both pairs must satisfy station <= S_f with station in Delta")
    f, P = a.f, a.station
    g, Q = b.f, b.station
    pg = loc.pg
    Pf = loc.conjugate_set(P, f)
    Qg = loc.conjugate_set(Q, g)
    if Pf is None or Qg is None:
        return None
    f_inv = pg.inverse(f)
    for x in sorted(K):
        Px = loc.conjugate_set(P, x)
        if Px is None or not Px <= Q:
            continue
        h = pg.pi((x, g))
        if h is None:
            continue
        y = pg.pi((f_inv, h))
        if y is None or y not in K:
            continue
        if pg.pi((f, y)) != h:
            continue
        Pfy = loc.conjugate_set(Pf, y)
        if Pfy is None or not Pfy <= Qg:
            continue
        return (x, y)
    return None


def _top_pair(loc: Locality, g: int) -> LDeltaPair:
    return LDeltaPair(g, loc.thread_subgroup((g,)))


def is_up_maximal(loc: Locality, K: Iterable[int], f: int) -> bool:
    """Whether (f, S_f) is maximal for the kernel-relative preorder.

    Reduction: relating upward to any (g, Q) forces relating to (g, S_g),
    and failure to relate back propagates up to (g, S_g) as well, so only
    top stations need checking.
    """
    K = frozenset(K)
    top_f = _top_pair(loc, f)
    for g in loc.elements():
        top_g = _top_pair(loc, g)
        if up_relates(loc, K, top_f, top_g) is None:
            continue
        if up_relates(loc, K, top_g, top_f) is None:
            return False
    return True


def up_maximal_flags(loc: Locality, K: Iterable[int]) -> tuple[bool, ...]:
    """is_up_maximal(loc, K, f) for every f, in one pass.

    up_relates runs on the top pairs (f, S_f), (g, S_g) for every f and g
    at once.  The stations S_f and their images S_f^f are interned as ids.
    Each conjugate of an interned station by an x in K is computed once
    (conjugate_set per station and x), and containment between the
    interned sets is read from one matrix.  For each f, an array over
    (x in K, g) says whether x and y = f^-1 (x g) are the witness
    up_relates looks for, with every product read from product_table()
    rows (pg.padded_products()).  f is maximal unless it relates upward to
    some g that does not relate back.
    """
    K = frozenset(K)
    pg = loc.pg
    n = pg.size
    tops = [_top_pair(loc, f) for f in loc.elements()]
    if not all(pair_is_valid(loc, pair) for pair in tops):
        raise ValueError("both pairs must satisfy station <= S_f with station in Delta")
    sets: list[frozenset[int]] = []
    ids: dict[frozenset[int], int] = {}

    def intern(X: frozenset[int] | None) -> int:
        if X is None:
            return -1
        i = ids.get(X)
        if i is None:
            i = ids[X] = len(sets)
            sets.append(X)
        return i

    station = np.array([intern(pair.station) for pair in tops])
    image = np.array([intern(loc.conjugate_set(pair.station, pair.f)) for pair in tops])
    ks = np.array(sorted(K))
    # conj[s, x] is the id of sets[s]^x for x in K, -1 elsewhere; the last
    # row and column stay -1, for a missing set and a missing element
    conj = np.full((len(sets) + 1, n + 1), -1)
    for s in range(len(sets)):
        for x in ks.tolist():
            conj[s, x] = intern(loc.conjugate_set(sets[s], x))
    has = np.zeros((len(sets), n), dtype=bool)
    for i, X in enumerate(sets):
        has[i, list(X)] = True
    # sub[a, b]: sets[a] <= sets[b]; the last row and column (-1) are False
    sub = np.zeros((len(sets) + 1, len(sets) + 1), dtype=bool)
    sub[:-1, :-1] = ~(has[:, None, :] & ~has[None, :, :]).any(axis=2)

    table = pg.padded_products()
    in_k = np.zeros(n + 1, dtype=bool)
    in_k[ks] = True
    h = table[ks, :n]  # x g, one row per x in K
    relates = np.zeros((n, n), dtype=bool)
    for f in range(n):
        if image[f] < 0:
            continue
        y = table[pg.inverse(f)][h]
        ok = (h >= 0) & in_k[y] & (table[f][y] == h)
        ok &= sub[conj[station[f], ks]][:, station]  # S_f^x <= S_g
        ok &= sub[conj[image[f]][y], image]  # (S_f^f)^y <= S_g^g
        relates[f] = ok.any(axis=0)
    return tuple((~(relates & ~relates.T).any(axis=1)).tolist())


# ---------------------------------------------------------------------------
# cosets and the partition


@dataclass
class CosetRecord:
    base: int
    members: frozenset[int]
    is_maximal: bool


@dataclass
class CosetPartition:
    kernel: frozenset[int]
    maximal: list[CosetRecord]
    all_cosets: list[CosetRecord]
    up_max: tuple[bool, ...]
    coset_of: tuple[int, ...]
    report: VerificationReport


def _right_coset(loc: Locality, K: frozenset[int], f: int) -> frozenset[int]:
    """Kf: the defined products k f, read from product_table()."""
    table = loc.pg.product_table()
    return frozenset(table[k][f] for k in K) - {-1}


def _left_coset(loc: Locality, K: frozenset[int], f: int) -> frozenset[int]:
    """fK: the defined products f k, read from product_table()."""
    row = loc.pg.product_table()[f]
    return frozenset(row[k] for k in K) - {-1}


# Verified partitions per locality, then per kernel.  The weak keys drop a
# locality's partitions when it is collected, so a later locality that
# reuses its id() never receives them.
_KERNEL_CACHE: weakref.WeakKeyDictionary[Locality, dict[frozenset[int], CosetPartition]] = (
    weakref.WeakKeyDictionary()
)


def coset_partition(loc: Locality, K: Iterable[int]) -> CosetPartition:
    """All cosets of K, the maximal ones, and the verified partition of L.

    The relative maximality flag of every element comes from one
    up_maximal_flags pass; cosets are read from product_table() rows.  A
    partition whose report passes is kept per locality and kernel.
    """
    K = frozenset(K)
    per_kernel = _KERNEL_CACHE.setdefault(loc, {})
    cached = per_kernel.get(K)
    if cached is not None:
        return cached
    ok, wit = is_partial_normal(loc, K)
    if not ok:
        raise ValueError(f"kernel is not partial normal (witness {wit})")
    report = VerificationReport("maximal cosets")
    coset_by_f = {f: _right_coset(loc, K, f) for f in loc.elements()}
    distinct = sorted(set(coset_by_f.values()), key=lambda c: (len(c), sorted(c)))
    maximal_sets = [
        c for c in distinct if not any(c < other for other in distinct)
    ]

    covered: set[int] = set()
    overlap = []
    for c in maximal_sets:
        if covered & c:
            overlap.append(sorted(covered & c))
        covered |= c
    report.record(
        "partition",
        not overlap and covered == set(loc.elements()),
        overlap[:5],
        "maximal cosets are disjoint and cover every element",
    )

    flags = up_maximal_flags(loc, K)
    maximal_set_lookup = set(maximal_sets)
    # Relatively maximal elements generate maximal cosets.  The converse
    # (every generator of a maximal coset is relatively maximal) is false
    # under the literal witness conditions, so it is not checked; maximal
    # cosets are instead required to own at least one maximal generator.
    bad = [f for f in loc.elements() if flags[f] and coset_by_f[f] not in maximal_set_lookup]
    report.record(
        "up-maximal-gives-maximal-coset",
        not bad,
        bad[:5],
        "Kf is a maximal coset whenever f is relatively maximal",
    )

    bad = []
    for f in loc.elements():
        if flags[f] and _left_coset(loc, K, f) != coset_by_f[f]:
            bad.append(f)
    report.record(
        "two-sided-for-maximal",
        not bad,
        bad[:5],
        "Kf = fK for relatively maximal f",
    )

    records = []
    coset_of = [-1] * loc.size
    maximal_records = []
    for members in sorted(maximal_sets, key=min):
        bases = [f for f in sorted(members) if flags[f] and coset_by_f[f] == members]
        rec = CosetRecord(
            base=bases[0] if bases else min(members),
            members=members,
            is_maximal=True,
        )
        maximal_records.append(rec)
        if not bases:
            report.record(
                "maximal-coset-has-maximal-base",
                False,
                [sorted(members)],
                "every maximal coset is generated by a relatively maximal element",
            )
        for x in members:
            coset_of[x] = len(maximal_records) - 1
    for members in distinct:
        if members not in maximal_set_lookup:
            records.append(CosetRecord(base=min(members), members=members, is_maximal=False))
    part = CosetPartition(
        kernel=K,
        maximal=maximal_records,
        all_cosets=maximal_records + records,
        up_max=flags,
        coset_of=tuple(coset_of),
        report=report,
    )
    if report.ok:
        per_kernel[K] = part
    return part


# ---------------------------------------------------------------------------
# the quotient partial group and bundle


class QuotientPartialGroup(PartialGroup):
    """Cosets of a kernel, multiplied through relatively-maximal representatives.

    A coset word is in the domain exactly when its representative word is in
    the base domain, and its product is rho of the representative word's
    product.  This is well defined because products of maximal
    representatives descend: build_quotient checks that rho is a
    homomorphism onto it on base domain words of every length.
    """

    def __init__(self, base: PartialGroup, part: CosetPartition, p: int | None):
        self.base = base
        self.part = part
        self.reps = tuple(rec.base for rec in part.maximal)
        self.rho = part.coset_of
        self.size = len(self.reps)
        self.identity = part.coset_of[base.identity]
        self._inv = tuple(part.coset_of[base.inverse(r)] for r in self.reps)
        self.labels = tuple("[" + base.labels[r] + "]" for r in self.reps)
        self.p = p

    def rep_word(self, word: Word) -> Word:
        return tuple(self.reps[c] for c in word)

    def inverse(self, x: int) -> int:
        return self._inv[x]

    def in_domain(self, word: Word) -> bool:
        return self.base.in_domain(self.rep_word(word))

    def _raw_product(self, word: Word) -> int:
        return self.rho[self.base._raw_product(self.rep_word(word))]

    def walk_start(self):
        return self.base.walk_start()

    def walk_step(self, state, x: int):
        return self.base.walk_step(state, self.reps[x])

    def _vector_components(self):
        return total_group_component(self)


@dataclass
class QuotientBundle:
    base: Locality
    kernel: frozenset[int]
    cosets: list[CosetRecord]
    rho: tuple[int, ...]
    reps: tuple[int, ...]
    quotient: Locality
    report: VerificationReport


def _coset_word_steps(pg: PartialGroup, qpg: QuotientPartialGroup):
    """(steps, rho, dims): a state of the word checks is (walker code of v,
    pi(v), walker code of its representative word, pi of that word), with
    components bounded by dims.  steps(level, f) gathers those of v f for
    every state and letter from pg.walker_table().array and
    pg.padded_products(), where -1 (a dead code, a missing value) stays -1
    and rho of -1 is -1."""
    walk = pg.walker_table().array
    table = pg.padded_products()
    rep = np.array([qpg.reps[c] for c in qpg.rho])

    def steps(level, f):
        base, v, bar, r = (c[:, None] for c in level)
        rf = rep[f]
        return walk[base, f], table[v, f], walk[bar, rf], table[r, rf]

    return steps, np.array(qpg.rho + (-1,)), (len(walk), pg.size + 1) * 2


def _homomorphism_failures(
    pg: PartialGroup, qpg: QuotientPartialGroup
) -> tuple[int, list[Word]]:
    """(states, words): the base domain words v, of every length, whose coset
    word bar(v) is off the quotient domain or has pi(bar(v)) != rho(pi(v)),
    one per failing transition of state_fixpoint.

    The states are those of _coset_word_steps: codes read from
    pg.walker_table() and values from pg.padded_products(), both built
    once per instance on first use (the walker table within
    STATE_FIXPOINT_CAP states).  pi(bar(v)) is rho of the last entry, as
    QuotientPartialGroup._raw_product defines it.  A failing word is not
    extended.
    """
    steps, rho, dims = _coset_word_steps(pg, qpg)

    def step(level, f):
        base, v, bar, r = steps(level, f)
        live = base >= 0
        bad = live & ((bar < 0) | (r < 0) | (rho[v] != rho[r]))
        return (base, v, bar, r), live & ~bad, bad

    e = pg.identity
    return state_fixpoint((0, e, 0, e), dims, pg.elements(), step)


def build_quotient(loc: Locality, K: Iterable[int]) -> QuotientBundle:
    """Form the quotient locality by K and verify it end to end.

    Verified here: the coset partition, the kernel identity, inversion
    compatibility, pi-homomorphism of the quotient map on the domain words
    of every length, and check_locality on the quotient (S-is-a-group,
    delta-well-formed, (L1), (L2), threading-matches-domain and (L3)).
    The partial-group axioms of the quotient (check_axioms) are not run.

    The homomorphism check is a state_fixpoint search (_homomorphism_failures)
    over the walker table of loc.pg, built once per instance on first use
    within STATE_FIXPOINT_CAP states, so its witnesses come in shortlex
    order, the shortest first.
    """
    K = frozenset(K)
    part = coset_partition(loc, K)
    report = VerificationReport(f"quotient by kernel of order {len(K)}")
    report.extend(part.report)
    if not part.report.ok:
        raise QuotientConstructionError(report)

    qpg = QuotientPartialGroup(loc.pg, part, loc.p)
    rho = part.coset_of
    q_sylow = sorted({rho[s] for s in loc.sylow})
    q_delta_members = frozenset(
        frozenset(rho[s] for s in P) for P in loc.delta.members
    )
    q_delta = DeltaFamily(sylow=frozenset(q_sylow), members=q_delta_members)
    quotient = Locality(qpg, loc.p, q_sylow, q_delta)

    kernel_of_rho = frozenset(
        x for x in loc.elements() if rho[x] == rho[loc.identity]
    )
    report.record(
        "kernel-of-rho",
        kernel_of_rho == K,
        [sorted(kernel_of_rho ^ K)] if kernel_of_rho != K else [],
        "elements mapping to the identity coset are exactly K",
    )

    bad = [x for x in loc.elements() if rho[loc.pg.inverse(x)] != qpg.inverse(rho[x])]
    report.record("inversion-homomorphism", not bad, bad[:5])
    bad = [c for c in range(qpg.size) if qpg.inverse(qpg.inverse(c)) != c]
    report.record("quotient-inversion-involutory", not bad, bad[:5])

    states, mism = _homomorphism_failures(loc.pg, qpg)
    report.record(
        "product-homomorphism",
        not mism,
        mism[:5],
        f"bar(pi(v)) = pi(bar(v)) on all domain words ({states} states)",
    )

    loc_report = check_locality(quotient)
    report.extend(loc_report, prefix="quotient-")

    bundle = QuotientBundle(
        base=loc,
        kernel=K,
        cosets=part.maximal,
        rho=rho,
        reps=qpg.reps,
        quotient=quotient,
        report=report,
    )
    if not report.ok:
        raise QuotientConstructionError(report)
    return bundle


# ---------------------------------------------------------------------------
# enumeration of partial subgroups (for the correspondence checks)


def partial_subgroups_containing(
    loc_pg: PartialGroup,
    seed: frozenset[int],
    cap: int = 20_000,
    stats: dict[str, int] | None = None,
) -> list[frozenset[int]]:
    """All partial subgroups of the partial group that contain the seed set.

    Each one found is grown by one element x outside it and closed again.
    current is already closed, so the closure starts from it with x alone
    as the frontier, and it stops as soon as its members equal a partial
    subgroup already found (found holds only closures, each closed on any
    table, so the stop is exact; see _close).  After x, its whole twin
    class over current is skipped: closure_twins proves, per element and
    on any table, that each twin gives the same grown closure (on a
    genuine partial group the class is current*x*current with its
    inverses).  More than cap results raise SizeCapExceeded.  When stats
    is given, stats["closures"] is set to the number of closures made.
    """
    base = partial_subgroup_closure(loc_pg, seed)
    found = {base}
    queue = [base]
    closures = 1
    while queue:
        current = queue.pop()
        done = set(current)
        for x in loc_pg.elements():
            if x in done:
                continue
            grown = partial_subgroup_closure(loc_pg, {x}, closed=current, known=found)
            closures += 1
            done.update(closure_twins(loc_pg, current, x))
            if grown not in found:
                if len(found) >= cap:
                    raise SizeCapExceeded(
                        f"too many partial subgroups to enumerate: more than the cap of {cap}"
                    )
                found.add(grown)
                queue.append(grown)
    if stats is not None:
        stats["closures"] = closures
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _partial_normals_cached(loc: Locality) -> list[frozenset[int]]:
    cache = getattr(loc, "_pn_cache", None)
    if cache is None:
        cache = [h.members for h in enumerate_partial_normals(loc)]
        loc._pn_cache = cache  # type: ignore[attr-defined]
    return cache


# ---------------------------------------------------------------------------
# the lemma suite


def _descent_failures(
    pg: PartialGroup, qpg: QuotientPartialGroup, letters: list[int]
) -> tuple[int, list[Word]]:
    """(states, words): the words w over letters, of every length, whose
    coset word bar(w) is in the quotient domain while w is off the base
    domain or rho(pi(w)) != pi(bar(w)), one per failing transition of
    state_fixpoint.

    States are those of _homomorphism_failures, read from the same
    pg.walker_table() (built once per instance on first use, within
    STATE_FIXPOINT_CAP states) and pg.padded_products(), except that a word
    off the base domain carries the dead code -1 and the missing value -1
    and is still extended; a word off the quotient domain is not, since
    none of its extensions is in it.
    """
    steps, rho, dims = _coset_word_steps(pg, qpg)

    def step(level, f):
        base, v, bar, r = steps(level, f)
        v = np.where(base >= 0, v, -1)
        live = bar >= 0
        return (base, v, bar, r), live, live & ((base < 0) | (r < 0) | (rho[v] != rho[r]))

    e = pg.identity
    return state_fixpoint((0, e, 0, e), dims, letters, step)


def _image_reader(rho: tuple[int, ...]):
    """(image, column): image(masks) maps boolean rows over L (the last
    axis) to boolean rows over the cosets rho meets, True where the row's
    set meets that coset; column[x] is the column of x's coset.

    The elements are sorted by coset once, so each image is one
    np.logical_or.reduceat over the runs of a coset.  Only cosets that rho
    meets get a column (all of them on a genuine bundle), so no run is
    empty: reduceat would read an empty run as the next element.  The
    sort is done in Python; numpy's sorting routines would add about half
    a megabyte of resident memory the first time they run.
    """
    order = sorted(range(len(rho)), key=rho.__getitem__)
    column = [0] * len(rho)
    starts = []
    for i, x in enumerate(order):
        if i == 0 or rho[x] != rho[order[i - 1]]:
            starts.append(i)
        column[x] = len(starts) - 1

    def image(masks: np.ndarray) -> np.ndarray:
        return np.logical_or.reduceat(masks[..., order], starts, axis=-1)

    return image, np.array(column)


def verify_quotient_lemmas(
    loc: Locality,
    K: Iterable[int],
    seed: int = 0,
    bundle: QuotientBundle | None = None,
) -> VerificationReport:
    """Instance-check the quotient toolbox on every admissible tuple.

    Each check is a theorem for genuine localities, so any failure reported
    here points at an engine bug rather than at the input.  A bundle, when
    given, must be one built for loc and K; it is checked as it stands.

    The set checks read arrays, each built by the first check that needs
    it: images of sets through the coset sort of _image_reader (checks 8
    and 9), the right cosets Kf as boolean rows from pg.product_table()
    (checks 9 and 13), and the product tables of L and of the quotient as
    arrays (the products m n, bar m bar n and the witness search m^-1 f
    of check 15).  Each check is computed right before it is recorded,
    so the report's per-check times are its own.
    """
    K = frozenset(K)
    if loc.size > LEMMA_CAP:
        raise SizeCapExceeded(
            f"lemma verification is capped at {LEMMA_CAP} elements; "
            f"the locality has {loc.size}"
        )
    if bundle is None:
        bundle = build_quotient(loc, K)
    elif bundle.base is not loc or bundle.kernel != K:
        raise ValueError("the quotient bundle was built for another locality or kernel")
    part = coset_partition(loc, K)
    flags = part.up_max
    rho = bundle.rho
    qloc = bundle.quotient
    qpg = qloc.pg
    report = VerificationReport(f"quotient lemmas, kernel order {len(K)}")
    pg = loc.pg
    n = pg.size
    T = K & loc.sylow_set
    max_elements = [f for f in loc.elements() if flags[f]]
    ks = sorted(K)

    # 1: every element of N_L(S), in particular of S, is relatively maximal
    nls = loc.normalizer(loc.sylow_set)
    bad = [f for f in sorted(nls | loc.sylow_set) if not flags[f]]
    report.record("normalizer-elements-maximal", not bad, bad[:5],
                  "all of N_L(S) and S is relatively maximal")

    # 2: maximality forces T inside the threading subgroup
    bad = [f for f in max_elements if not T <= loc.thread_subgroup((f,))]
    report.record("maximal-station-contains-T", not bad, bad[:5])

    # 3: splitting off a kernel factor keeps the threading subgroup
    rows = pg.product_table()
    bad = []
    for x in ks:
        for f in max_elements:
            v = rows[x][f]
            if v < 0:
                continue
            if loc.thread_subgroup((x, f)) != loc.thread_subgroup((v,)):
                bad.append((x, f))
    report.record("kernel-splitting", not bad, bad[:5],
                  "S_(x,f) = S_xf for x in K and f relatively maximal")

    # 4: equal images land in the coset of the maximal element
    bad = []
    for f in max_elements:
        Kf = _right_coset(loc, K, f)
        if Kf != part.maximal[rho[f]].members:
            bad.append(("coset-mismatch", f))
        for g in loc.elements():
            if (rho[g] == rho[f]) != (g in Kf):
                bad.append((f, g))
    report.record("equal-image-lands-in-coset", not bad, bad[:5])

    # 5: words of maximal representatives descend from the quotient domain
    states, bad = _descent_failures(pg, qpg, max_elements)
    report.record("max-word-descent", not bad, bad[:5],
                  "quotient-domain words of maximal reps are domain words below,"
                  f" on all domain words ({states} states)")

    # 6/7: partial subgroups above K correspond to quotient partial subgroups
    if len(K) == 1:
        overs = [frozenset(loc.elements())]
        report.record(
            "oversubgroup-partition",
            qpg.size == loc.size,
            [],
            "trivial kernel: the quotient map is a verified bijection",
        )
        report.record("oversubgroup-bijection", qpg.size == loc.size, [])
    else:
        stats: dict[str, int] = {}
        overs = partial_subgroups_containing(pg, K, stats=stats)
        bad = []
        for H in overs:
            inside = [rec.members for rec in part.maximal if rec.members <= H]
            union = set().union(*inside) if inside else set()
            if union != H:
                bad.append(sorted(H - union))
        report.record("oversubgroup-partition", not bad, bad[:3],
                      f"maximal cosets inside H partition H ({len(overs)} partial subgroups, "
                      f"{stats['closures']} closures)")

        images = {}
        bad = []
        for H in overs:
            img = frozenset(rho[x] for x in H)
            if img in images:
                bad.append(("collision", sorted(images[img]), sorted(H)))
            images[img] = H
        q_subs = partial_subgroups_containing(qpg, frozenset({qpg.identity}))
        if set(images) != set(q_subs):
            bad.append(("image-family-mismatch", len(images), len(q_subs)))
        for img, H in images.items():
            pn_down, _ = is_partial_normal(loc, H)
            pn_up, _ = is_partial_normal(qloc, img)
            if pn_down != pn_up:
                bad.append(("normality", sorted(H)))
        report.record("oversubgroup-bijection", not bad, bad[:3],
                      "H -> image is a bijection onto quotient partial subgroups, "
                      "preserving normality")

    # 8: images of intersections with oversubgroups (sampled subsets).  All
    # samples are drawn first, by the same rng calls in the same order as
    # one sample at a time; then each H, from the last to the first, marks
    # the samples it fails, so each failing sample keeps its first failing H.
    image, column = _image_reader(rho)
    rng = random.Random(seed)
    universe = list(loc.elements())
    samples = []
    for _ in range(LEMMA_SAMPLES):
        size = rng.randint(1, loc.size)
        samples.append(rng.sample(universe, size))
    xs = _set_rows(samples, n)
    h_rows = _set_rows(overs, n)
    both = image(h_rows)[:, None, :] & image(xs)  # bar(H) cap bar(X), per H and X
    first = np.full(LEMMA_SAMPLES, -1)
    for i in reversed(range(len(overs))):
        first[(both[i] != image(xs & h_rows[i])).any(axis=1)] = i
    bad = [(sorted(X), sorted(overs[i])) for X, i in zip(samples, first.tolist()) if i >= 0]
    report.record("image-intersection", not bad, bad[:2],
                  f"bar(X) cap bar(H) = bar(X cap H) on {LEMMA_SAMPLES} sampled X")

    # 9: preimages of subgroups of S, every R at once: row R of pre holds
    # the elements whose coset meets R, and row R of kr the union of the
    # right cosets Kr over r in R, which is KR.  in_kf[f, g]: g lies in
    # Kf, set from the products k f; a missing product (-1) lands in the
    # last column, which is dropped
    in_kf = np.zeros((n, n + 1), dtype=bool)
    in_kf[np.arange(n), [rows[k] for k in ks]] = True
    in_kf = in_kf[:, :n]
    s_sets = loc.s_subgroup_sets()
    pre = image(_set_rows(s_sets, n))[:, column]
    kr = np.array([in_kf[list(R)].any(axis=0) for R in s_sets])
    bad = [sorted(R) for R, wrong in zip(s_sets, (pre != kr).any(axis=1).tolist()) if wrong]
    report.record("preimage-is-KR", not bad, bad[:3],
                  "{f : bar f in bar R} = KR for every R <= S")

    # 10: exactness over T
    over_t = [R for R in s_sets if T <= R]
    bad = []
    for R in over_t:
        rbar = frozenset(rho[r] for r in R)
        if frozenset(s for s in loc.sylow_set if rho[s] in rbar) != R:
            bad.append(sorted(R))
    report.record("preimage-exactness-over-T", not bad, bad[:3],
                  "R = {s in S : bar s in bar R} whenever T <= R <= S")

    # 11: normalizer images inside S
    bad = []
    for R in over_t:
        rbar = frozenset(rho[r] for r in R)
        ns_r = frozenset(
            s for s in loc.sylow_set
            if loc.conjugate_set(R, s) == R
        )
        q_ns = frozenset(
            s for s in qloc.sylow_set
            if qloc.conjugate_set(rbar, s) == rbar
        )
        if frozenset(rho[x] for x in ns_r) != q_ns:
            bad.append(sorted(R))
    report.record("normalizer-image", not bad, bad[:3],
                  "N_{bar S}(bar R) = bar(N_S(R)) whenever T <= R <= S")

    # 12: threading subgroups of maximal elements push forward
    bad = []
    for f in max_elements:
        sf_bar = frozenset(rho[s] for s in loc.thread_subgroup((f,)))
        if sf_bar != qloc.thread_subgroup((rho[f],)):
            bad.append(f)
    report.record("station-image-for-maximal", not bad, bad[:5],
                  "bar(S_f) equals the quotient threading subgroup of bar f")

    # 13: equal image and equal station promote maximality; equal rows of
    # in_kf are equal cosets Kf
    coset_key = [row.tobytes() for row in in_kf]
    bad = []
    for f in max_elements:
        Sf = loc.thread_subgroup((f,))
        for g in part.maximal[rho[f]].members:
            if loc.thread_subgroup((g,)) != Sf:
                continue
            if not flags[g]:
                bad.append((f, g))
            elif coset_key[g] != coset_key[f]:
                bad.append((f, g, "coset"))
    report.record("same-image-same-station-maximal", not bad, bad[:5])

    # 14/15: bridge checks for kernels arising as intersections
    pns = _partial_normals_cached(loc)
    pairs = [
        (M, N)
        for M in pns
        for N in pns
        if M & N == K
    ]
    if not pairs:
        report.skip("images-intersect-trivially", "no partial normal pair intersects in K")
        report.skip("product-preimage-splitting", "no partial normal pair intersects in K")
        return report
    bad = []
    for M, N in pairs:
        if frozenset(rho[x] for x in M) & frozenset(rho[x] for x in N) != {qpg.identity}:
            bad.append((len(M), len(N)))
    report.record("images-intersect-trivially", not bad, bad[:3],
                  "bar M cap bar N = 1 when M cap N = K")

    # 15: f with bar f in bar M bar N is some m n with S_(m,n) = S_f; the
    # candidates n = m^-1 f come from table rows, for every m in M and f.
    # A missing product (-1) reads the pad of table, where it stays -1
    table = pg.padded_products()
    qtable = qpg.padded_products()
    rho_of = np.array(rho)
    inv = np.array([pg.inverse(x) for x in loc.elements()])
    targets = np.arange(n)
    stations = [loc.thread_subgroup((f,)) for f in loc.elements()]
    bad = []
    for M, N in pairs:
        ms, ns = sorted(M), sorted(N)
        mnbar = np.zeros(qpg.size + 1, dtype=bool)
        mnbar[qtable[np.ix_(sorted({rho[x] for x in ms}), sorted({rho[x] for x in ns}))]] = True
        mn = np.zeros(n + 1, dtype=bool)
        mn[table[np.ix_(ms, ns)]] = True
        in_n = np.zeros(n + 1, dtype=bool)
        in_n[ns] = True
        cand = table[inv[ms], :n]  # cand[i, f] = m_i^-1 f, -1 where undefined
        hits = in_n[cand] & (table[np.array(ms)[:, None], cand] == targets)
        # per f, the (m, m^-1 f) with m^-1 f in N and m (m^-1 f) = f, m ascending
        cand_of, hits_of = cand.T.tolist(), hits.T.tolist()
        in_mn = mn.tolist()
        for fx in np.flatnonzero(mnbar[rho_of]).tolist():
            if not in_mn[fx]:
                bad.append((len(M), len(N), fx, "not-in-MN"))
                continue
            if not any(
                loc.thread_subgroup((m, y)) == stations[fx]
                for m, y in compress(zip(ms, cand_of[fx]), hits_of[fx])
            ):
                bad.append((len(M), len(N), fx, "no-witness"))
    report.record("product-preimage-splitting", not bad, bad[:3],
                  "f with bar f in bar M bar N lies in MN with a matching witness")
    return report
