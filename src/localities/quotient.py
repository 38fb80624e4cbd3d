"""Quotients of localities by partial normal subgroups.

The elements of a quotient are the maximal cosets of the kernel; the
quotient map sends each element to the unique maximal coset containing it.
The quotient is a table locality whose products and conjugates are
gathered from the base's tables over relatively-maximal coset
representatives, and every structural property used along the way is
re-verified on the instance at hand.
"""

from __future__ import annotations

import random
import weakref
from itertools import compress
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .groups import SizeCapExceeded
from .locality import (
    DeltaFamily, Locality, LocalityPartialGroup, _positions, _scatter, _set_rows, check_locality,
)
from .normal import is_partial_normal, partial_normals
from .partial import (
    PartialGroup,
    Word,
    closure_twins,
    intern_rows,
    partial_subgroup_closure,
    state_fixpoint,
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
    at once.  The stations S_f, their images S_f^f and the images of those
    by each x in K are boolean rows over S positions, interned as ids by
    intern_rows; each kind of image is one _scatter through
    loc.s_positions(), and one that is undefined or leaves S is -1, inside
    no set (a station S_g and its image S_g^g lie in S).  Containment
    between the interned sets is read from one matrix.  For each f, an
    array over (x in K, g) says whether x and y = f^-1 (x g) are the
    witness up_relates looks for, with every product read from
    product_table() rows (pg.padded_products()).  f is maximal unless it
    relates upward to some g that does not relate back.
    """
    K = frozenset(K)
    pg = loc.pg
    n = pg.size
    tops = [_top_pair(loc, f) for f in loc.elements()]
    if not all(pair_is_valid(loc, pair) for pair in tops):
        raise ValueError("both pairs must satisfy station <= S_f with station in Delta")
    pos, k = loc.s_positions(), len(loc.sylow)
    codes, found = {}, []  # found: the sets, as rows over S positions, in id order

    def intern(images: np.ndarray) -> np.ndarray:  # -1 where column k marks it undefined
        ids, ok = np.full(images.shape[:-1], -1), ~images[..., k]
        rows = images[ok][:, :k]
        ids[ok], new = intern_rows(rows, codes)
        found.append(rows[new])
        return ids

    station = intern(_set_rows([p.station for p in tops], n + 1)[:, [*loc.sylow, n]])  # n: no station
    image = intern(_scatter(np.concatenate(found), pos)[station, np.arange(n)])
    ks = np.array(sorted(K))
    # conj[s, x] is the id of set s^x for x in K, -1 elsewhere; the last
    # row and column stay -1, for a missing set and a missing element
    conj = np.full((len(codes) + 1, n + 1), -1)
    conj[:-1, ks] = intern(_scatter(np.concatenate(found), pos[ks]))
    has = np.concatenate(found)
    # sub[a, b]: set a <= set b; the last row and column (-1) are False
    sub = np.zeros((len(has) + 1, len(has) + 1), dtype=bool)
    sub[:-1, :-1] = ~(has[:, None, :] & ~has[None, :, :]).any(axis=2)

    table = pg.padded_products()
    in_k = _set_rows([K], n + 1)[0]
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


@dataclass
class CosetPartition:
    kernel: frozenset[int]
    maximal: list[CosetRecord]
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


# Verified results per locality, then per kernel: the coset partitions of
# coset_partition and the quotient bundles of build_quotient.  Only a result
# whose report passes is kept.  The weak keys drop a locality's results when
# it is collected, so a later locality that reuses its id() never receives
# them; a bundle is kept without its base, which would hold the key alive.
_KERNEL_CACHE: weakref.WeakKeyDictionary[Locality, dict[frozenset[int], CosetPartition]] = (
    weakref.WeakKeyDictionary()
)
_BUNDLE_CACHE: weakref.WeakKeyDictionary[Locality, dict[frozenset[int], QuotientBundle]] = (
    weakref.WeakKeyDictionary()
)


def coset_partition(loc: Locality, K: Iterable[int]) -> CosetPartition:
    """The maximal cosets of K and the verified partition of L.

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

    coset_of = [-1] * loc.size
    maximal_records = []
    for members in sorted(maximal_sets, key=min):
        bases = [f for f in sorted(members) if flags[f] and coset_by_f[f] == members]
        base = bases[0] if bases else min(members)
        maximal_records.append(CosetRecord(base=base, members=members))
        if not bases:
            report.record(
                "maximal-coset-has-maximal-base",
                False,
                [sorted(members)],
                "every maximal coset is generated by a relatively maximal element",
            )
        for x in members:
            coset_of[x] = len(maximal_records) - 1
    part = CosetPartition(
        kernel=K,
        maximal=maximal_records,
        up_max=flags,
        coset_of=tuple(coset_of),
        report=report,
    )
    if report.ok:
        per_kernel[K] = part
    return part


# ---------------------------------------------------------------------------
# the quotient partial group and bundle


class QuotientPartialGroup(LocalityPartialGroup):
    """L/N as a table locality, over the maximal cosets of the kernel.

    Each coset c has a representative r_c, the relatively maximal base of
    its CosetRecord; rho is the coset map.  The tables are
    gathered from base.pg.walker_table() and base.pg.padded_products():
    - inverses rho(r_c^-1), S-bar = rho(S) and Delta-bar = rho(Delta);
    - raw[a][b] = rho(r_a r_b), -1 where (r_a, r_b) is off the base domain;
    - conj_maps[g, i], the position in S-bar of rho(Pi(r_h, r_s, r_g)) for
      h = g^-1 and the i-th member s of S-bar, -1 where that word is off
      the base domain or its image leaves S-bar.
    Words are then decided by threading, as in every LocalityPartialGroup.
    That this domain and product are the images of the base's is what
    build_quotient proves.
    """

    def __init__(self, base: Locality, part: CosetPartition):
        pg = base.pg
        self.base = pg
        self.reps = tuple(rec.base for rec in part.maximal)
        self.rho = part.coset_of
        size = len(self.reps)
        r = np.array(self.reps)
        rho = np.array(self.rho + (-1,))  # rho of the missing value -1 is -1
        walk, table = pg.walker_table().array, pg.padded_products()
        inv = rho[[pg.inverse(x) for x in self.reps]]
        s_bar = tuple(sorted({self.rho[s] for s in base.sylow}))
        h, s, g = r[inv][:, None], r[list(s_bar)], r[:, None]
        image = np.where(walk[walk[walk[0, h], s], g] >= 0, rho[table[table[h, s], g]], -1)
        super().__init__(
            size=size,
            identity=self.rho[pg.identity],
            inv=tuple(inv.tolist()),
            labels=tuple("[" + pg.labels[x] + "]" for x in self.reps),
            raw=rho[table[np.ix_(r, r)]],
            raw_missing=lambda a, b: ValueError(
                f"the representatives of cosets {a} and {b} have no product in the base"
            ),
            p=base.p,
            s_elems=s_bar,
            delta_sets=frozenset(frozenset(self.rho[x] for x in P) for P in base.delta.members),
            conj_maps=_positions(s_bar, size + 1)[image],
        )

    in_domain = LocalityPartialGroup.in_domain  # a class entry that perfbench/tracing.py counts


@dataclass
class QuotientBundle:
    base: Locality
    kernel: frozenset[int]
    rho: tuple[int, ...]
    quotient: Locality
    report: VerificationReport


def _coset_word_steps(pg: PartialGroup, qpg: QuotientPartialGroup):
    """(steps, rho): a state of the word checks is (walker code of v, pi(v),
    quotient walker code of bar(v), pi(bar(v))).  steps(level, f) gathers
    those of v f for every state and letter from pg.walker_table().array,
    pg.padded_products(), qpg.walker_table().array and qpg._raw, whose
    left fold is pi(bar(v)) as LocalityPartialGroup._raw_product
    multiplies.  -1 (a dead code, a missing value) stays -1, and rho of -1
    is -1."""
    walk, table = pg.walker_table().array, pg.padded_products()
    bar_walk, raw = qpg.walker_table().array, qpg._raw
    rho = np.array(qpg.rho + (-1,))

    def steps(level, f):
        base, v, bar, r = (c[:, None] for c in level)
        fbar = rho[f]
        return walk[base, f], table[v, f], bar_walk[bar, fbar], raw[r, fbar]

    return steps, rho


def _homomorphism_failures(
    pg: PartialGroup, qpg: QuotientPartialGroup
) -> tuple[int, list[Word]]:
    """(states, words): the base domain words v, of every length, whose coset
    word bar(v) is off the quotient domain or has pi(bar(v)) != rho(pi(v)),
    one per failing transition of state_fixpoint.

    The states are those of _coset_word_steps: codes read from the walker
    tables of pg and qpg and values from pg.padded_products() and qpg's
    raw product, each table built once per instance on first use.  A
    failing word is not extended.
    """
    steps, rho = _coset_word_steps(pg, qpg)

    def step(level, f):
        base, v, bar, r = steps(level, f)
        live = base >= 0
        bad = live & ((bar < 0) | (r < 0) | (rho[v] != r))
        return (base, v, bar, r), live & ~bad, bad

    return state_fixpoint((0, pg.identity, 0, qpg.identity), pg.elements(), step)


def build_quotient(loc: Locality, K: Iterable[int]) -> QuotientBundle:
    """Form the quotient locality by K, the table locality that
    QuotientPartialGroup gathers from loc's tables, and verify it end to end.

    Verified here: the coset partition, the kernel identity, inversion
    compatibility, and that the quotient's threading domain and raw product
    are the images of loc's, on words of every length, both ways:
    - product-homomorphism: every base domain word v has bar(v) in the
      quotient domain with pi(bar(v)) = rho(pi(v)) (_homomorphism_failures);
    - representative-lift: every quotient domain word, written in the
      representatives, is a base domain word with that image
      (_descent_failures over the representatives).
    Then check_locality on the quotient (S-is-a-group, delta-well-formed,
    (L1), (L2), threading-matches-domain and (L3)).  A quotient that fails
    the lift may have a domain pair with no raw product, so it raises
    before check_locality reads its products.  The partial-group axioms of
    the quotient (check_axioms) are not run.  Both word checks are
    state_fixpoint searches over the walker tables of loc.pg and of the
    quotient, so their witnesses come in shortlex order, the shortest first.

    Every call builds and verifies anew.  A bundle whose report passes is
    kept per locality and kernel, for verify_quotient_lemmas; a failing one
    raises and is never kept.
    """
    K = frozenset(K)
    part = coset_partition(loc, K)
    report = VerificationReport(f"quotient by kernel of order {len(K)}")
    report.extend(part.report)
    if not part.report.ok:
        raise QuotientConstructionError(report)

    qpg = QuotientPartialGroup(loc, part)
    rho = part.coset_of
    q_delta = DeltaFamily(sylow=frozenset(qpg.s_elems), members=qpg.delta_sets)
    quotient = Locality(qpg, loc.p, qpg.s_elems, q_delta)

    kernel_of_rho = frozenset(x for x in loc.elements() if rho[x] == rho[loc.identity])
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
    states, mism = _descent_failures(loc.pg, qpg, list(qpg.reps))
    report.record(
        "representative-lift",
        not mism,
        mism[:5],
        f"quotient domain words of representatives lift with their image ({states} states)",
    )
    if mism:
        raise QuotientConstructionError(report)

    loc_report = check_locality(quotient)
    report.extend(loc_report, prefix="quotient-")

    bundle = QuotientBundle(base=loc, kernel=K, rho=rho, quotient=quotient, report=report)
    if not report.ok:
        raise QuotientConstructionError(report)
    _BUNDLE_CACHE.setdefault(loc, {})[K] = replace(bundle, base=None)
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
    tables, except that a word off the base domain carries the dead code -1
    and the missing value -1 and is still extended; a word off the quotient
    domain is not, since none of its extensions is in it.
    """
    steps, rho = _coset_word_steps(pg, qpg)

    def step(level, f):
        base, v, bar, r = steps(level, f)
        v = np.where(base >= 0, v, -1)
        live = bar >= 0
        return (base, v, bar, r), live, live & ((base < 0) | (r < 0) | (rho[v] != r))

    return state_fixpoint((0, pg.identity, 0, qpg.identity), letters, step)


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
    Without one, the suite takes the bundle that build_quotient kept for loc
    and K, and calls build_quotient when none is kept.

    The set checks read arrays, each built by the first check that needs
    it: images of sets as rows over the cosets, one _scatter through rho
    (checks 8 and 9), the right cosets Kf as boolean rows, one _scatter
    through pg.product_table() (checks 9 and 13), and the product tables
    of L and of the quotient as arrays (the products m n, bar m bar n and
    the witness search m^-1 f of check 15).  Each check is computed right
    before it is recorded, so the report's per-check times are its own.
    """
    K = frozenset(K)
    if loc.size > LEMMA_CAP:
        raise SizeCapExceeded(
            f"lemma verification is capped at {LEMMA_CAP} elements; "
            f"the locality has {loc.size}"
        )
    if bundle is None:
        kept = _BUNDLE_CACHE.get(loc, {}).get(K)
        bundle = build_quotient(loc, K) if kept is None else replace(kept, base=loc)
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
    rho_of = np.array(rho)

    def image(masks: np.ndarray) -> np.ndarray:  # the cosets each row over L meets
        return _scatter(masks, rho_of[None])[:, 0]

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
    in_kf = _scatter(_set_rows([K], n), np.array(rows).T)[0, :, :n]
    s_sets = loc.s_subgroup_sets()
    pre = image(_set_rows(s_sets, n))[:, rho_of]
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
        ns_r = loc.normalizer(R) & loc.sylow_set
        q_ns = qloc.normalizer(rbar) & qloc.sylow_set
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
    pns = [h.members for h in partial_normals(loc)]
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
        in_n = _set_rows([N], n + 1)[0]
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
