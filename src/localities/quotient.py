"""Quotients of localities by partial normal subgroups.

The elements of a quotient are the maximal cosets of the kernel; the
quotient map sends each element to the unique maximal coset containing it.
The quotient is a table locality whose products and conjugates are
gathered from the base's tables over relatively-maximal coset
representatives, and every structural property used along the way is
re-verified on the instance at hand.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .groups import SizeCapExceeded
from .locality import (
    DeltaFamily, Locality, LocalityPartialGroup, _image_index, _positions, _scatter, _set_rows,
)
from .normal import is_partial_normal, partial_normals
from .partial import (
    PartialGroup,
    Word,
    intern_rows,
    partial_subgroup_closure,
    state_fixpoint,
    subset_flags,
    twin_labels,
)
from .report import VerificationReport

LEMMA_CAP = 200


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
    at once.  The stations S_f are read from loc.automaton, the start set
    of the state each one-letter word reaches.  The stations, their images
    S_f^f and the images of those by each x in K are boolean rows over S
    positions, interned as ids by intern_rows; each kind of image is one
    _scatter through loc.s_positions(), and one that is undefined or
    leaves S is -1, inside no set (a station S_g and its image S_g^g lie
    in S).  Containment between the interned sets is read from one matrix.
    For each x in K, an array over (f, g) says whether x and
    y = f^-1 (x g) are the witness up_relates looks for, with every
    product read from pg.padded_products(); relates is the union of those
    |K| arrays, so no step holds more than n^2 entries.  f is maximal
    unless it relates upward to some g that does not relate back.
    """
    K = frozenset(K)
    pg = loc.pg
    n = pg.size
    auto = loc.automaton
    tops = auto.array[0]  # S_f = auto.start_sets[tops[f]]
    if not all(auto.start_sets[s] in loc.delta.members for s in set(tops.tolist())):
        raise ValueError("both pairs must satisfy station <= S_f with station in Delta")
    pos, k = loc.s_positions(), len(loc.sylow)
    codes, found = {}, []  # found: the sets, as rows over S positions, in id order

    def intern(images: np.ndarray) -> np.ndarray:  # -1 where column k marks it undefined
        ids, ok = np.full(images.shape[:-1], -1), ~images[..., k]
        rows = images[ok][:, :k]
        ids[ok], new = intern_rows(rows, codes)
        found.append(rows[new])
        return ids

    station = intern(_set_rows(auto.start_sets, n + 1)[tops][:, [*loc.sylow, n]])  # n: no station
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

    # y depends on f and h = x g alone, so every test on it is an array
    # over (f, h) made once; h = -1 (x g undefined) reads the pad column n,
    # where y = -1, outside K.  An undefined S_f^f (image -1) or a missing
    # y reads the last row or column of conj and of sub, so neither relates.
    table = pg.padded_products()
    in_k = _set_rows([K], n + 1)[0]
    y = table[pg._inv]  # y[f, h] = f^-1 h
    back = in_k[y] & (table[np.arange(n)[:, None], y] == np.arange(n + 1))  # f y = h
    over = conj[image[:, None], y]  # the id of (S_f^f)^y
    station_of = sub[:, station]
    relates = np.zeros((n, n), dtype=bool)
    for x in ks.tolist():  # relates[f, g] |= whether x and y witness it
        h = table[x, :n]
        ok = back[:, h] & station_of[conj[station, x]]  # S_f^x <= S_g
        relates |= ok & sub[over[:, h], image]  # (S_f^f)^y <= S_g^g
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
    right: np.ndarray  # right[f, g]: whether g lies in the right coset Kf


def _cosets(pg: PartialGroup, K: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """(right, left): boolean n x n arrays whose row f is the right coset
    Kf = {k f}, resp. the left coset fK = {f k}, over the k in K whose
    product with f is defined.  Each is one _scatter of K through
    pg.padded_products(); a missing product (-1) sets the last column,
    which is dropped."""
    n = pg.size
    k_row, table = _set_rows([K], n), pg.padded_products()[:n, :n]
    return _scatter(k_row, table.T)[0, :, :n], _scatter(k_row, table)[0, :, :n]


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

    Every right coset Kf and left coset fK is a row of _cosets.  The
    distinct right cosets are interned by intern_rows, and one boolean
    matrix product says which lies inside which.  The relative maximality
    flag of every element comes from one up_maximal_flags pass.  The
    partition keeps the right-coset rows for the lemma suite.  A partition
    whose report passes is kept per locality and kernel.
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
    right, left = _cosets(loc.pg, K)
    code, first = intern_rows(right, {})
    code = np.array(code)  # code[f]: the index of Kf among the distinct cosets
    cosets = right[first]
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in cosets]
    # below[a, b]: coset a lies properly inside coset b (the rows are distinct)
    below = ~(cosets @ ~cosets.T) & ~np.eye(len(sets), dtype=bool)
    maximal = [i for i in sorted(range(len(sets)), key=lambda i: (len(sets[i]), sorted(sets[i])))
               if not below[i].any()]

    # the members of each maximal coset that an earlier one already covers
    rows = cosets[maximal]
    overlap = [np.flatnonzero(r).tolist() for r in rows & (rows.cumsum(axis=0) > rows) if r.any()]
    report.record("partition", not overlap and rows.any(axis=0).all(), overlap[:5],
                  "maximal cosets are disjoint and cover every element")

    flags = up_maximal_flags(loc, K)
    up = np.array(flags, dtype=bool)
    # Relatively maximal elements generate maximal cosets.  The converse
    # (every generator of a maximal coset is relatively maximal) is false
    # under the literal witness conditions, so it is not checked; maximal
    # cosets are instead required to own at least one maximal generator.
    bad = np.flatnonzero(up & below[code].any(axis=1)).tolist()
    report.record("up-maximal-gives-maximal-coset", not bad, bad[:5],
                  "Kf is a maximal coset whenever f is relatively maximal")
    bad = np.flatnonzero(up & (left != right).any(axis=1)).tolist()
    report.record("two-sided-for-maximal", not bad, bad[:5], "Kf = fK for relatively maximal f")

    coset_of = np.full(loc.size, -1)
    records, baseless = [], []
    for i in sorted(maximal, key=lambda i: min(sets[i])):
        bases = np.flatnonzero(cosets[i] & up & (code == i)).tolist()
        records.append(CosetRecord(base=bases[0] if bases else min(sets[i]), members=sets[i]))
        if not bases:
            baseless.append(sorted(sets[i]))
        coset_of[cosets[i]] = len(records) - 1
    report.record("maximal-coset-has-maximal-base", not baseless, baseless,
                  "every maximal coset is generated by a relatively maximal element")
    part = CosetPartition(K, records, flags, tuple(coset_of.tolist()), report, right)
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
        walk, table = pg.walker_table(), pg.padded_products()
        inv = rho[pg._inv[r]]
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
    those of v f for every state and letter from pg.walker_table(),
    pg.padded_products(), qpg.walker_table() and qpg._raw, whose
    left fold is pi(bar(v)) as LocalityPartialGroup._raw_product
    multiplies.  -1 (a dead code, a missing value) stays -1, and rho of -1
    is -1."""
    walk, table = pg.walker_table(), pg.padded_products()
    bar_walk, raw = qpg.walker_table(), qpg._raw
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
    Then the quotient's own report, quotient.report (check_locality, run
    once and kept on the quotient: S-is-a-group, delta-well-formed, (L1),
    (L2), threading-matches-domain and (L3)), copied in with the prefix
    quotient-.  A quotient that fails the lift may have a domain pair with
    no raw product, so it raises before its report reads its products.  The
    partial-group axioms of the quotient (check_axioms) are not run.  Both
    word checks are
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

    report.extend(quotient.report, prefix="quotient-")

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
    table, so the stop is exact; see _close).  Only the least x of each
    label of twin_labels over current, the label itself, is closed: the
    labelling proves, on any table, that x's whole twin class gives the
    same grown closure (on a genuine partial group the class is
    current*x*current with its inverses).  More than cap results raise
    SizeCapExceeded.  When stats is given, stats["closures"] is set to the
    number of closures made.
    """
    base = partial_subgroup_closure(loc_pg, seed)
    found = {base}
    queue = [base]
    closures = 1
    while queue:
        current = queue.pop()
        label = twin_labels(loc_pg, current)
        for x in (label == np.arange(loc_pg.size)).nonzero()[0].tolist():
            grown = partial_subgroup_closure(loc_pg, {x}, closed=current, known=found)
            closures += 1
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


def _correspondence_premises(
    pg: PartialGroup, qpg: PartialGroup, K: frozenset[int], rho: np.ndarray
) -> list[tuple]:
    """One entry per premise (i)-(iv) of check 7 of verify_quotient_lemmas
    that fails, with its first witness: ("rho-not-onto", the least coset
    missed), ("rho-of-kernel", the least x in K or the identity with
    rho(x) != 1), ("rho-of-inverse", the least x with rho(x^-1) !=
    rho(x)^-1) and ("rho-of-product", a, b), the first defined ab of pg in
    row-major order with rho(a) rho(b) undefined in qpg or not rho(ab),
    from one gather of qpg.padded_products() at (rho a, rho b)."""
    n, q = pg.size, qpg.size
    out = []
    hit = np.zeros(q + 1, dtype=bool)
    hit[rho] = True
    if not hit[:q].all():
        out.append(("rho-not-onto", int(np.argmin(hit[:q]))))
    wrong = [x for x in sorted(K | {pg.identity}) if rho[x] != qpg.identity]
    if wrong:
        out.append(("rho-of-kernel", wrong[0]))
    wrong = np.flatnonzero(rho[pg._inv] != qpg._inv[rho])
    if len(wrong):
        out.append(("rho-of-inverse", int(wrong[0])))
    table = pg.padded_products()[:n, :n]
    rho_of = np.append(rho, -1)  # rho of the missing value -1 is -1
    a, b = np.nonzero((table >= 0) & (qpg.padded_products()[rho[:, None], rho] != rho_of[table]))
    if len(a):
        out.append(("rho-of-product", int(a[0]), int(b[0])))
    return out


def verify_quotient_lemmas(
    loc: Locality,
    K: Iterable[int],
    bundle: QuotientBundle | None = None,
) -> VerificationReport:
    """Instance-check the quotient toolbox on every admissible tuple.

    Each check is a theorem for genuine localities, so any failure reported
    here points at an engine bug rather than at the input.  A bundle, when
    given, must be one built for loc and K; it is checked as it stands.
    Without one, the suite takes the bundle that build_quotient kept for loc
    and K, and calls build_quotient when none is kept.

    The set checks read arrays: images of sets as rows over the cosets,
    one _scatter through rho, gathered back through rho as preimages
    (checks 7 to 12); the right cosets Kf, the rows coset_partition keeps
    (checks 4, 9 and 13), and the maximal cosets as rows (checks 4 and 6);
    the products of L and of the quotient from their padded_products()
    (the products x f of check 3, the premises of check 7, and m n,
    bar m bar n and the witness search m^-1 f of check 15); the flags of
    whole families of sets from subset_flags (check 7); and the
    normalizers in S of every R over T, on each side, from one
    _image_index gather (check 11).  Threading subgroups are compared as
    the numbers loc.automaton.thread_ids reads for whole arrays of words
    (S_(x,f) and S_xf in check 3, S_f and S_g in check 13, S_(m,y) and S_f
    in check 15), or gathered as the start sets, as rows, of the states
    the relatively maximal letters reach on each side (S_f in check 2, and
    bar(S_f) against the quotient's station of bar f in check 12).  The
    partial normal family of loc (checks 14 and 15) is enumerated before
    the report starts, and each check is computed right before it is
    recorded, so the report's per-check times are its own.

    Check 8 (image-intersection) decides bar(X cap H) = bar(X) cap bar(H)
    for every X <= L and every partial subgroup H above K, for any map
    rho.  The left side always lies in the right one.  Both sides are
    unions over x in X of their values at {x}: bar(X cap H) is the union
    of the bar({x} cap H), and bar(X) cap bar(H) the union of the
    {bar x} cap bar(H).  So the identity holds for every X exactly when it
    holds for every singleton, and at {x} it says that bar x in bar(H)
    forces x in H.  The check is therefore rho^-1(bar H) = H for every H;
    its witnesses are ([x], H) for each x that fails, x ascending, with
    the first H it fails.

    Check 7 (oversubgroup-bijection) reads the family F of check 6, the
    partial subgroups of L above K that partial_subgroups_containing finds
    (exhaustive on any table), and never searches the quotient.  Its
    premises are read on the bundle as it stands (_correspondence_premises):
    (i) rho is onto; (ii) rho(K) = {1} and rho(1) = 1; (iii) rho(x^-1) =
    rho(x)^-1; (iv) for every defined product ab of L, rho(a) rho(b) is
    defined in L/K and equals rho(ab).  Proof that the images rho(H), H in
    F, then cover every partial subgroup P of L/K: let H = rho^-1(P).  H
    holds K and 1 by (ii), as P holds 1.  It is closed under inverses by
    (iii) and under defined products of two members by (iv), which is the
    engine's own definition of a partial subgroup (_closure_failure), so H
    is in F, and rho(H) = P by (i).  Conversely, an image holds 1 and is a
    partial subgroup of L/K exactly when it is closed there, which
    subset_flags reads for every image row in one pass.  So the images are
    the quotient's partial subgroups exactly when the premises hold and
    every image is closed.  Normality on both sides is read by subset_flags
    too, one pass per side.  The witnesses, in order: ("collision", H', H)
    for two members of F with one image, the premises that fail,
    ("image-not-closed", bar H) and ("normality", H) for each image, by its
    last H, whose normality differs from that of H.
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
    pns = [h.members for h in partial_normals(loc)]  # enumerated before the first check's clock
    flags = part.up_max
    rho = bundle.rho
    qloc = bundle.quotient
    qpg = qloc.pg
    report = VerificationReport(f"quotient lemmas, kernel order {len(K)}")
    pg = loc.pg
    n, q = pg.size, qpg.size
    T = K & loc.sylow_set
    max_elements = [f for f in loc.elements() if flags[f]]
    ks = sorted(K)
    rho_of = np.array(rho)
    maxes = np.array(max_elements, dtype=np.int64)
    auto = loc.automaton

    def image(masks: np.ndarray) -> np.ndarray:  # bar X for each row X over L, over the cosets
        return _scatter(masks, rho_of[None])[:, 0, :q]

    def preimage(masks: np.ndarray) -> np.ndarray:  # rho^-1(bar X) for each row X over L
        return image(masks)[:, rho_of]

    # 1: every element of N_L(S), in particular of S, is relatively maximal
    nls = loc.normalizer(loc.sylow_set)
    bad = [f for f in sorted(nls | loc.sylow_set) if not flags[f]]
    report.record("normalizer-elements-maximal", not bad, bad[:5],
                  "all of N_L(S) and S is relatively maximal")

    # 2: maximality forces T inside the threading subgroup; row i of
    # stations is S_f_i, the start set of the state f_i reaches
    stations = _set_rows(auto.start_sets, n)[auto.array[0, maxes]]
    bad = maxes[~stations[:, sorted(T)].all(axis=1)].tolist()
    report.record("maximal-station-contains-T", not bad, bad[:5])

    # 3: splitting off a kernel factor keeps the threading subgroup; a
    # missing product x f (-1) is masked before its number is compared
    table = pg.padded_products()
    xs = np.array(ks)[:, None]
    xf = table[xs, maxes]
    x, f = np.nonzero((xf >= 0) & (auto.thread_ids(xs, maxes) != auto.thread_ids(xf)))
    bad = list(zip(xs[x, 0].tolist(), maxes[f].tolist()))
    report.record("kernel-splitting", not bad, bad[:5],
                  "S_(x,f) = S_xf for x in K and f relatively maximal")

    # 4: equal images land in the coset of the maximal element: row i of
    # kf is K f_i, of own the maximal coset rho(f_i) and of same rho^-1(rho(f_i))
    kf = part.right[maxes]
    cosets = _set_rows([rec.members for rec in part.maximal], n)
    own = cosets[rho_of[maxes]]
    same = rho_of[maxes][:, None] == rho_of
    bad = []
    for f, mismatch, wrong in zip(max_elements, (kf != own).any(axis=1).tolist(), same != kf):
        if mismatch:
            bad.append(("coset-mismatch", f))
        bad += [(f, g) for g in np.flatnonzero(wrong).tolist()]
    report.record("equal-image-lands-in-coset", not bad, bad[:5])

    # 5: words of maximal representatives descend from the quotient domain
    states, bad = _descent_failures(pg, qpg, max_elements)
    report.record("max-word-descent", not bad, bad[:5],
                  "quotient-domain words of maximal reps are domain words below,"
                  f" on all domain words ({states} states)")

    # 6/7: partial subgroups above K correspond to quotient partial subgroups
    stats: dict[str, int] = {}
    overs = ([frozenset(loc.elements())] if len(K) == 1
             else partial_subgroups_containing(pg, K, stats=stats))
    h_rows = _set_rows(overs, n)
    if len(K) == 1:
        report.record(
            "oversubgroup-partition",
            qpg.size == loc.size,
            [],
            "trivial kernel: the quotient map is a verified bijection",
        )
        report.record("oversubgroup-bijection", qpg.size == loc.size, [])
    else:
        # 6: row H of inside marks the maximal cosets inside H, whose union
        # must be H
        inside = ~(~h_rows @ cosets.T)
        short = h_rows & ~(inside @ cosets)
        bad = [np.flatnonzero(row).tolist() for row in short if row.any()]
        report.record("oversubgroup-partition", not bad, bad[:3],
                      f"maximal cosets inside H partition H ({len(overs)} partial subgroups, "
                      f"{stats['closures']} closures)")

        # 7: the images of F are the quotient's partial subgroups, by the
        # proof in the docstring; last[c] is the last H with image code c
        bars = image(h_rows)
        last: dict[int, int] = {}
        bad = []
        for i, c in enumerate(intern_rows(bars, {})[0]):
            if c in last:
                bad.append(("collision", sorted(overs[last[c]]), sorted(overs[i])))
            last[c] = i
        bad += _correspondence_premises(pg, qpg, K, rho_of)
        keep = list(last.values())
        closed_up, normal_up = subset_flags(qpg, bars[keep])
        _, normal_down = subset_flags(pg, h_rows[keep])
        bad += [("image-not-closed", np.flatnonzero(bars[i]).tolist())
                for i, closed in zip(keep, closed_up.tolist()) if not closed]
        bad += [("normality", sorted(overs[i]))
                for i, wrong in zip(keep, (normal_down != normal_up).tolist()) if wrong]
        report.record("oversubgroup-bijection", not bad, bad[:3],
                      "H -> image is a bijection onto quotient partial subgroups, "
                      "preserving normality")

    # 8: images of intersections with oversubgroups, for every X: row H of
    # stray holds the x outside H with bar x in bar(H) (see the docstring)
    stray = preimage(h_rows) & ~h_rows
    fails = np.flatnonzero(stray.any(axis=0))[:2]
    bad = [([x], sorted(overs[i]))
           for x, i in zip(fails.tolist(), stray[:, fails].argmax(axis=0).tolist())]
    report.record("image-intersection", not bad, bad,
                  "bar(X) cap bar(H) = bar(X cap H) for every X: rho^-1(bar H) = H")

    # 9: preimages of subgroups of S, every R at once: row R of pre holds
    # the elements whose coset meets R, and row R of kr the union of the
    # right cosets Kr over r in R, which is KR
    s_sets = loc.s_subgroup_sets()
    s_rows = _set_rows(s_sets, n)
    pre = preimage(s_rows)
    kr = s_rows @ part.right
    bad = [sorted(R) for R, wrong in zip(s_sets, (pre != kr).any(axis=1).tolist()) if wrong]
    report.record("preimage-is-KR", not bad, bad[:3],
                  "{f : bar f in bar R} = KR for every R <= S")

    # 10: exactness over T, every R at once as rows over L
    over_t = [R for R in s_sets if T <= R]
    r_rows = _set_rows(over_t, n)
    wrong = (preimage(r_rows) != r_rows)[:, loc.sylow].any(axis=1)
    bad = [sorted(R) for R, w in zip(over_t, wrong.tolist()) if w]
    report.record("preimage-exactness-over-T", not bad, bad[:3],
                  "R = {s in S : bar s in bar R} whenever T <= R <= S")

    # 11: normalizer images inside S
    def normalized(pg_: PartialGroup, rows: np.ndarray, members: tuple[int, ...]) -> np.ndarray:
        """Rows over pg_'s elements: each X of rows with the members s
        where X^s = X (all defined), read from one _image_index of every
        X by every s through the conjugation array, against the distinct
        rows."""
        code, first = intern_rows(rows, {})
        _, index = _image_index(rows, pg_.conj_table()[:pg_.size, members].T, rows[first])
        out = np.zeros_like(rows)
        out[:, members] = index == np.array(code)[:, None]
        return out

    wrong = image(normalized(pg, r_rows, loc.sylow)) != normalized(qpg, image(r_rows), qloc.sylow)
    bad = [sorted(R) for R, w in zip(over_t, wrong.any(axis=1).tolist()) if w]
    report.record("normalizer-image", not bad, bad[:3],
                  "N_{bar S}(bar R) = bar(N_S(R)) whenever T <= R <= S")

    # 12: threading subgroups of maximal elements push forward: bar(S_f)
    # against the start set of the quotient state that bar f reaches
    qauto = qloc.automaton
    q_stations = _set_rows(qauto.start_sets, q)[qauto.array[0, rho_of[maxes]]]
    bad = maxes[(image(stations) != q_stations).any(axis=1)].tolist()
    report.record("station-image-for-maximal", not bad, bad[:5],
                  "bar(S_f) equals the quotient threading subgroup of bar f")

    # 13: equal image and equal station promote maximality; equal right
    # coset rows are equal cosets Kf.  Row i of fail marks the g in the
    # maximal coset of bar f_i (own) with S_g = S_f_i that break it; a
    # failing row is listed in the order its coset's members iterate
    station = auto.thread_ids(np.arange(n))
    coset = np.array(intern_rows(part.right, {})[0])
    up = np.array(flags, dtype=bool)
    fail = own & (station == station[maxes][:, None]) & (~up | (coset != coset[maxes][:, None]))
    bad = []
    for i in np.flatnonzero(fail.any(axis=1)).tolist():
        f = max_elements[i]
        bad += [(f, g) if not flags[g] else (f, g, "coset")
                for g in part.maximal[rho[f]].members if fail[i, g]]
    report.record("same-image-same-station-maximal", not bad, bad[:5])

    # 14/15: bridge checks for kernels arising as intersections
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
    # A missing product (-1) reads the pad of table, where it stays -1, and
    # is masked before its number is compared
    qtable = qpg.padded_products()
    targets = np.arange(n)
    bad = []
    for M, N in pairs:
        ms, ns = sorted(M), sorted(N)
        mnbar = np.zeros(qpg.size + 1, dtype=bool)
        mnbar[qtable[np.ix_(sorted({rho[x] for x in ms}), sorted({rho[x] for x in ns}))]] = True
        mn = np.zeros(n + 1, dtype=bool)
        mn[table[np.ix_(ms, ns)]] = True
        in_n = _set_rows([N], n + 1)[0]
        m_col = np.array(ms)[:, None]
        cand = table[pg._inv[ms], :n]  # cand[i, f] = m_i^-1 f, -1 where undefined
        hits = in_n[cand] & (table[m_col, cand] == targets)
        # per f, some (m, m^-1 f) with m^-1 f in N, m (m^-1 f) = f and S_(m,m^-1 f) = S_f
        witnessed = (hits & (auto.thread_ids(m_col, cand) == station)).any(axis=0)
        bad += [(len(M), len(N), fx, "no-witness" if mn[fx] else "not-in-MN")
                for fx in np.flatnonzero(mnbar[rho_of] & ~(mn[:n] & witnessed)).tolist()]
    report.record("product-preimage-splitting", not bad, bad[:3],
                  "f with bar f in bar M bar N lies in MN with a matching witness")
    return report
