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
from dataclasses import dataclass
from typing import Iterable

from .groups import SizeCapExceeded, subset_group
from .locality import DeltaFamily, Locality, check_locality
from .normal import enumerate_partial_normals, is_partial_normal
from .partial import PartialGroup, Word, partial_subgroup_closure, subset_product
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
    pg = loc.pg
    out = set()
    for k in K:
        v = pg.pi((k, f))
        if v is not None:
            out.add(v)
    return frozenset(out)


def _left_coset(loc: Locality, K: frozenset[int], f: int) -> frozenset[int]:
    pg = loc.pg
    out = set()
    for k in K:
        v = pg.pi((f, k))
        if v is not None:
            out.add(v)
    return frozenset(out)


# Verified partitions per locality, then per kernel.  The weak keys drop a
# locality's partitions when it is collected, so a later locality that
# reuses its id() never receives them.
_KERNEL_CACHE: weakref.WeakKeyDictionary[Locality, dict[frozenset[int], CosetPartition]] = (
    weakref.WeakKeyDictionary()
)


def coset_partition(loc: Locality, K: Iterable[int]) -> CosetPartition:
    """All cosets of K, the maximal ones, and the verified partition of L."""
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

    flags = tuple(is_up_maximal(loc, K, f) for f in loc.elements())
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


def maximal_cosets(loc: Locality, K: Iterable[int]) -> list[CosetRecord]:
    """The maximal cosets of K; raises if they fail to behave as a partition."""
    part = coset_partition(loc, K)
    if not part.report.ok:
        raise QuotientConstructionError(part.report)
    return part.maximal


# ---------------------------------------------------------------------------
# the quotient partial group and bundle


class QuotientPartialGroup(PartialGroup):
    """Cosets of a kernel, multiplied through relatively-maximal representatives.

    A coset word is in the domain exactly when its representative word is in
    the base domain; this is well defined because products of maximal
    representatives descend, a fact the bundle verifies exhaustively.
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

    @property
    def domain_is_total(self) -> bool:  # type: ignore[override]
        return self.words_all_in_domain(frozenset(self.elements()))[0]

    def _vector_components(self):
        if not self.domain_is_total:
            return None
        return [(tuple(self.elements()), subset_group(self.elements(), self.mul2, self.labels))]

    def words_all_in_domain(self, members: frozenset[int]):
        """The base verdict on the representatives; the base witness is a
        word over them, read back as a coset word through rho."""
        ok, criterion, wit = self.base.words_all_in_domain(
            frozenset(self.reps[c] for c in members)
        )
        if wit is not None:
            wit = tuple(self.rho[x] for x in wit)
        return ok, criterion, wit


@dataclass
class QuotientBundle:
    base: Locality
    kernel: frozenset[int]
    cosets: list[CosetRecord]
    rho: tuple[int, ...]
    reps: tuple[int, ...]
    quotient: Locality
    report: VerificationReport

    def image_of(self, members: Iterable[int]) -> frozenset[int]:
        return frozenset(self.rho[x] for x in members)

    def preimage_of(self, cosets: Iterable[int]) -> frozenset[int]:
        wanted = set(cosets)
        return frozenset(x for x in self.base.elements() if self.rho[x] in wanted)


def build_quotient(
    loc: Locality, K: Iterable[int], check_len: int = 3, hom_len: int = 3
) -> QuotientBundle:
    """Form the quotient locality by K and verify it end to end.

    Verified here: the coset partition, pi-homomorphism of the quotient map
    on all domain words up to hom_len, the kernel identity, inversion
    compatibility, and the locality axioms of the quotient up to check_len.
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

    # Many base words share one coset word, so pi(bar) is asked once per
    # coset word and kept in a list indexed by the word's bijective base-q
    # code (() -> 0, bar + (c,) -> code * q + c + 1): -2 not asked yet, -1
    # off the quotient domain (pi None), else the value.
    q = qpg.size
    q_pi = [-2] * sum(q**k for k in range(hom_len + 1))
    walk_step, mul2 = loc.pg.walk_step, loc.pg.mul2
    mism: list[Word] = []

    def sweep(word: Word, code: int, state, value) -> None:
        if len(mism) > 5:
            return
        for g in loc.elements():
            nxt = walk_step(state, g)
            if nxt is None:
                continue
            v = g if value is None else mul2(value, g)
            w = word + (g,)
            c = code * q + rho[g] + 1
            got = q_pi[c]
            if got == -2:
                got = qpg.pi(tuple(rho[x] for x in w))
                if got is None:
                    got = -1
                q_pi[c] = got
            # -1 never equals rho[v], so this also checks the domain
            if got != rho[v]:
                mism.append(w)
            elif len(w) < hom_len:
                sweep(w, c, nxt, v)

    sweep((), 0, loc.pg.walk_start(), None)
    report.record(
        "product-homomorphism",
        not mism,
        mism[:5],
        f"bar(pi(v)) = pi(bar(v)) on all domain words up to length {hom_len}",
    )

    loc_report = check_locality(quotient, max_len=check_len)
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
    loc_pg: PartialGroup, seed: frozenset[int], cap: int = 20_000
) -> list[frozenset[int]]:
    """All partial subgroups of the partial group that contain the seed set."""
    base = partial_subgroup_closure(loc_pg, seed)
    found = {base}
    queue = [base]
    while queue:
        current = queue.pop()
        for x in loc_pg.elements():
            if x in current:
                continue
            grown = partial_subgroup_closure(loc_pg, current | {x})
            if grown not in found:
                if len(found) >= cap:
                    raise SizeCapExceeded("too many partial subgroups to enumerate")
                found.add(grown)
                queue.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _partial_normals_cached(loc: Locality) -> list[frozenset[int]]:
    cache = getattr(loc, "_pn_cache", None)
    if cache is None:
        cache = [h.members for h in enumerate_partial_normals(loc)]
        loc._pn_cache = cache  # type: ignore[attr-defined]
    return cache


# ---------------------------------------------------------------------------
# the lemma suite


def verify_quotient_lemmas(
    loc: Locality,
    K: Iterable[int],
    seed: int = 0,
    samples: int = 100,
    bundle: QuotientBundle | None = None,
) -> VerificationReport:
    """Instance-check the quotient toolbox on every admissible tuple.

    Each check is a theorem for genuine localities, so any failure reported
    here points at an engine bug rather than at the input.
    """
    K = frozenset(K)
    if loc.size > LEMMA_CAP:
        raise SizeCapExceeded(f"lemma verification is capped at {LEMMA_CAP} elements")
    if bundle is None:
        bundle = build_quotient(loc, K)
    part = coset_partition(loc, K)
    flags = part.up_max
    rho = bundle.rho
    qloc = bundle.quotient
    qpg = qloc.pg
    report = VerificationReport(f"quotient lemmas, kernel order {len(K)}")
    pg = loc.pg
    T = K & loc.sylow_set
    max_elements = [f for f in loc.elements() if flags[f]]

    # 1: every element of N_L(S), in particular of S, is relatively maximal
    nls = loc.normalizer(loc.sylow_set)
    bad = [f for f in sorted(nls | loc.sylow_set) if not flags[f]]
    report.record("normalizer-elements-maximal", not bad, bad[:5],
                  "all of N_L(S) and S is relatively maximal")

    # 2: maximality forces T inside the threading subgroup
    bad = [f for f in max_elements if not T <= loc.thread_subgroup((f,))]
    report.record("maximal-station-contains-T", not bad, bad[:5])

    # 3: splitting off a kernel factor keeps the threading subgroup
    bad = []
    for x in sorted(K):
        for f in max_elements:
            v = pg.pi((x, f))
            if v is None:
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
    bad = []

    def word_sweep(word: Word, bar: Word) -> None:
        if len(bad) > 5 or len(word) >= 3:
            return
        for f in max_elements:
            w = word + (f,)
            b = bar + (rho[f],)
            in_q = qpg.in_domain(b)
            in_l = pg.in_domain(w)
            if in_q:
                if not in_l or rho[pg.pi(w)] != qpg.pi(b):
                    bad.append(w)
            word_sweep(w, b)

    word_sweep((), ())
    report.record("max-word-descent", not bad, bad[:5],
                  "quotient-domain words of maximal reps are domain words below")

    # 6/7: partial subgroups above K correspond to quotient partial subgroups
    if len(K) == 1:
        report.record(
            "oversubgroup-partition",
            qpg.size == loc.size,
            [],
            "trivial kernel: the quotient map is a verified bijection",
        )
        report.record("oversubgroup-bijection", qpg.size == loc.size, [])
    else:
        overs = partial_subgroups_containing(pg, K)
        bad = []
        for H in overs:
            inside = [rec.members for rec in part.maximal if rec.members <= H]
            union = set().union(*inside) if inside else set()
            if union != H:
                bad.append(sorted(H - union))
        report.record("oversubgroup-partition", not bad, bad[:3],
                      "maximal cosets inside H partition H")

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

    # 8: images of intersections with oversubgroups (sampled subsets)
    rng = random.Random(seed)
    overs_for_pre2 = (
        partial_subgroups_containing(pg, K) if len(K) > 1 else [frozenset(loc.elements())]
    )
    bad = []
    universe = list(loc.elements())
    for _ in range(samples):
        size = rng.randint(1, loc.size)
        X = frozenset(rng.sample(universe, size))
        xbar = frozenset(rho[x] for x in X)
        for H in overs_for_pre2:
            hbar = frozenset(rho[x] for x in H)
            if xbar & hbar != frozenset(rho[x] for x in X & H):
                bad.append((sorted(X), sorted(H)))
                break
    report.record("image-intersection", not bad, bad[:2],
                  f"bar(X) cap bar(H) = bar(X cap H) on {samples} sampled X")

    # 9: preimages of subgroups of S
    s_sets = loc.s_subgroup_sets()
    bad = []
    for R in s_sets:
        rbar = frozenset(rho[r] for r in R)
        pre = frozenset(x for x in loc.elements() if rho[x] in rbar)
        KR = subset_product(pg, [K, R])
        if pre != KR:
            bad.append(sorted(R))
    report.record("preimage-is-KR", not bad, bad[:3],
                  "{f : bar f in bar R} = KR for every R <= S")

    # 10/11: exactness over T and normalizer images inside S
    s_group, s_elems = loc.s_group()
    qs_group, qs_elems = qloc.s_group()
    qs_pos = {g: i for i, g in enumerate(qs_elems)}
    bad10, bad11 = [], []
    for R in s_sets:
        if not T <= R:
            continue
        rbar = frozenset(rho[r] for r in R)
        back = frozenset(s for s in loc.sylow_set if rho[s] in rbar)
        if back != R:
            bad10.append(sorted(R))
        ns_r = frozenset(
            s for s in loc.sylow_set
            if loc.conjugate_set(R, s) == R
        )
        q_ns = frozenset(
            s for s in qloc.sylow_set
            if qloc.conjugate_set(rbar, s) == rbar
        )
        if frozenset(rho[x] for x in ns_r) != q_ns:
            bad11.append(sorted(R))
    report.record("preimage-exactness-over-T", not bad10, bad10[:3],
                  "R = {s in S : bar s in bar R} whenever T <= R <= S")
    report.record("normalizer-image", not bad11, bad11[:3],
                  "N_{bar S}(bar R) = bar(N_S(R)) whenever T <= R <= S")

    # 12: threading subgroups of maximal elements push forward
    bad = []
    for f in max_elements:
        sf_bar = frozenset(rho[s] for s in loc.thread_subgroup((f,)))
        if sf_bar != qloc.thread_subgroup((rho[f],)):
            bad.append(f)
    report.record("station-image-for-maximal", not bad, bad[:5],
                  "bar(S_f) equals the quotient threading subgroup of bar f")

    # 13: equal image and equal station promote maximality
    bad = []
    for f in max_elements:
        Sf = loc.thread_subgroup((f,))
        for g in part.maximal[rho[f]].members:
            if loc.thread_subgroup((g,)) != Sf:
                continue
            if not flags[g]:
                bad.append((f, g))
            elif _right_coset(loc, K, g) != _right_coset(loc, K, f):
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
    else:
        bad14, bad15 = [], []
        for M, N in pairs:
            mbar = frozenset(rho[x] for x in M)
            nbar = frozenset(rho[x] for x in N)
            if mbar & nbar != {qpg.identity}:
                bad14.append((len(M), len(N)))
            mnbar = subset_product(qpg, [mbar, nbar])
            MN = subset_product(pg, [M, N])
            for fx in loc.elements():
                if rho[fx] not in mnbar:
                    continue
                if fx not in MN:
                    bad15.append((len(M), len(N), fx, "not-in-MN"))
                    continue
                Sf = loc.thread_subgroup((fx,))
                found = False
                for m in sorted(M):
                    n = pg.pi((pg.inverse(m), fx))
                    if n is None or n not in N:
                        continue
                    if pg.pi((m, n)) == fx and loc.thread_subgroup((m, n)) == Sf:
                        found = True
                        break
                if not found:
                    bad15.append((len(M), len(N), fx, "no-witness"))
        report.record("images-intersect-trivially", not bad14, bad14[:3],
                      "bar M cap bar N = 1 when M cap N = K")
        report.record("product-preimage-splitting", not bad15, bad15[:3],
                      "f with bar f in bar M bar N lies in MN with a matching witness")
    return report
