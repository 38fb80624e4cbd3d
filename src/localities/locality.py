"""Localities: finite partial groups with a distinguished p-subgroup S and
an object family Delta of subgroups of S.

The word domain of a locality is decided by threading: a word is
multipliable exactly when the subgroup of S that conjugates successfully
through all its letters (staying inside S at every step) belongs to Delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .groups import FiniteGroup, SubgroupRef, all_subgroups, subset_group, _is_prime, _p_part
from .partial import (
    PartialGroup,
    SubsetHandle,
    Word,
    _is_prime_power,
    classify_subset,
    partial_subgroup_closure,
)
from .report import CheckRecord, VerificationReport


class LocalityConstructionError(RuntimeError):
    """Construction produced an object that fails its own axioms."""

    def __init__(self, report: VerificationReport):
        failed = ", ".join(c.name for c in report.failures())
        super().__init__(f"construction failed verification ({failed}):\n" + report.text())
        self.report = report


@dataclass
class DeltaFamily:
    """The object family: a set of subgroups of S, given by member id sets."""

    sylow: frozenset[int]
    members: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("Delta must be nonempty")
        for P in self.members:
            if not P <= self.sylow:
                raise ValueError("Delta members must be subgroups of S")
        if self.sylow not in self.members:
            raise ValueError("Delta must contain S itself")

    def __contains__(self, P: frozenset[int]) -> bool:
        return P in self.members

    def translate(self, mapping: dict[int, int]) -> "DeltaFamily":
        return DeltaFamily(
            sylow=frozenset(mapping[x] for x in self.sylow),
            members=frozenset(
                frozenset(mapping[x] for x in P) for P in self.members
            ),
        )


def delta_close(
    S: SubgroupRef, seeds: Sequence[SubgroupRef], ambient_group: FiniteGroup
) -> DeltaFamily:
    """Least family containing the seeds that is closed under overgroups in S
    and under adding every Q <= S containing an ambient conjugate of a member.
    """
    if not seeds:
        raise ValueError("delta_close needs at least one seed")
    for seed in seeds:
        if not seed.members <= S.members:
            raise ValueError("seeds must be subgroups of S")
    s_group, s_elems = S.as_group()
    pos = {g: i for i, g in enumerate(s_elems)}
    lattice = [frozenset(s_elems[i] for i in sub.members) for sub in all_subgroups(s_group)]

    family: set[frozenset[int]] = set()
    queue = [seed.members for seed in seeds]
    while queue:
        P = queue.pop()
        if P in family:
            continue
        family.add(P)
        for Q in lattice:
            if P < Q and Q not in family:
                queue.append(Q)
        for g in ambient_group.elements():
            img = frozenset(ambient_group.conj(x, g) for x in P)
            if img <= S.members and img not in family:
                queue.append(img)
    return DeltaFamily(sylow=S.members, members=frozenset(family))


def delta_min_order(S: SubgroupRef, min_order: int) -> DeltaFamily:
    """The subgroups of S of order at least min_order."""
    s_group, s_elems = S.as_group()
    members = frozenset(
        frozenset(s_elems[i] for i in sub.members)
        for sub in all_subgroups(s_group)
        if sub.order >= min_order
    )
    return DeltaFamily(sylow=S.members, members=members)


# ---------------------------------------------------------------------------
# the threading automaton


class ThreadAutomaton:
    """Tracks, per word prefix, which elements of S conjugate through it.

    A state is the injective partial map start -> current over S positions;
    prefixes with the same state behave identically under extension, which
    collapses word sweeps to walks over a small interned state set.
    Transitions live in one dense row of n_elements ints per state, -1 for
    a transition not computed yet; step fills a row lazily, so states are
    interned in the order the walks first reach them.
    """

    def __init__(
        self,
        s_elems: tuple[int, ...],
        step_of: Callable[[int], tuple[int, ...]],
        n_elements: int,
        in_delta_of: Callable[[frozenset[int]], bool],
    ):
        self.s_elems = s_elems
        self._step_of = step_of
        self._n = n_elements
        self._in_delta_of = in_delta_of
        self._steps: dict[int, tuple[int, ...]] = {}
        start = tuple((i, i) for i in range(len(s_elems)))
        self.states: list[tuple[tuple[int, int], ...]] = [start]
        self._state_ids: dict[tuple, int] = {start: 0}
        self.start_sets: list[frozenset[int]] = [frozenset(s_elems)]
        self.in_delta: list[bool] = [in_delta_of(self.start_sets[0])]
        self._rows: list[list[int]] = [[-1] * n_elements]

    def _step_map(self, g: int) -> tuple[int, ...]:
        got = self._steps.get(g)
        if got is None:
            got = self._step_of(g)
            self._steps[g] = got
        return got

    def step(self, sid: int, g: int) -> int:
        got = self._rows[sid][g]
        if got >= 0:
            return got
        mp = self._step_map(g)
        new_pairs = []
        for start, cur in self.states[sid]:
            img = mp[cur]
            if img >= 0:
                new_pairs.append((start, img))
        state = tuple(new_pairs)
        nid = self._state_ids.get(state)
        if nid is None:
            nid = len(self.states)
            self.states.append(state)
            self._state_ids[state] = nid
            starts = frozenset(self.s_elems[a] for a, _ in state)
            self.start_sets.append(starts)
            self.in_delta.append(self._in_delta_of(starts))
            self._rows.append([-1] * self._n)
        self._rows[sid][g] = nid
        return nid

    def walk(self, word: Word) -> int:
        rows = self._rows
        sid = 0
        for g in word:
            nid = rows[sid][g]
            sid = nid if nid >= 0 else self.step(sid, g)
        return sid

    def dense_rows(self) -> np.ndarray:
        """trans[state, x] over every state reachable from the start.

        Fills the row of every state with all letters, so it interns the
        states outside Delta too (full_closure stops at the first of them).
        """
        sid = 0
        while sid < len(self.states):
            for g in range(self._n):
                self.step(sid, g)
            sid += 1
        return np.array(self._rows, dtype=np.int32)

    def full_closure(self, letters: Iterable[int] | None = None) -> tuple[bool, Word | None]:
        """Explore all states reachable over the letters (default: everything).

        Returns (every reachable state lies in Delta, witness word if not).
        """
        alphabet = list(letters) if letters is not None else list(range(self._n))
        seen = {0}
        queue: list[tuple[int, Word]] = [(0, ())]
        while queue:
            sid, path = queue.pop()
            if not self.in_delta[sid]:
                return False, path
            for g in alphabet:
                nid = self.step(sid, g)
                if nid not in seen:
                    seen.add(nid)
                    queue.append((nid, path + (g,)))
        return True, None


class LocalityPartialGroup(PartialGroup):
    """Partial group whose domain is decided by the threading subgroup.

    raw[a][b] is the underlying product of a and b, -1 where it is
    undefined; multiplying such a pair raises raw_missing(a, b).
    """

    def __init__(
        self,
        size: int,
        identity: int,
        inv: tuple[int, ...],
        labels: tuple[str, ...],
        raw: list[list[int]],
        raw_missing: Callable[[int, int], Exception],
        p: int,
        s_elems: tuple[int, ...],
        delta_sets: frozenset[frozenset[int]],
        conj_step_of: Callable[[int], tuple[int, ...]],
    ):
        self.size = size
        self.identity = identity
        self._inv = inv
        self.labels = labels
        self._raw = raw
        self._raw_missing = raw_missing
        self.p = p
        self.s_elems = s_elems
        self.delta_sets = delta_sets
        self.automaton = ThreadAutomaton(
            s_elems, conj_step_of, size, lambda starts: starts in delta_sets
        )
        self._total: bool | None = None

    def inverse(self, x: int) -> int:
        return self._inv[x]

    def in_domain(self, word: Word) -> bool:
        return self.automaton.in_delta[self.automaton.walk(word)]

    def _mul_raw(self, a: int, b: int) -> int:
        v = self._raw[a][b]
        if v < 0:
            raise self._raw_missing(a, b)
        return v

    def _raw_product(self, word: Word) -> int:
        out = self.identity
        for x in word:
            out = self._mul_raw(out, x)
        return out

    def sweep_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(trans, in_delta, raw) as arrays for the axiom sweep: the
        automaton's transitions over every reachable state, its accept mask
        and the raw product with -1 where it is undefined."""
        trans = self.automaton.dense_rows()
        in_delta = np.array(self.automaton.in_delta, dtype=bool)
        return trans, in_delta, np.array(self._raw, dtype=np.int32)

    def product_table(self) -> list[list[int]]:
        """The base class table, filled from the domain and the raw product."""
        if self._product_table is None:
            n = range(self.size)
            self._product_table = [
                [self._mul_raw(a, b) if self.in_domain((a, b)) else -1 for b in n]
                for a in n
            ]
        return self._product_table

    def mul2(self, a: int, b: int) -> int | None:
        v = self.product_table()[a][b]
        return None if v < 0 else v

    def walk_start(self):
        return 0

    def walk_step(self, state: int, x: int):
        nid = self.automaton.step(state, x)
        return nid if self.automaton.in_delta[nid] else None

    @property
    def domain_is_total(self) -> bool:  # type: ignore[override]
        if self._total is None:
            ok, _ = self.automaton.full_closure()
            self._total = ok
        return self._total

    def words_all_in_domain(self, members: frozenset[int]):
        ok, witness = self.automaton.full_closure(sorted(members))
        return ok, "domain-closure", witness

    def _vector_components(self):
        if not self.domain_is_total:
            return None
        return [(tuple(self.elements()), subset_group(self.elements(), self.mul2, self.labels))]


# ---------------------------------------------------------------------------
# the locality proper


@dataclass
class ConjChain:
    """A witnessing chain of Delta members for a domain word."""

    word: Word
    stations: tuple[frozenset[int], ...]


class Locality:
    """A partial group together with S, Delta, and conjugation machinery."""

    def __init__(
        self,
        pg: PartialGroup,
        p: int,
        sylow: Iterable[int],
        delta: DeltaFamily,
    ):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.pg = pg
        self.p = p
        self.sylow = tuple(sorted(sylow))
        self.sylow_set = frozenset(self.sylow)
        if delta.sylow != self.sylow_set:
            raise ValueError("delta family is not over S")
        self.delta = delta
        self._s_pos = {g: i for i, g in enumerate(self.sylow)}
        if isinstance(pg, LocalityPartialGroup):
            self.automaton = pg.automaton
        else:
            self.automaton = ThreadAutomaton(
                self.sylow, self._definitional_step, pg.size,
                lambda starts: starts in delta.members,
            )
        self._s_group: FiniteGroup | None = None

    # -- basic maps ----------------------------------------------------------

    def _definitional_step(self, g: int) -> tuple[int, ...]:
        """Conjugation map on S positions: column g of the rows of S."""
        conj = self.pg.conj_table()
        return tuple(self._s_pos.get(conj[s][g], -1) for s in self.sylow)

    def conjugate(self, x: int, g: int) -> int | None:
        """x^g = pi((g^-1, x, g)) when defined."""
        v = self.pg.conj_table()[x][g]
        return None if v < 0 else v

    def conj_table(self) -> list[list[int]]:
        """The partial group's conjugation table, pg.conj_table()."""
        return self.pg.conj_table()

    def conjugate_set(self, X: Iterable[int], g: int) -> frozenset[int] | None:
        """X^g, or None when some x^g is undefined."""
        conj = self.pg.conj_table()
        out = set()
        for x in X:
            v = conj[x][g]
            if v < 0:
                return None
            out.add(v)
        return frozenset(out)

    def thread_subgroup(self, word: Word) -> frozenset[int]:
        """S_w: the members of S threading through the word inside S."""
        return self.automaton.start_sets[self.automaton.walk(tuple(word))]

    def s_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """S as an honest FiniteGroup plus the member id map."""
        if self._s_group is None:
            self._s_group = subset_group(self.sylow, self.pg.mul2, self.pg.labels)
        return self._s_group, self.sylow

    def s_subgroup_sets(self) -> list[frozenset[int]]:
        grp, elems = self.s_group()
        return [
            frozenset(elems[i] for i in sub.members) for sub in all_subgroups(grp)
        ]

    def in_domain(self, word: Word) -> bool:
        return self.pg.in_domain(tuple(word))

    def pi(self, word: Word) -> int | None:
        return self.pg.pi(tuple(word))

    def elements(self) -> range:
        return self.pg.elements()

    @property
    def size(self) -> int:
        return self.pg.size

    @property
    def identity(self) -> int:
        return self.pg.identity

    def normalizer(self, X: Iterable[int]) -> frozenset[int]:
        """N_L(X): elements g with X inside D(g) and X^g = X."""
        X = frozenset(X)
        out = set()
        for g in self.pg.elements():
            img = self.conjugate_set(X, g)
            if img is not None and img == X:
                out.add(g)
        return frozenset(out)


def s_of_word(loc: Locality, word: Iterable[int]) -> frozenset[int]:
    """The threading subgroup S_w of a word (S itself for the empty word)."""
    return loc.thread_subgroup(tuple(word))


def conjugate_elem(loc: Locality, x: int, g: int) -> int | None:
    return loc.conjugate(x, g)


def domain_chain(loc: Locality, word: Iterable[int]) -> ConjChain | None:
    """A canonical witnessing chain for a domain word, None outside the domain.

    The canonical choice starts at S_w and conjugates station by station.
    """
    word = tuple(word)
    if not loc.in_domain(word):
        return None
    station = loc.thread_subgroup(word)
    stations = [station]
    for g in word:
        nxt = loc.conjugate_set(station, g)
        if nxt is None:
            return None
        station = nxt
        stations.append(station)
    return ConjChain(word=word, stations=tuple(stations))


def chain_is_valid(loc: Locality, chain: ConjChain) -> bool:
    """Check the chain condition: consecutive stations conjugate correctly."""
    if len(chain.stations) != len(chain.word) + 1:
        return False
    for P, g, Q in zip(chain.stations, chain.word, chain.stations[1:]):
        if P not in loc.delta.members or Q not in loc.delta.members:
            return False
        img = loc.conjugate_set(P, g)
        if img is None or img != Q:
            return False
    return bool(chain.stations) and chain.stations[0] in loc.delta.members


@dataclass
class NormalizerResult:
    handle: SubsetHandle
    group: FiniteGroup | None
    member_map: tuple[int, ...] | None


def normalizer_in_L(loc: Locality, X: Iterable[int]) -> NormalizerResult:
    """N_L(X) classified; exported as a FiniteGroup when X is in Delta."""
    X = frozenset(X)
    members = loc.normalizer(X)
    handle = classify_subset(loc.pg, members, p=loc.p)
    group = None
    mapping = None
    if X in loc.delta.members and handle.is_subgroup:
        mapping = tuple(sorted(members))
        group = subset_group(mapping, loc.pg.mul2, loc.pg.labels)
    return NormalizerResult(handle=handle, group=group, member_map=mapping)


@dataclass
class ConjIso:
    """The conjugation isomorphism N_L(P) -> N_L(P^g) induced by g."""

    g: int
    source: frozenset[int]
    target: frozenset[int]
    source_members: frozenset[int]
    target_members: frozenset[int]
    mapping: dict[int, int]
    bijective: bool
    product_preserving: bool

    @property
    def ok(self) -> bool:
        return self.bijective and self.product_preserving


def conj_iso(loc: Locality, P: Iterable[int], g: int) -> ConjIso:
    """Build and verify the conjugation map c_g on N_L(P), P in Delta, P <= S_g."""
    P = frozenset(P)
    if P not in loc.delta.members:
        raise ValueError("P must belong to Delta")
    if not P <= loc.thread_subgroup((g,)):
        raise ValueError("P must lie inside S_g")
    Q = loc.conjugate_set(P, g)
    if Q is None:
        raise ValueError("P does not conjugate through g")
    src = loc.normalizer(P)
    tgt = loc.normalizer(Q)
    mapping = {}
    bijective = True
    for x in sorted(src):
        v = loc.conjugate(x, g)
        if v is None or v not in tgt:
            bijective = False
            break
        mapping[x] = v
    if bijective:
        bijective = len(set(mapping.values())) == len(src) == len(tgt)
    preserving = bijective
    if bijective:
        for x in src:
            for y in src:
                xy = loc.pg.mul2(x, y)
                fg = loc.pg.mul2(mapping[x], mapping[y])
                if xy is None or fg is None or mapping.get(xy) != fg:
                    preserving = False
                    break
            if not preserving:
                break
    return ConjIso(
        g=g,
        source=P,
        target=Q if Q is not None else frozenset(),
        source_members=src,
        target_members=tgt,
        mapping=mapping,
        bijective=bijective,
        product_preserving=preserving,
    )


# ---------------------------------------------------------------------------
# construction from a group


def locality_from_group(
    M: FiniteGroup, p: int, delta: DeltaFamily, check_len: int = 2
) -> Locality:
    """Restrict M to {g : S cap S^(g^-1) in Delta} with threading-decided words.

    Delta lives in M's id space (over a Sylow p-subgroup of M).  The result
    is verified with check_locality and rejected if any axiom fails.
    """
    S_m = delta.sylow
    target = _p_part(M.order, p)
    if len(S_m) != target:
        raise ValueError("delta is not over a full Sylow p-subgroup")
    SubgroupRef(M, S_m)

    s_sorted = tuple(sorted(S_m))
    keep = []
    for g in M.elements():
        sg = frozenset(s for s in s_sorted if M.conj(s, g) in S_m)
        if sg in delta.members:
            keep.append(g)
    to_ambient = tuple(keep)
    to_local = {g: i for i, g in enumerate(keep)}
    for g in keep:
        if M.inv[g] not in to_local:
            raise LocalityConstructionError(
                VerificationReport(
                    "locality construction",
                    [
                        CheckRecord(
                            name="inversion-closure",
                            status="fail",
                            detail=f"element {M.labels[g]} kept but its inverse dropped",
                        )
                    ],
                )
            )

    local_delta = delta.translate(to_local)
    s_local = tuple(to_local[s] for s in s_sorted)
    # The ambient product over the kept elements in local ids, -1 where it
    # leaves L: tabulated once, so _mul_raw is a list read.
    local_of = np.full(M.order, -1, dtype=np.int64)
    local_of[keep] = np.arange(len(keep))
    raw: list[list[int]] = local_of[M.mult[np.ix_(keep, keep)]].tolist()

    def escapes(a: int, b: int) -> LocalityConstructionError:
        return LocalityConstructionError(
            VerificationReport(
                "locality construction",
                [
                    CheckRecord(
                        name="product-closure",
                        status="fail",
                        detail=f"domain product escapes the element set at ({a},{b})",
                    )
                ],
            )
        )

    s_pos_local = {to_local[s]: i for i, s in enumerate(s_sorted)}

    def conj_step(gl: int) -> tuple[int, ...]:
        g = to_ambient[gl]
        out = []
        for s in s_sorted:
            v = M.conj(s, g)
            out.append(s_pos_local[to_local[v]] if v in S_m else -1)
        return tuple(out)

    pg = LocalityPartialGroup(
        size=len(keep),
        identity=to_local[M.identity],
        inv=tuple(to_local[M.inv[g]] for g in keep),
        labels=tuple(M.labels[g] for g in keep),
        raw=raw,
        raw_missing=escapes,
        p=p,
        s_elems=s_local,
        delta_sets=local_delta.members,
        conj_step_of=conj_step,
    )
    loc = Locality(pg, p, s_local, local_delta)
    loc.to_ambient = to_ambient  # type: ignore[attr-defined]
    loc.to_local = to_local  # type: ignore[attr-defined]
    loc.ambient = M  # type: ignore[attr-defined]
    report = check_locality(loc, max_len=check_len)
    if not report.ok:
        raise LocalityConstructionError(report)
    return loc


def as_locality(
    pg: PartialGroup, p: int, sylow: Iterable[int], delta_members: Iterable[frozenset[int]]
) -> Locality:
    """Wrap an arbitrary partial group as a locality candidate (unchecked).

    Conjugation for the threading machinery is read off pg.conj_table(),
    which is built from pi; run check_locality to find out whether the
    axioms actually hold.
    """
    sylow = frozenset(sylow)
    delta = DeltaFamily(sylow=sylow, members=frozenset(delta_members) | {sylow})
    return Locality(pg, p, sylow, delta)


# ---------------------------------------------------------------------------
# verification


def _p_subgroup_above(
    loc: Locality, base: frozenset[int], candidates: Iterable[int]
) -> tuple | None:
    """(x, closure of base and x) for the first candidate x outside base
    whose closure with base is a p-subgroup; None if there is none."""
    pg = loc.pg
    for x in candidates:
        if x in base:
            continue
        grown = partial_subgroup_closure(pg, base | {x})
        if len(grown) == len(base) or not _is_prime_power(len(grown), loc.p):
            continue
        ok, _, _ = pg.words_all_in_domain(grown)
        if ok:
            return (x, grown)
    return None


def check_locality(loc: Locality, max_len: int = 2) -> VerificationReport:
    """Verify the three locality axioms plus structural sanity.

    (L1) S is maximal among p-subgroups; (L2) a word is in the domain iff a
    conjugation chain through Delta witnesses it, for all words up to
    max_len; (L3) Delta is closed under overgroups of images inside S.

    The (L2) sweep grows words one letter at a time and carries, per
    prefix, its chain front (the Delta members a chain can reach), its
    walker state pg.walk_step and its threading state automaton.step.
    What the sweep finds below a prefix depends only on the key (front,
    walker state, threading state, remaining length) and the suffix: the
    front fixes chain existence, the walker state fixes domain membership
    (it decides every extension) and the threading state fixes S_w.  So a
    key whose subtree added no finding is recorded and skipped when it
    recurs, since it would add none again (the finding count only grows,
    so the cap never reopens a subtree).  Every other subtree is swept in
    the literal order under the same cap, so both findings lists equal
    those of the word-by-word sweep.  Below a word off the domain the
    walker has no state: those words ask pg.in_domain and are not recorded.
    Fronts and recorded keys live for one call.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    report = VerificationReport("locality axioms")
    pg = loc.pg

    # S in Delta and Delta members are proper subgroups of S
    delta_ok = loc.sylow_set in loc.delta.members
    lattice = set(loc.s_subgroup_sets())
    stray = [P for P in loc.delta.members if P not in lattice]
    report.record(
        "delta-well-formed",
        delta_ok and not stray,
        [sorted(next(iter(stray)))] if stray else [],
        "S belongs to Delta and members are subgroups of S",
    )

    # (L1)
    ok_s, _, bad_word = pg.words_all_in_domain(loc.sylow_set)
    order = len(loc.sylow_set)
    is_p_group = _is_prime_power(order, loc.p)
    above = (
        _p_subgroup_above(loc, loc.sylow_set, pg.elements()) if ok_s and is_p_group else None
    )
    l1_ok = ok_s and is_p_group and above is None
    wit = []
    if not ok_s:
        wit.append(("S-not-fully-multipliable", bad_word))
    if not is_p_group:
        wit.append(("S-order-not-p-power", order))
    if above is not None:
        wit.append(("larger-p-subgroup", sorted(above[1])))
    report.record(
        "L1-sylow-maximal",
        l1_ok,
        wit,
        "S is a p-subgroup and no p-subgroup properly contains it",
    )

    # (L2): domain decision vs chain existence, all words up to max_len
    delta_list = sorted(loc.delta.members, key=sorted)
    delta_idx = {P: i for i, P in enumerate(delta_list)}
    chain_step: list[tuple[int, ...]] = []
    for P in delta_list:
        row = []
        for g in pg.elements():
            img = loc.conjugate_set(P, g)
            row.append(delta_idx.get(img, -1) if img is not None else -1)
        chain_step.append(tuple(row))
    full_front = frozenset(range(len(delta_list)))
    mismatches: list[tuple] = []
    prop_e_mismatches: list[tuple] = []
    automaton = loc.automaton
    fronts: dict[tuple[frozenset[int], int], frozenset[int]] = {}
    clean: set[tuple] = set()
    visited = 0

    def sweep(word: Word, front: frozenset[int], state, sid: int, budget: int) -> None:
        nonlocal visited
        if budget == 0 or len(mismatches) + len(prop_e_mismatches) > 20:
            return
        for g in pg.elements():
            visited += 1
            w = word + (g,)
            nxt = fronts.get((front, g))
            if nxt is None:
                nxt = frozenset(t for t in (chain_step[i][g] for i in front) if t >= 0)
                fronts[(front, g)] = nxt
            if state is None:
                nstate, in_dom = None, pg.in_domain(w)
            else:
                nstate = pg.walk_step(state, g)
                in_dom = nstate is not None
            nsid = automaton.step(sid, g)
            if in_dom != bool(nxt):
                mismatches.append((w, in_dom, bool(nxt)))
            if (automaton.start_sets[nsid] in loc.delta.members) != in_dom:
                prop_e_mismatches.append(w)
            if not nxt:
                continue
            key = (nxt, nstate, nsid, budget - 1)
            if nstate is None:
                sweep(w, *key)
            elif key not in clean:
                found = len(mismatches) + len(prop_e_mismatches)
                sweep(w, *key)
                if found == len(mismatches) + len(prop_e_mismatches):
                    clean.add(key)

    sweep((), full_front, pg.walk_start(), 0, max_len)
    report.record(
        "L2-domain-iff-chain",
        not mismatches,
        mismatches[:10],
        f"chain existence matches the domain on words up to length {max_len}"
        f" ({visited} words visited)",
    )
    report.record(
        "threading-matches-domain",
        not prop_e_mismatches,
        prop_e_mismatches[:10],
        "S_w in Delta exactly on domain words",
    )

    # (L3)
    l3_bad: list[tuple] = []
    overs: dict[frozenset[int], list[frozenset[int]]] = {}
    for P in lattice:
        overs[P] = [Q for Q in lattice if P <= Q]
    for P in delta_list:
        for g in pg.elements():
            img = loc.conjugate_set(P, g)
            if img is None or not img <= loc.sylow_set:
                continue
            base = overs.get(img)
            if base is None:
                continue
            for Q in base:
                if Q not in loc.delta.members:
                    l3_bad.append((sorted(P), g, sorted(Q)))
        if len(l3_bad) > 10:
            break
    report.record(
        "L3-overgroup-closure",
        not l3_bad,
        l3_bad[:10],
        "overgroups of conjugated members stay in Delta",
    )
    return report
