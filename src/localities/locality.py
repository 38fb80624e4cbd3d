"""Localities: finite partial groups with a distinguished p-subgroup S and
an object family Delta of subgroups of S.

The word domain of a locality is decided by threading: a word is
multipliable exactly when the subgroup of S that conjugates successfully
through all its letters (staying inside S at every step) belongs to Delta.
"""

from __future__ import annotations

import functools
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
    closure_twins,
    intern_states,
    partial_subgroup_closure,
    state_fixpoint,
    total_group_component,
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


def subgroup_sets(group: FiniteGroup, elems: Sequence[int]) -> list[frozenset[int]]:
    """The subgroups of group as sets of elems: id i of group stands for
    elems[i], as subset_group, SubgroupRef.as_group and Locality.s_group
    return them.

    The lattice is cached on group alone.  A fixture's S inside its ambient
    group and the locality's own S group hold the same elements but are two
    groups: the second takes the locality's products, which check_locality
    tests through this lattice, so reading the first's lattice there would
    serve one object's result for another.
    """
    return [frozenset(elems[i] for i in sub.members) for sub in all_subgroups(group)]


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
    lattice = subgroup_sets(*S.as_group())

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
    members = frozenset(P for P in subgroup_sets(*S.as_group()) if len(P) >= min_order)
    return DeltaFamily(sylow=S.members, members=members)


# ---------------------------------------------------------------------------
# the threading automaton


class ThreadAutomaton:
    """Tracks, per word prefix, which elements of S conjugate through it.

    A state is the injective partial map start -> current over S positions,
    as a tuple of (start, current) pairs; prefixes with the same state
    behave identically under extension, which collapses word sweeps to
    walks over a small state set.  maps[g] sends each S position to the
    position of its conjugate by g, -1 where that leaves S.  Every state
    reachable from the start is interned once, at construction, by
    intern_states: states, their transition rows (a letter never leaves
    the automaton, so no entry is -1), the same rows as one int32 array,
    and start_sets[sid], the threading subgroup S_w of the words reaching
    sid.  The automaton knows no Delta: whoever decides a domain from it
    builds the mask start_sets[sid] in Delta against its own Delta.
    """

    def __init__(
        self,
        s_elems: tuple[int, ...],
        step_of: Callable[[int], tuple[int, ...]],
        n_elements: int,
    ):
        self.s_elems = s_elems
        self.maps = [step_of(g) for g in range(n_elements)]
        start = tuple((i, i) for i in range(len(s_elems)))
        self.states, self.rows = intern_states(start, self.step, n_elements, "threading automaton")
        self.array = np.array(self.rows, dtype=np.int32)
        self.start_sets = [frozenset(s_elems[a] for a, _ in state) for state in self.states]

    def step(self, state: tuple, g: int) -> tuple:
        mp = self.maps[g]
        return tuple((start, mp[cur]) for start, cur in state if mp[cur] >= 0)

    def walk(self, word: Word) -> int:
        rows = self.rows
        sid = 0
        for g in word:
            sid = rows[sid][g]
        return sid


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
        self.automaton = ThreadAutomaton(s_elems, conj_step_of, size)
        # in_delta[sid]: whether the threading subgroup of state sid is in Delta
        self.in_delta = [starts in delta_sets for starts in self.automaton.start_sets]

    def inverse(self, x: int) -> int:
        return self._inv[x]

    def in_domain(self, word: Word) -> bool:
        return self.in_delta[self.automaton.walk(word)]

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
        automaton's transitions over every reachable state, the Delta mask
        of its states and the raw product with -1 where it is undefined."""
        in_delta = np.array(self.in_delta, dtype=bool)
        return self.automaton.array, in_delta, np.array(self._raw, dtype=np.int32)

    def product_table(self) -> list[list[int]]:
        """The base class table, filled from the domain and the raw product:
        (a, b) is in the domain when the state rows[rows[0][a]][b] is in
        Delta, read for every pair in one gather.  A pair in the domain
        with no raw product raises raw_missing, the first such pair in
        row-major order."""
        if self._product_table is None:
            array = self.automaton.array
            domain = np.array(self.in_delta, dtype=bool)[array[array[0]]]
            raw = np.array(self._raw, dtype=np.int64)
            missing = np.argwhere(domain & (raw < 0))
            if len(missing):
                raise self._raw_missing(*(int(i) for i in missing[0]))
            self._product_table = np.where(domain, raw, -1).tolist()
        return self._product_table

    def mul2(self, a: int, b: int) -> int | None:
        v = self.product_table()[a][b]
        return None if v < 0 else v

    def walk_start(self):
        return 0

    def walk_step(self, state: int, x: int):
        nid = self.automaton.rows[state][x]
        return nid if self.in_delta[nid] else None

    def _vector_components(self):
        return total_group_component(self)


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
        self._s_group: FiniteGroup | None = None

    @functools.cached_property
    def automaton(self) -> ThreadAutomaton:
        """The partial group's own automaton on a LocalityPartialGroup, else
        one built on first use from the definitional conjugation step."""
        if isinstance(self.pg, LocalityPartialGroup):
            return self.pg.automaton
        return ThreadAutomaton(self.sylow, self._definitional_step, self.pg.size)

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
        """The subgroups of S under the locality's own products."""
        return subgroup_sets(*self.s_group())

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


# ---------------------------------------------------------------------------
# construction from a group


def locality_from_group(M: FiniteGroup, p: int, delta: DeltaFamily) -> Locality:
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
    report = check_locality(loc)
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
    whose closure with base is a p-subgroup; None if there is none.

    Each closure starts from base | {x}, since base (S on a candidate) is
    not proved closed.  After a failing x, its whole twin class over base
    is skipped (base*x*base with its inverses on a genuine partial group):
    closure_twins proves, per element and on any table, for a base that
    need not be closed, that each twin has the same closure, which fails
    too, so the first success and its witness are those of the
    candidate-by-candidate search.
    """
    pg = loc.pg
    done = set(base)
    for x in candidates:
        if x in done:
            continue
        grown = partial_subgroup_closure(pg, base | {x})
        if len(grown) != len(base) and _is_prime_power(len(grown), loc.p):
            ok, _ = pg.words_all_in_domain(grown)
            if ok:
                return (x, grown)
        done.update(closure_twins(pg, base, x))
    return None


def _chain_word_steps(loc: Locality, delta_list: list[frozenset[int]], images: list[list]):
    """(steps, in_delta, dims): a state of the (L2) and threading checks is
    (chain front code, walker code, threading state) of a word, with
    components bounded by dims.  The front of a word is the set of Delta
    members a chain through it can reach: all of Delta for the empty word,
    then P^g = images[i][g] for each P = delta_list[i] in the front with
    P^g in Delta.  Fronts are interned by intern_states, the empty front as -1.
    steps(level, g) gathers the states of w g for every state and letter
    from the front rows, pg.walker_table().array (a dead code stays -1) and
    loc.automaton.array; in_delta[t] says whether S_w lies in loc.delta.
    """
    pg = loc.pg
    delta_idx = {P: i for i, P in enumerate(delta_list)}
    chain_step = [[delta_idx.get(img, -1) for img in row] for row in images]

    def front_step(front: frozenset[int], g: int) -> frozenset[int] | None:
        nxt = frozenset(t for t in (chain_step[i][g] for i in front) if t >= 0)
        return nxt or None

    _, rows = intern_states(frozenset(range(len(delta_list))), front_step, pg.size, "chain fronts")
    fronts = np.array(rows + [[-1] * pg.size], dtype=np.int64)
    walk = pg.walker_table().array
    thread = loc.automaton.array

    def steps(level, g):
        front, code, sid = (c[:, None] for c in level)
        return fronts[front, g], walk[code, g], thread[sid, g]

    in_delta = np.array([P in loc.delta.members for P in loc.automaton.start_sets])
    return steps, in_delta, (len(fronts), len(walk), len(thread))


def check_locality(loc: Locality) -> VerificationReport:
    """Verify the three locality axioms plus structural sanity.

    (L1) S is maximal among p-subgroups; (L2) a word is in the domain iff a
    conjugation chain through Delta witnesses it, for words of every
    length; (L3) Delta is closed under overgroups of images inside S.
    When the products on S are not a group (FiniteGroup rejects them), a
    failing check S-is-a-group carries the certificate's message, and the
    two checks that need the subgroup lattice of S are skipped.

    The image P^g of every Delta member P and element g is computed once,
    by loc.conjugate_set, and read by (L2) and (L3).  (L2) and the check
    that S_w lies in Delta exactly on domain words are two state_fixpoint
    searches over the key (chain front code, walker code, threading state)
    of _chain_word_steps: the front fixes chain existence, the walker code
    domain membership under every extension (the walker contract of
    PartialGroup) and the threading state S_w, so their verdicts cover
    words of every length.  A word is extended while its front is
    nonempty; its failing words come in shortlex order, the shortest first.
    """
    report = VerificationReport("locality axioms")
    pg = loc.pg

    # S in Delta and Delta members are proper subgroups of S
    no_lattice = "S is not a group, so it has no subgroup lattice"
    try:
        loc.s_group()
    except ValueError as exc:  # products on S are undefined, leave S or are no group
        report.record("S-is-a-group", False, [], str(exc))
        lattice = None
        report.skip("delta-well-formed", no_lattice)
    else:
        lattice = set(loc.s_subgroup_sets())
        delta_ok = loc.sylow_set in loc.delta.members
        stray = [P for P in loc.delta.members if P not in lattice]
        report.record(
            "delta-well-formed",
            delta_ok and not stray,
            [sorted(next(iter(stray)))] if stray else [],
            "S belongs to Delta and members are subgroups of S",
        )

    # (L1)
    ok_s, bad_word = pg.words_all_in_domain(loc.sylow_set)
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

    # (L2): domain decision vs chain existence, on words of every length
    delta_list = sorted(loc.delta.members, key=sorted)
    images = [[loc.conjugate_set(P, g) for g in pg.elements()] for P in delta_list]
    steps, in_delta, dims = _chain_word_steps(loc, delta_list, images)

    def l2_step(level, g):
        front, code, _ = nxt = steps(level, g)
        return nxt, front >= 0, (front >= 0) != (code >= 0)

    def threading_step(level, g):
        front, code, sid = nxt = steps(level, g)
        return nxt, front >= 0, in_delta[sid] != (code >= 0)

    states, words = state_fixpoint((0, 0, 0), dims, pg.elements(), l2_step)
    report.record(
        "L2-domain-iff-chain",
        not words,
        [(w, d, not d) for w in words[:10] for d in [pg.in_domain(w)]],
        f"chain existence matches the domain on all domain words ({states} states)",
    )
    _, words = state_fixpoint((0, 0, 0), dims, pg.elements(), threading_step)
    report.record(
        "threading-matches-domain",
        not words,
        words[:10],
        "S_w in Delta exactly on domain words",
    )

    # (L3)
    if lattice is None:
        report.skip("L3-overgroup-closure", no_lattice)
        return report
    l3_bad: list[tuple] = []
    overs: dict[frozenset[int], list[frozenset[int]]] = {}
    for P in lattice:
        overs[P] = [Q for Q in lattice if P <= Q]
    for P, row in zip(delta_list, images):
        for g, img in enumerate(row):
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
