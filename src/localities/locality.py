"""Localities: finite partial groups with a distinguished p-subgroup S and
an object family Delta of subgroups of S.

The word domain of a locality is decided by threading: a word is
multipliable exactly when the subgroup of S that conjugates successfully
through all its letters (staying inside S at every step) belongs to Delta.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .groups import (
    FiniteGroup,
    SubgroupRef,
    _is_prime,
    _p_part,
    all_subgroups,
    certify_group_table,
    subset_group,
)
from .partial import (
    PartialGroup,
    TablePartialGroup,
    Word,
    _padded,
    closure_twins,
    intern_states,
    partial_subgroup_closure,
    row_lookup,
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
    as a row: states[sid, a] is the position start a has reached, -1 once
    it left S.  Prefixes with the same state behave identically under
    extension, which collapses word sweeps to walks over a small state set.
    maps[g, i] is the position in S of s_i^g, -1 where that leaves S, kept
    as lists of rows and, with a last column of -1 (a start gone stays
    gone), as the array step gathers from.  Every state reachable from the
    start is interned once, at construction, by intern_states, a level per
    gather: states, their transition rows (a letter never leaves the
    automaton, so no entry is -1), the same rows as one int32 array, and
    start_sets[sid], the threading subgroup S_w of the words reaching sid.
    The automaton knows no Delta: whoever decides a domain from it builds
    the mask start_sets[sid] in Delta against its own Delta.
    """

    def __init__(self, s_elems: tuple[int, ...], maps: np.ndarray):
        self.s_elems, k = s_elems, len(s_elems)
        maps = np.asarray(maps, dtype=np.int64).reshape(len(maps), k)
        self.maps = maps.tolist()
        at = np.min_scalar_type(-1 - k)  # a least int type that holds -1..k-1
        self._padded = np.concatenate((maps, np.full((len(maps), 1), -1)), axis=1).astype(at)
        self.states, self.rows = intern_states(np.arange(k, dtype=at), self.step,
                                               "threading automaton")
        self.array = np.array(self.rows, dtype=np.int32)
        self.start_sets = [frozenset(itertools.compress(s_elems, r))
                           for r in (self.states >= 0).tolist()]

    def step(self, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each state of level followed by every maps[g], in one gather."""
        nxt = self._padded[:, level].swapaxes(0, 1)
        return nxt, np.ones(nxt.shape[:2], dtype=bool)

    def walk(self, word: Word) -> int:
        rows = self.rows
        sid = 0
        for g in word:
            sid = rows[sid][g]
        return sid


def _ids(values, bound: int, what: str) -> np.ndarray:
    """values as an int64 array; ValueError if one lies outside 0..bound-1."""
    out = np.asarray(values, dtype=np.int64)
    if out.size and (out.min() < 0 or out.max() >= bound):
        raise ValueError(f"{what} holds an id outside 0..{bound - 1}")
    return out


def _positions(ids, n: int) -> np.ndarray:
    """position[x]: the index of x in ids, for x in 0..n-1, -1 elsewhere."""
    position = np.full(n, -1, dtype=np.int64)
    position[np.asarray(ids, dtype=np.int64)] = np.arange(len(ids))
    return position


def _set_rows(sets: Iterable[Iterable[int]], n: int) -> np.ndarray:
    """One boolean row over n elements per set, True on its members."""
    sets = [list(X) for X in sets]
    rows = np.zeros((len(sets), n), dtype=bool)
    at = np.repeat(np.arange(len(sets)), [len(X) for X in sets])
    rows[at, list(itertools.chain(*sets))] = True
    return rows


def _scatter(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """images[r, g]: the set {table[g, i] : i in rows[r]} as a boolean row,
    for boolean rows over the k columns of a table with entries in -1..k-1,
    where -1 sets column k; one scatter over every pair (r, g)."""
    (m, k), n = rows.shape, len(table)
    r, i = np.nonzero(rows)
    images = np.zeros((m, n, k + 1), dtype=bool)
    images[r[:, None], np.arange(n), table[:, i].T] = True
    return images


def _image_index(rows: np.ndarray, pos: np.ndarray, family: np.ndarray):
    """(inside, index) for boolean rows over S positions, one per subset P:
    inside[r, g] says that every member of P = rows[r] has its conjugate by
    g in S, and index[r, g] is then the row of family equal to P^g, else -1.

    pos[g, i] is the position in S of s_i^g, -1 where it is undefined or
    leaves S, so P^g is the row set at pos[g, i] for the i in P: one
    _scatter over every pair (P, g), and one row_lookup over the images.
    """
    (m, k), n = rows.shape, len(pos)
    images = _scatter(rows, pos)
    inside = ~images[..., k]
    index = row_lookup(images[..., :k].reshape(m * n, k), family).reshape(m, n)
    return inside, np.where(inside, index, -1)


def _generated(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The closure of each boolean row under the product table (the
    subgroup it generates, in a finite group): X | X X until it stops
    growing, the products counted by one matrix product, in blocks of rows
    that keep the pair matrix near 2^20 entries."""
    k = len(table)
    product_of = np.zeros((k * k, k), dtype=np.float32)
    product_of[np.arange(k * k), table.ravel()] = 1
    block = max(1, (1 << 20) // (k * k))
    out = [rows[:0]]  # so that no rows give no rows
    for start in range(0, len(rows), block):
        x = rows[start:start + block]
        while True:
            pairs = (x[:, :, None] & x[:, None, :]).reshape(len(x), k * k)
            nxt = x | (pairs @ product_of > 0)
            if (nxt == x).all():
                break
            x = nxt
        out.append(x)
    return np.concatenate(out)


class LocalityPartialGroup(TablePartialGroup):
    """Partial group whose domain is decided by the threading subgroup: the
    table backend whose trans is the array of a ThreadAutomaton (the same
    object) and whose accept mask is in_delta (in_delta[sid]: whether the
    threading subgroup of state sid is in Delta).

    raw[a][b] is the underlying product of a and b, -1 where it is
    undefined; multiplying such a pair raises raw_missing(a, b).
    conj_maps[g, i] is the position in S of s_i^g, -1 where it leaves S:
    the maps of the ThreadAutomaton.
    """

    def __init__(
        self,
        size: int,
        identity: int,
        inv: tuple[int, ...],
        labels: tuple[str, ...],
        raw: np.ndarray,
        raw_missing: Callable[[int, int], Exception],
        p: int,
        s_elems: tuple[int, ...],
        delta_sets: frozenset[frozenset[int]],
        conj_maps: np.ndarray,
        ambient: tuple[FiniteGroup, tuple[int, ...]] | None = None,
    ):
        self.p = p
        self.s_elems = s_elems
        self.delta_sets = delta_sets
        self.automaton = ThreadAutomaton(s_elems, conj_maps)
        in_delta = [starts in delta_sets for starts in self.automaton.start_sets]
        super().__init__(size, identity, labels, inv, raw, self.automaton.array, in_delta,
                         raw_missing)
        # (M, to_ambient) when L was cut from a group M (locality_from_group):
        # local id i is M's element to_ambient[i]; read by certify_ambient
        self.ambient = ambient

    in_delta = TablePartialGroup.accept  # the accept mask under its locality name
    # class entries that perfbench/tracing.py counts
    in_domain = TablePartialGroup.in_domain
    mul2 = TablePartialGroup.mul2

    def _vector_components(self):
        return total_group_component(self)

    def certify_ambient(self) -> None:
        """Prove the partial group axioms from the ambient group, or raise
        ValueError naming the first hypothesis that fails.

        With self.ambient = (M, to_ambient), L is read as Chermak's
        L_Delta(M) (Fusion systems and localities, Acta Math. 2013): the g
        in M with S_g = S cap S^(g^-1) in Delta, whose words w are in the
        domain when S_w is in Delta and multiply as in M.  These hypotheses
        are read on the tables as they stand, by array gathers, no word at
        a time (conjugation and S_w are taken in M):
        (H1) M.mult passes certify_group_table with M's identity and inverses;
        (H2) to_ambient is injective, and _raw, _inv and identity are M's
             restricted to L, with -1 exactly where a product leaves L;
        (H3) S is a subgroup of M, automaton.maps[g] is conjugation by g on
             S positions, and states (read as they are held: each start's
             position, -1 once it left S), rows, array (trans), start_sets
             and in_delta are the threading automaton of those maps masked by
             "S_w in delta_sets": state 0 is the identity map of S, and the
             state in row g of a state is its map followed by maps[g];
        (H4) S is in Delta; <P, s> is in Delta for every P in Delta and s
             in S; P^g is in Delta for every P in Delta and g in L with P^g
             inside S;
        (H5) every g in M with S_g in Delta lies in L.
        Proof that split, collapse and cancellation then hold on domain
        words of every length.  By (H3) a walk over w ends at a state whose
        start set is S_w, so in_domain(w) says S_w is in Delta; and by (H4)
        every subgroup of S over a member of Delta is in Delta (add its
        elements one at a time).  Let w be a domain word and u a prefix of
        w with h = Pi(u) in M.  S_w <= S_u <= S_h, all subgroups, so u is in
        the domain and, by (H5), h is in L; by (H2) the raw fold of w
        therefore never leaves L and is w's product in M.  The suffix v
        after u has S_w^h <= S_v, and S_w^h is in Delta by (H4) as h is in
        L: splits hold.  Collapsing a segment x of w = u x v to its product
        leaves u (Pi x) v, through which every element of S_w still
        threads, so it is in the domain with the same product by (H1); so
        is u (1) v, as S is in Delta.  S_w^Pi(w) threads through w^-1 w,
        which is thus in the domain, with product 1.  The empty word,
        length-1 words and inversion are _base_axiom_checks' to report.
        """
        M, to_ambient = self.ambient
        try:
            identity, inv = certify_group_table(M.mult)
        except ValueError as exc:
            raise ValueError(f"(H1) {exc}") from None
        if identity != M.identity or inv != M.inv:
            raise ValueError("(H1) M's table has another identity or other inverses")
        n, size, k = M.order, self.size, len(self.s_elems)
        amb = _ids(to_ambient, n, "(H2) to_ambient")
        local_of = _positions(amb, n)
        mult = M.mult
        if amb.shape != (size,) or (local_of[amb] != np.arange(size)).any():
            raise ValueError("(H2) to_ambient is not one-to-one on L")
        if not np.array_equal(_padded(local_of[mult[np.ix_(amb, amb)]]), self._raw):
            raise ValueError("(H2) the raw products are not M's restricted to L")
        inv_m = np.array(inv, dtype=np.int64)
        inverses = local_of[inv_m[amb]].tolist()
        if local_of[identity] != self.identity or inverses != list(self._inv) or -1 in inverses:
            raise ValueError("(H2) the identity or the inverses are not M's in L")

        s_amb = amb[_ids(self.s_elems, size, "(H3) S")]
        s_pos = _positions(s_amb, n)
        s_mult = s_pos[mult[np.ix_(s_amb, s_amb)]]
        if not k or (s_pos[s_amb] != np.arange(k)).any() or (s_mult < 0).any():
            raise ValueError("(H3) S is not a subgroup of M")
        # conj[g, i]: the position of s_i^g in S for every g in M, -1 outside S
        conj = s_pos[mult[mult[inv_m[:, None], s_amb], np.arange(n)[:, None]]]
        maps = conj[amb]
        auto = self.automaton
        if auto.maps != maps.tolist():
            raise ValueError("(H3) an automaton map is not conjugation in M")
        # cur[sid, a]: the current position of start a in state sid, -1 if gone
        cur = np.asarray(auto.states)
        rows = _ids(self.trans, len(cur), "(H3) a row")
        if (
            cur.shape[1:] != (k,) or not len(cur)
            or ((cur < -1) | (cur >= k)).any()
            or (cur[0] != np.arange(k)).any()
            or rows.shape != (len(cur), size)
            or rows.tolist() != auto.rows
        ):
            raise ValueError("(H3) the automaton states or rows are malformed")
        step = np.concatenate((maps, np.full((size, 1), -1)), axis=1)  # -1 stays -1
        if not np.array_equal(cur[rows], step[np.arange(size)[:, None], cur[:, None, :]]):
            raise ValueError("(H3) the automaton rows do not follow conjugation in M")
        starts = [frozenset(itertools.compress(self.s_elems, row)) for row in (cur >= 0).tolist()]
        in_delta = [P in self.delta_sets for P in starts]
        if starts != auto.start_sets or self.in_delta.tolist() != in_delta:
            raise ValueError("(H3) the start sets or the Delta mask are not the states'")

        s_set = frozenset(self.s_elems)
        if s_set not in self.delta_sets or not all(P <= s_set for P in self.delta_sets):
            raise ValueError("(H4) S is not in Delta, or a member is not inside S")
        family = _set_rows(self.delta_sets, size)[:, self.s_elems]
        which, extra = np.nonzero(~family)  # <P, s> for every P in Delta and s outside it
        grown = family[which]
        grown[np.arange(len(grown)), extra] = True
        if (row_lookup(_generated(grown, s_mult), family) < 0).any():
            raise ValueError("(H4) Delta is not closed under overgroups in S")
        # P^g for every member P and g in L, scattered through conjugation in M
        inside, index = _image_index(family, maps, family)
        if (index[inside] < 0).any():
            raise ValueError("(H4) Delta is not closed under conjugation in L")
        if ((row_lookup(conj >= 0, family) >= 0) & (local_of < 0)).any():
            raise ValueError("(H5) an element g of M with S_g in Delta is not in L")


# ---------------------------------------------------------------------------
# the locality proper


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
        self._s_group: FiniteGroup | None = None

    @functools.cached_property
    def automaton(self) -> ThreadAutomaton:
        """The partial group's own automaton on a LocalityPartialGroup, else
        one built on first use from the maps of s_positions()."""
        if isinstance(self.pg, LocalityPartialGroup):
            return self.pg.automaton
        return ThreadAutomaton(self.sylow, self.s_positions())

    # -- basic maps ----------------------------------------------------------

    def s_positions(self, members: Sequence[int] | None = None) -> np.ndarray:
        """pos[g, i]: the position in S (or in members) of s_i^g, s_i its
        i-th member, read from conj_table(); -1 where it is undefined or
        leaves it."""
        conj, n, X = self.pg.conj_table(), self.pg.size, self.sylow if members is None else members
        columns = np.array([conj[s] for s in X], dtype=np.int64).reshape(-1, n)
        return _positions(X, n + 1)[columns.T]  # -1 reads the last entry

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
        """N_L(X): elements g with X inside D(g) and X^g = X, read from one
        _scatter of X through s_positions(X): the image must hit every
        member of X and nothing outside, so a map that is not one-to-one on
        X (a broken table) fails."""
        X = sorted(set(X))
        image = _scatter(np.ones((1, len(X)), dtype=bool), self.s_positions(X))[0]
        return frozenset(np.flatnonzero(image[:, :-1].all(axis=1) & ~image[:, -1]).tolist())


# ---------------------------------------------------------------------------
# construction from a group


def _construction_failure(name: str, detail: str) -> LocalityConstructionError:
    check = CheckRecord(name=name, status="fail", detail=detail)
    return LocalityConstructionError(VerificationReport("locality construction", [check]))


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
    # pos[g, i]: the position in S of s_i^g for every g in M, -1 outside S;
    # L keeps the g whose S_g, the row of pos >= 0, is a member of Delta
    n = M.order
    inv = np.array(M.inv, dtype=np.int64)
    pos = _positions(s_sorted, n)[M.mult[M.mult[inv[:, None], s_sorted], np.arange(n)[:, None]]]
    delta_rows = _set_rows(delta.members, n)[:, s_sorted]
    keep = np.flatnonzero(row_lookup(pos >= 0, delta_rows) >= 0).tolist()
    to_ambient = tuple(keep)
    to_local = {g: i for i, g in enumerate(keep)}
    for g in keep:
        if M.inv[g] not in to_local:
            detail = f"element {M.labels[g]} kept but its inverse dropped"
            raise _construction_failure("inversion-closure", detail)

    local_delta = delta.translate(to_local)
    s_local = tuple(to_local[s] for s in s_sorted)
    # The ambient product over the kept elements in local ids, -1 where it leaves L
    raw = _positions(keep, n)[M.mult[np.ix_(keep, keep)]]

    def escapes(a: int, b: int) -> LocalityConstructionError:
        detail = f"domain product escapes the element set at ({a},{b})"
        return _construction_failure("product-closure", detail)

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
        conj_maps=pos[keep],
        ambient=(M, to_ambient),
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
        if len(grown) != len(base) and _p_part(len(grown), loc.p) == len(grown):
            ok, _ = pg.words_all_in_domain(grown)
            if ok:
                return (x, grown)
        done.update(closure_twins(pg, base, x))
    return None


def _chain_word_steps(loc: Locality, chain: np.ndarray):
    """(steps, in_delta): a state of the (L2) and threading checks is (chain
    front code, walker code, threading state) of a word.  The front of a
    word is the set of Delta members a chain through it can reach: all of
    Delta for the empty word, then chain[i, g] for each member i in the
    front, the index of P_i^g in Delta (-1 where P_i^g is not in it).
    Fronts are boolean rows over Delta, interned by intern_states, a level
    per _scatter (as in _image_index); a front with no member is dead (-1).
    steps(level, g) gathers the states of w g for every state and letter
    from the front rows, pg.walker_table().array (a dead code stays -1) and
    loc.automaton.array; in_delta[t] says whether S_w lies in loc.delta.
    """
    pg = loc.pg

    def front_step(level):
        nxt = _scatter(level, chain.T)[..., :-1]
        return nxt, nxt.any(axis=2)

    _, rows = intern_states(np.ones(len(chain), dtype=bool), front_step, "chain fronts")
    fronts = np.array(rows + [[-1] * pg.size], dtype=np.int64)
    walk = pg.walker_table().array
    thread = loc.automaton.array

    def steps(level, g):
        front, code, sid = (c[:, None] for c in level)
        return fronts[front, g], walk[code, g], thread[sid, g]

    in_delta = np.array([P in loc.delta.members for P in loc.automaton.start_sets])
    return steps, in_delta


def check_locality(loc: Locality) -> VerificationReport:
    """Verify the three locality axioms plus structural sanity.

    (L1) S is maximal among p-subgroups; (L2) a word is in the domain iff a
    conjugation chain through Delta witnesses it, for words of every
    length; (L3) Delta is closed under overgroups of images inside S.
    When the products on S are not a group (FiniteGroup rejects them), a
    failing check S-is-a-group carries the certificate's message, and the
    two checks that need the subgroup lattice of S are skipped.

    The image P^g of every Delta member P and element g is found once, by
    _image_index on loc.s_positions() (so on conj_table()), as its index
    in one family of rows: Delta, then the rest of the lattice of S.  (L2)
    reads the indices in Delta, (L3) the overgroups outside Delta of each
    image.  (L2) and the check that S_w lies in Delta exactly on domain
    words are two state_fixpoint searches over the key (chain front code,
    walker code, threading state) of _chain_word_steps: the front fixes
    chain existence, the walker code domain membership under every
    extension (the walker contract of PartialGroup) and the threading
    state S_w, so their verdicts cover words of every length.  A word is
    extended while its front is nonempty; its failing words come in
    shortlex order, the shortest first.  (L3) goes through the members in
    Delta order, then g, then the overgroups in lattice order.
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
    is_p_group = _p_part(order, loc.p) == order
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
    delta = loc.delta.members
    delta_list = sorted(delta, key=sorted)
    outside = [Q for Q in lattice or () if Q not in delta]  # in lattice order
    family = delta_list + outside
    rows = _set_rows(family, pg.size)[:, loc.sylow]
    _, index = _image_index(rows[: len(delta_list)], loc.s_positions(), rows)
    steps, in_delta = _chain_word_steps(loc, np.where(index < len(delta_list), index, -1))

    def l2_step(level, g):
        front, code, _ = nxt = steps(level, g)
        return nxt, front >= 0, (front >= 0) != (code >= 0)

    def threading_step(level, g):
        front, code, sid = nxt = steps(level, g)
        return nxt, front >= 0, in_delta[sid] != (code >= 0)

    states, words = state_fixpoint((0, 0, 0), pg.elements(), l2_step)
    report.record(
        "L2-domain-iff-chain",
        not words,
        [(w, d, not d) for w in words[:10] for d in [pg.in_domain(w)]],
        f"chain existence matches the domain on all domain words ({states} states)",
    )
    _, words = state_fixpoint((0, 0, 0), pg.elements(), threading_step)
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
    # the overgroups outside Delta of each family member in the lattice
    bad = [[Q for Q in outside if P <= Q] if P in lattice else [] for P in family]
    has_bad = np.array([bool(b) for b in bad])
    l3_bad: list[tuple] = []
    for r, g in np.argwhere((index >= 0) & has_bad[index]).tolist():
        l3_bad += [(sorted(delta_list[r]), g, sorted(Q)) for Q in bad[index[r, g]]]
        if len(l3_bad) >= 10:
            break
    report.record(
        "L3-overgroup-closure",
        not l3_bad,
        l3_bad[:10],
        "overgroups of conjugated members stay in Delta",
    )
    return report
