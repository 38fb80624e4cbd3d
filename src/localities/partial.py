"""Partial groups: a multivariable product defined only on a word domain.

Words are tuples of element ids.  Conjugation acts on the right throughout:
x^g means pi((g^-1, x, g)) whenever that word is in the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Container, Iterable, NamedTuple, Sequence

import numpy as np

from .groups import FiniteGroup, SubgroupRef, _p_part, certify_group_table, subset_group

Word = tuple[int, ...]

# The value of the empty word in the left folds of the product scans: no
# element id, and not None, which is mul2's answer off the domain.
EMPTY_WORD = object()

# The most words the per-word DFS of check_axioms visits.  Only a partial
# group with neither automaton tables nor an ambient group takes that route:
# a test's product overrides (CorruptedProducts); no command builds one.  A
# word count past the cap is stated as "more than" it.
AXIOM_SWEEP_CAP = 20_000_000
# The most states one intern_states automaton or state_fixpoint search interns
# (LOC-S5's quotient checks: 80; S4xS4's threading automaton: 100); walker tables intern none.
STATE_FIXPOINT_CAP = 1_000_000


class AmalgamSpecError(ValueError):
    """The identification of an amalgam is not a subgroup isomorphism."""


class WalkerTable(NamedTuple):  # see TablePartialGroup.walker_table
    rows: list[list[int]]  # rows[c][x]: the code of walk_step(state c, x), -1 for None
    array: np.ndarray  # rows as int64 plus a last row of -1: code -1 stays -1


def _padded(table: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """A 2-d table in int64 with a last row and column of -1: index -1 reads -1."""
    out = np.full(np.add(np.shape(table), 1), -1, dtype=np.int64)
    out[:-1, :-1] = table
    return out


class PartialGroup:
    """Base interface: indexed elements, inversion, and a partial product.

    Subclasses fix the domain decision and the product; pi() returns a value
    exactly on the words the domain decider accepts.  Every partial group
    the package builds is a TablePartialGroup, which gathers its product
    and conjugation tables from its automaton and raw product.  The
    per-pair builders here serve backends that override products word by
    word (a test's CorruptedProducts), and are the references the gathers
    are tested against.
    """

    size: int
    identity: int
    labels: tuple[str, ...]
    p: int | None = None
    _product_table: list[list[int]] | None = None
    _padded_products: np.ndarray | None = None
    _conj_table: list[list[int]] | None = None

    def inverse(self, x: int) -> int:
        raise NotImplementedError

    def in_domain(self, word: Word) -> bool:
        raise NotImplementedError

    def _raw_product(self, word: Word) -> int:
        """Product of a word already known to be in the domain."""
        raise NotImplementedError

    def pi(self, word: Word) -> int | None:
        """The partial product: a value on domain words, None elsewhere."""
        word = tuple(word)
        if not self.in_domain(word):
            return None
        return self._raw_product(word)

    def mul2(self, a: int, b: int) -> int | None:
        return self.pi((a, b))

    def product_table(self) -> list[list[int]]:
        """Binary products: row a holds mul2(a, b) at b, or -1 off the domain.

        Built from mul2, one call per pair, on first use and kept on the
        instance, so overridden products (a test's product overrides) are
        what the closures see.
        It holds size**2 Python ints (3,136 for a 56-element locality) for
        the life of the partial group.  It is per-instance, never a cache
        keyed by id(), because ids are reused once an object is collected.
        """
        if self._product_table is None:
            n = range(self.size)
            self._product_table = [
                [-1 if (v := self.mul2(a, b)) is None else v for b in n] for a in n
            ]
        return self._product_table

    def padded_products(self) -> np.ndarray:
        """product_table() as an (n+1) x (n+1) int64 array whose last row
        and column are -1, so a product with the missing value -1 is
        missing too.  Built on first use and kept on the instance."""
        if self._padded_products is None:
            self._padded_products = _padded(self.product_table())
        return self._padded_products

    def conj_table(self) -> list[list[int]]:
        """Conjugates: row x holds x^f = pi((f^-1, x, f)) at f, or -1 off
        the domain.

        Built from pi, one call per pair, on first use and kept on the
        instance, as product_table() is, so overridden products (a test's
        product overrides) are what every conjugation reads.
        """
        if self._conj_table is None:
            n = range(self.size)
            inv = [self.inverse(f) for f in n]
            self._conj_table = [
                [-1 if (v := self.pi((inv[f], x, f))) is None else v for f in n] for x in n
            ]
        return self._conj_table

    def elements(self) -> range:
        return range(self.size)

    def invert_word(self, word: Word) -> Word:
        return tuple(self.inverse(x) for x in reversed(word))

    # -- prefix walkers ----------------------------------------------------
    # A walker extends a word one letter at a time and returns None as soon
    # as no extension of the prefix can be in the domain (valid for partial
    # groups because domain words have all their prefixes in the domain).
    # Contract, relied on by every reader of walker_table(): walk_step(state,
    # x) is None exactly when in_domain(word + (x,)) is false, where state
    # is the state of word; a state is hashable and decides every
    # extension, so two words with equal states have the same domain
    # status under every suffix.  walker_table() codes the states, code 0
    # for walk_start(), so that two words share a code exactly when they
    # share a state: rows[c][x] is the code of walk_step(state c, x), -1
    # for None.  A TablePartialGroup's codes are its automaton's states; a
    # test double numbers the states it reaches breadth first.  Built once
    # per instance, on first use, it is the one domain decider for words of
    # every length: words_all_in_domain, domain_is_total, the (L2) and
    # threading checks of check_locality, subset_product, the product scan
    # of normal._scan_product (which reads S_w, never the domain, from the
    # threading automaton) and the quotient's word checks (state_fixpoint)
    # read its rows, and merge words with equal codes for that reason.

    def walk_start(self):
        raise NotImplementedError

    def walk_step(self, state, x: int):
        raise NotImplementedError

    @property
    def domain_is_total(self) -> bool:
        """Whether every word is in the domain: no -1 in the walker rows, all
        of which words reach from code 0, as every builder interns trans from
        state 0 (a threading automaton, an amalgam's side masks) or has one state."""
        return bool((self.walker_table().array[:-1] >= 0).all())

    def words_all_in_domain(self, members: frozenset[int]) -> tuple[bool, Word | None]:
        """(whether every word over members lies in the domain, the
        shortlex-least word over them off it when not), for words of every
        length.

        A breadth-first search over the walker codes that words over the
        members reach, reading walker_table() rows on the member letters in
        ascending order: each code is first reached by its shortlex-least
        word, so the first -1 met ends the shortlex-least failing word.
        """
        rows = self.walker_table().rows
        letters = sorted(members)
        least = {0: ()}  # the shortlex-least word of each code reached
        codes = [0]
        for code in codes:  # codes grows while it is read
            row = rows[code]
            for x in letters:
                nxt = row[x]
                if nxt < 0:
                    return False, least[code] + (x,)
                if nxt not in least:
                    least[nxt] = least[code] + (x,)
                    codes.append(nxt)
        return True, None


class SweepBudgetExceeded(RuntimeError):
    pass


def _within_budget(states: int, what: str) -> None:
    if states > STATE_FIXPOINT_CAP:
        raise SweepBudgetExceeded(f"{what} reached {STATE_FIXPOINT_CAP + 1} states,"
                                  f" over the budget of {STATE_FIXPOINT_CAP}")


def intern_rows(rows: np.ndarray, codes: dict, coded: bool = True) -> tuple[list | None, list]:
    """(code, new): the code of each row of a 2-d array in codes (None
    unless coded), a dict keyed by row bytes (boolean rows packed to bits),
    where an unseen row gets the next code, len(codes), in row order; new
    lists the rows first met here, in code order.  No numpy sort: one adds
    about half a megabyte of resident memory the first time it runs."""
    rows = np.ascontiguousarray(np.packbits(rows, axis=1) if rows.dtype == bool else rows)
    width, old = rows.dtype.itemsize * rows.shape[1], len(codes)
    keys = rows.view(np.dtype((np.void, width))).ravel().tolist() if width else [b""] * len(rows)
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # reversed: the first wins
    new = sorted(i for key, i in first.items() if key not in codes)
    codes.update(zip([keys[i] for i in new], range(old, old + len(new))))
    return (list(map(codes.__getitem__, keys)) if coded else None), new


def row_lookup(queries: np.ndarray, family: np.ndarray) -> np.ndarray:
    """The index of the row of family (rows distinct) equal to each row of
    queries, -1 where none is, through the dict of intern_rows."""
    codes: dict = {}
    intern_rows(family, codes)
    code = np.array(intern_rows(queries, codes)[0], dtype=np.int64)
    return np.where(code < len(family), code, -1)


def intern_states(start: np.ndarray, step: Callable, what: str) -> tuple[np.ndarray, list]:
    """(states, rows): the states a finite automaton reaches from start, as
    the rows of one array in breadth-first order (states[0] is start), and
    their transition rows.  step(level) gets a level's states as a (b, w)
    array and returns (nxt, live) of shapes (b, m, w) and (b, m): the state
    each letter 0..m-1 takes each to, and whether the word goes on (rows[c][x]
    is -1 where not).  intern_rows numbers a level's unseen live rows in
    (state, letter) row-major order, as one pair at a time would.  Interning
    more than STATE_FIXPOINT_CAP states raises SweepBudgetExceeded, naming what.
    """
    level = np.asarray(start)[None]
    codes: dict = {}
    intern_rows(level, codes)
    found, rows = [level], []
    while len(level):
        nxt, live = step(level)
        live = live.ravel()
        nxt = np.asarray(nxt, dtype=level.dtype).reshape(live.size, level.shape[1])[live]
        code = np.full(live.size, -1, dtype=np.int64)
        code[live], new = intern_rows(nxt, codes)
        _within_budget(len(codes), what)
        rows += code.reshape(len(level), -1).tolist()
        level = nxt[new]
        found.append(level)
    return np.concatenate(found), rows


# ---------------------------------------------------------------------------
# the table backend


def _no_raw_entry(a: int, b: int) -> ValueError:
    return ValueError(f"the raw product table has no entry for ({a},{b})")


class TablePartialGroup(PartialGroup):
    """A partial group held as tables, as every one the package builds is
    (groups, amalgams and table localities, quotients among them).

    _inv[x] is the inverse of x.  _raw[a, b] is the raw product, -1 where
    it is undefined; a domain word whose fold meets such a pair raises
    raw_missing(a, b).  trans is a domain automaton (Epstein et al., Word
    Processing in Groups, 1992): trans[s, x] is the state x takes s to,
    never -1, from state 0 for the empty word, and accept[s] says whether
    the words reaching s are in the domain.  A domain word's product is its
    left fold over _raw from the identity; the walker states are those of
    trans, masked by accept.  The three are arrays from construction on,
    _raw with a last row and column of -1, read as they stand (the product,
    conjugation and walker tables once, on first use); the scalar methods
    read memoryviews of them, Python ints and bools at twice a list read's cost.
    """

    _walker_table: WalkerTable | None = None

    def __init__(self, size: int, identity: int, labels: tuple[str, ...], inv: Sequence[int],
                 raw: np.ndarray, trans: np.ndarray | list, accept: np.ndarray | list,
                 raw_missing: Callable[[int, int], Exception] = _no_raw_entry):
        self.size, self.identity, self.labels = size, identity, labels
        self._inv, self._raw, self._raw_missing = inv, _padded(raw), raw_missing
        self.trans, self.accept = np.asarray(trans), accept
        self._trans_at, self._raw_at = memoryview(self.trans), memoryview(self._raw)

    def _set_accept(self, mask: np.ndarray | list) -> None:  # a rebound mask, a new view
        self._accept = np.asarray(mask, dtype=bool)
        self._accept_at = memoryview(self._accept)

    accept = property(lambda self: self._accept, _set_accept)

    def inverse(self, x: int) -> int:
        return self._inv[x]

    def in_domain(self, word: Word) -> bool:
        state, trans = 0, self._trans_at
        for x in word:
            state = trans[state, x]
        return self._accept_at[state]

    def _mul_raw(self, a: int, b: int) -> int:
        v = self._raw_at[a, b]
        if v < 0:
            raise self._raw_missing(a, b)
        return v

    def _raw_product(self, word: Word) -> int:
        out = self.identity
        for x in word:
            out = self._mul_raw(out, x)
        return out

    def mul2(self, a: int, b: int) -> int | None:
        v = self.product_table()[a][b]
        return None if v < 0 else v

    def walk_start(self):
        return 0

    def walk_step(self, state: int, x: int):
        nxt = self._trans_at[state, x]
        return nxt if self._accept_at[nxt] else None

    def walker_table(self) -> WalkerTable:
        """The walker codes of the PartialGroup contract: trans's own states,
        each row masked by accept in one gather (every builder bounded trans)."""
        if self._walker_table is None:
            masked = np.where(self.accept[self.trans], self.trans, -1)
            array = np.concatenate((masked, np.full((1, self.size), -1)))
            self._walker_table = WalkerTable(masked.tolist(), array)
        return self._walker_table

    def _gather(self, *letters: np.ndarray) -> np.ndarray:
        """pi of the words letters[0] letters[1] ..., the letter arrays
        broadcast to one table: a walk over trans and a fold over _raw, one
        gather per letter, -1 off the domain.  A domain word whose fold
        meets a missing raw product raises as pi does: the first such word
        in row-major order, at its first missing pair."""
        state, value = 0, self.identity  # a missing value -1 reads -1 from then on
        for x in letters:
            state, value = self.trans[state, x], self._raw[value, x]
        domain = self.accept[state]
        missing = np.argwhere(domain & (value < 0))
        if len(missing):  # the scalar fold of the first such word raises
            at = tuple(missing[0])
            self._raw_product(tuple(int(np.broadcast_to(x, value.shape)[at]) for x in letters))
        return np.where(domain, value, -1)

    def padded_products(self) -> np.ndarray:
        """The base class array, pi((a, b)) in one gather over every pair."""
        if self._padded_products is None:
            n = np.arange(self.size)
            self._padded_products = _padded(self._gather(n[:, None], n))
        return self._padded_products

    def product_table(self) -> list[list[int]]:
        """padded_products() as lists, without its last row and column."""
        if self._product_table is None:
            self._product_table = self.padded_products()[:-1, :-1].tolist()
        return self._product_table

    def conj_table(self) -> list[list[int]]:
        """The base class table, pi((f^-1, x, f)) at row x, column f, in one gather."""
        if self._conj_table is None:
            n = np.arange(self.size)
            self._conj_table = self._gather(np.asarray(self._inv), n[:, None], n).tolist()
        return self._conj_table


class GroupPartialGroup(TablePartialGroup):
    """A finite group viewed as a partial group with a total domain: one
    accepting state over the group's table."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        super().__init__(group.order, group.identity, group.labels, group.inv, group.mult,
                         np.zeros((1, group.order), dtype=np.int64), [True])

    def _vector_components(self):
        return [(tuple(self.elements()), self.group)]


def total_group_component(pg: PartialGroup):
    """[(every id, the group on them)] when pg's domain is total and its
    product table is a group; otherwise None, and check_axioms searches words."""
    if not pg.domain_is_total:
        return None
    try:
        group = subset_group(pg.elements(), pg.mul2, pg.labels)
    except ValueError:
        return None
    return [(tuple(pg.elements()), group)]


@dataclass
class AmalgamSpec:
    """Two groups glued along an identified common subgroup.

    pairing maps member ids of a subgroup of left onto member ids of a
    subgroup of right and must be a group isomorphism.
    """

    left: FiniteGroup
    right: FiniteGroup
    pairing: dict[int, int]


def _validate_pairing(spec: AmalgamSpec) -> None:
    try:
        SubgroupRef(spec.left, spec.pairing.keys())
        shared_right = SubgroupRef(spec.right, spec.pairing.values())
    except ValueError as exc:
        raise AmalgamSpecError(f"identified sets are not subgroups: {exc}") from exc
    if len(set(spec.pairing.values())) != len(spec.pairing):
        raise AmalgamSpecError("identification is not injective")
    if len(spec.pairing) != shared_right.order:
        raise AmalgamSpecError("identification does not cover the right subgroup")
    for a in spec.pairing:
        for b in spec.pairing:
            lhs = spec.pairing[spec.left.mul(a, b)]
            rhs = spec.right.mul(spec.pairing[a], spec.pairing[b])
            if lhs != rhs:
                raise AmalgamSpecError(
                    f"identification is not a homomorphism at ({a},{b})"
                )


class AmalgamPartialGroup(TablePartialGroup):
    """Union of two groups; a word is multipliable iff it stays on one side.

    The left group keeps its ids and the right group's ids outside the
    shared subgroup follow.  The raw product is glued from the two tables;
    the automaton's states are the side masks words reach from 3 (both).
    """

    SIDE_LEFT = 1
    SIDE_RIGHT = 2

    def __init__(self, spec: AmalgamSpec):
        _validate_pairing(spec)
        left, right, n = spec.left, spec.right, spec.left.order
        if spec.pairing[left.identity] != right.identity:
            raise AmalgamSpecError("identification must match identities")
        self.spec = spec
        self.degenerate = len(spec.pairing) in (n, right.order)
        from_right = np.full(right.order, -1)
        from_right[list(spec.pairing.values())] = list(spec.pairing)
        own = np.flatnonzero(from_right < 0)  # right ids outside the shared subgroup
        from_right[own] = n + np.arange(len(own))
        size = n + len(own)
        side_mask = np.zeros(size, dtype=np.int64)
        side_mask[:n] = self.SIDE_LEFT
        side_mask[from_right] |= self.SIDE_RIGHT
        raw, inv = np.full((size, size), -1), np.zeros(size, dtype=np.int64)
        raw[:n, :n], inv[:n] = left.mult, left.inv
        raw[np.ix_(from_right, from_right)] = from_right[right.mult]
        inv[from_right] = from_right[list(right.inv)]
        masks, trans = intern_states(np.array([3]), lambda s: (
            s[:, None] & side_mask[:, None], np.ones((len(s), size), bool)), "amalgam automaton")
        super().__init__(
            size, left.identity, tuple(left.labels) + tuple("r." + right.labels[j] for j in own),
            tuple(inv.tolist()), raw, trans, masks[:, 0] > 0,
        )
        self.from_left = tuple(range(n))
        self.from_right = tuple(from_right.tolist())
        self.side_mask = tuple(side_mask.tolist())

    def _vector_components(self):
        return [(self.from_left, self.spec.left), (self.from_right, self.spec.right)]


def build_amalgam(spec: AmalgamSpec) -> AmalgamPartialGroup:
    """Glue spec.left and spec.right along the identified subgroup."""
    return AmalgamPartialGroup(spec)


# ---------------------------------------------------------------------------
# subset machinery


def _close(
    pg: PartialGroup,
    seed: Iterable[int],
    rows: Sequence[Sequence[int]] = (),
    closed: frozenset[int] = frozenset(),
    known: Container[frozenset[int]] = (),
) -> frozenset[int]:
    """Frontier closure: the least subset containing the identity, closed
    and seed that is closed under inversion, under every defined product of
    two members and, when rows are given, under every entry >= 0 of rows[x]
    for each member x.

    closed must already be closed in that sense (a partial subgroup when no
    rows are given); its members start out as old members, so only the seed
    elements outside it form the first frontier.  Each round multiplies only
    the elements added in the previous round with the current members, in
    both orders, reading pg.product_table(); pairs of older members are
    never multiplied again.

    known holds sets already closed in the same sense.  Before each round
    the closure stops when the members equal one of them or are all of L.
    The members always lie inside the closure, and the closure lies inside
    every closed set that holds them, so a closed set equal to the members
    is the closure: the stop is exact on any table.  Only equality proves
    it; members inside a larger known set say nothing.
    """
    table = pg.product_table()
    members = set(closed)
    fresh = {pg.identity}
    fresh.update(int(x) for x in seed)
    frontier = list(fresh - members)
    members |= fresh
    while frontier:
        if len(members) == pg.size or (known and frozenset(members) in known):
            break
        current = list(members)
        fresh = set()
        for a in frontier:
            fresh.add(pg.inverse(a))
            row = table[a]
            fresh.update([row[b] for b in current])
            fresh.update([table[b][a] for b in current])
            if rows:
                fresh.update(rows[a])
        fresh.discard(-1)
        fresh -= members
        members |= fresh
        frontier = list(fresh)
    return frozenset(members)


def partial_subgroup_closure(
    pg: PartialGroup,
    seed: Iterable[int],
    closed: frozenset[int] = frozenset(),
    known: Container[frozenset[int]] = (),
) -> frozenset[int]:
    """Least subset containing seed and closed that is closed under
    inversion and under the product of every domain word with entries in
    the subset; closed, when given, must be a partial subgroup already, and
    so must every member of known (where _close may stop early).

    Closing under defined length-2 products suffices: any longer domain word
    collapses to nested length-2 products by the partial group axioms.
    Computed by the frontier kernel _close over pg.product_table(), so the
    first call on a partial group also builds its table.
    """
    return _close(pg, seed, closed=closed, known=known)


def closure_twins(pg: PartialGroup, base: Iterable[int], x: int) -> set[int]:
    """The twin class of x over base: elements y whose closure with base
    equals the closure of base and x, x among them.

    The class is closed under three moves, each proved per pair from
    pg.product_table() and pg.inverse, never assumed:
    - y = h*x (h in base) with h^-1 * y = x;
    - y = x*h (h in base) with y * h^-1 = x;
    - y = x^-1 with (x^-1)^-1 = x.
    In each, the closure of base | {x} holds y (a product or the inverse of
    its members), and the closure of base | {y} holds x by the return
    lookup (h^-1 is in it as the inverse of h), so the two closures hold
    each other's generators and are equal.  This holds for any base, closed
    or not, and for any table; equality is transitive, so the whole class
    shares one closure.  On a genuine partial group every lookup succeeds
    where the products are defined, and the class is the double coset
    base*x*base together with its inverses.
    """
    table = pg.product_table()
    hs = [(h, pg.inverse(h)) for h in base]
    twins = {x}
    queue = [x]
    while queue:
        z = queue.pop()
        found = [pg.inverse(z)] if pg.inverse(pg.inverse(z)) == z else []
        row = table[z]
        for h, h_inv in hs:
            y = table[h][z]
            if y >= 0 and table[h_inv][y] == z:
                found.append(y)
            y = row[h]
            if y >= 0 and table[y][h_inv] == z:
                found.append(y)
        for y in found:
            if y not in twins:
                twins.add(y)
                queue.append(y)
    return twins


# ---------------------------------------------------------------------------
# word-state fixpoints


# The most (state, letter) pairs one state_fixpoint step takes at once, so
# that a level's arrays and keys stay a few MB however wide it is.
_FIXPOINT_BLOCK = 1 << 15


def state_fixpoint(
    start: tuple[int, ...], letters: Sequence[int], step: Callable
) -> tuple[int, list[Word]]:
    """Every failing transition of a word check whose verdict is a state.

    A state is a tuple of ints.  Words over letters are read from start a
    level at a time: step(level, xs) gets a level's states as one array
    per component and the letters as an array, and returns (nxt, live,
    bad), each of shape (states, letters): the components of each extended
    word's state, whether the check extends it and whether it fails.  When
    the states are finite, searching them breadth first to a fixpoint
    decides the check on words of every length: the product-automaton
    construction of Epstein et al., Word Processing in Groups (1992).

    The unseen next states are interned as rows by intern_rows in (state,
    letter) order, as intern_states interns them.  So each state is first
    reached by the least word in shortlex order (letters ranked as given).
    Returns (number of states, one failing word per failing transition:
    the least word of its state followed by its letter), in shortlex order.
    Interning more than STATE_FIXPOINT_CAP states raises SweepBudgetExceeded.
    """
    xs = np.asarray(letters, dtype=np.int64)
    m = xs.size
    xs_list = xs.tolist()
    level = np.array([start], dtype=np.int64)
    codes: dict = {}
    intern_rows(level, codes)
    words: list[Word] = [()]  # the least word of each state, by code
    failing: list[Word] = []
    first = 0  # code of the level's first state
    block = max(1, _FIXPOINT_BLOCK // max(m, 1))  # states stepped at once
    while len(level):
        grown = []
        for lo in range(0, len(level), block):
            nxt, live, bad = step(tuple(level[lo:lo + block].T), xs)
            at_lo = first + lo  # code of the block's first state
            failing += [words[at_lo + p // m] + (xs_list[p % m],)
                        for p in np.flatnonzero(bad).tolist()]
            pos = np.flatnonzero(live)
            nxt = np.stack([c.ravel()[pos] for c in nxt], axis=1).astype(np.int64, copy=False)
            _, new = intern_rows(nxt, codes, coded=False)
            _within_budget(len(codes), "word-state search")
            words += [words[at_lo + p // m] + (xs_list[p % m],) for p in pos[new].tolist()]
            grown.append(nxt[new])
        first += len(level)
        level = np.concatenate(grown)
    return len(words), failing


@dataclass
class SubsetHandle:
    """A subset of a partial group with its cached classification."""

    owner: PartialGroup
    members: frozenset[int]
    is_partial_subgroup: bool
    is_subgroup: bool
    is_p_subgroup: bool
    is_partial_normal: bool
    witness: tuple | None = None

    @property
    def classification(self) -> str:
        if self.is_partial_normal:
            return "partial-normal"
        if self.is_p_subgroup:
            return "p-subgroup"
        if self.is_subgroup:
            return "subgroup"
        if self.is_partial_subgroup:
            return "partial-subgroup"
        return "not-closed"

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)


def _closure_failure(pg: PartialGroup, X: frozenset[int]) -> tuple | None:
    """A witness that X is not a partial subgroup, or None if it is one."""
    elems = sorted(X)
    for a in elems:
        if pg.inverse(a) not in X:
            return ("inverse", a)
    table = pg.product_table()
    for a in elems:
        row = table[a]
        for b in elems:
            c = row[b]
            if c >= 0 and c not in X:
                return ("product", a, b, c)
    return None


def _conjugation_failure(pg: PartialGroup, X: frozenset[int]) -> tuple | None:
    """A witness (x, f, x^f) with x^f defined outside X, or None; the
    first in sorted x, then f, read from pg.conj_table()."""
    conj = pg.conj_table()
    for x in sorted(X):
        for f, v in enumerate(conj[x]):
            if v >= 0 and v not in X:
                return (x, f, v)
    return None


def classify_subset(
    pg: PartialGroup, members: Iterable[int], p: int | None = None
) -> SubsetHandle:
    """Classify a subset: partial subgroup / subgroup / p-subgroup / partial normal."""
    X = frozenset(int(x) for x in members)
    if not X:
        raise ValueError("cannot classify the empty subset")
    witness = _closure_failure(pg, X)
    partial_sub = witness is None
    is_subgroup = False
    if partial_sub:
        ok, bad = pg.words_all_in_domain(X)
        is_subgroup = ok
        if not ok and witness is None:
            witness = ("word", bad)
    prime = p if p is not None else pg.p
    is_p = bool(is_subgroup and prime is not None and _p_part(len(X), prime) == len(X))
    is_pn = False
    if partial_sub:
        bad_conj = _conjugation_failure(pg, X)
        is_pn = bad_conj is None
        if bad_conj is not None and witness is None:
            witness = ("conjugation",) + bad_conj
    return SubsetHandle(
        owner=pg,
        members=X,
        is_partial_subgroup=partial_sub,
        is_subgroup=is_subgroup,
        is_p_subgroup=is_p,
        is_partial_normal=is_pn,
        witness=witness,
    )


def subset_product(pg: PartialGroup, factors: Sequence[Iterable[int]]) -> frozenset[int]:
    """{x1 x2 ... xl : xi in factor i, the word lies in the domain}.

    Each word is folded left to right by binary products read from
    pg.product_table() rows, never rebracketed (pi of the word on a
    partial group).  The table is the instance's own cache of mul2, so the
    fold is the mul2 fold on every instance, corrupted ones and quotients
    included.  After each factor the words are merged by their (walker
    code, value) pair, which decides every extension because the walker
    and the table are deterministic: the fold reads one walker row entry
    per pair and letter, from pg.walker_table() (built once per instance,
    on first use).  The empty word has
    code 0 and carries the value EMPTY_WORD; a domain word whose fold
    meets an undefined product (-1, on a table that breaks the axioms)
    has no value and is dropped.
    """
    if len(factors) == 0:
        raise ValueError("subset_product needs at least one factor")
    factor_lists = [sorted(set(int(x) for x in f)) for f in factors]
    for f in factor_lists:
        if not f:
            raise ValueError("subset_product factors must be nonempty")
    table = pg.product_table()
    rows = pg.walker_table().rows
    frontier = {(0, EMPTY_WORD)}
    for xs in factor_lists[:-1]:
        frontier = {
            (nxt, v)
            for code, value in frontier
            for x in xs
            if (nxt := rows[code][x]) >= 0
            and (v := x if value is EMPTY_WORD else table[value][x]) >= 0
        }
    return frozenset(
        v
        for code, value in frontier
        for x in factor_lists[-1]
        if rows[code][x] >= 0
        and (v := x if value is EMPTY_WORD else table[value][x]) >= 0
    )


# ---------------------------------------------------------------------------
# axiom verification


@dataclass
class AxiomViolation:
    axiom: str
    word: Word
    detail: str = ""


@dataclass
class AxiomReport:
    max_len: int
    words_checked: int
    violations: list[AxiomViolation]
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        words = self.words_checked
        count = f"more than {AXIOM_SWEEP_CAP}" if words > AXIOM_SWEEP_CAP else words
        return f"axiom sweep to length {self.max_len}: {count} words, {state}"


MAX_REPORTED_VIOLATIONS = 200


def _base_axiom_checks(pg: PartialGroup, out: list[AxiomViolation]) -> None:
    if pg.pi(()) != pg.identity:
        out.append(AxiomViolation("empty-product", (), "pi(()) is not the identity"))
    seen = set()
    for x in pg.elements():
        y = pg.inverse(x)
        seen.add(y)
        if pg.inverse(y) != x:
            out.append(AxiomViolation("inversion", (x,), "inversion is not involutory"))
        if pg.pi((x,)) != x:
            out.append(AxiomViolation("length-1", (x,), "pi((x,)) != x"))
    if len(seen) != pg.size:
        out.append(AxiomViolation("inversion", (), "inversion is not a bijection"))


def _word_violations(pg: PartialGroup, word: Word) -> list[AxiomViolation]:
    """The violations _dfs_axiom_sweep reports on one word, none off the domain."""
    if not pg.in_domain(word):
        return []
    n, total = len(word), pg.pi(word)
    out = []
    for k in range(1, n):  # both halves of a domain word are domain words
        if not pg.in_domain(word[:k]):
            out.append(AxiomViolation("split", word, f"prefix of length {k} not in domain"))
        if not pg.in_domain(word[k:]):
            out.append(AxiomViolation("split", word, f"suffix from {k} not in domain"))
    for i in range(n + 1):  # a segment collapsed to its product keeps word and product
        for j in range(i, n + 1):
            mid = None if j == i + 1 else pg.pi(word[i:j])
            if mid is not None and (val := pg.pi(word[:i] + (mid,) + word[j:])) != total:
                what = "leaves domain" if val is None else "changes the product"
                out.append(AxiomViolation("collapse", word, f"collapse [{i}:{j}] {what}"))
    cancelled = pg.pi(pg.invert_word(word) + word)
    if cancelled != pg.identity:
        what = "w^-1 ∘ w not in domain" if cancelled is None else "pi(w^-1 ∘ w) != 1"
        out.append(AxiomViolation("cancellation", word, what))
    return out


def _dfs_axiom_sweep(pg: PartialGroup, max_len: int) -> tuple[int, list[AxiomViolation]]:
    """(words visited, violations) of a literal sweep over every word of
    length <= max_len, in pre-order (a word, then its extensions); once
    MAX_REPORTED_VIOLATIONS are found it checks no further word."""
    out: list[AxiomViolation] = []
    stack, visited = [(x,) for x in reversed(pg.elements())], 0
    while stack:
        word = stack.pop()
        visited += 1
        if len(out) < MAX_REPORTED_VIOLATIONS:
            out.extend(_word_violations(pg, word))
        if len(word) < max_len:
            stack += [word + (x,) for x in reversed(pg.elements())]
    return visited, out


def _axiom_searches(pg: TablePartialGroup) -> tuple[list[int], dict[str, list[Word]]]:
    """([split, collapse, cancellation state counts], {axiom: its failing
    words in shortlex order}) over the words on the letters 0..m-1 of
    pg.trans, with D = pg.accept, R = pg._raw and e = pg.identity.

    A word is in the domain when its walk over trans from state 0 ends in
    D; its product is its left fold over R (-1: undefined) from e.  No
    walker is read: a walker assumes split.  Each search is one
    state_fixpoint over letters tagged with a guess (x with tag g is x *
    tags + g), failing a domain word as it ends; a path stops once no
    extension of its word can reach D (A):
    - split, (state, flag, suffix state): the flag is -1 on the empty word
      and 1 once a proper prefix is off the domain or the suffix can no
      longer reach it; tag 1 starts the suffix.  Fails: flag 1, or the
      suffix off the domain;
    - collapse, (phase, state, value, y, z): phase 0 reads the word, which
      fails if its fold leaves R (pg._raw_missing(a, b) is raised at its first
      undefined pair) or if appending the empty word changes it.  Tag 1
      collapses the empty word before its letter; tag 2 keeps a letter in
      y (phase 1), and the next letter collapses that pair, if in the
      domain, to its product.  Phase 2 reads the collapsed word too, as
      (state y, value z): both values -1 once they agree, y -1 once it
      cannot reach the domain.  Fails: it is off the domain or its
      product is another;
    - cancellation, domain half, (T_w, T_w^-1): the transition maps of w
      and w^-1 as codes in the transition monoid; w^-1 w walks to
      T_w(T_w^-1(0)).  The value half is read on single letters.
    """
    trans, R, e = pg.trans, pg._raw, pg.identity
    k, m = trans.shape
    T = _padded(trans)  # the dead state -1 and the letter -1 read -1
    D = np.append(pg.accept, False)
    A = D.copy()
    while not ((grown := A | A[T[:, :m]].any(axis=1)) == A).all():
        A = grown
    inv = np.asarray(pg._inv, dtype=np.int64)
    counts: list[int] = []

    def search(start, tags, step, *more: Word) -> list[Word]:
        states, failing = state_fixpoint(start, range(m * tags), step)
        counts.append(states)
        words = {tuple(c // tags for c in w) for w in failing}.union(more)
        return sorted(words, key=lambda w: (len(w), w))

    def split_step(level, xs):
        s, f, t = (c[:, None] for c in level)
        x, starts = xs // 2, xs % 2 == 1
        s2, t2 = T[s, x], T[np.where(starts, 0, t), x]
        f2 = np.where(f < 0, 0, f | ~D[s]) | ~A[t2] & (t2 >= 0)
        t2 = np.where(f2 == 1, -1, t2)
        live = (~starts | (t < 0) & (f == 0)) & A[s2]
        return (s2, f2, t2), live, live & D[s2] & ((f2 == 1) | ~D[t2] & (t2 >= 0))

    def collapse_step(level, xs):
        ph, s, v, y, z = (c[:, None] for c in level)
        x, tag = xs // 3, xs % 3
        one, two = ph == 1, ph == 2
        a = np.where(one, y, -1)  # the pair's first letter
        sw = T[np.where(one, T[s, a], s), x]  # the word: u x, or u a x in phase 1
        vw = R[np.where(one, R[v, a], v), x]
        c = R[R[e, a], x]  # the pair's product
        cs = np.where(two, T[np.where(two, y, -1), x], np.where(one, T[s, c], T[T[s, e], x]))
        cv = np.where(two, R[z, x], np.where(one, R[v, c], R[R[v, e], x]))
        cs = np.where(A[cs], cs, -1)
        same = (cs < 0) | (vw == cv)
        vc, cv = np.where(same, -1, vw), np.where(same, -1, cv)
        to0, to1 = (ph == 0) & (tag == 0), (ph == 0) & (tag == 2)
        pair = two | one & D[T[T[0, a], x]] & (c >= 0)
        to2 = (ph == 0) & (tag == 1) & D[0] | pair & (tag == 0)
        live = A[sw] & (to0 | to1 | to2)
        end = D[0] & ~(D[T[sw, e]] & (R[vw, e] == vw))
        bad = to0 & ((vw < 0) | end) | to2 & (~D[cs] | (vc >= 0) & (cv >= 0) & (vc != cv))
        nxt = (to1 + 2 * to2, np.where(to1, s, sw), np.where(to1, v, np.where(to2, vc, vw)),
               np.where(to1, x, np.where(to2, cs, -1)), np.where(to2, cv, -1))
        return nxt, live, live & D[sw] & bad

    found = {"split": search((0, -1, -1), 2, split_step)}
    found["collapse"] = search((0, 0, e, -1, -1), 3, collapse_step)
    for word in found["collapse"]:  # a domain word whose fold leaves R fails here
        state, value, pair = 0, e, None
        for x in word:
            if pair is None and R[value, x] < 0 <= value:
                pair = (int(value), x)
            state, value = trans[state, x], R[value, x]
        if pair is not None and D[state]:
            raise pg._raw_missing(*pair)

    def then_letter(level):  # T_w x for each map T_w of level and letter x
        return T[level, :m].swapaxes(1, 2), np.ones((len(level), m), dtype=bool)

    maps, app = intern_states(np.arange(k), then_letter, "transition monoid")
    # w^-1 gains x^-1 in front when w gains x: pre[c, y] is y's map, then map c
    pre = row_lookup(maps[:, T[:k, :m].T].reshape(-1, k), maps).reshape(len(maps), m)
    app = np.array(app)

    def cancel_step(level, xs):
        n1, n2 = app[level[0][:, None], xs], pre[level[1][:, None], inv[xs]]
        live = A[maps[n1, 0]]
        return (n1, n2), live, live & D[maps[n1, 0]] & ~D[maps[n1, maps[n2, 0]]]

    xs = np.arange(m)
    single = D[T[0, xs]] & D[T[T[0, inv], xs]] & (R[R[e, inv], xs] != e)
    singles = [(x,) for x in np.flatnonzero(single).tolist()]
    found["cancellation"] = search((0, 0), 1, cancel_step, *singles)
    return counts, found


def _searched(pg: TablePartialGroup) -> tuple[list, str]:
    """(violations, note) of _axiom_searches on pg: per axiom, its failing
    words in shortlex order with their violations of it, as
    _dfs_axiom_sweep reports them, until MAX_REPORTED_VIOLATIONS are kept."""
    counts, found = _axiom_searches(pg)
    out: list[AxiomViolation] = []
    for axiom, words in found.items():
        kept: list[AxiomViolation] = []
        for word in words:
            if len(kept) < MAX_REPORTED_VIOLATIONS:
                kept += [v for v in _word_violations(pg, word) if v.axiom == axiom]
        out += kept
    return out, "every word length: split {}, collapse {}, cancellation {} states".format(*counts)


def _word_count(sizes: list[int], lengths: range) -> int:
    """The number of words with a length in lengths over alphabets of the
    given sizes, summed length by length until it passes AXIOM_SWEEP_CAP."""
    big = [m for m in sizes if m > 1]  # a one-letter alphabet has one word of each length
    total = len(lengths) * (len(sizes) - len(big))
    for k in lengths if big else ():
        if total > AXIOM_SWEEP_CAP:
            break
        total += sum(m**k for m in big)
    return total


def _still_a_group(group: FiniteGroup) -> bool:
    """Whether group.mult, as it stands now, is a group with group's identity and inverses."""
    try:
        return certify_group_table(group.mult) == (group.identity, group.inv)
    except ValueError:
        return False


def check_axioms(pg: PartialGroup, max_len: int) -> AxiomReport:
    """Check the partial group axioms (Chermak, Fusion systems and
    localities, Acta Math. 2013) on the domain D: length-1 words multiply
    to themselves; splits of words in D are in D; collapsing a segment v in
    D, |v| != 1, of u v t in D to its product keeps it in D with the same
    product; w^-1 w is in D with product 1.  Violations are reported, never
    repaired.

    Assume split, so every segment of a word in D is in D.  Then:
    (C) collapse of every segment follows from collapse of the empty word
        and of two letters, by induction on |v| >= 3.  Write v = (a, b) v'
        and c = Pi(a, b); (a, b) is in D as a prefix of v.  Collapsing (a,
        b) in u v t gives W = u (c) v' t in D with the same product, and in
        v gives (c) v' in D with product Pi(v).  By induction on the
        shorter segment (c) v' of W, u (Pi(v)) t is in D with product Pi(W).
    (V) given (C), Pi(w^-1 w) = 1 follows from w^-1 w in D and from
        Pi(x^-1, x) = 1 for letters x, by induction on |w| >= 2.  Write w =
        (x) u.  Collapsing (x^-1, x) in w^-1 w = u^-1 (x^-1, x) u gives u^-1
        (1) u with the same product.  u is a suffix of w, so u^-1 u is in
        D, and collapsing its empty segment between u^-1 and u (Pi(()) = 1)
        gives the same word, with product Pi(u^-1 u) = 1 by induction.
    So split, the empty and two-letter collapses and the domain half of
    cancellation for words of every length, with the single letters,
    decide every check; a failing Pi(w^-1 w) whose single letters and
    domain half pass is reported as the collapse failure it follows from.

    Routes, each named in the report's first note:
    - a total component (pg._vector_components(): a group, an amalgam's
      sides, a locality or quotient whose domain is total and whose table
      is a group) is proved if its table as it stands passes
      certify_group_table (Light's test) with the identity and inverses it
      holds, and else searched by _axiom_searches on GroupPartialGroup(its
      group), one accepting state over that table, with a second note;
    - a partial group that knows its ambient group (pg.ambient, set by
      locality_from_group) is proved by pg.certify_ambient(); if that is
      refused, a second note says why and the routes below are taken;
    - the other table backends (a LocalityPartialGroup with a partial
      domain or a refused certificate, such as a plocality file or a
      quotient, in memory or read back) are searched by _axiom_searches on
      their own arrays, for every word length; a domain word whose fold
      leaves the raw table raises raw_missing, as product_table() does;
    - anything else (a test's product overrides): _dfs_axiom_sweep to
      max_len, which raises SweepBudgetExceeded first if that is over
      AXIOM_SWEEP_CAP words.
    Each route states the number of words of length <= max_len (>= 2 on
    total components), searched or not; the count stops once it passes
    AXIOM_SWEEP_CAP, so words_checked is then a number above the cap and
    the summary says "more than" the cap.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    components = getattr(pg, "_vector_components", lambda: None)()
    if components is not None:
        words = _word_count([len(el) for el, _ in components], range(2, max_len + 1))
    else:
        words = _word_count([pg.size], range(1, max_len + 1))
    violations: list[AxiomViolation] = []
    _base_axiom_checks(pg, violations)
    if components is not None:
        unproved = [(elems, grp) for elems, grp in components if not _still_a_group(grp)]
        notes = [
            f"route: group-table certificate (Light's test) on"
            f" {len(components) - len(unproved)} of {len(components)} total component(s),"
            f" vectorized sweep on {len(unproved)}"
        ]
        for elems, grp in unproved:
            if ((grp.mult < 0) | (grp.mult >= grp.order)).any():
                raise ValueError("a total component's table holds a product outside it")
            found, note = _searched(GroupPartialGroup(grp))
            violations += [replace(v, word=tuple(elems[x] for x in v.word)) for v in found]
            notes.append(f"state searches on a component of {grp.order} elements, {note}")
        return AxiomReport(max_len, words, violations, notes)
    refused = []
    if getattr(pg, "ambient", None) is not None:
        try:
            pg.certify_ambient()
        except ValueError as exc:
            refused.append(f"ambient-group certificate refused: {exc}")
        else:
            note = "route: ambient-group certificate (L is L_Delta(M) of its group M)"
            return AxiomReport(max_len, words, violations, [note])
    if isinstance(pg, TablePartialGroup):
        found, note = _searched(pg)
        note = f"route: state searches over the automaton and raw product tables, {note}"
    elif words > AXIOM_SWEEP_CAP:
        raise SweepBudgetExceeded(f"axiom sweep to length {max_len} needs more words"
                                  f" than the budget of {AXIOM_SWEEP_CAP}")
    else:
        found, note = _dfs_axiom_sweep(pg, max_len)[1], "route: per-word DFS"
    violations.extend(found)
    return AxiomReport(max_len, words, violations, [note, *refused])
