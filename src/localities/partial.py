"""Partial groups: a multivariable product defined only on a word domain.

Words are tuples of element ids.  Conjugation acts on the right throughout:
x^g means pi((g^-1, x, g)) whenever that word is in the domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Container, Iterable, Sequence

import numpy as np

from .groups import FiniteGroup, SubgroupRef, _p_part, certify_group_table, subset_group

Word = tuple[int, ...]

# check_axioms states the number of words up to its length; the count stops
# once it passes this cap, and the summary then says "more than" it.  No
# route visits the words one at a time.
AXIOM_SWEEP_CAP = 20_000_000
# The most states one intern_states automaton or state_fixpoint search interns
# (LOC-S5's quotient checks: 80; S4xS4's threading automaton: 100); walker tables intern none.
STATE_FIXPOINT_CAP = 1_000_000


class AmalgamSpecError(ValueError):
    """The identification of an amalgam is not a subgroup isomorphism."""


def _ids(values, bound: int, what: str) -> np.ndarray:
    """values as an int64 array; ValueError naming the first id outside 0..bound-1."""
    out = np.asarray(values, dtype=np.int64)
    # one reduction: a negative id reads as a huge unsigned one
    if out.size and np.maximum.reduce(out.view(np.uint64), axis=None) >= bound:
        bad = out[(out < 0) | (out >= bound)]
        raise ValueError(f"{what} holds the id {bad[0]}, outside 0..{bound - 1}")
    return out


def _padded(table: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """A 2-d table in int64 with a last row and column of -1: index -1 reads -1."""
    out = np.full(np.add(np.shape(table), 1), -1, dtype=np.int64)
    out[:-1, :-1] = table
    return out


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


def intern_states(start: np.ndarray, step: Callable, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(states, rows): the states a finite automaton reaches from start, as
    the rows of one array in breadth-first order (states[0] is start), and
    their transition rows as one int64 array.  step(level) gets a level's
    states as a (b, w) array and returns (nxt, live) of shapes (b, m, w) and
    (b, m): the state each letter 0..m-1 takes each to, and whether the word
    goes on (rows[c, x] is -1 where not).  intern_rows numbers a level's
    unseen live rows in (state, letter) row-major order, as one pair at a
    time would.  Over STATE_FIXPOINT_CAP states raises SweepBudgetExceeded.
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
        rows.append(code.reshape(len(level), -1))
        level = nxt[new]
        found.append(level)
    return np.concatenate(found), np.concatenate(rows)


# ---------------------------------------------------------------------------
# partial groups


def _no_raw_entry(a: int, b: int) -> ValueError:
    return ValueError(f"the raw product table has no entry for ({a},{b})")


class PartialGroup:
    """A partial group held as its tables, as every one the package builds
    is (groups, amalgams and table localities, quotients among them).

    _inv[x] is the inverse of x.  _raw[a, b] is the raw product, -1 where
    it is undefined; a domain word whose fold meets such a pair raises
    raw_missing(a, b).  trans is a domain automaton (Epstein et al., Word
    Processing in Groups, 1992): trans[s, x] is the state x takes s to,
    never -1, from state 0 for the empty word, and accept[s] says whether
    the words reaching s are in the domain.  A domain word's product pi is
    its left fold over _raw from the identity.  The four are arrays from
    construction on, _raw with a last row and column of -1, read as they
    stand; the scalar methods read memoryviews of them, Python ints and
    bools at twice a list read's cost.

    The walker is trans masked by accept: walker_table()[s, x] is the
    state of the word extended by x, -1 once that word is off the domain,
    and then so is every extension, as domain words have all their
    prefixes in the domain.  It decides words of every length:
    words_all_in_domain reads trans and accept; domain_is_total,
    product_scan, the (L2) and threading checks of check_locality and the
    quotient's word checks (state_fixpoint) gather from walker_table(), and
    merge words with equal states for that reason.  The product,
    conjugation and walker tables are gathered once per instance, on first
    use, and kept on it, never in a cache keyed by id(), as ids are reused
    once an object is collected.  Each is one int64 array with a last row
    of -1, so that -1 reads -1 (padded_products() and conj_table() have a
    last column of -1 too): the classifiers, _close, twin_labels,
    product_scan, the class skip of enumerate_partial_normals, the coset
    layer, s_positions, emit_quotient and the quotient's tables gather from
    them, and mul2 reads padded_products() through a memoryview.
    """

    p: int | None = None
    # (M, to_ambient) on a locality cut from a group M (locality_from_group);
    # check_axioms then proves the axioms by certify_ambient
    ambient: tuple[FiniteGroup, tuple[int, ...]] | None = None
    _padded_products: np.ndarray | None = None
    _conj: np.ndarray | None = None
    _walker_table: np.ndarray | None = None

    def __init__(self, size: int, identity: int, labels: tuple[str, ...], inv: Sequence[int],
                 raw: np.ndarray, trans: np.ndarray | list, accept: np.ndarray | list,
                 raw_missing: Callable[[int, int], Exception] = _no_raw_entry):
        self.size, self.identity, self.labels = size, identity, labels
        self._inv, self._raw, self._raw_missing = np.array(inv, np.int64), _padded(raw), raw_missing
        self.trans, self.accept = np.asarray(trans), accept
        self._trans_at, self._raw_at = memoryview(self.trans), memoryview(self._raw)
        self._inv_at = memoryview(self._inv)

    def _set_accept(self, mask: np.ndarray | list) -> None:  # a rebound mask, a new view
        self._accept = np.asarray(mask, dtype=bool)
        self._accept_at = memoryview(self._accept)

    accept = property(lambda self: self._accept, _set_accept)

    def elements(self) -> range:
        return range(self.size)

    def inverse(self, x: int) -> int:
        return self._inv_at[x]

    def invert_word(self, word: Word) -> Word:
        return tuple(self.inverse(x) for x in reversed(word))

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
        """The fold of a word already known to be in the domain."""
        out = self.identity
        for x in word:
            out = self._mul_raw(out, x)
        return out

    def pi(self, word: Word) -> int | None:
        """The partial product: a value on domain words, None elsewhere."""
        word = tuple(word)
        if not self.in_domain(word):
            return None
        return self._raw_product(word)

    def mul2(self, a: int, b: int) -> int | None:
        v = self._products_at[a, b]
        return None if v < 0 else v

    @functools.cached_property
    def _products_at(self) -> memoryview:
        """padded_products() as a memoryview, made on mul2's first call."""
        return memoryview(self.padded_products())

    def walker_table(self) -> np.ndarray:
        """The walker: trans's own states, each row masked by accept in one
        gather (every builder bounded trans), and a last row of -1."""
        if self._walker_table is None:
            masked = np.where(self.accept[self.trans], self.trans, -1)
            self._walker_table = np.concatenate((masked, np.full((1, self.size), -1)))
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
        """Binary products pi((a, b)) at row a, column b, -1 off the domain,
        in one gather over every pair, as an (n+1) x (n+1) int64 array whose
        last row and column are -1: a product with the missing value -1 is
        missing too."""
        if self._padded_products is None:
            n = np.arange(self.size)
            self._padded_products = _padded(self._gather(n[:, None], n))
        return self._padded_products

    def conj_table(self) -> np.ndarray:
        """Conjugates x^f = pi((f^-1, x, f)) at row x, column f, -1 off the
        domain, in one gather, padded as padded_products() is: the
        conjugates of -1, and by it, are -1."""
        if self._conj is None:
            n = np.arange(self.size)
            self._conj = _padded(self._gather(self._inv, n[:, None], n))
        return self._conj

    @property
    def domain_is_total(self) -> bool:
        """Whether every word is in the domain: no -1 in the walker rows, all
        of which words reach from code 0, as every builder interns trans from
        state 0 (a threading automaton, an amalgam's side masks) or has one state."""
        return bool((self.walker_table()[:-1] >= 0).all())

    def words_all_in_domain(self, members: frozenset[int]) -> tuple[bool, Word | None]:
        """(whether every word over members lies in the domain, the
        shortlex-least word over them off it when not), for words of every
        length.

        A breadth-first search over the trans states that domain words over
        the members reach, on the member letters in ascending order: each
        state is first reached by its shortlex-least word, so the first
        step to a state outside accept ends the shortlex-least failing word.
        """
        trans, accept = self._trans_at, self._accept_at
        letters = sorted(members)
        least = {0: ()}  # the shortlex-least word of each state reached
        states = [0]
        for state in states:  # states grows while it is read
            for x in letters:
                nxt = trans[state, x]
                if not accept[nxt]:
                    return False, least[state] + (x,)
                if nxt not in least:
                    least[nxt] = least[state] + (x,)
                    states.append(nxt)
        return True, None

    def _vector_components(self) -> list[tuple[tuple[int, ...], FiniteGroup]] | None:
        """The total components check_axioms proves by Light's test, as
        [(their ids, the group on them)]; None: the domain has none."""
        return None


class GroupPartialGroup(PartialGroup):
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


class AmalgamPartialGroup(PartialGroup):
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


def _mask(n: int, members) -> np.ndarray:
    """A subset of 0..n-1 as a boolean mask with one more entry, set, for
    the missing value -1: a gathered -1 is never outside the subset."""
    mask = np.zeros(n + 1, dtype=bool)
    mask[members] = True
    mask[n] = True
    return mask


def _close(
    pg: PartialGroup,
    seed: Iterable[int],
    conj: np.ndarray | None = None,
    closed: frozenset[int] = frozenset(),
    known: Container[frozenset[int]] = (),
) -> frozenset[int]:
    """Frontier closure: the least subset containing the identity, closed
    and seed that is closed under inversion, under every defined product of
    two members and, when conj (a padded array, as conj_table() is) is
    given, under every entry >= 0 of row x of conj for each member x.

    closed must already be closed in that sense (a partial subgroup when no
    conj is given); its members, a _mask, start out as old members, so only
    the seed elements outside it form the first frontier.  Each round
    gathers at once the inverses, the conj rows and the products with the
    current members, in both orders, from pg.padded_products(), of the
    elements added in the previous round; pairs of older members are never
    multiplied again.

    known holds sets already closed in the same sense.  Before each round
    the closure stops when the members equal one of them or are all of L.
    The members always lie inside the closure, and the closure lies inside
    every closed set that holds them, so a closed set equal to the members
    is the closure: the stop is exact on any table.  Only equality proves
    it; members inside a larger known set say nothing.
    """
    n, table, inv = pg.size, pg.padded_products(), pg._inv
    members = _mask(n, list(closed))
    fresh = _mask(n, [pg.identity, *map(int, seed)])
    frontier = (fresh > members).nonzero()[0]
    members |= fresh
    while len(frontier):
        current = members[:n].nonzero()[0]
        if len(current) == n or (known and frozenset(current.tolist()) in known):
            break
        fresh = np.zeros(n + 1, dtype=bool)
        fresh[inv[frontier]] = True
        fresh[table[frontier[:, None], current]] = True
        fresh[table[current[:, None], frontier]] = True
        if conj is not None:
            fresh[conj[frontier]] = True
        frontier = (fresh > members).nonzero()[0]
        members |= fresh
    return frozenset(members[:n].nonzero()[0].tolist())


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
    Computed by the frontier kernel _close over pg.padded_products(), so
    the first call on a partial group also builds its table.
    """
    return _close(pg, seed, closed=closed, known=known)


def twin_labels(pg: PartialGroup, base: Iterable[int]) -> np.ndarray:
    """A label per element, -1 on base, such that the elements x outside
    base with one label share the closure of base | {x}; each label is the
    least element that carries it.

    Each x outside base has three kinds of move to a y outside base, each
    proved on the table, never assumed, and all gathered at once from
    pg.padded_products() and pg._inv (a pad entry -1 reads -1 and passes
    no return lookup):
    - y = h*x (h in base) with h^-1 * y = x;
    - y = x*h (h in base) with y * h^-1 = x;
    - y = x^-1 with (x^-1)^-1 = x.
    In each, the closure of base | {x} holds y (a product or the inverse of
    its members), and the closure of base | {y} holds x by the return
    lookup (h^-1 is in it as the inverse of h), so the two closures hold
    each other's generators and are equal.  This holds for any base, closed
    or not, and for any table.  Each min-label round gives x the least
    label m over x and its moves, then the label of m (pointer jumping, as
    in Shiloach and Vishkin, An O(log n) parallel connectivity algorithm,
    J. Algorithms 1982); the rounds run until nothing changes.  Each label
    stays an element joined to x by proved moves, so equal labels mean
    equal closures.  On a genuine partial group with base a partial
    subgroup the classes are the double cosets base*x*base together with
    their inverses.
    """
    n, table, inv = pg.size, pg.padded_products(), pg._inv
    hs = np.fromiter(base, dtype=np.int64)
    xs = (~_mask(n, hs)[:n]).nonzero()[0]
    col, h_inv = xs[:, None], inv[hs]
    left, right, flip = table[hs, col], table[col, hs], inv[col]
    moves = np.concatenate((col, np.where(table[h_inv, left] == col, left, -1),
                            np.where(table[right, h_inv] == col, right, -1),
                            np.where(inv[flip] == col, flip, -1)), axis=1)
    label = np.arange(n + 1)
    label[hs] = n  # label[n], read by a move -1 or into base, is above every label
    now = xs
    while not ((least := label[label[moves].min(axis=1)]) == now).all():
        label[xs] = now = least
    label[hs] = -1
    return label[:n]


# ---------------------------------------------------------------------------
# word-state fixpoints


# The most (state, letter) pairs one state_fixpoint step takes at once, so
# that a level's arrays and keys stay a few MB however wide it is.
_FIXPOINT_BLOCK = 1 << 15


def state_fixpoint(
    start: tuple[int, ...], letters: Sequence[int], step: Callable
) -> tuple[int, list[Word] | list[list[Word]]]:
    """Every failing transition of word checks whose verdicts are a state.

    A state is a tuple of ints.  Words over letters are read from start a
    level at a time: step(level, xs) gets a level's states as one array
    per component and the letters as an array, and returns (nxt, live,
    bad): the components of each extended word's state and whether the
    search extends it, each of shape (states, letters), and whether it
    fails, of that shape for one verdict or (verdicts, states, letters)
    for a stack of verdicts that share the states and the live mask.  When
    the states are finite, searching them breadth first to a fixpoint
    decides every verdict on words of every length: the product-automaton
    construction of Epstein et al., Word Processing in Groups (1992).

    The unseen next states are interned as rows by intern_rows in (state,
    letter) order, as intern_states interns them.  So each state is first
    reached by the least word in shortlex order (letters ranked as given).
    Returns (number of states, failing), where failing holds one word per
    failing transition, the least word of its state followed by its
    letter, in shortlex order: one such list for one verdict, one list per
    verdict, in stack order, for a stack.  Interning more than
    STATE_FIXPOINT_CAP states raises SweepBudgetExceeded.
    """
    xs = np.asarray(letters, dtype=np.int64)
    m = xs.size
    xs_list = xs.tolist()
    level = np.array([start], dtype=np.int64)
    codes: dict = {}
    intern_rows(level, codes)
    words: list[Word] = [()]  # the least word of each state, by code
    failing: list[list[Word]] = []  # one list per verdict, made at the first step
    stacked = False
    first = 0  # code of the level's first state
    block = max(1, _FIXPOINT_BLOCK // max(m, 1))  # states stepped at once
    while len(level):
        grown = []
        for lo in range(0, len(level), block):
            nxt, live, bad = step(tuple(level[lo:lo + block].T), xs)
            at_lo = first + lo  # code of the block's first state
            stacked = np.ndim(bad) == 3
            bad = np.reshape(bad, (-1, np.size(live)))
            failing = failing or [[] for _ in bad]
            for out, verdict in zip(failing, bad):
                out += [words[at_lo + p // m] + (xs_list[p % m],)
                        for p in np.flatnonzero(verdict).tolist()]
            pos = np.flatnonzero(live)
            nxt = np.stack([c.ravel()[pos] for c in nxt], axis=1).astype(np.int64, copy=False)
            _, new = intern_rows(nxt, codes, coded=False)
            _within_budget(len(codes), "word-state search")
            words += [words[at_lo + p // m] + (xs_list[p % m],) for p in pos[new].tolist()]
            grown.append(nxt[new])
        first += len(level)
        level = np.concatenate(grown)
    return len(words), failing if stacked else failing[0]


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


def _escape(mask: np.ndarray, images: np.ndarray) -> tuple[int, int, int] | None:
    """(row, column, value) of the first entry of a 2-d gather outside a
    _mask, row-major, or None."""
    bad = np.flatnonzero(~mask[images])
    if not len(bad):
        return None
    r, c = divmod(int(bad[0]), images.shape[1])
    return r, c, int(images[r, c])


def _closure_failure(pg: PartialGroup, X: frozenset[int]) -> tuple | None:
    """A witness that X is not a partial subgroup, or None if it is one:
    ("inverse", a) for the least a whose inverse is outside X, else
    ("product", a, b, ab) for the first defined product outside X in sorted
    a, then b.  One gather each, from pg._inv and pg.padded_products()."""
    elems = np.array(sorted(X), dtype=np.int64)
    mask = _mask(pg.size, elems)
    bad = _escape(mask, pg._inv[elems][:, None])
    if bad is not None:
        return ("inverse", int(elems[bad[0]]))
    bad = _escape(mask, pg.padded_products()[elems[:, None], elems])
    if bad is not None:
        return ("product", int(elems[bad[0]]), int(elems[bad[1]]), bad[2])
    return None


def _conjugation_failure(pg: PartialGroup, X: frozenset[int]) -> tuple | None:
    """A witness (x, f, x^f) with x^f defined outside X, or None; the
    first in sorted x, then f, in one gather from pg.conj_table()."""
    elems = np.array(sorted(X), dtype=np.int64)
    bad = _escape(_mask(pg.size, elems), pg.conj_table()[elems, :-1])
    return None if bad is None else (int(elems[bad[0]]), *bad[1:])


# The most entries one (sets, n, n) temporary of subset_flags holds.
_FLAGS_BLOCK = 1 << 21


def subset_flags(pg: PartialGroup, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(closed, normal) for a family of nonempty subsets X, given as
    boolean rows over pg's elements: closed[r] says that X is a partial
    subgroup, with no witness from _closure_failure; normal[r] that it is
    also closed under every defined conjugate x^f (x in X, f in L), with
    no witness from _conjugation_failure either.  So on a Locality,
    normal[r] is is_partial_normal's verdict, on any table.

    Each row is padded, as _mask pads a set, with an entry for the missing
    value -1 that is set; the inverses, the products of two members and
    the conjugates of the members are then gathered for every row at once
    from pg._inv, pg.padded_products() and pg.conj_table(), in blocks of
    rows that keep each (rows, n, n) temporary near _FLAGS_BLOCK entries.
    """
    n = pg.size
    rows = np.asarray(rows, dtype=bool).reshape(-1, n)
    table, conj = pg.padded_products()[:n, :n], pg.conj_table()[:n, :n]
    padded = np.ones((len(rows), n + 1), dtype=bool)
    padded[:, :n] = rows
    closed = ~(rows & ~padded[:, pg._inv]).any(axis=1)
    conj_closed = np.empty(len(rows), dtype=bool)
    block = max(1, _FLAGS_BLOCK // max(n * n, 1))
    for lo in range(0, len(rows), block):
        x, mask = rows[lo:lo + block, :, None], padded[lo:lo + block]
        closed[lo:lo + block] &= ~(x & x.swapaxes(1, 2) & ~mask[:, table]).any(axis=(1, 2))
        conj_closed[lo:lo + block] = ~(x & ~mask[:, conj]).any(axis=(1, 2))
    return closed, closed & conj_closed


def classify_subset(
    pg: PartialGroup, members: Iterable[int], p: int | None = None
) -> SubsetHandle:
    """Classify a subset: partial subgroup / subgroup / p-subgroup / partial normal."""
    X = frozenset(_ids(list(members), pg.size, "the subset").tolist())
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


def _first_of_each(keys: np.ndarray, size: int) -> np.ndarray:
    """The ascending positions of the first occurrence of each distinct
    entry of keys (in 0..size-1), by one minimum scatter: no sort."""
    at = np.arange(len(keys))
    first = np.full(size, len(keys))
    np.minimum.at(first, keys, at)
    return (first[keys] == at).nonzero()[0]


def product_scan(
    pg: PartialGroup, factors: Sequence[Iterable[int]], thread: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]], int]:
    """The domain words x1 ... xl of pg (xi in factors[i], ids checked by
    _ids), a factor at a time, merged by key after each: (walker code,
    value), or (walker code, thread state, value) given thread, a
    transition array over pg's letters with no -1 (a threading
    automaton's).  The first factor starts the keys: x has code
    walker_table()[0, x], state thread[0, x] and value x.  Each level then
    steps every key over the next factor's sorted letters in one gather
    from pg.walker_table(), thread and pg.padded_products(): the mul2 fold,
    never rebracketed.  A candidate lives when its code and value are >= 0
    (a fold meeting an undefined product drops its word).  Equal keys merge
    in the order first reached, row-major over (key, letter), so each key
    keeps its least word.  Returns the final keys' thread states (None
    without thread) and values, the steps _least_words reads, and the
    number of keys over all levels.
    """
    n = pg.size
    letters = [_ids(sorted(set(f)), n, f"factor {i}") for i, f in enumerate(factors)]
    walk, table = pg.walker_table(), pg.padded_products()
    xs = letters[0]
    codes = walk[0, xs]
    live = codes >= 0
    code, value = codes[live], xs[live]
    state = None if thread is None else thread[0, value]
    steps = [(live.nonzero()[0], xs)]
    for xs in letters[1:]:
        codes, values = walk[code[:, None], xs].ravel(), table[value[:, None], xs].ravel()
        at = ((codes | values) >= 0).nonzero()[0]  # neither is -1
        codes, values = codes[at], values[at]
        pairs, width = codes, len(walk)
        if thread is not None:  # the (code, state) pairs met, numbered by two scatters
            state = thread[state[:, None], xs].ravel()[at]
            pairs = codes * len(thread) + state
            number = np.zeros(len(walk) * len(thread), dtype=np.int64)
            number[pairs] = 1
            met = number.nonzero()[0]
            number[met] = np.arange(len(met))
            pairs, width = number[pairs], len(met)
        first = _first_of_each(pairs * n + values, width * n)
        code, value = codes[first], values[first]
        state = None if thread is None else state[first]
        steps.append((at[first], xs))
    return state, value, steps, sum(len(at) for at, _ in steps)


def _least_words(steps: list[tuple[np.ndarray, np.ndarray]], keys: np.ndarray) -> list[Word]:
    """The first word of each given final key of product_scan, from its
    steps: each key's (parent, letter) position and the letters, per level."""
    columns = []
    for at, xs in reversed(steps):
        keys, letter = np.divmod(at[keys], len(xs))
        columns.append(xs[letter])
    return list(zip(*(c.tolist() for c in reversed(columns))))


def subset_product(pg: PartialGroup, factors: Sequence[Iterable[int]]) -> frozenset[int]:
    """{x1 x2 ... xl : xi in factor i, the word lies in the domain}: the
    values of the final keys of product_scan."""
    if len(factors) == 0:
        raise ValueError("subset_product needs at least one factor")
    factors = [list(f) for f in factors]
    if not all(factors):
        raise ValueError("subset_product factors must be nonempty")
    return frozenset(product_scan(pg, factors)[1].tolist())


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
    """The violations of the axioms on one word, read from pi and in_domain,
    none off the domain: what check_axioms reports on each failing word."""
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


def _axiom_searches(pg: PartialGroup) -> tuple[list[int], dict[str, list[Word]]]:
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
    inv = pg._inv
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

    def cancel_step(level, xs):
        n1, n2 = app[level[0][:, None], xs], pre[level[1][:, None], inv[xs]]
        live = A[maps[n1, 0]]
        return (n1, n2), live, live & D[maps[n1, 0]] & ~D[maps[n1, maps[n2, 0]]]

    xs = np.arange(m)
    single = D[T[0, xs]] & D[T[T[0, inv], xs]] & (R[R[e, inv], xs] != e)
    singles = [(x,) for x in np.flatnonzero(single).tolist()]
    found["cancellation"] = search((0, 0), 1, cancel_step, *singles)
    return counts, found


def _searched(pg: PartialGroup) -> tuple[list, str]:
    """(violations, note) of _axiom_searches on pg: per axiom, its failing
    words in shortlex order with their violations of it, as
    _word_violations reads them, until MAX_REPORTED_VIOLATIONS are kept."""
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
      group), one accepting state over that table, with a second note.
      Light's test says nothing of pg's own inverses: each x whose inverse
      is not its group inverse fails cancellation on (x,);
    - a partial group that knows its ambient group (pg.ambient, set by
      locality_from_group) is proved by pg.certify_ambient(); if that is
      refused, a second note says why and the searches below are taken;
    - any other (a LocalityPartialGroup with a partial domain or a
      refused certificate, such as a plocality file or a quotient, in
      memory or read back) is searched by _axiom_searches on its own
      arrays, for every word length; a domain word whose fold leaves the
      raw table raises raw_missing, as padded_products() does.
    Each route states the number of words of length <= max_len (>= 2 on
    total components), searched or not; the count stops once it passes
    AXIOM_SWEEP_CAP, so words_checked is then a number above the cap and
    the summary says "more than" the cap.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    components = pg._vector_components()
    if components is not None:
        words = _word_count([len(el) for el, _ in components], range(2, max_len + 1))
    else:
        words = _word_count([pg.size], range(1, max_len + 1))
    violations: list[AxiomViolation] = []
    _base_axiom_checks(pg, violations)
    if components is not None:
        for elems, grp in components:
            ids = np.asarray(elems)
            for x in ids[pg._inv[ids] != ids[list(grp.inv)]].tolist():
                violations += [v for v in _word_violations(pg, (x,)) if v.axiom == "cancellation"]
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
    if pg.ambient is not None:
        try:
            pg.certify_ambient()
        except ValueError as exc:
            refused.append(f"ambient-group certificate refused: {exc}")
        else:
            note = "route: ambient-group certificate (L is L_Delta(M) of its group M)"
            return AxiomReport(max_len, words, violations, [note])
    found, note = _searched(pg)
    violations.extend(found)
    note = f"route: state searches over the automaton and raw product tables, {note}"
    return AxiomReport(max_len, words, violations, [note, *refused])
