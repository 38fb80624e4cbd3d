"""Partial groups: a multivariable product defined only on a word domain.

Words are tuples of element ids.  Conjugation acts on the right throughout:
x^g means pi((g^-1, x, g)) whenever that word is in the domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, NamedTuple, Sequence

import numpy as np

from .groups import FiniteGroup, SubgroupRef, certify_group_table, subset_group

Word = tuple[int, ...]

# The value of the empty word in the left folds of the product scans: no
# element id, and not None, which is mul2's answer off the domain.
EMPTY_WORD = object()

# The most words one check_axioms call sweeps (LOC-S5 at length 4: 10,013,304).
AXIOM_SWEEP_CAP = 20_000_000
# The most states one intern_states table or state_fixpoint search interns
# (LOC-S5's quotient checks: 80).
STATE_FIXPOINT_CAP = 1_000_000


class AmalgamSpecError(ValueError):
    """The identification of an amalgam is not a subgroup isomorphism."""


class WalkerTable(NamedTuple):  # see PartialGroup.walker_table
    rows: list[list[int]]  # rows[c][x]: the code of walk_step(state c, x), -1 for None
    array: np.ndarray  # rows as int64 plus a last row of -1: code -1 stays -1


class PartialGroup:
    """Base interface: indexed elements, inversion, and a partial product.

    Subclasses fix the domain decision and the product; pi() returns a value
    exactly on the words the domain decider accepts.
    """

    size: int
    identity: int
    labels: tuple[str, ...]
    p: int | None = None
    _product_table: list[list[int]] | None = None
    _padded_products: np.ndarray | None = None
    _conj_table: list[list[int]] | None = None
    _walker_table: WalkerTable | None = None

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

        Built from mul2 on first use and kept on the instance, so overridden
        products (CorruptedProducts, quotients) are what the closures see.
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
            n = self.size
            self._padded_products = np.full((n + 1, n + 1), -1, dtype=np.int64)
            self._padded_products[:n, :n] = self.product_table()
        return self._padded_products

    def conj_table(self) -> list[list[int]]:
        """Conjugates: row x holds x^f = pi((f^-1, x, f)) at f, or -1 off
        the domain.

        Built from pi on first use and kept on the instance, as
        product_table() is, so overridden products (CorruptedProducts,
        quotients) are what every conjugation reads.
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
    # status under every suffix.  walker_table() numbers the states that
    # walk_start() reaches; it is built once per instance, on first use,
    # and interning more than STATE_FIXPOINT_CAP states raises
    # SweepBudgetExceeded, so a walker must reach finitely many states for
    # it to end.  It is the one domain decider for words of every length:
    # words_all_in_domain, domain_is_total, the (L2) and threading checks
    # of check_locality, subset_product, the product scan of
    # normal._scan_product (which reads S_w, never the domain, from the
    # threading automaton) and the quotient's word checks (state_fixpoint)
    # read its rows, and merge words with equal codes for that reason.

    def walk_start(self):
        raise NotImplementedError

    def walk_step(self, state, x: int):
        raise NotImplementedError

    def walker_table(self) -> WalkerTable:
        """The walker states as codes 0, 1, ... in the order one breadth
        first pass over the letters 0..size-1 reaches them from walk_start()
        (code 0): two words share a code exactly when they share a state."""
        if self._walker_table is None:
            _, rows = intern_states(self.walk_start(), self.walk_step, self.size, "walker table")
            array = np.array(rows + [[-1] * self.size], dtype=np.int64)
            self._walker_table = WalkerTable(rows, array)
        return self._walker_table

    @property
    def domain_is_total(self) -> bool:
        """Whether every word is in the domain: no -1 in the walker rows."""
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


def intern_states(start, step: Callable, letters: int, what: str) -> tuple[list, list[list[int]]]:
    """(states, rows): the states that step(state, x) reaches from start
    over the letters 0..letters-1, numbered 0, 1, ... in the order one
    breadth-first pass reaches them (states[0] is start), and their
    transition rows: rows[c][x] is the number of step(states[c], x), or -1
    where it is None.  States must be hashable; interning more than
    STATE_FIXPOINT_CAP of them raises SweepBudgetExceeded, naming what is
    built.
    """
    codes = {start: 0}
    states = [start]
    rows = []
    for state in states:  # states grows while it is read
        row = []
        for x in range(letters):
            nxt = step(state, x)
            code = -1 if nxt is None else codes.get(nxt)
            if code is None:
                if len(states) == STATE_FIXPOINT_CAP:
                    raise SweepBudgetExceeded(
                        f"{what} reached {len(states) + 1} states,"
                        f" over the budget of {STATE_FIXPOINT_CAP}"
                    )
                code = codes[nxt] = len(states)
                states.append(nxt)
            row.append(code)
        rows.append(row)
    return states, rows


def pi(pg: PartialGroup, word: Iterable[int]) -> int | None:
    return pg.pi(tuple(word))


def invert_word(pg: PartialGroup, word: Iterable[int]) -> Word:
    return pg.invert_word(tuple(word))


# ---------------------------------------------------------------------------
# concrete backends


class GroupPartialGroup(PartialGroup):
    """A finite group viewed as a partial group with a total domain."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.size = group.order
        self.identity = group.identity
        self.labels = group.labels

    def inverse(self, x: int) -> int:
        return self.group.inv[x]

    def in_domain(self, word: Word) -> bool:
        return True

    def _raw_product(self, word: Word) -> int:
        return self.group.fold(word)

    def mul2(self, a: int, b: int) -> int:
        return self.group.mul(a, b)

    def walk_start(self):
        return 0

    def walk_step(self, state, x: int):
        return 0

    def _vector_components(self):
        return [(tuple(self.elements()), self.group)]


def total_group_component(pg: PartialGroup):
    """[(every id, the group on them)] when pg's domain is total and its
    product table is a group; otherwise None, and check_axioms sweeps words."""
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


def _validate_pairing(spec: AmalgamSpec) -> tuple[SubgroupRef, SubgroupRef]:
    try:
        shared_left = SubgroupRef(spec.left, spec.pairing.keys())
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
    return shared_left, shared_right


class AmalgamPartialGroup(PartialGroup):
    """Union of two groups; a word is multipliable iff it stays on one side."""

    SIDE_LEFT = 1
    SIDE_RIGHT = 2

    def __init__(self, spec: AmalgamSpec):
        shared_left, shared_right = _validate_pairing(spec)
        left, right = spec.left, spec.right
        if spec.pairing[left.identity] != right.identity:
            raise AmalgamSpecError("identification must match identities")
        self.spec = spec
        self.shared_left = shared_left
        self.shared_right = shared_right
        self.degenerate = (
            shared_left.order == left.order or shared_right.order == right.order
        )

        right_to_left = {r: l for l, r in spec.pairing.items()}
        size = left.order + right.order - len(spec.pairing)
        to_left: list[int | None] = [None] * size
        to_right: list[int | None] = [None] * size
        from_left = list(range(left.order))
        from_right: list[int] = [-1] * right.order
        labels: list[str] = list(left.labels)
        for i in range(left.order):
            to_left[i] = i
        nxt = left.order
        for j in range(right.order):
            if j in right_to_left:
                pid = right_to_left[j]
            else:
                pid = nxt
                labels.append("r." + right.labels[j])
                nxt += 1
            from_right[j] = pid
            to_right[pid] = j

        self.size = size
        self.identity = left.identity
        self.labels = tuple(labels)
        self.to_left = tuple(to_left)
        self.to_right = tuple(to_right)
        self.from_left = tuple(from_left)
        self.from_right = tuple(from_right)
        mask = []
        for i in range(size):
            m = 0
            if to_left[i] is not None:
                m |= self.SIDE_LEFT
            if to_right[i] is not None:
                m |= self.SIDE_RIGHT
            mask.append(m)
        self.side_mask = tuple(mask)

    def inverse(self, x: int) -> int:
        if self.to_left[x] is not None:
            return self.from_left[self.spec.left.inv[self.to_left[x]]]
        return self.from_right[self.spec.right.inv[self.to_right[x]]]

    def word_mask(self, word: Word) -> int:
        m = self.SIDE_LEFT | self.SIDE_RIGHT
        for x in word:
            m &= self.side_mask[x]
            if not m:
                return 0
        return m

    def in_domain(self, word: Word) -> bool:
        return self.word_mask(word) != 0

    def _raw_product(self, word: Word) -> int:
        if self.word_mask(word) & self.SIDE_LEFT:
            return self.from_left[self.spec.left.fold(self.to_left[x] for x in word)]
        return self.from_right[self.spec.right.fold(self.to_right[x] for x in word)]

    def walk_start(self):
        return self.SIDE_LEFT | self.SIDE_RIGHT

    def walk_step(self, state, x: int):
        m = state & self.side_mask[x]
        return m if m else None

    def _vector_components(self):
        left_ids = tuple(self.from_left)
        right_ids = tuple(self.from_right)
        return [(left_ids, self.spec.left), (right_ids, self.spec.right)]


def build_amalgam(spec: AmalgamSpec) -> AmalgamPartialGroup:
    """Glue spec.left and spec.right along the identified subgroup."""
    return AmalgamPartialGroup(spec)


class CorruptedProducts(PartialGroup):
    """Wrapper that overrides the product on chosen words (fault injection)."""

    def __init__(self, base: PartialGroup, overrides: dict[Word, int]):
        self.base = base
        self.overrides = dict(overrides)
        self.size = base.size
        self.identity = base.identity
        self.labels = base.labels
        self.p = base.p

    def inverse(self, x: int) -> int:
        return self.base.inverse(x)

    def in_domain(self, word: Word) -> bool:
        return self.base.in_domain(word)

    def _raw_product(self, word: Word) -> int:
        if word in self.overrides:
            return self.overrides[word]
        return self.base._raw_product(word)

    def walk_start(self):
        return self.base.walk_start()

    def walk_step(self, state, x: int):
        return self.base.walk_step(state, x)


def swap_two_products(base: PartialGroup, w1: Word, w2: Word) -> CorruptedProducts:
    """Swap the products of two domain words of equal length."""
    v1, v2 = base.pi(w1), base.pi(w2)
    if v1 is None or v2 is None or v1 == v2:
        raise ValueError("swap needs two domain words with distinct products")
    return CorruptedProducts(base, {tuple(w1): v2, tuple(w2): v1})


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
    start: tuple[int, ...], dims: tuple[int, ...], letters: Sequence[int], step: Callable
) -> tuple[int, list[Word]]:
    """Every failing transition of a word check whose verdict is a state.

    A state is a tuple of ints, component k in range(-1, dims[k] - 1).
    Words over letters are read from start a level at a time: step(level,
    xs) gets a level's states as one array per component and the letters
    as an array, and returns (nxt, live, bad), each of shape (states,
    letters): the components of each extended word's state, whether the
    check extends it and whether it fails.  When the states are finite,
    searching them breadth first to a fixpoint decides the check on words
    of every length: the product-automaton construction of Epstein et al.,
    Word Processing in Groups (1992).

    Next states are packed into int64 keys (np.ravel_multi_index, where -1
    packs as dims[k] - 1) and the unseen ones interned in (state, letter)
    order, with no numpy sort.  So each state is first reached by the least
    word in shortlex order (letters ranked as given).  Returns (number of
    states, one failing word per failing transition: the least word of its
    state followed by its letter), in shortlex order.  Interning more than
    STATE_FIXPOINT_CAP states raises SweepBudgetExceeded.
    """
    xs = np.asarray(letters, dtype=np.int64)
    m = xs.size
    xs_list = xs.tolist()
    seen = {int(np.ravel_multi_index(start, dims, mode="wrap"))}
    words: list[Word] = [()]  # the least word of each state, by id
    failing: list[Word] = []
    level = tuple(np.array([c], dtype=np.int64) for c in start)
    first = 0  # id of the level's first state
    block = max(1, _FIXPOINT_BLOCK // max(m, 1))  # states stepped at once
    while level[0].size:
        grown = []
        for lo in range(0, level[0].size, block):
            nxt, live, bad = step(tuple(c[lo:lo + block] for c in level), xs)
            at_lo = first + lo  # id of the block's first state
            failing += [words[at_lo + p // m] + (xs_list[p % m],)
                        for p in np.flatnonzero(bad).tolist()]
            pos = np.flatnonzero(live)
            nxt = tuple(c.ravel()[pos] for c in nxt)
            keys = np.ravel_multi_index(nxt, dims, mode="wrap").tolist()
            # each key at its first index into pos: reversed, the first wins
            at = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
            new = sorted(i for key, i in at.items() if key not in seen)
            if len(words) + len(new) > STATE_FIXPOINT_CAP:
                raise SweepBudgetExceeded(
                    f"word-state search reached {STATE_FIXPOINT_CAP + 1} states,"
                    f" over the budget of {STATE_FIXPOINT_CAP}"
                )
            seen.update(keys[i] for i in new)
            words += [words[at_lo + p // m] + (xs_list[p % m],) for p in pos[new].tolist()]
            grown.append(tuple(c[new] for c in nxt))
        first += level[0].size
        level = tuple(np.concatenate(cs) for cs in zip(*grown))
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


def _is_prime_power(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


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
    is_p = bool(is_subgroup and prime is not None and _is_prime_power(len(X), prime))
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
    on first use, within STATE_FIXPOINT_CAP states).  The empty word has
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
# Dedekind identity


@dataclass
class DedekindReport:
    left_ok: bool
    right_ok: bool
    witnesses: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.left_ok and self.right_ok


def dedekind_verify(
    pg: PartialGroup,
    A: Iterable[int],
    H: Iterable[int],
    K: Iterable[int],
) -> DedekindReport:
    """Check A∩(HK) = (A∩H)K and A∩(KH) = K(A∩H) for a partial subgroup A ⊇ K."""
    A = frozenset(A)
    H = frozenset(H)
    K = frozenset(K)
    if _closure_failure(pg, A) is not None:
        raise ValueError("A must be a partial subgroup")
    if not K <= A:
        raise ValueError("K must be contained in A")

    def prod(U: frozenset[int], V: frozenset[int]) -> frozenset[int]:
        if not U or not V:
            return frozenset()
        return subset_product(pg, [U, V])

    lhs1 = A & prod(H, K)
    rhs1 = prod(A & H, K)
    lhs2 = A & prod(K, H)
    rhs2 = prod(K, A & H)
    witnesses = []
    if lhs1 != rhs1:
        witnesses.append(("left", tuple(sorted(lhs1 ^ rhs1))))
    if lhs2 != rhs2:
        witnesses.append(("right", tuple(sorted(lhs2 ^ rhs2))))
    return DedekindReport(lhs1 == rhs1, lhs2 == rhs2, witnesses)


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
        return f"axiom sweep to length {self.max_len}: {self.words_checked} words, {state}"


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


def _dfs_axiom_sweep(pg: PartialGroup, max_len: int) -> tuple[int, list[AxiomViolation]]:
    """Literal sweep over every word of length <= max_len."""
    out: list[AxiomViolation] = []
    words_checked = 0
    elements = list(pg.elements())

    def visit(word: Word) -> None:
        nonlocal words_checked
        words_checked += 1
        if len(out) >= MAX_REPORTED_VIOLATIONS:
            return
        if not pg.in_domain(word):
            return
        n = len(word)
        total = pg.pi(word)
        # splits: both halves of a domain word are domain words
        for k in range(1, n):
            if not pg.in_domain(word[:k]):
                out.append(AxiomViolation("split", word, f"prefix of length {k} not in domain"))
            if not pg.in_domain(word[k:]):
                out.append(AxiomViolation("split", word, f"suffix from {k} not in domain"))
        # collapse: replacing an inner factor by its product preserves everything
        for i in range(n + 1):
            for j in range(i, n + 1):
                if j == i + 1:
                    continue
                mid = pg.pi(word[i:j])
                if mid is None:
                    continue
                squeezed = word[:i] + (mid,) + word[j:]
                val = pg.pi(squeezed)
                if val is None:
                    out.append(
                        AxiomViolation("collapse", word, f"collapse [{i}:{j}] leaves domain")
                    )
                elif val != total:
                    out.append(
                        AxiomViolation(
                            "collapse", word, f"collapse [{i}:{j}] changes the product"
                        )
                    )
        inv_word = pg.invert_word(word)
        cancelled = pg.pi(inv_word + word)
        if cancelled is None:
            out.append(AxiomViolation("cancellation", word, "w^-1 ∘ w not in domain"))
        elif cancelled != pg.identity:
            out.append(AxiomViolation("cancellation", word, "pi(w^-1 ∘ w) != 1"))

    def rec(word: Word) -> None:
        if len(word) >= max_len:
            return
        for x in elements:
            w = word + (x,)
            visit(w)
            rec(w)

    rec(())
    return words_checked, out


# Words of one length are swept in blocks that fix their leading letters,
# at most this many words to a block, so the arrays stay a few MB at any
# length.
_SWEEP_BLOCK = 1 << 18


def _block_split(m: int, n: int) -> tuple[int, int]:
    """(lead, tail): words of length n = lead fixed letters + tail swept ones."""
    tail = n
    while tail > 1 and m**tail > _SWEEP_BLOCK:
        tail -= 1
    return n - tail, tail


def _digit_arrays(m: int, n: int) -> list[np.ndarray]:
    idx = np.arange(m**n, dtype=np.int32)
    return [(idx // m ** (n - 1 - k)) % m for k in range(n)]


class _Findings:
    """Violations of a table sweep, reported as the DFS reports them.

    The DFS visits words in pre-order (a word, then its extensions), checks
    each word in a fixed order, and stops checking words once
    MAX_REPORTED_VIOLATIONS are found, finishing the word it is on.  A
    length's blocks come in word order, so once that many violating words of
    one length are kept, no later word of that length can be reported and
    the sweep of that length stops.
    """

    def __init__(self, letters: Sequence[int]):
        self.letters = letters
        self.kept: list[tuple[Word, int, str, str]] = []
        self.words_of_length: dict[int, int] = {}

    def full(self, n: int) -> bool:
        return self.words_of_length.get(n, 0) >= MAX_REPORTED_VIOLATIONS

    def add(
        self,
        lead: Word,
        tails: np.ndarray,
        m: int,
        tail_len: int,
        checks: list[tuple[str, str, np.ndarray]],
    ) -> None:
        """checks[c] = (axiom, detail, mask): mask[k] says whether the word
        lead + (tail code tails[k]) fails check c (c is its per-word order)."""
        n = len(lead) + tail_len
        found = self.words_of_length.get(n, 0)
        bad = np.logical_or.reduce([mask for _, _, mask in checks])
        hits = np.flatnonzero(bad)[: MAX_REPORTED_VIOLATIONS - found]
        self.words_of_length[n] = found + hits.size
        for k in hits.tolist():
            tail = np.unravel_index(tails[k], (m,) * tail_len)
            word = lead + tuple(int(x) for x in tail)
            for c, (axiom, detail, mask) in enumerate(checks):
                if mask[k]:
                    self.kept.append((word, c, axiom, detail))

    def violations(self) -> list[AxiomViolation]:
        out: list[AxiomViolation] = []
        last = None
        # tuples compare in pre-order: a prefix sorts before its extensions
        for word, _, axiom, detail in sorted(self.kept):
            if word != last:
                if len(out) >= MAX_REPORTED_VIOLATIONS:
                    break
                last = word
            out.append(AxiomViolation(axiom, tuple(self.letters[x] for x in word), detail))
        return out


class AxiomTables(NamedTuple):
    """What _table_axiom_sweep reads.  Words are over the letters
    0..len(inv)-1; letter x stands for the partial group's id letters[x]."""

    trans: np.ndarray  # automaton transitions, from state 0
    in_delta: np.ndarray  # accept mask of its states
    raw: np.ndarray  # raw products, -1 where undefined
    inv: Sequence[int]
    identity: int
    letters: Sequence[int]


def _component_tables(elems: Sequence[int], group: FiniteGroup) -> AxiomTables:
    """A total component as a one-state automaton over its group table."""
    return AxiomTables(
        np.zeros((1, group.order), dtype=np.int32), np.ones(1, dtype=bool), group.mult,
        group.inv, group.identity, elems,
    )


def _table_axiom_sweep(
    pg: PartialGroup, max_len: int, tables: AxiomTables | None = None
) -> tuple[int, list[AxiomViolation]] | None:
    """Every check of _dfs_axiom_sweep on dense tables, by default those of
    pg.sweep_tables(); check_axioms passes a total component's tables.

    Per block the words of the domain are found by walking the automaton
    over the block, then each check runs on arrays of all those words at
    once: prefix and segment states and values are carried letter by
    letter, and each squeezed or cancelled word is walked and folded from
    them exactly as pi would walk and fold it.  The violations, their
    order and the cap are those of the DFS.  Returns None when a product the
    DFS would take leaves the raw table; the DFS then reports (or raises)
    what it finds.
    """
    if tables is None:
        inverses = [pg.inverse(x) for x in pg.elements()]
        tables = AxiomTables(*pg.sweep_tables(), inverses, pg.identity, pg.elements())
    trans, in_delta, raw, inv, e, letters = tables
    m = len(inv)
    inv = np.asarray(inv, dtype=np.int32)
    tf = trans.ravel()
    # raw products with one extra row of -1: a missing product v = -1 reads
    # index -m + x, which wraps into that row, so -1 stays -1 along a fold.
    rf = np.concatenate((raw.ravel(), np.full(m, -1, dtype=np.int32)))

    def step(s, x):
        return np.take(tf, s * m + x)

    def mul(v, x):
        return np.take(rf, v * m + x)

    def word_checks(w: list[np.ndarray], n: int) -> list[tuple[str, str, np.ndarray]] | None:
        """The DFS's checks, in its order, on the domain words w (one letter
        array per position); None if one of their products leaves raw."""
        st: dict[tuple[int, int], np.ndarray] = {}
        val: dict[tuple[int, int], np.ndarray] = {}
        for i in range(n):
            s, v = step(0, w[i]), mul(e, w[i])
            st[i, i + 1], val[i, i + 1] = s, v
            for j in range(i + 2, n + 1):
                s, v = step(s, w[j - 1]), mul(v, w[j - 1])
                st[i, j], val[i, j] = s, v
        total = val[0, n]
        missing = total < 0
        none = np.zeros(total.size, dtype=bool)
        checks = []
        for k in range(1, n):
            checks.append(("split", f"prefix of length {k} not in domain", ~in_delta[st[0, k]]))
            checks.append(("split", f"suffix from {k} not in domain", ~in_delta[st[k, n]]))
        for i in range(n + 1):
            for j in range(i, n + 1):
                if j == i + 1:
                    continue
                leaves = f"collapse [{i}:{j}] leaves domain"
                changes = f"collapse [{i}:{j}] changes the product"
                if i < j:
                    mid, mid_in = val[i, j], in_delta[st[i, j]]
                    missing |= mid_in & (mid < 0)
                elif in_delta[0]:
                    mid, mid_in = e, ~none
                else:  # pi(()) is undefined: nothing to insert
                    checks += [("collapse", leaves, none), ("collapse", changes, none)]
                    continue
                s, v = (st[0, i], val[0, i]) if i else (0, e)
                s, v = step(s, mid), mul(v, mid)
                for t in range(j, n):
                    s, v = step(s, w[t]), mul(v, w[t])
                sq_in = in_delta[s] & mid_in
                missing |= sq_in & (v < 0)
                checks.append(("collapse", leaves, mid_in & ~sq_in))
                checks.append(("collapse", changes, sq_in & (v != total)))
        s, v = 0, e
        for x in reversed(w):
            s, v = step(s, inv[x]), mul(v, inv[x])
        for x in w:
            s, v = step(s, x), mul(v, x)
        c_in = in_delta[s]
        missing |= c_in & (v < 0)
        if missing.any():
            return None
        checks.append(("cancellation", "w^-1 ∘ w not in domain", ~c_in))
        checks.append(("cancellation", "pi(w^-1 ∘ w) != 1", c_in & (v != e)))
        return checks

    findings = _Findings(letters)
    for n in range(1, max_len + 1):
        lead_len, tail_len = _block_split(m, n)
        tail_digits = _digit_arrays(m, tail_len)
        for lead in itertools.product(range(m), repeat=lead_len):
            state = 0
            for x in lead:
                state = int(trans[state, x])
            reach = trans[state][tail_digits[0]]
            for d in tail_digits[1:]:
                reach = step(reach, d)
            tails = np.flatnonzero(in_delta[reach])
            if not tails.size:
                continue
            w = [np.full(tails.size, x, dtype=np.int32) for x in lead]
            w += [d[tails] for d in tail_digits]
            checks = word_checks(w, n)
            if checks is None:
                return None
            findings.add(lead, tails, m, tail_len, checks)
            if findings.full(n):
                break
    return sum(m**k for k in range(1, max_len + 1)), findings.violations()


def _still_a_group(group: FiniteGroup) -> bool:
    """Whether group.mult, as it stands now, is a group whose identity and
    inverses are the ones its component sweep reads (the table may have
    been changed after construction)."""
    try:
        identity, inv = certify_group_table(group.mult)
    except ValueError:
        return False
    return identity == group.identity and inv == group.inv


def check_axioms(pg: PartialGroup, max_len: int) -> AxiomReport:
    """Verify the partial group axioms on every word of length <= max_len.

    Checks: length-1 words multiply to themselves, splits of domain words are
    domain words, collapsing an inner factor keeps the word in the domain with
    the same product, and w^-1 ∘ w multiplies to the identity.  Violations are
    reported, never repaired.

    Routes, each named in the report's first note:
    - total components (pg._vector_components() is not None: groups, an
      amalgam's two sides, a locality or quotient whose domain is total and
      whose product table is a group) are proved, not swept: if the
      component's table, as it stands at check time, passes
      certify_group_table (Light's test) with the identity and inverses the
      component holds, every word over it satisfies the axioms.  A
      component that fails it (a table changed after construction) is
      swept by _table_axiom_sweep over its group table as a one-state
      automaton, which reports what _dfs_axiom_sweep reports on
      GroupPartialGroup(its group), read back through the component's ids;
    - a partial group that knows its ambient group (pg.ambient is not None:
      a LocalityPartialGroup from locality_from_group) is proved by
      pg.certify_ambient(), which reads Chermak's hypotheses on L_Delta(M)
      off the tables as they stand; if one fails, a second note names it
      and the partial group takes the routes below;
    - automaton-backed partial domains (pg.sweep_tables() exists: a
      LocalityPartialGroup whose domain is not total or whose table is not
      a group, such as a plocality file or a quotient read back):
      _table_axiom_sweep over the automaton and raw product tables;
    - everything else (CorruptedProducts, a partial QuotientPartialGroup,
      generic partial groups), and a table sweep that meets a product
      missing from the raw table: the per-word _dfs_axiom_sweep.
    The word count is stated before any of this, whatever the route: over
    AXIOM_SWEEP_CAP words raises SweepBudgetExceeded.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    components = getattr(pg, "_vector_components", lambda: None)()
    if components is not None:
        words = sum(len(el) ** k for el, _ in components for k in range(2, max_len + 1))
    else:
        words = sum(pg.size**k for k in range(1, max_len + 1))
    if words > AXIOM_SWEEP_CAP:
        raise SweepBudgetExceeded(
            f"axiom sweep to length {max_len} needs {words} words,"
            f" over the budget of {AXIOM_SWEEP_CAP}"
        )
    violations: list[AxiomViolation] = []
    _base_axiom_checks(pg, violations)
    if components is not None:
        unproved = [(elems, grp) for elems, grp in components if not _still_a_group(grp)]
        for elems, grp in unproved:
            swept = _table_axiom_sweep(pg, max_len, _component_tables(elems, grp))
            if swept is None:
                raise ValueError("a total component's table holds a product outside it")
            violations.extend(swept[1])
        note = (
            f"route: group-table certificate (Light's test) on"
            f" {len(components) - len(unproved)} of {len(components)} total component(s),"
            f" vectorized sweep on {len(unproved)}"
        )
        return AxiomReport(max_len, words, violations, [note])
    refused = []
    if getattr(pg, "ambient", None) is not None:
        try:
            pg.certify_ambient()
        except ValueError as exc:
            refused.append(f"ambient-group certificate refused: {exc}")
        else:
            note = "route: ambient-group certificate (L is L_Delta(M) of its group M)"
            return AxiomReport(max_len, words, violations, [note])
    swept = _table_axiom_sweep(pg, max_len) if hasattr(pg, "sweep_tables") else None
    if swept is not None:
        note = "route: table sweep over the automaton and raw product tables"
    else:
        swept = _dfs_axiom_sweep(pg, max_len)
        note = "route: per-word DFS"
    violations.extend(swept[1])
    return AxiomReport(max_len, words, violations, [note, *refused])
