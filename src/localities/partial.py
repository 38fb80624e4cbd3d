"""Partial groups: a multivariable product defined only on a word domain.

Words are tuples of element ids.  Conjugation acts on the right throughout:
x^g means pi((g^-1, x, g)) whenever that word is in the domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .groups import FiniteGroup, SubgroupRef

Word = tuple[int, ...]

GENERIC_SWEEP_CAP = 500_000
# The most words one check_axioms call sweeps (LOC-S5 at length 4: 10,013,304).
AXIOM_SWEEP_CAP = 20_000_000


class AmalgamSpecError(ValueError):
    """The identification of an amalgam is not a subgroup isomorphism."""


class PartialGroup:
    """Base interface: indexed elements, inversion, and a partial product.

    Subclasses fix the domain decision and the product; pi() returns a value
    exactly on the words the domain decider accepts.
    """

    size: int
    identity: int
    labels: tuple[str, ...]
    p: int | None = None
    domain_is_total: bool = False
    _product_table: list[list[int]] | None = None
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
    # Contract, relied on by subset_product, build_quotient and the (L2)
    # sweep of check_locality: walk_step(state, x) is None exactly when
    # in_domain(word + (x,)) is false, where state is the state of word;
    # a state is hashable and decides every extension, so two words with
    # equal states have the same domain status under every suffix.

    def walk_start(self):
        return ()

    def walk_step(self, state, x: int):
        word = state + (x,)
        return word if self.in_domain(word) else None

    # -- subgroup certificates ----------------------------------------------

    def words_all_in_domain(self, members: frozenset[int]) -> tuple[bool, str, Word | None]:
        """Decide whether every word over members lies in the domain.

        Returns (verdict, criterion name, witness word when the verdict is
        negative).  The generic fallback sweeps words up to length
        len(members) + 1 and refuses to run past a node cap.
        """
        if self.domain_is_total:
            return True, "domain-closure", None
        elems = sorted(members)
        max_len = len(elems) + 1
        budget = GENERIC_SWEEP_CAP

        def rec(word: Word) -> Word | None:
            nonlocal budget
            if len(word) >= max_len:
                return None
            for x in elems:
                budget -= 1
                if budget <= 0:
                    raise SweepBudgetExceeded(
                        "generic bounded-length subgroup sweep is too large"
                    )
                grown = word + (x,)
                if not self.in_domain(grown):
                    return grown
                bad = rec(grown)
                if bad is not None:
                    return bad
            return None

        witness = rec(())
        if witness is not None:
            return False, "bounded-length", witness
        return True, "bounded-length", None


class SweepBudgetExceeded(RuntimeError):
    pass


def pi(pg: PartialGroup, word: Iterable[int]) -> int | None:
    return pg.pi(tuple(word))


def invert_word(pg: PartialGroup, word: Iterable[int]) -> Word:
    return pg.invert_word(tuple(word))


# ---------------------------------------------------------------------------
# concrete backends


class GroupPartialGroup(PartialGroup):
    """A finite group viewed as a partial group with a total domain."""

    domain_is_total = True

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

    def words_all_in_domain(self, members: frozenset[int]) -> tuple[bool, str, Word | None]:
        m = self.SIDE_LEFT | self.SIDE_RIGHT
        for x in members:
            m &= self.side_mask[x]
        if m:
            return True, "domain-closure", None
        lefts = [x for x in members if not self.side_mask[x] & self.SIDE_RIGHT]
        rights = [x for x in members if not self.side_mask[x] & self.SIDE_LEFT]
        return False, "domain-closure", (min(lefts), min(rights))

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
        self.domain_is_total = base.domain_is_total

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

    def words_all_in_domain(self, members: frozenset[int]):
        return self.base.words_all_in_domain(members)


def swap_two_products(base: PartialGroup, w1: Word, w2: Word) -> CorruptedProducts:
    """Swap the products of two domain words of equal length."""
    v1, v2 = base.pi(w1), base.pi(w2)
    if v1 is None or v2 is None or v1 == v2:
        raise ValueError("swap needs two domain words with distinct products")
    return CorruptedProducts(base, {tuple(w1): v2, tuple(w2): v1})


# ---------------------------------------------------------------------------
# subset machinery


def _close(
    pg: PartialGroup, seed: Iterable[int], rows: Sequence[Sequence[int]] = ()
) -> frozenset[int]:
    """Frontier closure: the least subset containing the identity and seed
    that is closed under inversion, under every defined product of two
    members and, when rows are given, under every entry >= 0 of rows[x] for
    each member x.

    Each round multiplies only the elements added in the previous round with
    the current members, in both orders, reading pg.product_table(); pairs
    of older members are never multiplied again.
    """
    table = pg.product_table()
    members = {pg.identity}
    members.update(int(x) for x in seed)
    frontier = list(members)
    while frontier:
        current = list(members)
        fresh: set[int] = set()
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


def partial_subgroup_closure(pg: PartialGroup, seed: Iterable[int]) -> frozenset[int]:
    """Least subset containing seed that is closed under inversion and
    under the product of every domain word with entries in the subset.

    Closing under defined length-2 products suffices: any longer domain word
    collapses to nested length-2 products by the partial group axioms.
    Computed by the frontier kernel _close over pg.product_table(), so the
    first call on a partial group also builds its table.
    """
    return _close(pg, seed)


@dataclass
class SubsetHandle:
    """A subset of a partial group with its cached classification."""

    owner: PartialGroup
    members: frozenset[int]
    is_partial_subgroup: bool
    is_subgroup: bool
    is_p_subgroup: bool
    is_partial_normal: bool
    subgroup_criterion: str | None = None
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
    criterion = None
    if partial_sub:
        ok, criterion, bad = pg.words_all_in_domain(X)
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
        subgroup_criterion=criterion,
        witness=witness,
    )


def subset_product(pg: PartialGroup, factors: Sequence[Iterable[int]]) -> frozenset[int]:
    """{pi(x1..xl) : xi in factor i, the word lies in the domain}.

    Computed by direct l-fold word enumeration, never by rebracketing.
    """
    if len(factors) == 0:
        raise ValueError("subset_product needs at least one factor")
    factor_lists = [sorted(set(int(x) for x in f)) for f in factors]
    for f in factor_lists:
        if not f:
            raise ValueError("subset_product factors must be nonempty")
    out: set[int] = set()
    last = len(factor_lists) - 1

    def rec(i: int, state, value) -> None:
        for x in factor_lists[i]:
            nxt = pg.walk_step(state, x)
            if nxt is None:
                continue
            v = x if value is None else pg.mul2(value, x)
            if i == last:
                out.add(v)
            else:
                rec(i + 1, nxt, v)

    rec(0, pg.walk_start(), None)
    return frozenset(out)


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


def _table_axiom_sweep(pg: PartialGroup, max_len: int) -> tuple[int, list[AxiomViolation]] | None:
    """Every check of _dfs_axiom_sweep on the dense tables of pg.sweep_tables().

    Per block the words of the domain are found by walking the automaton
    over the block, then each check runs on arrays of all those words at
    once: prefix and segment states and values are carried letter by
    letter, and each squeezed or cancelled word is walked and folded from
    them exactly as pg.pi would walk and fold it.  The violations, their
    order and the cap are those of the DFS.  Returns None when a product the
    DFS would take leaves the raw table; the DFS then reports (or raises)
    what it finds.
    """
    trans, in_delta, raw = pg.sweep_tables()
    m = pg.size
    e = pg.identity
    inv = np.array([pg.inverse(x) for x in range(m)], dtype=np.int32)
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

    findings = _Findings(range(m))
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


def _vector_axiom_sweep(
    elems: tuple[int, ...], group: FiniteGroup, max_len: int
) -> tuple[int, list[AxiomViolation]]:
    """Vectorized sweep of one total component (all words over it are in D).

    Products are read from the group's flat int32 table.  Each length is
    swept in blocks that fix the leading letters; the tail digits, the
    products of the tail segments and the tail of every cancellation word
    are computed once per length and shared by its blocks.  Violations come
    in the DFS's order under its cap.
    """
    m = group.order
    tf = group.mult.ravel()
    inv = np.array(group.inv, dtype=np.int32)
    e = group.identity

    def mul(a, b):
        return np.take(tf, a * m + b)

    findings = _Findings(elems)
    for n in range(2, max_len + 1):
        lead_len, tail_len = _block_split(m, n)
        tail_digits = _digit_arrays(m, tail_len)
        shared: dict[tuple[int, int], np.ndarray] = {}
        for i in range(lead_len, n):
            shared[i, i + 1] = tail_digits[i - lead_len]
            for j in range(i + 2, n + 1):
                shared[i, j] = mul(shared[i, j - 1], tail_digits[j - 1 - lead_len])
        tail_cancel = e
        for d in reversed(tail_digits):
            tail_cancel = mul(tail_cancel, inv[d])
        tails = np.arange(m**tail_len)
        for lead in itertools.product(range(m), repeat=lead_len):
            w = list(lead) + tail_digits
            seg = dict(shared)
            for i in range(lead_len):
                seg[i, i + 1] = lead[i]
                for j in range(i + 2, n + 1):
                    seg[i, j] = mul(seg[i, j - 1], w[j - 1])
            for i in range(n + 1):
                seg[i, i] = e
            total = seg[0, n]
            checks = []
            for i in range(n + 1):
                for j in range(i, n + 1):
                    if j != i + 1:
                        val = mul(mul(seg[0, i], seg[i, j]), seg[j, n])
                        checks.append(("collapse", f"collapse [{i}:{j}]", val != total))
            acc = tail_cancel
            for x in reversed(lead):
                acc = mul(acc, inv[x])
            for x in w:
                acc = mul(acc, x)
            checks.append(("cancellation", "pi(w^-1 ∘ w) != 1", acc != e))
            findings.add(lead, tails, m, tail_len, checks)
            if findings.full(n):
                break
    return sum(m**k for k in range(2, max_len + 1)), findings.violations()


def check_axioms(pg: PartialGroup, max_len: int) -> AxiomReport:
    """Verify the partial group axioms on every word of length <= max_len.

    Checks: length-1 words multiply to themselves, splits of domain words are
    domain words, collapsing an inner factor keeps the word in the domain with
    the same product, and w^-1 ∘ w multiplies to the identity.  Violations are
    reported, never repaired.

    The words are swept by one of three routes:
    - total components (pg._vector_components() is not None: groups, an
      amalgam's two sides, a locality or quotient whose domain is total):
      _vector_axiom_sweep over each component's group table, words of
      length 2..max_len;
    - automaton-backed partial domains (pg.sweep_tables() exists: a
      LocalityPartialGroup whose domain is not total): _table_axiom_sweep
      over the automaton and raw product tables;
    - everything else (CorruptedProducts, a partial QuotientPartialGroup,
      generic partial groups), and a table sweep that meets a product
      missing from the raw table: the per-word _dfs_axiom_sweep.
    The word count is stated before the sweep: over AXIOM_SWEEP_CAP words
    raises SweepBudgetExceeded.
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
        for elems, grp in components:
            violations.extend(_vector_axiom_sweep(elems, grp, max_len)[1])
        note = "route: vectorized sweep per total component"
    else:
        swept = _table_axiom_sweep(pg, max_len) if hasattr(pg, "sweep_tables") else None
        if swept is not None:
            note = "route: dense automaton and raw product tables"
        else:
            swept = _dfs_axiom_sweep(pg, max_len)
            note = "route: per-word DFS"
        violations.extend(swept[1])
    return AxiomReport(max_len=max_len, words_checked=words, violations=violations, notes=[note])
