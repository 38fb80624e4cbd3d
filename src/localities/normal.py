"""Partial normal subgroups, their enumeration, and the product theorems.

The product of conjugation-closed partial subgroups is computed over every
domain word across the factors and certified: the engine records set
equalities, witness words, and normality checks as data instead of assuming
any theorem.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

from .groups import SizeCapExceeded
from .locality import Locality
from .partial import (
    EMPTY_WORD,
    SubsetHandle,
    Word,
    _close,
    _closure_failure,
    _conjugation_failure,
    classify_subset,
    subset_product,
)

ENUMERATION_CAP = 200
MAX_FACTORS = 4


def _require_locality(loc) -> None:
    if not isinstance(loc, Locality):
        raise ValueError("this operation needs a locality, not a bare partial group")


def is_partial_normal(loc: Locality, members: Iterable[int]) -> tuple[bool, tuple | None]:
    """Whether the subset is a conjugation-closed partial subgroup.

    Returns (verdict, witness); the witness is ('closure', ...) when the
    subset is not a partial subgroup, or (x, f, image) for an escaping
    conjugate x^f.
    """
    _require_locality(loc)
    X = frozenset(int(x) for x in members)
    if not X:
        raise ValueError("the empty set is not a partial subgroup")
    bad = _closure_failure(loc.pg, X)
    if bad is not None:
        return False, ("closure",) + bad
    bad = _conjugation_failure(loc.pg, X)
    return bad is None, bad


def partial_normal_closure(
    loc: Locality,
    seed: Iterable[int],
    closed: frozenset[int] = frozenset(),
    known: dict[frozenset[int], SubsetHandle] | None = None,
) -> SubsetHandle:
    """Least partial normal subgroup containing the seed and closed,
    classified; closed, when given, must already be closed under products,
    inverses and conjugates, as every result of this function is.

    The frontier closure of partial_subgroup_closure, run with the rows of
    loc.conj_table() so that every defined conjugate x^f of a member joins.
    known maps closures made before to their handles.  The closure stops as
    soon as its members equal one of them (exact, see _close), and a
    closure equal to one of them returns that handle without classifying
    the same set again.
    """
    _require_locality(loc)
    known = {} if known is None else known
    members = _close(loc.pg, seed, loc.conj_table(), closed=closed, known=known)
    if members in known:
        return known[members]
    return classify_subset(loc.pg, members, p=loc.p)


def enumerate_partial_normals(loc: Locality) -> list[SubsetHandle]:
    """All partial normal subgroups, as singleton closures joined to a fixpoint.

    Every partial normal subgroup is the join of the closures of its own
    singletons, so closing the singleton closures under pairwise join is
    exhaustive.  One singleton closure is made per conjugacy class: after
    x, each y = x^f with y^(f^-1) = x is skipped, and so is x^-1 when its
    inverse is x, since each closure then contains the other's generator.
    Both lookups are checked per instance, never assumed.  A join of h
    with another closure starts from h, which is already closed.  Every
    closure is handed the family found so far: it stops when its members
    equal one of those sets, each a closure and so closed on any table, and
    a set already in the family is never classified again, so
    classify_subset runs once per set returned.
    """
    _require_locality(loc)
    if loc.size > ENUMERATION_CAP:
        raise SizeCapExceeded(
            f"partial normal enumeration is capped at {ENUMERATION_CAP} elements; "
            f"the locality has {loc.size}"
        )
    conj = loc.conj_table()
    inv = [loc.pg.inverse(f) for f in loc.elements()]
    family: dict[frozenset[int], SubsetHandle] = {}
    done: set[int] = set()
    for x in loc.elements():
        if x in done:
            continue
        h = partial_normal_closure(loc, [x], known=family)
        family.setdefault(h.members, h)
        if inv[inv[x]] == x:
            done.add(inv[x])
        for f, y in enumerate(conj[x]):
            if y >= 0 and conj[y][inv[f]] == x:
                done.add(y)
    queue = list(family.values())
    while queue:
        h = queue.pop()
        for other in list(family.values()):
            if h.members | other.members in family:
                continue
            grown = partial_normal_closure(loc, other.members, closed=h.members, known=family)
            if grown.members not in family:
                family[grown.members] = grown
                queue.append(grown)
    return sorted(family.values(), key=lambda h: (len(h.members), sorted(h.members)))


# The family of each locality, enumerated once.  The weak keys drop a
# locality's family when it is collected, so a later locality that reuses
# its id() never receives it; a handle refers to loc.pg, never to loc.
_FAMILY_CACHE: weakref.WeakKeyDictionary[Locality, tuple[SubsetHandle, ...]] = (
    weakref.WeakKeyDictionary()
)


def partial_normals(loc: Locality) -> tuple[SubsetHandle, ...]:
    """The handles of enumerate_partial_normals(loc), in its order,
    enumerated on the first call for loc and kept for later ones."""
    family = _FAMILY_CACHE.get(loc)
    if family is None:
        family = _FAMILY_CACHE[loc] = tuple(enumerate_partial_normals(loc))
    return family


# ---------------------------------------------------------------------------
# product certificates


@dataclass
class CertFlags:
    commutes: bool | None = None
    is_partial_normal: bool = False
    intersection_formula: bool | None = None
    witnesses_complete: bool = False
    trivial_intersection: bool | None = None
    bracketings_ok: bool | None = None
    permutations_ok: bool | None = None
    adjacent_transpositions_ok: bool | None = None

    def all_pass(self) -> bool:
        """Every verified identity holds; trivial_intersection is metadata."""
        checked = (
            self.commutes,
            self.is_partial_normal,
            self.intersection_formula,
            self.witnesses_complete,
            self.bracketings_ok,
            self.permutations_ok,
            self.adjacent_transpositions_ok,
        )
        return all(v is not False for v in checked)


@dataclass
class ProductCertificate:
    factors: list[frozenset[int]]
    product: frozenset[int]
    witnesses: dict[int, Word]
    witness_counts: dict[int, int]
    word_states: int  # (walker code, automaton state, value) keys the product scan visited
    flags: CertFlags
    normality_witness: tuple | None = None

    def validate(self, loc: Locality) -> bool:
        """Re-check every stored witness against the locality from scratch."""
        for g, word in self.witnesses.items():
            if not loc.in_domain(word):
                return False
            if loc.pi(word) != g:
                return False
            if loc.thread_subgroup(word) != loc.thread_subgroup((g,)):
                return False
            if any(x not in f for x, f in zip(word, self.factors)):
                return False
        return True


def _scan_product(
    loc: Locality, factors: Sequence[frozenset[int]]
) -> tuple[frozenset[int], dict[int, Word], dict[int, int], int]:
    """The product over all domain words x1..xl (xi in factor i), folded
    left to right by binary products read from pg.product_table() rows and
    merged by (walker code, automaton state, value) after each factor.  The
    domain is decided by pg.walker_table() rows, as in subset_product; the
    threading automaton only supplies S_w, and each key steps once per
    letter in both.

    Returns the product, the lexicographically least word of each value v
    whose threading subgroup is that of v, the number of such words, and
    the number of keys visited.  A key keeps the first word that reaches
    it, its least word, since keys are extended in the order they were
    reached and letters in sorted order; it counts the words that reach it.
    A word whose fold meets an undefined product (-1) has no value and is
    dropped.
    """
    table = loc.pg.product_table()
    walker = loc.pg.walker_table().rows
    auto = loc.automaton
    thread = auto.rows
    frontier: dict[tuple, list] = {(0, 0, EMPTY_WORD): [(), 1]}  # key -> [least word, words]
    visited = 0
    for xs in [sorted(f) for f in factors]:
        grown: dict[tuple, list] = {}
        for (code, sid, value), (word, mult) in frontier.items():
            for x in xs:
                nxt = walker[code][x]
                if nxt < 0:
                    continue
                v = x if value is EMPTY_WORD else table[value][x]
                if v < 0:
                    continue
                key = (nxt, thread[sid][x], v)
                entry = grown.get(key)
                if entry is None:
                    grown[key] = [word + (x,), mult]
                else:
                    entry[1] += mult
        visited += len(grown)
        frontier = grown
    witnesses: dict[int, Word] = {}
    counts: dict[int, int] = {}
    s_of: dict[int, frozenset[int]] = {}
    for (_, sid, v), (word, mult) in frontier.items():
        target = s_of.get(v)
        if target is None:
            target = s_of[v] = loc.thread_subgroup((v,))
        if auto.start_sets[sid] == target:
            counts[v] = counts.get(v, 0) + mult
            witnesses.setdefault(v, word)
    return frozenset(v for *_, v in frontier), witnesses, counts, visited


def product_theorem1(
    loc: Locality, M: Iterable[int], N: Iterable[int]
) -> ProductCertificate:
    """Certify the two-factor product of partial normal subgroups.

    Flags: MN = NM as sets, MN partial normal, (MN) cap S = (M cap S)(N cap S),
    and a witness word (m, n) with matching threading subgroup for every
    element of MN.
    """
    _require_locality(loc)
    M = frozenset(M)
    N = frozenset(N)
    for name, X in (("M", M), ("N", N)):
        ok, wit = is_partial_normal(loc, X)
        if not ok:
            raise ValueError(f"{name} is not partial normal (witness {wit})")
    product, witnesses, counts, states = _scan_product(loc, [M, N])
    reverse = subset_product(loc.pg, [N, M])
    pn, pn_wit = is_partial_normal(loc, product)
    lhs = product & loc.sylow_set
    rhs = subset_product(loc.pg, [M & loc.sylow_set, N & loc.sylow_set])
    flags = CertFlags(
        commutes=product == reverse,
        is_partial_normal=pn,
        intersection_formula=lhs == rhs,
        witnesses_complete=set(witnesses) == set(product),
        trivial_intersection=(M & N == {loc.identity}),
    )
    return ProductCertificate(
        factors=[M, N],
        product=product,
        witnesses=witnesses,
        witness_counts=counts,
        word_states=states,
        flags=flags,
        normality_witness=pn_wit,
    )


def product_theorem2(
    loc: Locality, factors: Sequence[Iterable[int]]
) -> ProductCertificate:
    """Certify an l-fold product (2 <= l <= 4) of partial normal subgroups.

    Checks every bracketing split, factor permutations both exhaustively and
    through adjacent transpositions, normality, and witness completeness.
    """
    _require_locality(loc)
    facs = [frozenset(f) for f in factors]
    l = len(facs)
    if not 2 <= l <= MAX_FACTORS:
        raise ValueError(f"product_theorem2 handles 2..{MAX_FACTORS} factors, got {l}")
    for i, X in enumerate(facs):
        ok, wit = is_partial_normal(loc, X)
        if not ok:
            raise ValueError(f"factor {i} is not partial normal (witness {wit})")

    memo: dict[tuple[frozenset[int], ...], frozenset[int]] = {}

    def set_product(fs: Sequence[frozenset[int]]) -> frozenset[int]:
        key = tuple(fs)
        got = memo.get(key)
        if got is None:
            got = subset_product(loc.pg, fs)
            memo[key] = got
        return got

    product, witnesses, counts, states = _scan_product(loc, facs)
    memo[tuple(facs)] = product

    bracketing = True
    for k in range(1, l):
        left = set_product(facs[:k]) if k > 1 else facs[0]
        right = set_product(facs[k:]) if l - k > 1 else facs[-1]
        if subset_product(loc.pg, [left, right]) != product:
            bracketing = False

    permutations_ok = True
    for sigma in itertools.permutations(range(l)):
        if set_product([facs[i] for i in sigma]) != product:
            permutations_ok = False
    adjacent_ok = True
    for i in range(l - 1):
        order = list(range(l))
        order[i], order[i + 1] = order[i + 1], order[i]
        if set_product([facs[j] for j in order]) != product:
            adjacent_ok = False

    pn, pn_wit = is_partial_normal(loc, product)
    flags = CertFlags(
        commutes=permutations_ok,
        is_partial_normal=pn,
        intersection_formula=None,
        witnesses_complete=set(witnesses) == set(product),
        bracketings_ok=bracketing,
        permutations_ok=permutations_ok,
        adjacent_transpositions_ok=adjacent_ok,
    )
    return ProductCertificate(
        factors=facs,
        product=product,
        witnesses=witnesses,
        witness_counts=counts,
        word_states=states,
        flags=flags,
        normality_witness=pn_wit,
    )
