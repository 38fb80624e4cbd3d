"""Partial normal subgroups, their enumeration, and the product theorem.

The theorem says that M1...Ml is partial normal for partial normal M1, ...,
Ml, whatever the order and the bracketing of the factors.  One certificate
(_certify, entered by product_theorem1 for two factors and product_theorem2
for two to MAX_FACTORS) computes the product over every domain word across
the factors and records in a VerificationReport that every order and
every bracketing gives the same set, that the product is partial normal,
that its intersection with S is the product of the factors'
intersections, and a witness word for each element, instead of assuming
any theorem.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .groups import SizeCapExceeded
from .locality import Locality
from .partial import (
    SubsetHandle,
    Word,
    _close,
    _closure_failure,
    _conjugation_failure,
    _first_of_each,
    _ids,
    _least_words,
    classify_subset,
    product_scan,
    subset_product,
)
from .report import VerificationReport

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
    X = frozenset(_ids(list(members), loc.size, "the subset").tolist())
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

    The frontier closure of partial_subgroup_closure, run with the array
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
    Both lookups are checked per instance, never assumed; the first reads
    row x of loc.conj_table() and the return conjugates in one gather.  A join of h
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
    conj, inv = loc.conj_table(), loc.pg._inv
    family: dict[frozenset[int], SubsetHandle] = {}
    done: set[int] = set()
    for x in loc.elements():
        if x in done:
            continue
        h = partial_normal_closure(loc, [x], known=family)
        family.setdefault(h.members, h)
        if inv[inv[x]] == x:
            done.add(int(inv[x]))
        ys = conj[x, :-1]  # a missing y = -1 reads the last row, all -1
        done.update(ys[conj[ys, inv] == x].tolist())
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
class ProductCertificate:
    factors: list[frozenset[int]]
    product: frozenset[int]
    witnesses: dict[int, Word]
    word_states: int  # (walker code, automaton state, value) keys the product scan visited
    # each check as _certify made it, in its order and with its time; cert.report.ok
    # is the verdict.  Two certificates compare equal by their data alone.
    report: VerificationReport = field(compare=False)

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
) -> tuple[frozenset[int], dict[int, Word], int]:
    """The product over all domain words x1..xl (xi in factor i), by
    product_scan with loc.automaton.array as its thread: keys (walker code,
    threading state, value).  The domain is decided by the walker alone,
    as in subset_product; the automaton only supplies S_w.

    Returns the product, the least word of each value v whose threading
    subgroup is loc.thread_subgroup((v,)), and the number of keys visited.
    The witness of v is the first word of the first final key, in the
    order keys are first reached, with value v and that threading
    subgroup; first words are least in lexicographic order.  The two
    threading subgroups are compared as numbers: auto.set_ids of a key's
    state against the auto.set_number of loc.thread_subgroup((v,)), -1
    for a subgroup outside start_sets, which matches no state.
    """
    auto = loc.automaton
    state, value, steps, visited = product_scan(loc.pg, factors, auto.array)
    product = sorted(set(value.tolist()))
    target = np.full(loc.size, -1)
    target[product] = [auto.set_number.get(loc.thread_subgroup((v,)), -1) for v in product]
    match = np.flatnonzero(auto.set_ids[state] == target[value])
    firsts = match[_first_of_each(value[match], loc.size)]
    witnesses = dict(zip(value[firsts].tolist(), _least_words(steps, firsts)))
    return frozenset(product), witnesses, visited


def _certify(loc: Locality, factors: Sequence[Iterable[int]]) -> ProductCertificate:
    """Certify the product M1...Ml of partial normal subgroups, l >= 2: the
    set and witnesses of _scan_product, and a report that records each
    check right after computing it, so that each carries its own time:
    - product-order: the set's size (data, timed with the factor checks and the scan);
    - product-commutes: every order of the factors gives that set;
    - bracketings-agree: for every split 1 <= k < l, (M1...Mk)(Mk+1...Ml) does;
    - product-partial-normal: the set is partial normal;
    - intersection-with-sylow: (M1...Ml) cap S = (M1 cap S)...(Ml cap S).
      The theorem states it for l = 2.  For l > 2, P = M1...Ml-1 is partial
      normal and M1...Ml = P Ml, so by induction on l
      (P Ml) cap S = (P cap S)(Ml cap S) = (M1 cap S)...(Ml cap S);
    - witness-complete: every element has a witness word;
    - certificate-revalidates: every witness passes ProductCertificate.validate;
    - trivial-intersection-path: recorded only when the factors meet in the
      identity alone (data, not a verified identity).
    Every other product is a subset_product; a factor order met twice is
    computed once, and the scan's own order not again.
    """
    report = VerificationReport("product certificate")
    facs = [frozenset(f) for f in factors]
    for i, X in enumerate(facs):
        ok, wit = is_partial_normal(loc, X)
        if not ok:
            raise ValueError(f"factor {i} is not partial normal (witness {wit})")
    product, witnesses, states = _scan_product(loc, facs)
    cert = ProductCertificate(facs, product, witnesses, states, report)
    report.record("product-order", True, [],
                  f"product has {len(product)} elements ({states} word states)")

    def times(fs: Sequence[frozenset[int]]) -> frozenset[int]:
        return subset_product(loc.pg, fs)

    report.record("product-commutes",
                  all(times(order) == product
                      for order in set(itertools.permutations(facs)) - {tuple(facs)}),
                  [], "every order of the factors gives the same set")
    report.record("bracketings-agree",
                  all(times([times(facs[:k]), times(facs[k:])]) == product
                      for k in range(1, len(facs))),
                  [], "every split into two bracketed products gives the same set")
    pn, pn_wit = is_partial_normal(loc, product)
    report.record("product-partial-normal", pn, [pn_wit] if pn_wit else [])
    S = loc.sylow_set
    report.record("intersection-with-sylow", product & S == times([f & S for f in facs]), [],
                  "(M1...Ml) cap S = (M1 cap S)...(Ml cap S)")
    report.record("witness-complete", set(witnesses) == set(product), [],
                  "every product element has a word witness with matching threading subgroup")
    report.record("certificate-revalidates", cert.validate(loc), [])
    if frozenset.intersection(*facs) == {loc.identity}:
        report.record("trivial-intersection-path", True, [], "factors intersect trivially")
    return cert


def product_theorem1(loc: Locality, M: Iterable[int], N: Iterable[int]) -> ProductCertificate:
    """Certify the product MN of two partial normal subgroups (_certify)."""
    return _certify(loc, [M, N])


def product_theorem2(loc: Locality, factors: Sequence[Iterable[int]]) -> ProductCertificate:
    """Certify a product of 2 to MAX_FACTORS partial normal subgroups (_certify)."""
    if not 2 <= len(factors) <= MAX_FACTORS:
        raise ValueError(
            f"a product certificate handles 2 to {MAX_FACTORS} factors, got {len(factors)}"
        )
    return _certify(loc, factors)
