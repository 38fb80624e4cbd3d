"""Partial normal subgroups, their enumeration, and the product theorems.

The product of conjugation-closed partial subgroups is computed by direct
word enumeration and certified: the engine records set equalities, witness
words, and normality checks as data instead of assuming any theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .groups import SizeCapExceeded
from .locality import Locality, _p_subgroup_above
from .partial import (
    SubsetHandle,
    Word,
    _close,
    _closure_failure,
    _conjugation_failure,
    _is_prime_power,
    classify_subset,
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
    X = frozenset(int(x) for x in members)
    if not X:
        raise ValueError("the empty set is not a partial subgroup")
    bad = _closure_failure(loc.pg, X)
    if bad is not None:
        return False, ("closure",) + bad
    bad = _conjugation_failure(loc.pg, X)
    return bad is None, bad


def partial_normal_closure(loc: Locality, seed: Iterable[int]) -> SubsetHandle:
    """Least partial normal subgroup containing the seed, classified.

    The frontier closure of partial_subgroup_closure, run with the rows of
    loc.conj_table() so that every defined conjugate x^f of a member joins.
    """
    _require_locality(loc)
    members = _close(loc.pg, seed, loc.conj_table())
    return classify_subset(loc.pg, members, p=loc.p)


def enumerate_partial_normals(loc: Locality) -> list[SubsetHandle]:
    """All partial normal subgroups, as singleton closures joined to a fixpoint.

    Every partial normal subgroup is the join of the closures of its own
    singletons, so closing the singleton closures under pairwise join is
    exhaustive.
    """
    _require_locality(loc)
    if loc.size > ENUMERATION_CAP:
        raise SizeCapExceeded(
            f"partial normal enumeration is capped at {ENUMERATION_CAP} elements"
        )
    closures: dict[frozenset[int], SubsetHandle] = {}
    for x in loc.elements():
        h = partial_normal_closure(loc, [x])
        closures.setdefault(h.members, h)
    family = dict(closures)
    queue = list(closures.values())
    while queue:
        h = queue.pop()
        for other in list(family.values()):
            joined = h.members | other.members
            if joined in family:
                continue
            grown = partial_normal_closure(loc, joined)
            if grown.members not in family:
                family[grown.members] = grown
                queue.append(grown)
    return sorted(family.values(), key=lambda h: (len(h.members), sorted(h.members)))


# ---------------------------------------------------------------------------
# strong closure of T = N cap S


def strongly_closed_and_T(
    loc: Locality, N: Iterable[int]
) -> tuple[frozenset[int], VerificationReport]:
    """T = N cap S: strong closure, setwise invariance, and maximality in N."""
    _require_locality(loc)
    N = frozenset(N)
    ok, wit = is_partial_normal(loc, N)
    if not ok:
        raise ValueError(f"N must be partial normal (witness {wit})")
    T = N & loc.sylow_set
    report = VerificationReport("strong closure of N cap S")

    bad = []
    for g in loc.elements():
        sg = loc.thread_subgroup((g,))
        for t in T & sg:
            v = loc.conjugate(t, g)
            if v not in T:
                bad.append((t, g, v))
    report.record(
        "strongly-closed",
        not bad,
        bad[:5],
        "t^g stays in T whenever t lies in T cap S_g",
    )

    bad = []
    for g in loc.elements():
        if T <= loc.thread_subgroup((g,)):
            img = loc.conjugate_set(T, g)
            if img != T:
                bad.append((g, sorted(img or ())))
    report.record("setwise-invariant", not bad, bad[:5], "T^g = T whenever T <= S_g")

    ok_t, _, bad_word = loc.pg.words_all_in_domain(T)
    t_is_p = _is_prime_power(len(T), loc.p)
    above = _p_subgroup_above(loc, T, sorted(N - T)) if ok_t and t_is_p else None
    report.record(
        "maximal-p-subgroup-of-N",
        ok_t and t_is_p and above is None,
        [w for w in [bad_word, above] if w],
        "T is a p-subgroup of N maximal among p-subgroups of N",
    )
    return T, report


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
) -> tuple[frozenset[int], dict[int, Word], dict[int, int]]:
    """Enumerate all domain words across the factors.

    Collects the product set, the first witness word per product value whose
    threading subgroup equals that of the value, and a count of all such
    witnesses.  Bare product sets come from subset_product.
    """
    pg = loc.pg
    lists = [sorted(f) for f in factors]
    out: set[int] = set()
    witnesses: dict[int, Word] = {}
    counts: dict[int, int] = {}
    s_of: dict[int, frozenset[int]] = {}
    auto = loc.automaton
    last = len(lists) - 1

    def rec(i: int, sid: int, value, word: Word) -> None:
        for x in lists[i]:
            nid = auto.step(sid, x)
            if not auto.in_delta[nid]:
                continue
            v = x if value is None else pg.mul2(value, x)
            w = word + (x,)
            if i == last:
                out.add(v)
                target = s_of.get(v)
                if target is None:
                    target = loc.thread_subgroup((v,))
                    s_of[v] = target
                if auto.start_sets[nid] == target:
                    counts[v] = counts.get(v, 0) + 1
                    if v not in witnesses:
                        witnesses[v] = w
            else:
                rec(i + 1, nid, v, w)

    rec(0, 0, None, ())
    return frozenset(out), witnesses, counts


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
    product, witnesses, counts = _scan_product(loc, [M, N])
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

    product, witnesses, counts = _scan_product(loc, facs)
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
        flags=flags,
        normality_witness=pn_wit,
    )
