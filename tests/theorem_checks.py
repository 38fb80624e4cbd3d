"""Theorems checked on the engine's outputs that no command runs: normality
in a finite group, Dedekind's modular law for subset products, and
Chermak's strong closure of T = N cap S for a partial normal subgroup N."""

from dataclasses import dataclass, field
from typing import Iterable

from localities.groups import FiniteGroup, _p_part
from localities.locality import Locality, _p_subgroup_above
from localities.normal import _require_locality, is_partial_normal
from localities.partial import PartialGroup, _closure_failure, subset_product
from localities.report import VerificationReport

import list_tables


def is_normal_subset(G: FiniteGroup, members: frozenset[int]) -> bool:
    conj = list_tables.group_conj(G)
    return all(conj[x][g] in members for x in members for g in G.elements())


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

    ok_t, bad_word = loc.pg.words_all_in_domain(T)
    t_is_p = _p_part(len(T), loc.p) == len(T)
    above = _p_subgroup_above(loc, T, sorted(N - T)) if ok_t and t_is_p else None
    report.record(
        "maximal-p-subgroup-of-N",
        ok_t and t_is_p and above is None,
        [w for w in [bad_word, above] if w],
        "T is a p-subgroup of N maximal among p-subgroups of N",
    )
    return T, report
