"""The subset layer as per-element loops over list rows: the references
the mask gathers of localities.partial (_close, _closure_failure,
_conjugation_failure) and the coset rows of localities.quotient (_cosets)
are tested against.  Each reads pg.product_table() and the conjugation
array as lists, one entry at a time."""

from typing import Container, Iterable, Sequence


def conj_rows(pg) -> list[list[int]]:
    """pg.conj_table() as lists, without its last row and column."""
    return pg.conj_table()[:-1, :-1].tolist()


def close(
    pg,
    seed: Iterable[int],
    rows: Sequence[Sequence[int]] = (),
    closed: frozenset[int] = frozenset(),
    known: Container[frozenset[int]] = (),
) -> frozenset[int]:
    """The least subset containing the identity, closed and seed that is
    closed under inversion, under every defined product of two members
    and, when rows are given, under every entry >= 0 of rows[x] for each
    member x; each round multiplies the elements added in the previous
    round with the current members, in both orders.  Stops before a round
    when the members are all of L or equal a set of known."""
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


def closure_failure(pg, X: frozenset[int]) -> tuple | None:
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


def conjugation_failure(pg, X: frozenset[int]) -> tuple | None:
    """A witness (x, f, x^f) with x^f defined outside X, or None; the
    first in sorted x, then f."""
    conj = conj_rows(pg)
    for x in sorted(X):
        for f, v in enumerate(conj[x]):
            if v >= 0 and v not in X:
                return (x, f, v)
    return None


def right_coset(pg, K: frozenset[int], f: int) -> frozenset[int]:
    """Kf: the defined products k f."""
    table = pg.product_table()
    return frozenset(table[k][f] for k in K) - {-1}


def left_coset(pg, K: frozenset[int], f: int) -> frozenset[int]:
    """fK: the defined products f k."""
    row = pg.product_table()[f]
    return frozenset(row[k] for k in K) - {-1}
