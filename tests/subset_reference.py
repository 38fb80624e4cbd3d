"""The subset layer as per-element loops over list rows: the references
the mask gathers of localities.partial (_close, _closure_failure,
_conjugation_failure, twin_labels, product_scan) and the coset rows of
localities.quotient (_cosets) are tested against.  Each reads the
products, the conjugation, walker and threading arrays as list copies
(list_tables), one entry at a time."""

from typing import Container, Iterable, Sequence

import list_tables
import list_tables

# The value of the empty word in the left folds of the product scans: no
# element id, and not None, which is mul2's answer off the domain.
EMPTY_WORD = object()


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
    table = list_tables.products(pg)
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


def closure_twins(pg, base: Iterable[int], x: int) -> set[int]:
    """The twin class of x over base, one element and pair at a time: the
    elements partial.twin_labels's moves reach from x (y = h*x with
    h^-1 * y = x, y = x*h with y * h^-1 = x, for h in base, and y = x^-1
    with (x^-1)^-1 = x), x among them.  Every move is proved by its return
    lookup, so the class shares the closure of base | {x} on any table."""
    table = list_tables.products(pg)
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


def closure_failure(pg, X: frozenset[int]) -> tuple | None:
    """A witness that X is not a partial subgroup, or None if it is one."""
    elems = sorted(X)
    for a in elems:
        if pg.inverse(a) not in X:
            return ("inverse", a)
    table = list_tables.products(pg)
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
    conj = list_tables.conj(pg)
    for x in sorted(X):
        for f, v in enumerate(conj[x]):
            if v >= 0 and v not in X:
                return (x, f, v)
    return None


def right_coset(pg, K: frozenset[int], f: int) -> frozenset[int]:
    """Kf: the defined products k f."""
    table = list_tables.products(pg)
    return frozenset(table[k][f] for k in K) - {-1}


def left_coset(pg, K: frozenset[int], f: int) -> frozenset[int]:
    """fK: the defined products f k."""
    row = list_tables.products(pg)[f]
    return frozenset(row[k] for k in K) - {-1}


def subset_product(pg, factors) -> frozenset[int]:
    """{x1 x2 ... xl : xi in factor i, the word in the domain}, as a dict
    fold: the words merged by their (walker code, value) pair after each
    factor, each folded left to right by reads of the products.  The empty
    word has code 0 and the value EMPTY_WORD; a domain word whose fold
    meets an undefined product (-1) has no value and is dropped."""
    table, rows = list_tables.products(pg), list_tables.walker(pg)
    frontier = {(0, EMPTY_WORD)}
    for xs in [sorted(set(int(x) for x in f)) for f in factors]:
        frontier = {
            (nxt, v)
            for code, value in frontier
            for x in xs
            if (nxt := rows[code][x]) >= 0
            and (v := x if value is EMPTY_WORD else table[value][x]) >= 0
        }
    return frozenset(v for _, v in frontier)


def scan_product(loc, factors) -> tuple[frozenset[int], dict[int, tuple], int]:
    """(product, witnesses, keys visited) of normal._scan_product as a dict
    fold keyed by (walker code, threading state, value), each key holding
    the first word that reaches it: keys are extended in the order they
    were reached and letters in sorted order.  The witness of v is the word
    of the first final key with value v whose threading subgroup is
    loc.thread_subgroup((v,))."""
    table, walker = list_tables.products(loc.pg), list_tables.walker(loc.pg)
    auto = loc.automaton
    thread = auto.array.tolist()
    frontier: dict[tuple, tuple] = {(0, 0, EMPTY_WORD): ()}  # key -> least word
    visited = 0
    for xs in [sorted(f) for f in factors]:
        grown: dict[tuple, tuple] = {}
        for (code, sid, value), word in frontier.items():
            for x in xs:
                nxt = walker[code][x]
                if nxt < 0:
                    continue
                v = x if value is EMPTY_WORD else table[value][x]
                if v < 0:
                    continue
                grown.setdefault((nxt, thread[sid][x], v), word + (x,))
        visited += len(grown)
        frontier = grown
    witnesses: dict[int, tuple] = {}
    s_of: dict[int, frozenset[int]] = {}
    for (_, sid, v), word in frontier.items():
        target = s_of.get(v)
        if target is None:
            target = s_of[v] = loc.thread_subgroup((v,))
        if auto.start_sets[sid] == target:
            witnesses.setdefault(v, word)
    return frozenset(v for *_, v in frontier), witnesses, visited
