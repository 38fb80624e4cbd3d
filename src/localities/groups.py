"""Finite groups as fully materialized multiplication tables over 0-based ids."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

Perm = tuple[int, ...]

# generate_group at this scale (2 vCPUs, Python 3.11.7, numpy 2.4.6): S6
# (order 720) builds in 0.10-0.12 s, peak RSS 44 MB; S7 (order 5040) in
# 4.2 s, 0.9 s of it the group-table certificate, peak RSS 163 MB (the
# interpreter with numpy alone: 30 MB).  The table alone takes
# 4 * order^2 bytes, 400 MB at the cap.
DEFAULT_ORDER_CAP = 10_000
_PRODUCT_BLOCK = 1 << 20


class SizeCapExceeded(ValueError):
    """A closure grew past the configured order cap."""


# ---------------------------------------------------------------------------
# permutations


def pad_perm(p: Sequence[int], degree: int) -> Perm:
    return tuple(p) + tuple(range(len(p), degree))


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def cycle_string(p: Perm) -> str:
    """Cycle notation on 1-based points; the identity prints as '()'."""
    seen = [False] * len(p)
    parts: list[str] = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# groups


def certify_group_table(table: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Prove that a square table over ids 0..n-1 is a group, or raise ValueError.

    Returns the identity and the inverse of every element.  The identity and
    two-sided inverses are checked entry by entry.  Associativity is proved
    by Light's test (Clifford & Preston, The Algebraic Theory of Semigroups
    I, 1.2): the set of a with (x a) y = x (a y) for all x, y is closed under
    the product, so if it holds for every a in a set A whose left-normed
    products reach every element, the table is associative.  A is chosen
    greedily: the least element not yet reached joins A, and the reached set
    is closed under right multiplication by A in the table itself, which
    uses no law the table has not yet been shown to obey.  Rows are compared
    in blocks of about _PRODUCT_BLOCK entries; the cost is n^2 per member of
    A instead of n^3.
    """
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError("multiplication table must be square")
    n = int(table.shape[0])
    if n == 0:
        raise ValueError("a group has at least one element")
    if table.min() < 0 or table.max() >= n:
        raise ValueError("table entries out of range")

    line = np.arange(n, dtype=table.dtype)
    identity = None
    for e in range(n):
        if np.array_equal(table[e], line) and np.array_equal(table[:, e], line):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no two-sided identity")
    rows, cols = np.nonzero(table == identity)
    one_sided = np.nonzero(table[cols, rows] != identity)[0]
    if one_sided.size:
        raise ValueError(f"element {rows[one_sided[0]]} has a one-sided inverse only")
    inv = np.full(n, -1, dtype=np.int64)
    inv[rows] = cols
    if (inv < 0).any():
        raise ValueError("some element has no inverse")

    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        columns = table[:, gens]
        frontier = np.nonzero(reached)[0]
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[columns[frontier]] = True
            frontier = np.flatnonzero(fresh & ~reached)
            reached[frontier] = True
    block = max(1, _PRODUCT_BLOCK // n)
    for a in gens:
        for x in range(0, n, block):
            # rows x..x+block of (x a) y and of x (a y)
            if not np.array_equal(table[table[x:x + block, a]], table[x:x + block][:, table[a]]):
                raise ValueError(f"table is not associative: (x {a}) y != x ({a} y) for some x, y")
    return identity, tuple(inv.tolist())


class FiniteGroup:
    """A finite group given by a total multiplication table.

    Elements are ids 0..order-1.  Associativity, the two-sided identity and
    two-sided inverses are checked exhaustively on construction, so anything
    holding a FiniteGroup holds an actual group.  The check is
    certify_group_table: identity and inverses entry by entry, associativity
    by Light's test over a generating set.
    """

    def __init__(
        self,
        mult: Sequence[Sequence[int]] | np.ndarray,
        labels: Sequence[str] | None = None,
        perms: Sequence[Perm] | None = None,
    ):
        table = np.asarray(mult, dtype=np.int32)
        identity, inv = certify_group_table(table)
        n = int(table.shape[0])

        self.order = n
        self.mult = table
        self.inv = inv
        self.identity = identity
        self.perms: tuple[Perm, ...] | None = tuple(perms) if perms is not None else None
        if labels is not None:
            if len(labels) != n:
                raise ValueError("label count does not match order")
            self.labels = tuple(str(s) for s in labels)
        elif self.perms is not None:
            self.labels = tuple(cycle_string(p) for p in self.perms)
        else:
            self.labels = tuple(f"g{i}" for i in range(n))
        self._perm_index = {p: i for i, p in enumerate(self.perms)} if self.perms else None
        self._subgroup_cache: list[SubgroupRef] | None = None

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, x: int, g: int) -> int:
        """Right conjugation x^g = g^-1 x g."""
        return int(self.mult[self.mult[self.inv[g], x], g])

    def fold(self, word: Iterable[int]) -> int:
        out = self.identity
        for x in word:
            out = int(self.mult[out, x])
        return out

    def elements(self) -> range:
        return range(self.order)

    def index_of_perm(self, p: Sequence[int]) -> int:
        if self._perm_index is None:
            raise ValueError("group was not built from permutations")
        key = tuple(p)
        degree = len(next(iter(self._perm_index)))
        return self._perm_index[pad_perm(key, degree)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteGroup(order={self.order})"


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for a 1-d array, by a sort and a comparison of
    neighbours: np.unique checks for masked arrays, which imports numpy.ma
    (about 15 ms) into every process that calls it."""
    out = np.sort(values)
    if out.size:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        keep[1:] = out[1:] != out[:-1]
        out = out[keep]
    return out


def generate_group(
    generators: Sequence[Sequence[int]], order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Close permutations under composition and return the Cayley table.

    Elements are ordered by their image tuples, which puts the identity at
    id 0 and makes every derived report reproducible.  Each image tuple has
    an integer key, its digits in base degree, so keys sort as the tuples
    do.  The closure is a breadth-first search over numpy rows that keeps
    the keys found so far sorted; each new image, and then every product
    a*b, is looked up among them with np.searchsorted.
    Products are keyed for a block of rows a at a time, one column of the
    image tuples after another, so no temporary holds more than about
    _PRODUCT_BLOCK entries: the peak memory is the order^2 table plus a few
    blocks.
    """
    degree = max((len(p) for p in generators), default=0)
    gens = [pad_perm(tuple(p), degree) for p in generators]
    for g in gens:
        if not is_perm(g):
            raise ValueError(f"not a permutation: {g}")
    # past int64 the keys are exact Python ints: slower, never wrong
    key_type = object if degree**degree >= 2**63 else np.int64
    places = [degree ** (degree - 1 - i) for i in range(degree)]

    def key_of(columns, shape):
        """Keys of image tuples given column by column."""
        out = np.zeros(shape, dtype=key_type)
        for col in columns:
            out = out * degree + col
        return out

    def rows_of(keys):
        """The image tuples of keys, one row each."""
        digits = [keys // place % degree for place in places]
        return np.array(digits, dtype=np.int64).reshape(degree, len(keys)).T

    gen_rows = np.array(gens, dtype=np.int64).reshape(len(gens), degree)
    frontier = np.arange(degree, dtype=np.int64)[None, :]
    keys = key_of(frontier.T, 1)
    while frontier.size:
        # p then g maps i to g[p[i]]
        images = gen_rows[:, frontier].reshape(-1, degree)
        fresh = _sorted_distinct(key_of(images.T, len(images)))
        seen = keys[np.minimum(np.searchsorted(keys, fresh), len(keys) - 1)] == fresh
        fresh = fresh[~seen]
        if len(keys) + len(fresh) > order_cap:
            raise SizeCapExceeded(f"closure exceeds the order cap of {order_cap}")
        keys = np.sort(np.concatenate((keys, fresh)))
        frontier = rows_of(fresh)
    elems = rows_of(keys)
    n = len(elems)
    mult = np.empty((n, n), dtype=np.int32)
    block = max(1, _PRODUCT_BLOCK // n)
    for a in range(0, n, block):
        rows_a = elems[a:a + block]
        # column i of the image tuple of a*b is b[a[i]]
        columns = (elems[:, rows_a[:, i]].T for i in range(degree))
        mult[a:a + block] = np.searchsorted(keys, key_of(columns, (len(rows_a), n)))
    return FiniteGroup(mult, perms=[tuple(p) for p in elems.tolist()])


def subset_group(
    elems: Sequence[int], mul: Callable[[int, int], int], labels: Sequence[str]
) -> FiniteGroup:
    """The group on elems, a subset closed under mul: id i stands for elems[i].

    Raises ValueError when a product is undefined or leaves elems, or when
    the products on elems are not a group."""
    pos = {g: i for i, g in enumerate(elems)}
    mult = [[pos.get(mul(a, b), -1) for b in elems] for a in elems]
    for a, row in zip(elems, mult):
        if -1 in row:
            b = elems[row.index(-1)]
            raise ValueError(f"{labels[a]}*{labels[b]} is undefined or not in the subset")
    return FiniteGroup(mult, labels=[labels[g] for g in elems])


class SubgroupRef:
    """A validated subgroup of a FiniteGroup, kept as a member id set."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        mem = frozenset(int(x) for x in members)
        if parent.identity not in mem:
            raise ValueError("subgroup must contain the identity")
        for a in mem:
            if parent.inv[a] not in mem:
                raise ValueError(f"subgroup not closed under inversion at {a}")
            row = parent.mult[a]
            for b in mem:
                if int(row[b]) not in mem:
                    raise ValueError(f"subgroup not closed under products at ({a},{b})")
        self.parent = parent
        self.members = mem

    @property
    def order(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Export as a standalone FiniteGroup plus the member id map."""
        elems = self.sorted_members()
        return subset_group(elems, self.parent.mul, self.parent.labels), elems

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubgroupRef)
            and other.parent is self.parent
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SubgroupRef(order={self.order})"


def closure_members(
    G: FiniteGroup, seed: Iterable[int], rows: list[list[int] | None] | None = None
) -> frozenset[int]:
    """Member set of the least subgroup containing seed.

    A breadth-first search from the identity multiplies each element y it
    reaches on the right by each seed element, reading row y of G.mult once.
    It reaches the monoid the seed generates, and in a finite group that is
    the subgroup: each s has finite order k, so s^-1 = s^(k-1) is a product
    of seeds.  So the result is exact on every group table, for any seed,
    and costs |<seed>| * |seed| lookups.  Row y becomes a Python list the
    first time the search reaches y, and is kept in rows[y] when the caller
    passes a list of G.order slots (None for a row not converted yet), so
    that a caller closing many seeds in G converts each row once; the whole
    order^2 table is never converted up front.
    """
    if rows is None:
        rows = [None] * G.order
    gens = list(dict.fromkeys(int(s) for s in seed))
    inside = {G.identity}
    queue = [G.identity]
    for y in queue:
        prods = rows[y]
        if prods is None:
            prods = rows[y] = G.mult[y].tolist()
        for s in gens:
            z = prods[s]
            if z not in inside:
                inside.add(z)
                queue.append(z)
    return frozenset(inside)


def all_subgroups(G: FiniteGroup) -> list[SubgroupRef]:
    """Every subgroup of G, sorted by (order, member ids).

    Breadth-first closure search: grow each known subgroup H = <gens> by one
    outside element x and close gens + (x,) with the closure_members
    kernel, which reaches <H, x> in |<H, x>| * (|gens| + 1) lookups.  One
    candidate x per left coset Hx suffices, since <H, hx> = <H, x>.  The
    rows of G.mult the closures visit are turned into lists once per call,
    and every subgroup found is validated as a SubgroupRef.  Exhaustive at
    the desk scale this engine targets.
    """
    # all_subgroups at this scale (2 vCPUs, Python 3.11.7, numpy 2.4.6): S5
    # (order 120, 156 subgroups, 4,169 closures) in 0.10-0.14 s; the Sylow
    # 2-subgroup of S4xS4 (order 64, 389 subgroups) in 0.04-0.06 s.  A numpy
    # frontier closure per candidate took 0.9-1.2 s and 0.47-0.52 s.
    if G._subgroup_cache is not None:
        return list(G._subgroup_cache)
    rows: list[list[int] | None] = [None] * G.order
    rows[G.identity] = G.mult[G.identity].tolist()
    trivial = frozenset({G.identity})
    found = {trivial}
    queue: list[tuple[frozenset[int], tuple[int, ...]]] = [(trivial, ())]
    while queue:
        base, gens = queue.pop()
        covered = set(base)
        # base was closed from its generators, so its rows are converted;
        # one extension candidate per coset: <H, hx> = <H, x>
        base_rows = [rows[h] for h in base]
        for x in G.elements():
            if x in covered:
                continue
            covered.update(prods[x] for prods in base_rows)
            seed = gens + (x,)
            grown = closure_members(G, seed, rows)
            if grown not in found:
                found.add(grown)
                queue.append((grown, seed))
    refs = [SubgroupRef(G, mem) for mem in found]
    refs.sort(key=lambda r: (r.order, r.sorted_members()))
    G._subgroup_cache = refs
    return list(refs)


def _p_part(n: int, p: int) -> int:
    """The largest power of p that divides n; 1 for n = 0, which is no power of p."""
    out = 1
    while n and n % p == 0:
        out *= p
        n //= p
    return out


# Miller-Rabin on the prime bases 2..41 is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for p at or above _PRIME_BOUND."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"p = {p} is too large: primality is decided only below {_PRIME_BOUND}")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 is an odd number times 2^r
    return all(pow(a, (p - 1) >> r, p) == 1 or p - 1 in [pow(a, (p - 1) >> i, p)
               for i in range(1, r + 1)] for a in _PRIME_BASES)


def sylow_p(G: FiniteGroup, p: int) -> SubgroupRef:
    """One Sylow p-subgroup, chosen as the least candidate member list.

    Grown from the identity by p-elements: while P is not Sylow, N_G(P)/P
    has an element of order p (Sylow's theorem), so the least x in
    N_G(P) \\ P with x^p in P extends P to P<x> of order p|P|.  All Sylow
    p-subgroups are conjugate, so the least conjugate of the result is the
    least Sylow p-subgroup of the whole lattice.  Each step closes
    P | {x} with closure_members, a search from the identity that reads
    one row of G.mult per member of P<x> and is exact on any group table;
    a step costs p|P| * (|P| + 1) lookups, and the whole lattice of G is
    never enumerated.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = _p_part(G.order, p)
    everyone = np.arange(G.order)
    inv = np.asarray(G.inv)

    def conjugates(P: frozenset[int]) -> np.ndarray:
        """Row g holds P^g, member by member."""
        members = np.fromiter(P, dtype=np.int64)
        return G.mult[G.mult[inv[:, None], members[None, :]], everyone[:, None]]

    power, square, e = np.full(G.order, G.identity), everyone, p  # x^p by repeated squaring
    while e:
        if e & 1:
            power = G.mult[power, square]
        square, e = G.mult[square, square], e >> 1
    P = frozenset({G.identity})
    while len(P) < target:
        inside = np.zeros(G.order, dtype=bool)
        inside[list(P)] = True
        grows = inside[conjugates(P)].all(axis=1) & ~inside & inside[power]
        P = closure_members(G, P | {int(np.argmax(grows))})
    least = min(tuple(sorted(row)) for row in conjugates(P).tolist())
    return SubgroupRef(G, least)
