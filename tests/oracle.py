"""Deliberately naive reference implementations for the test corpus.

Everything here sticks to direct definitions: full Cayley tables, per-word
chain searches for domain membership, elementwise threading, and fixpoint
loops.  Kept independent of the package under test on purpose; the package
must agree with these on every value the tests freeze or compare live.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# permutations and tables


def o_compose(p, q):
    n = max(len(p), len(q))
    p = tuple(p) + tuple(range(len(p), n))
    q = tuple(q) + tuple(range(len(q), n))
    return tuple(q[p[i]] for i in range(n))


def o_close_perms(gens):
    degree = max((len(g) for g in gens), default=0)
    gens = [tuple(g) + tuple(range(len(g), degree)) for g in gens]
    e = tuple(range(degree))
    found = {e}
    frontier = [e]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = o_compose(p, g)
                if q not in found:
                    found.add(q)
                    fresh.append(q)
        frontier = fresh
    return sorted(found)


class OGroup:
    """A finite group as a plain list-of-lists multiplication table."""

    def __init__(self, perms):
        self.perms = list(perms)
        index = {p: i for i, p in enumerate(self.perms)}
        n = len(self.perms)
        self.n = n
        self.mult = [[index[o_compose(a, b)] for b in self.perms] for a in self.perms]
        self.e = index[tuple(range(len(self.perms[0])) if self.perms else ())]
        self.inv = [0] * n
        for a in range(n):
            for b in range(n):
                if self.mult[a][b] == self.e and self.mult[b][a] == self.e:
                    self.inv[a] = b

    @classmethod
    def from_gens(cls, gens):
        return cls(o_close_perms(gens))

    def mul(self, a, b):
        return self.mult[a][b]

    def conj(self, x, g):
        return self.mult[self.mult[self.inv[g]][x]][g]

    def fold(self, word):
        out = self.e
        for x in word:
            out = self.mult[out][x]
        return out


def o_subgroup_closure(G: OGroup, seed):
    members = {G.e} | set(seed)
    changed = True
    while changed:
        changed = False
        for a in list(members):
            if G.inv[a] not in members:
                members.add(G.inv[a])
                changed = True
            for b in list(members):
                c = G.mult[a][b]
                if c not in members:
                    members.add(c)
                    changed = True
    return frozenset(members)


def o_all_subgroups(G: OGroup):
    found = {frozenset({G.e})}
    queue = [frozenset({G.e})]
    while queue:
        base = queue.pop()
        for x in range(G.n):
            if x in base:
                continue
            grown = o_subgroup_closure(G, base | {x})
            if grown not in found:
                found.add(grown)
                queue.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def o_normal_subgroups(G: OGroup):
    return [
        s
        for s in o_all_subgroups(G)
        if all(G.conj(x, g) in s for x in s for g in range(G.n))
    ]


def o_sylow_order(G: OGroup, p):
    out = 1
    n = G.n
    while n % p == 0:
        out *= p
        n //= p
    return out


# ---------------------------------------------------------------------------
# amalgams


class OAmalgam:
    """Union of two tables glued along paired elements; one-sided words only."""

    def __init__(self, left: OGroup, right: OGroup, pairing: dict[int, int]):
        self.left = left
        self.right = right
        right_to_id: dict[int, int] = {}
        self.left_ids = list(range(left.n))
        nxt = left.n
        back = {r: l for l, r in pairing.items()}
        self.right_ids = []
        for r in range(right.n):
            if r in back:
                right_to_id[r] = back[r]
            else:
                right_to_id[r] = nxt
                nxt += 1
            self.right_ids.append(right_to_id[r])
        self.n = nxt
        self.e = left.e
        self.to_left = {i: i for i in range(left.n)}
        self.to_right = {right_to_id[r]: r for r in range(right.n)}

    def in_domain(self, word):
        return all(x in self.to_left for x in word) or all(
            x in self.to_right for x in word
        )

    def pi(self, word):
        if not self.in_domain(word):
            return None
        if all(x in self.to_left for x in word):
            return self.left.fold(self.to_left[x] for x in word)
        return self.right_ids[self.right.fold(self.to_right[x] for x in word)]

    def inv(self, x):
        if x in self.to_left:
            return self.left.inv[self.to_left[x]]
        return self.right_ids[self.right.inv[self.to_right[x]]]

    def elements(self):
        return range(self.n)


# ---------------------------------------------------------------------------
# localities


class OLocality:
    """Restriction of a group to the elements whose Sylow intersection is an
    object, with words admitted by explicit chain search through Delta."""

    def __init__(self, G: OGroup, p: int, sylow: frozenset[int], delta):
        self.G = G
        self.p = p
        self.S = frozenset(sylow)
        self.delta = sorted((frozenset(P) for P in delta), key=lambda P: (len(P), sorted(P)))
        self.delta_set = set(self.delta)
        self.elems = []
        for g in range(G.n):
            sg = frozenset(s for s in self.S if G.conj(s, g) in self.S)
            if sg in self.delta_set:
                self.elems.append(g)
        self.pos = {g: i for i, g in enumerate(self.elems)}
        self.n = len(self.elems)
        self.e = self.pos[G.e]
        self._step = {}
        for pi_, P in enumerate(self.delta):
            for li, g in enumerate(self.elems):
                img = frozenset(G.conj(x, g) for x in P)
                self._step[(pi_, li)] = self.delta.index(img) if img in self.delta_set else -1
        self._domain_cache: dict[tuple, bool] = {}

    def elements(self):
        return range(self.n)

    def inv(self, x):
        return self.pos[self.G.inv[self.elems[x]]]

    def in_domain(self, word):
        word = tuple(word)
        got = self._domain_cache.get(word)
        if got is None:
            front = set(range(len(self.delta)))
            for x in word:
                front = {t for t in (self._step[(i, x)] for i in front) if t >= 0}
                if not front:
                    break
            got = bool(front)
            self._domain_cache[word] = got
        return got

    def pi(self, word):
        if not self.in_domain(word):
            return None
        return self.pos[self.G.fold(self.elems[x] for x in word)]

    def s_of_word(self, word):
        """Threading per definition: follow each member of S individually."""
        out = set()
        for s in self.S:
            cur = s
            ok = True
            for x in word:
                cur = self.G.conj(cur, self.elems[x])
                if cur not in self.S:
                    ok = False
                    break
            if ok:
                out.add(self.pos[s])
        return frozenset(out)

    def conj(self, x, f):
        """x^f when the defining word is in the domain, else None."""
        word = (self.inv(f), x, f)
        if not self.in_domain(word):
            return None
        return self.pi(word)

    def domain_total(self, max_len):
        for n in range(1, max_len + 1):
            for word in itertools.product(range(self.n), repeat=n):
                if not self.in_domain(word):
                    return False, word
        return True, None

    # -- subset machinery --------------------------------------------------

    def is_partial_subgroup(self, X):
        X = frozenset(X)
        if not X:
            return False
        for a in X:
            if self.inv(a) not in X:
                return False
        for a in X:
            for b in X:
                v = self.pi((a, b))
                if v is not None and v not in X:
                    return False
        return True

    def is_partial_normal(self, X):
        X = frozenset(X)
        if not self.is_partial_subgroup(X):
            return False
        for x in X:
            for f in range(self.n):
                v = self.conj(x, f)
                if v is not None and v not in X:
                    return False
        return True

    def pn_closure(self, seed):
        members = {self.e} | set(seed)
        changed = True
        while changed:
            changed = False
            for x in list(members):
                if self.inv(x) not in members:
                    members.add(self.inv(x))
                    changed = True
            for a in list(members):
                for b in list(members):
                    v = self.pi((a, b))
                    if v is not None and v not in members:
                        members.add(v)
                        changed = True
            for x in list(members):
                for f in range(self.n):
                    v = self.conj(x, f)
                    if v is not None and v not in members:
                        members.add(v)
                        changed = True
        return frozenset(members)

    def all_partial_normals(self):
        family = {self.pn_closure([x]) for x in range(self.n)}
        changed = True
        while changed:
            changed = False
            for a in list(family):
                for b in list(family):
                    joined = self.pn_closure(a | b)
                    if joined not in family:
                        family.add(joined)
                        changed = True
        return sorted(family, key=lambda s: (len(s), sorted(s)))

    # -- cosets -------------------------------------------------------------

    def coset(self, K, f):
        out = set()
        for k in K:
            v = self.pi((k, f))
            if v is not None:
                out.add(v)
        return frozenset(out)

    def maximal_cosets(self, K):
        cosets = {self.coset(K, f) for f in range(self.n)}
        return sorted(
            (c for c in cosets if not any(c < other for other in cosets)),
            key=lambda c: sorted(c),
        )

    # -- the relative-maximality relation (naive full scans) ----------------

    def pairs(self):
        out = []
        for f in range(self.n):
            sf = self.s_of_word((f,))
            for P in self.delta:
                PP = frozenset(self.pos[x] for x in P)
                if PP <= sf:
                    out.append((f, PP))
        return out

    def conj_subset(self, X, g):
        out = set()
        for x in X:
            v = self.conj(x, g)
            if v is None:
                return None
            out.add(v)
        return frozenset(out)

    def up_relates(self, K, a, b):
        (f, P), (g, Q) = a, b
        Pf = self.conj_subset(P, f)
        Qg = self.conj_subset(Q, g)
        if Pf is None or Qg is None:
            return None
        for x in sorted(K):
            Px = self.conj_subset(P, x)
            if Px is None or not Px <= Q:
                continue
            for y in sorted(K):
                Pfy = self.conj_subset(Pf, y)
                if Pfy is None or not Pfy <= Qg:
                    continue
                lhs = self.pi((x, g))
                rhs = self.pi((f, y))
                if lhs is not None and lhs == rhs:
                    return (x, y)
        return None

    def is_up_maximal(self, K, f):
        top = (f, self.s_of_word((f,)))
        for b in self.pairs():
            if self.up_relates(K, top, b) is not None:
                if self.up_relates(K, b, top) is None:
                    return False
        return True
