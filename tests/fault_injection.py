"""Fault injection: partial groups answered word by word, whose product is
overridden on chosen words, to show that a check fails when an axiom
breaks; and the per-word forms of the tables and of the axiom sweep, the
references the gathers and the state searches of localities.partial are
tested against."""

import copy
import functools
from dataclasses import replace

import numpy as np

from localities import partial
from localities.locality import Locality
from localities.partial import AxiomViolation, PartialGroup, Word, _padded
from localities.quotient import CosetPartition

import automaton_reference
import list_tables


class WordPartialGroup:
    """A partial group answered one word at a time: subclasses give size,
    identity, labels, inverse, in_domain, _raw_product (the product of a
    word known to be in the domain), walk_start and walk_step (the state
    of a word extended by a letter, None once it is off the domain).  Its
    tables are built from pi, one call per pair or conjugation word, and
    its inverse array from inverse, on first use and kept on the instance,
    so overridden products and inverses are what the closures, the
    classifiers and the conjugations see.  The walker is numbered breadth
    first by automaton_reference; the domain readers are PartialGroup's
    own, and words_all_in_domain reads the walker as a trans and accept
    pair whose last state is dead."""

    p: int | None = None
    _padded_products: np.ndarray | None = None
    _conj: np.ndarray | None = None

    elements = PartialGroup.elements
    invert_word = PartialGroup.invert_word
    domain_is_total = PartialGroup.domain_is_total
    words_all_in_domain = PartialGroup.words_all_in_domain
    walker_table = automaton_reference.walker_table

    @functools.cached_property
    def _trans_at(self) -> memoryview:
        """The walker table with its dead code -1 read as its last row."""
        walk = self.walker_table()
        return memoryview(np.where(walk < 0, len(walk) - 1, walk))

    @functools.cached_property
    def _accept_at(self) -> memoryview:
        """Every walker code but the dead last one accepts."""
        codes = len(self.walker_table())
        return memoryview(np.arange(codes) < codes - 1)

    def pi(self, word: Word) -> int | None:
        """The partial product: a value on domain words, None elsewhere."""
        word = tuple(word)
        if not self.in_domain(word):
            return None
        return self._raw_product(word)

    def mul2(self, a: int, b: int) -> int | None:
        return self.pi((a, b))

    def padded_products(self) -> np.ndarray:
        """Binary products: row a holds mul2(a, b) at b, or -1 off the
        domain, as an (n+1) x (n+1) int64 array whose last row and column
        are -1."""
        if self._padded_products is None:
            n = range(self.size)
            self._padded_products = _padded([
                [-1 if (v := self.mul2(a, b)) is None else v for b in n] for a in n
            ])
        return self._padded_products

    @functools.cached_property
    def _inv(self) -> np.ndarray:
        """The inverses as one int64 array."""
        return np.array([self.inverse(x) for x in range(self.size)], dtype=np.int64)

    def conj_table(self) -> np.ndarray:
        """Conjugates: row x holds x^f = pi((f^-1, x, f)) at f, or -1 off
        the domain, with a last row and column of -1."""
        if self._conj is None:
            n = range(self.size)
            inv = self._inv.tolist()
            self._conj = _padded([
                [-1 if (v := self.pi((inv[f], x, f))) is None else v for f in n] for x in n
            ])
        return self._conj


class CorruptedProducts(WordPartialGroup):
    """Wrapper that overrides the product on chosen words (fault injection);
    it walks the domain of its base."""

    def __init__(self, base: PartialGroup, overrides: dict[Word, int]):
        self.base = base
        self.overrides = dict(overrides)
        self.size = base.size
        self.identity = base.identity
        self.labels = base.labels
        self.p = base.p
        self._walk = list_tables.walk(base)

    def inverse(self, x: int) -> int:
        return self.base.inverse(x)

    def in_domain(self, word: Word) -> bool:
        return self.base.in_domain(word)

    def _raw_product(self, word: Word) -> int:
        if word in self.overrides:
            return self.overrides[word]
        return self.base._raw_product(word)

    def walk_start(self):
        return self._walk[0]

    def walk_step(self, state, x: int):
        return self._walk[1](state, x)


def dfs_axiom_sweep(pg, max_len: int) -> tuple[int, list[AxiomViolation]]:
    """(words visited, violations) of a literal sweep over every word of
    length <= max_len, in pre-order (a word, then its extensions), each
    checked by partial._word_violations; once partial.MAX_REPORTED_VIOLATIONS
    are found it checks no further word."""
    out: list[AxiomViolation] = []
    stack, visited = [(x,) for x in reversed(pg.elements())], 0
    while stack:
        word = stack.pop()
        visited += 1
        if len(out) < partial.MAX_REPORTED_VIOLATIONS:
            out.extend(partial._word_violations(pg, word))
        if len(word) < max_len:
            stack += [word + (x,) for x in reversed(pg.elements())]
    return visited, out


def swap_two_products(base: PartialGroup, w1: Word, w2: Word) -> CorruptedProducts:
    """Swap the products of two domain words of equal length."""
    v1, v2 = base.pi(w1), base.pi(w2)
    if v1 is None or v2 is None or v1 == v2:
        raise ValueError("swap needs two domain words with distinct products")
    return CorruptedProducts(base, {tuple(w1): v2, tuple(w2): v1})


def with_representatives(part: CosetPartition, reps) -> CosetPartition:
    """A copy of part whose maximal cosets have the bases reps, so that a
    QuotientPartialGroup built on it reads other representatives.  The
    kept partition is left as it is."""
    maximal = [replace(rec, base=r) for rec, r in zip(part.maximal, reps, strict=True)]
    return replace(part, maximal=maximal)


def tampered_locality(loc: Locality, products: dict[tuple[int, int], int] | None = None,
                      **attrs) -> Locality:
    """A copy of loc whose binary products, the one padded_products() array
    that the closures, the twin labels, the classifiers, the coset layer,
    the product scans and mul2 read, hold the given (a, b) -> value entries
    (-1 leaves a product undefined), and whose attributes attrs replace its
    own (sylow_set, or thread_subgroup as a function of the word).  pi and
    the conjugation array still read the untouched arrays.  The array is
    written as a new copy, so loc and its partial group are left as they
    are."""
    pg = copy.copy(loc.pg)
    pg._padded_products = loc.pg.padded_products().copy()
    pg._products_at = memoryview(pg._padded_products)
    for (a, b), v in (products or {}).items():
        pg._padded_products[a, b] = v
    out = copy.copy(loc)
    out.pg = pg
    vars(out).update(attrs)
    return out
