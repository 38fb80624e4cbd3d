"""Fault injection: a partial group whose product is overridden on chosen
words, to show that a check fails when an axiom breaks."""

from localities.partial import PartialGroup, Word


class CorruptedProducts(PartialGroup):
    """Wrapper that overrides the product on chosen words (fault injection)."""

    def __init__(self, base: PartialGroup, overrides: dict[Word, int]):
        self.base = base
        self.overrides = dict(overrides)
        self.size = base.size
        self.identity = base.identity
        self.labels = base.labels
        self.p = base.p

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


def swap_two_products(base: PartialGroup, w1: Word, w2: Word) -> CorruptedProducts:
    """Swap the products of two domain words of equal length."""
    v1, v2 = base.pi(w1), base.pi(w2)
    if v1 is None or v2 is None or v1 == v2:
        raise ValueError("swap needs two domain words with distinct products")
    return CorruptedProducts(base, {tuple(w1): v2, tuple(w2): v1})
