"""Conjugation chains of Delta members through a word, built from the
definitions: a reference for the domain decision of a locality.

A word g1 ... gn is in the domain of a locality exactly when some chain
P0, P1, ..., Pn of Delta members has P(i-1)^gi = Pi; the canonical chain
starts at the threading subgroup S_w.
"""

from dataclasses import dataclass
from typing import Iterable

from localities.locality import Locality
from localities.partial import Word


@dataclass
class ConjChain:
    """A witnessing chain of Delta members for a domain word."""

    word: Word
    stations: tuple[frozenset[int], ...]


def domain_chain(loc: Locality, word: Iterable[int]) -> ConjChain | None:
    """A canonical witnessing chain for a domain word, None outside the domain.

    The canonical choice starts at S_w and conjugates station by station.
    """
    word = tuple(word)
    if not loc.in_domain(word):
        return None
    station = loc.thread_subgroup(word)
    stations = [station]
    for g in word:
        nxt = loc.conjugate_set(station, g)
        if nxt is None:
            return None
        station = nxt
        stations.append(station)
    return ConjChain(word=word, stations=tuple(stations))


def chain_is_valid(loc: Locality, chain: ConjChain) -> bool:
    """Check the chain condition: consecutive stations conjugate correctly."""
    if len(chain.stations) != len(chain.word) + 1:
        return False
    for P, g, Q in zip(chain.stations, chain.word, chain.stations[1:]):
        if P not in loc.delta.members or Q not in loc.delta.members:
            return False
        img = loc.conjugate_set(P, g)
        if img is None or img != Q:
            return False
    return bool(chain.stations) and chain.stations[0] in loc.delta.members
