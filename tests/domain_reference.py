"""The subgroup domain deciders that PartialGroup.words_all_in_domain and
domain_is_total replaced, one per partial group class, as they ran before
both read the walker table.  tests/test_domain_closure.py compares the two.

- LocalityPartialGroup: a depth-first search over the threading automaton
  from the start, over the member letters, that stops at the first state
  outside Delta (ThreadAutomaton.full_closure);
- AmalgamPartialGroup: the members lie on one side;
- CorruptedProducts: the base's verdict;
- QuotientPartialGroup: the base's verdict on the representatives, its
  witness read back through rho;
- GroupPartialGroup: always true;
- any other class: every word over the members up to length
  len(members) + 1, depth first, under a cap on the words visited.
"""

from localities.locality import LocalityPartialGroup
from localities.partial import (
    AmalgamPartialGroup,
    GroupPartialGroup,
    SweepBudgetExceeded,
)
from localities.quotient import QuotientPartialGroup

from fault_injection import CorruptedProducts

GENERIC_SWEEP_CAP = 500_000


def full_closure(rows, in_delta, letters):
    """(every automaton state reachable over letters lies in Delta, a word
    reaching one outside it if not), over the automaton's transition rows
    and the Delta mask of its states."""
    seen = {0}
    queue = [(0, ())]
    while queue:
        sid, path = queue.pop()
        if not in_delta[sid]:
            return False, path
        for g in letters:
            nid = rows[sid][g]
            if nid not in seen:
                seen.add(nid)
                queue.append((nid, path + (g,)))
    return True, None


def bounded_length_sweep(pg, members):
    elems = sorted(members)
    max_len = len(elems) + 1
    budget = GENERIC_SWEEP_CAP

    def rec(word):
        nonlocal budget
        if len(word) >= max_len:
            return None
        for x in elems:
            budget -= 1
            if budget <= 0:
                raise SweepBudgetExceeded("generic bounded-length subgroup sweep is too large")
            grown = word + (x,)
            if not pg.in_domain(grown):
                return grown
            bad = rec(grown)
            if bad is not None:
                return bad
        return None

    witness = rec(())
    return witness is None, witness


def words_all_in_domain(pg, members):
    """(verdict, witness) as the class of pg decided it."""
    if isinstance(pg, LocalityPartialGroup):
        return full_closure(pg.automaton.rows, pg.in_delta, sorted(members))
    if isinstance(pg, AmalgamPartialGroup):
        m = pg.SIDE_LEFT | pg.SIDE_RIGHT
        for x in members:
            m &= pg.side_mask[x]
        if m:
            return True, None
        lefts = [x for x in members if not pg.side_mask[x] & pg.SIDE_RIGHT]
        rights = [x for x in members if not pg.side_mask[x] & pg.SIDE_LEFT]
        return False, (min(lefts), min(rights))
    if isinstance(pg, CorruptedProducts):
        return words_all_in_domain(pg.base, members)
    if isinstance(pg, QuotientPartialGroup):
        ok, wit = words_all_in_domain(pg.base, frozenset(pg.reps[c] for c in members))
        return ok, None if wit is None else tuple(pg.rho[x] for x in wit)
    if isinstance(pg, GroupPartialGroup):
        return True, None
    return bounded_length_sweep(pg, members)


def domain_is_total(pg):
    """The verdict on all elements where the class computed it; an amalgam,
    and any class without its own decider, said False."""
    deciders = (LocalityPartialGroup, CorruptedProducts, QuotientPartialGroup, GroupPartialGroup)
    if isinstance(pg, deciders):
        return words_all_in_domain(pg, frozenset(pg.elements()))[0]
    return False
