"""List copies of the arrays of a partial group and of the tables of a
finite group, for the references in tests/ that read one entry at a time:
a list read costs less than a memoryview or numpy one.  Each call makes a
new copy, so a tampering written after it is not seen."""

from localities.partial import PartialGroup


def products(pg) -> list[list[int]]:
    """pg.padded_products() without its last row and column: row a holds
    pi((a, b)) at b, -1 off the domain."""
    return pg.padded_products()[:-1, :-1].tolist()


def conj(pg) -> list[list[int]]:
    """pg.conj_table() without its last row and column."""
    return pg.conj_table()[:-1, :-1].tolist()


def walker(pg) -> list[list[int]]:
    """pg.walker_table() without its last row: code 0 is the empty word's,
    -1 off the domain."""
    return pg.walker_table()[:-1].tolist()


def walk(pg):
    """(start, step): the walker one state at a time, step(state, x) the
    state of the word extended by x, None once it is off the domain.  On a
    PartialGroup it is trans masked by accept, read as lists; a test double
    gives its own walk_start and walk_step."""
    if not isinstance(pg, PartialGroup):
        return pg.walk_start(), pg.walk_step
    trans, accept = pg.trans.tolist(), pg.accept.tolist()

    def step(state, x):
        nxt = trans[state][x]
        return nxt if accept[nxt] else None

    return 0, step


def group_conj(group) -> list[list[int]]:
    """Right conjugation in a FiniteGroup: row x holds x^g = g^-1 x g at g."""
    mult = group.mult
    return mult[mult[list(group.inv)].T, range(group.order)].tolist()
