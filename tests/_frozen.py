"""Expected values computed with the naive reference implementation
(tests/oracle.py) and frozen here before the main build."""

# subgroup lattice sizes
SUBGROUP_COUNTS = {"C2xC2": 5, "C2xC4": 8, "S4": 30, "D16": 19, "S5": 156}

# closure orders for generate_group examples
CLOSURE_ORDERS = {
    "empty": 1,
    "s3": 6,      # {(1 2), (1 2 3)}
    "d8": 8,      # {(1 2 3 4), (1 3)}
}

# landmarks
S4_NORMAL_ORDERS = [1, 4, 12, 24]

# the amalgam counterexample
AM20_SIZE = 20

# localities: element counts and partial normal subgroup orders
S4_LOC_SIZE = 24
S4_PN_ORDERS = [1, 4, 12, 24]
C2XS4_LOC_SIZE = 48
C2XS4_PN_ORDERS = [1, 2, 4, 8, 12, 24, 24, 24, 48]
S5_LOC_SIZE = 56
S5_PN_ORDERS = [1, 5, 20, 28, 56]

# maximal coset counts per kernel order (ordered as the enumerations above)
S4_MAX_COSET_COUNTS = {1: 24, 4: 6, 12: 2, 24: 1}
C2XS4_MAX_COSET_COUNTS = {1: 48, 2: 24, 4: 12, 8: 6, 12: 4, 24: 2, 48: 1}
S5_MAX_COSET_COUNTS = {1: 56, 5: 24, 20: 6, 28: 2, 56: 1}

# relative maximality on GRP-S4, elements in engine id order
S4_V4_UPMAX_FLAGS = "1" * 24
S4_A4_UPMAX_FLAGS = "110000110000000011000011"

# the genuinely partial corpus member: first excluded length-2 word,
# as permutations of the ambient group (image tuples, 0-based)
S5_FIRST_EXCLUDED = ((0, 1, 3, 2, 4), (1, 0, 2, 3, 4))
# an element with a threading subgroup of order 4 and that subgroup,
# as ambient ids of the S5 built from the canonical generators
S5_ORDER4_STATION_ELEMENT = (0, 1, 3, 2, 4)
S5_ORDER4_STATION = frozenset({0, 7, 16, 23})
