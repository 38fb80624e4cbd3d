"""The (L3) check of check_locality as a per-pair loop: a reference.

Every image P^g of a Delta member is built as a frozenset by
loc.conjugate_set, and every subgroup Q of S over an image that lies in
S's lattice is tested for membership in Delta.  Witnesses come in the
order of check_locality: members in Delta order (sorted member lists),
then g, then Q in the iteration order of the lattice set.
"""

from localities.locality import Locality


def l3_reference(loc: Locality) -> tuple[bool, list[tuple]]:
    """(status, the first ten witnesses (sorted P, g, sorted Q))."""
    lattice = set(loc.s_subgroup_sets())
    delta_list = sorted(loc.delta.members, key=sorted)
    overs = {P: [Q for Q in lattice if P <= Q] for P in lattice}
    bad: list[tuple] = []
    for P in delta_list:
        for g in loc.elements():
            img = loc.conjugate_set(P, g)
            if img is None or not img <= loc.sylow_set:
                continue
            for Q in overs.get(img, ()):
                if Q not in loc.delta.members:
                    bad.append((sorted(P), g, sorted(Q)))
        if len(bad) > 10:
            break
    return not bad, bad[:10]
