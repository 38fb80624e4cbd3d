"""The lemma checks that verify_quotient_lemmas reads from tables, computed
element by element as the suite once computed them: each set built one pi,
mul2 or thread_subgroup call at a time, and each product folded with one
mul2 call per (walker state, value) pair and letter.

reference_checks(loc, K, bundle) gives {check name: (status, witnesses)}
for those checks: kernel-splitting (3), equal-image-lands-in-coset (4),
image-intersection (8), preimage-is-KR (9), normalizer-image (11, one
normalizer call per R on each side), same-image-same-station-maximal (13),
images-intersect-trivially (14) and product-preimage-splitting (15).
Check 8 is the identity bar(X) cap bar(H) = bar(X cap H) at every
singleton X = {x}, one set at a time.

reference_bijection(loc, K, bundle) is check 7 (oversubgroup-bijection)
as two enumerations, the partial subgroups of L above K and those of the
quotient, with one is_partial_normal call per set on each side;
bijection_agrees says whether the suite's record of check 7 agrees with it.

sampled_image_intersection(loc, K, seed, bundle) is check 8 as the suite
once ran it, on SAMPLES subsets X drawn by a seeded rng.
"""

import random

from localities.normal import is_partial_normal, partial_normals
from localities.quotient import coset_partition, partial_subgroups_containing

from subset_reference import EMPTY_WORD
import list_tables


def mul2_product(pg, factors):
    """{x1 ... xl : xi in factor i, the word in the domain}, merged by
    (walker state, value) and folded with one mul2 call per pair and
    letter."""
    start, walk = list_tables.walk(pg)
    frontier = {(start, EMPTY_WORD)}
    for xs in factors:
        frontier = {
            (nxt, v)
            for state, value in frontier
            for x in sorted(xs)
            if (nxt := walk(state, x)) is not None
            and (v := x if value is EMPTY_WORD else pg.mul2(value, x)) is not None
        }
    return frozenset(v for _, v in frontier)


def right_coset(pg, K, f):
    """Kf: the defined products k f, one mul2 call each."""
    return frozenset(v for k in K if (v := pg.mul2(k, f)) is not None)


def _result(bad, keep):
    return ("pass" if not bad else "fail", bad[:keep])


SAMPLES = 100


def _oversubgroups(loc, K):
    return [frozenset(loc.elements())] if len(K) == 1 else partial_subgroups_containing(loc.pg, K)


def sampled_image_intersection(loc, K, seed, bundle):
    """Every sampled X with bar(X) cap bar(H) != bar(X cap H) for some H, as
    (sorted X, sorted first such H)."""
    rho = bundle.rho
    rng = random.Random(seed)
    bad = []
    universe = list(loc.elements())
    bars = [(H, frozenset(rho[x] for x in H)) for H in _oversubgroups(loc, frozenset(K))]
    for _ in range(SAMPLES):
        size = rng.randint(1, loc.size)
        X = frozenset(rng.sample(universe, size))
        xbar = frozenset(rho[x] for x in X)
        for H, hbar in bars:
            if xbar & hbar != frozenset(rho[x] for x in X & H):
                bad.append((sorted(X), sorted(H)))
                break
    return bad


# the witness kinds of the premises the suite reads for check 7
PREMISES = ("rho-not-onto", "rho-of-kernel", "rho-of-inverse", "rho-of-product")


def reference_bijection(loc, K, bundle):
    """(status, witnesses) of check 7 from both enumerations: ("collision",
    H', H) for two partial subgroups with one image; ("image-not-closed",
    bar H) for each image, in order of first appearance, that the
    quotient's enumeration does not hold; ("not-an-image", P) for the first
    quotient partial subgroup that is no image; ("normality", H) for each
    image, by its last H, whose normality differs from that of H."""
    K = frozenset(K)
    qloc = bundle.quotient
    if len(K) == 1:
        return ("pass" if qloc.size == loc.size else "fail", [])
    rho = bundle.rho
    images, bad = {}, []
    for H in partial_subgroups_containing(loc.pg, K):
        img = frozenset(rho[x] for x in H)
        if img in images:
            bad.append(("collision", sorted(images[img]), sorted(H)))
        images[img] = H
    q_subs = partial_subgroups_containing(qloc.pg, frozenset({qloc.identity}))
    bad += [("image-not-closed", sorted(img)) for img in images if img not in q_subs]
    bad += [("not-an-image", sorted(P)) for P in q_subs if P not in images][:1]
    for img, H in images.items():
        if is_partial_normal(loc, H)[0] != is_partial_normal(qloc, img)[0]:
            bad.append(("normality", sorted(H)))
    return _result(bad, 3)


def bijection_agrees(check, expected):
    """Whether the suite's check 7 record agrees with reference_bijection's
    (status, witnesses): equal when every premise of the suite's proof
    holds, since the images then cover the quotient's partial subgroups
    and are among them exactly when closed; a failing record when one
    premise fails, whatever the enumerations give."""
    if any(w[0] in PREMISES for w in check.witnesses):
        return check.status == "fail"
    return (check.status, check.witnesses) == expected


def normalizer_image(loc, K, bundle):
    """Check 11: bar(N_S(R)) = N_(bar S)(bar R) for every R over T = K cap
    S, with one normalizer call per R on each side."""
    rho, qloc = bundle.rho, bundle.quotient
    T = frozenset(K) & loc.sylow_set
    bad = []
    for R in loc.s_subgroup_sets():
        if T <= R:
            ns_r = loc.normalizer(R) & loc.sylow_set
            q_ns = qloc.normalizer(frozenset(rho[r] for r in R)) & qloc.sylow_set
            if frozenset(rho[x] for x in ns_r) != q_ns:
                bad.append(sorted(R))
    return _result(bad, 3)


def reference_checks(loc, K, bundle):
    K = frozenset(K)
    part = coset_partition(loc, K)
    flags = part.up_max
    rho = bundle.rho
    qpg = bundle.quotient.pg
    pg = loc.pg
    max_elements = [f for f in loc.elements() if flags[f]]
    out = {}

    bad = []
    for x in sorted(K):
        for f in max_elements:
            v = pg.pi((x, f))
            if v is not None and loc.thread_subgroup((x, f)) != loc.thread_subgroup((v,)):
                bad.append((x, f))
    out["kernel-splitting"] = _result(bad, 5)

    bad = []
    for f in max_elements:
        Kf = right_coset(pg, K, f)
        if Kf != part.maximal[rho[f]].members:
            bad.append(("coset-mismatch", f))
        for g in loc.elements():
            if (rho[g] == rho[f]) != (g in Kf):
                bad.append((f, g))
    out["equal-image-lands-in-coset"] = _result(bad, 5)

    bad = []
    bars = [(H, frozenset(rho[x] for x in H)) for H in _oversubgroups(loc, K)]
    for x in loc.elements():
        X = frozenset({x})
        for H, hbar in bars:
            if frozenset(rho[y] for y in X) & hbar != frozenset(rho[y] for y in X & H):
                bad.append(([x], sorted(H)))
                break
    out["image-intersection"] = _result(bad, 2)

    bad = []
    for R in loc.s_subgroup_sets():
        rbar = frozenset(rho[r] for r in R)
        pre = frozenset(x for x in loc.elements() if rho[x] in rbar)
        if pre != mul2_product(pg, [K, R]):
            bad.append(sorted(R))
    out["preimage-is-KR"] = _result(bad, 3)

    out["normalizer-image"] = normalizer_image(loc, K, bundle)

    bad = []
    for f in max_elements:
        Sf = loc.thread_subgroup((f,))
        for g in part.maximal[rho[f]].members:
            if loc.thread_subgroup((g,)) != Sf:
                continue
            if not flags[g]:
                bad.append((f, g))
            elif right_coset(pg, K, g) != right_coset(pg, K, f):
                bad.append((f, g, "coset"))
    out["same-image-same-station-maximal"] = _result(bad, 5)

    pns = [h.members for h in partial_normals(loc)]
    pairs = [(M, N) for M in pns for N in pns if M & N == K]
    if not pairs:
        out["images-intersect-trivially"] = ("skipped", [])
        out["product-preimage-splitting"] = ("skipped", [])
        return out
    bad14, bad15 = [], []
    for M, N in pairs:
        mbar = frozenset(rho[x] for x in M)
        nbar = frozenset(rho[x] for x in N)
        if mbar & nbar != {qpg.identity}:
            bad14.append((len(M), len(N)))
        mnbar = mul2_product(qpg, [mbar, nbar])
        MN = mul2_product(pg, [M, N])
        for fx in loc.elements():
            if rho[fx] not in mnbar:
                continue
            if fx not in MN:
                bad15.append((len(M), len(N), fx, "not-in-MN"))
                continue
            Sf = loc.thread_subgroup((fx,))
            for m in sorted(M):
                n = pg.pi((pg.inverse(m), fx))
                if n is None or n not in N:
                    continue
                if pg.pi((m, n)) == fx and loc.thread_subgroup((m, n)) == Sf:
                    break
            else:
                bad15.append((len(M), len(N), fx, "no-witness"))
    out["images-intersect-trivially"] = _result(bad14, 3)
    out["product-preimage-splitting"] = _result(bad15, 3)
    return out
