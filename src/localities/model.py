"""Text model files: named groups, amalgams, and localities, one per line.

Grammar (permutation cycles use 1-based points, `()` is the identity):

    # comment
    group g1 = (1 2), (3 4 5 6)
    group t  = table 0 1 / 1 0
    subset v = g1 : (3 5)(4 6)
    amalgam L = g1 & g2 : (1 2) ~ (1 8)(2 7), (3 5)(4 6) ~ (1 5)(2 6)(3 7)(4 8)
    locality loc = g1 p=2 sylow=auto delta=min-order:8
    locality loc2 = g1 p=2 sylow={(1 2)} delta=seeds:{(1 2)(3 4)};{(1 3)(2 4)}
    plocality q = p 2 : size 2 : identity 0 : inv 0 1 : sylow 0 1 : \
        delta { 0 1 } : conj (0 0 0) ... : prod (0 0 0) ...

plocality lines hold explicitly tabulated localities (as written by --emit):
binary products on domain pairs, the conjugation table on S, and Delta.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .groups import FiniteGroup, SubgroupRef, closure_members, pad_perm, sylow_p
from .locality import (
    DeltaFamily, Locality, LocalityPartialGroup, _positions, delta_close, delta_min_order,
    locality_from_group,
)
from .partial import AmalgamPartialGroup, AmalgamSpec, AmalgamSpecError, build_amalgam
from .quotient import QuotientBundle


class ModelError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str) -> tuple[int, ...]:
    """Parse cycle notation like '(1 2 3)(4 5)' into a 0-based image tuple."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    consumed = "".join(_CYCLE_RE.findall(text))
    if text.replace(" ", "") != "".join(
        "(" + c.replace(" ", "") + ")" for c in _CYCLE_RE.findall(text)
    ):
        raise ValueError(f"malformed cycle notation: {text!r}")
    points: list[list[int]] = []
    for body in _CYCLE_RE.findall(text):
        body = body.strip()
        if not body:
            continue
        cyc = [int(tok) for tok in body.split()]
        if any(p < 1 for p in cyc):
            raise ValueError("cycle points are 1-based positive integers")
        points.append([p - 1 for p in cyc])
    degree = max((p for cyc in points for p in cyc), default=-1) + 1
    image = list(range(degree))
    seen: set[int] = set()
    for cyc in points:
        for p in cyc:
            if p in seen:
                raise ValueError(f"point {p + 1} repeated in {text!r}")
            seen.add(p)
        for i, p in enumerate(cyc):
            image[p] = cyc[(i + 1) % len(cyc)]
    return tuple(image)


def perm_list(text: str) -> list[tuple[int, ...]]:
    parts = [p.strip() for p in text.split(",")]
    return [parse_perm(p) for p in parts if p]


@dataclass
class ModelFile:
    path: str
    groups: dict[str, FiniteGroup] = field(default_factory=dict)
    subsets: dict[str, tuple[str, frozenset[int]]] = field(default_factory=dict)
    amalgams: dict[str, AmalgamPartialGroup] = field(default_factory=dict)
    localities: dict[str, Locality] = field(default_factory=dict)

    def names(self) -> set[str]:
        return (
            set(self.groups) | set(self.subsets) | set(self.amalgams) | set(self.localities)
        )


def _group_elem(G: FiniteGroup, perm: tuple[int, ...], line: int) -> int:
    degree = len(G.perms[0]) if G.perms else 0
    try:
        return G.index_of_perm(pad_perm(perm, degree))
    except (KeyError, ValueError) as exc:
        raise ModelError(f"permutation is not an element of the group: {exc}", line)


def _generated(G: FiniteGroup, text: str, line: int) -> frozenset[int]:
    """The members of the subgroup of G generated by the comma-separated
    permutations in text."""
    try:
        perms = perm_list(text)
    except ValueError as exc:
        raise ModelError(str(exc), line)
    return closure_members(G, [_group_elem(G, g, line) for g in perms])


def _parse_group(body: str, line: int) -> FiniteGroup:
    from .groups import generate_group

    body = body.strip()
    if body.startswith("table"):
        rows = [r.strip() for r in body[len("table"):].split("/")]
        try:
            table = [[int(tok) for tok in row.split()] for row in rows if row]
            return FiniteGroup(table)
        except ValueError as exc:
            raise ModelError(f"bad multiplication table: {exc}", line)
    if body == "trivial":
        return generate_group([])
    try:
        return generate_group(perm_list(body))
    except ValueError as exc:
        raise ModelError(f"bad group definition: {exc}", line)


def _parse_amalgam(model: ModelFile, body: str, line: int) -> AmalgamPartialGroup:
    head, _, pairs_text = body.partition(":")
    left_name, _, right_name = head.partition("&")
    left_name, right_name = left_name.strip(), right_name.strip()
    for name in (left_name, right_name):
        if name not in model.groups:
            raise ModelError(f"amalgam references undefined group {name!r}", line)
    left = model.groups[left_name]
    right = model.groups[right_name]
    pairing: dict[int, int] = {left.identity: right.identity}
    for pair in pairs_text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        lp, _, rp = pair.partition("~")
        try:
            li = _group_elem(left, parse_perm(lp), line)
            ri = _group_elem(right, parse_perm(rp), line)
        except ValueError as exc:
            raise ModelError(str(exc), line)
        pairing[li] = ri
    try:
        return build_amalgam(AmalgamSpec(left, right, pairing))
    except AmalgamSpecError as exc:
        raise ModelError(f"identification is not an isomorphism: {exc}", line)


# One whitespace-separated piece of a locality line after the group name:
# a setting key=value, or stray text.  A value runs to the first space
# outside braces, except that a space after a ";" before the next "{" stays
# inside it, so "seeds:{(1 2)}; {}" is two seeds.
_SETTING_RE = re.compile(r"\s*(?:(\w+)=((?:\{[^}]*\}|;\s*(?=\{)|\S)+)|(\S+))")


def _parse_locality(model: ModelFile, body: str, line: int) -> Locality:
    tokens = body.split()
    if not tokens:
        raise ModelError("locality needs a group name", line)
    gname = tokens[0]
    if gname not in model.groups:
        raise ModelError(f"locality references undefined group {gname!r}", line)
    M = model.groups[gname]
    fields: dict[str, str] = {}
    for setting in _SETTING_RE.finditer(body, len(gname)):
        key, value, stray = setting.groups()
        if stray is not None:
            raise ModelError(f"locality holds text outside its settings: {stray!r}", line)
        if key not in {"p", "sylow", "delta"}:
            raise ModelError(f"locality has unknown setting {setting.group().strip()!r}", line)
        if key in fields:
            raise ModelError(f"locality repeats setting {setting.group().strip()!r}", line)
        fields[key] = value
    if set(fields) != {"p", "sylow", "delta"}:
        raise ModelError("locality needs p=, sylow=, delta= settings", line)
    try:
        p = int(fields["p"])
    except ValueError:
        raise ModelError(f"bad prime {fields['p']!r}", line)
    if fields["sylow"] == "auto":
        S = sylow_p(M, p)
    else:
        S = SubgroupRef(M, _generated(M, fields["sylow"].strip("{}"), line))
    dspec = fields["delta"]
    if dspec.startswith("min-order:"):
        try:
            floor = int(dspec.split(":", 1)[1])
        except ValueError:
            raise ModelError(f"bad min-order in {dspec!r}", line)
        delta = delta_min_order(S, floor)
    elif dspec.startswith("seeds:"):
        seeds = []
        for k, chunk in enumerate(dspec[len("seeds:"):].split(";"), start=1):
            if not chunk.strip():  # {} is the trivial subgroup; nothing is no seed
                raise ModelError(f"delta=seeds: seed {k} is empty; write {{}} for the"
                                 " trivial subgroup", line)
            seeds.append(SubgroupRef(M, _generated(M, chunk.strip().strip("{}"), line)))
        delta = delta_close(S, seeds, M)
    else:
        raise ModelError(f"delta must be min-order:N or seeds:{{...}}, got {dspec!r}", line)
    return locality_from_group(M, p, delta)


_BRACE_RE = re.compile(r"\{([^}]*)\}")


def _entries(section: str, text: str, pattern: re.Pattern, line: int) -> list[str]:
    """The bodies of a section's bracketed entries; any text outside them
    is an error."""
    if pattern.sub(" ", text).strip():
        raise ModelError(f"{section} holds text outside its entries", line)
    return pattern.findall(text)


def _triples(section: str, text: str, line: int) -> list[tuple[int, ...]]:
    """The (a b c) entries of a conj or prod section."""
    triples = []
    for body in _entries(section, text, _CYCLE_RE, line):
        try:
            triple = tuple(int(t) for t in body.split())
        except ValueError:
            triple = ()
        if len(triple) != 3:
            raise ModelError(f"{section} entry ({body.strip()}) is not three integers", line)
        triples.append(triple)
    return triples


def _parse_plocality(body: str, line: int) -> Locality:
    needed = {"p", "size", "identity", "inv", "sylow", "delta", "conj", "prod"}
    sections: dict[str, str] = {}
    for chunk in body.split(" : "):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, rest = chunk.partition(" ")
        if key not in needed:
            raise ModelError(f"plocality has unknown section {key!r}", line)
        if key in sections:
            raise ModelError(f"plocality repeats section {key!r}", line)
        sections[key] = rest.strip()
    missing = needed - set(sections)
    if missing:
        raise ModelError(f"plocality missing sections: {sorted(missing)}", line)
    try:
        p = int(sections["p"])
        size = int(sections["size"])
        identity = int(sections["identity"])
        inv = tuple(int(t) for t in sections["inv"].split())
        sylow = tuple(sorted(int(t) for t in sections["sylow"].split()))
        delta_lists = [
            [int(t) for t in body.split()]
            for body in _entries("delta", sections["delta"], _BRACE_RE, line)
        ]
    except ValueError as exc:
        raise ModelError(f"bad plocality numbers: {exc}", line)
    if size < 1:
        raise ModelError("size must be at least 1", line)
    if len(inv) != size:
        raise ModelError("inv length does not match size", line)
    delta_members = frozenset(frozenset(P) for P in delta_lists)
    conj_triples = _triples("conj", sections["conj"], line)
    prod_triples = _triples("prod", sections["prod"], line)
    for section, ids in [
        ("identity", [identity]),
        ("inv", inv),
        ("sylow", sylow),
        ("delta", [x for P in delta_lists for x in P]),
        ("conj", [x for t in conj_triples for x in t]),
        ("prod", [x for t in prod_triples for x in t]),
    ]:
        bad = next((x for x in ids if not 0 <= x < size), None)
        if bad is not None:
            raise ModelError(f"{section} holds id {bad}, outside 0..{size - 1}", line)
    repeated = next((a for a, b in zip(sylow, sylow[1:]) if a == b), None)
    if repeated is not None:
        raise ModelError(f"sylow repeats id {repeated}", line)
    raw = np.full((size, size), -1, dtype=np.int64)
    for a, b, v in prod_triples:  # a repeated entry: the last one holds
        raw[a, b] = v

    def no_entry(a: int, b: int) -> ModelError:
        return ModelError(f"product table has no entry for ({a},{b})", line)

    # Each conj entry must be s^g = (g^-1 s) g.  An entry means (g^-1, s, g)
    # is a domain word, so both products must exist.
    for s, g, v in conj_triples:
        h = raw.item(inv[g], s)
        if h < 0:
            raise no_entry(inv[g], s)
        if (w := raw.item(h, g)) < 0:
            raise no_entry(h, g)
        if w != v:
            raise ModelError(
                f"conj entry ({s} {g} {v}) disagrees with prod, where (g^-1 s) g is {w}", line
            )
    # maps[g, i]: the position in S of s_i^g from the conj entries, -1 where
    # there is none or it leaves S.  An entry agrees with prod, so an s^g in
    # S that prod gives (w[g, i], -1 if none) has an entry iff maps holds it.
    triples = np.array(conj_triples, dtype=np.int64).reshape(-1, 3)
    conj = np.full((size, size), -1, dtype=np.int64)
    conj[triples[:, 1], triples[:, 0]] = _positions(sylow, size)[triples[:, 2]]
    maps = conj[:, list(sylow)]
    h = raw[np.array(inv)[:, None], list(sylow)]
    w = np.where(h >= 0, raw[h, np.arange(size)[:, None]], -1)
    unlisted = np.argwhere(((maps < 0) & np.isin(w, sylow)).T)  # (i, g), i first
    if len(unlisted):
        i, g = unlisted[0].tolist()
        raise ModelError(f"conj has no entry for ({sylow[i]},{g}), whose conjugate"
                         f" {w[g, i]} lies in sylow", line)
    # Every partial group's domain holds (e, x), (x, e), (x^-1, x) and
    # (x, x^-1), with the products x, x, e and e: one gather per pair.
    x = np.arange(size)
    pairs = [(identity, x, x), (x, identity, x), (np.array(inv), x, identity),
             (x, np.array(inv), identity)]
    wrong = np.argwhere(np.column_stack([raw[a, b] != v for a, b, v in pairs]))
    if len(wrong):
        at, k = wrong[0].tolist()
        a, b, v = (int(np.broadcast_to(t, size)[at]) for t in pairs[k])
        has = "no entry" if raw[a, b] < 0 else f"({a} {b} {raw[a, b]})"
        raise ModelError(f"prod has {has} where x = {at} needs ({a} {b} {v}):"
                         " e x = x e = x and x^-1 x = x x^-1 = e", line)

    pg = LocalityPartialGroup(
        size=size,
        identity=identity,
        inv=inv,
        labels=tuple(f"q{i}" for i in range(size)),
        raw=raw,
        raw_missing=no_entry,
        p=p,
        s_elems=sylow,
        delta_sets=delta_members,
        conj_maps=maps,
    )
    delta = DeltaFamily(sylow=frozenset(sylow), members=delta_members)
    return Locality(pg, p, sylow, delta)


def parse_model(path: str | Path) -> ModelFile:
    """Parse and resolve a model file; the first error wins, with its line."""
    path = Path(path)
    model = ModelFile(path=str(path))
    text = path.read_text()
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        kind, _, rest = stripped.partition(" ")
        name, eq, body = rest.partition("=")
        name = name.strip()
        if kind not in {"group", "subset", "amalgam", "locality", "plocality"}:
            raise ModelError(f"unknown section {kind!r}", lineno)
        if not eq or not name:
            raise ModelError(f"expected '{kind} NAME = ...'", lineno)
        if name in model.names():
            raise ModelError(f"duplicate name {name!r}", lineno)
        body = body.strip()
        count += 1
        if kind == "group":
            model.groups[name] = _parse_group(body, lineno)
        elif kind == "subset":
            owner, _, perms = body.partition(":")
            owner = owner.strip()
            if owner not in model.groups:
                raise ModelError(f"subset references undefined group {owner!r}", lineno)
            model.subsets[name] = (owner, _generated(model.groups[owner], perms, lineno))
        elif kind == "amalgam":
            model.amalgams[name] = _parse_amalgam(model, body, lineno)
        elif kind == "locality":
            model.localities[name] = _parse_locality(model, body, lineno)
        elif kind == "plocality":
            model.localities[name] = _parse_plocality(body, lineno)
    if count == 0:
        raise ModelError("no objects defined in model file")
    return model


# ---------------------------------------------------------------------------
# emitting quotients


def _emitted(ids: np.ndarray, table: np.ndarray, keep: np.ndarray) -> str:
    """"(a b v)" for each entry v of table where keep holds, row-major,
    with a = ids[row] and b its column."""
    r, c = np.nonzero(keep)
    return " ".join(f"({a} {b} {v})" for a, b, v in zip(ids[r].tolist(), c.tolist(),
                                                         table[r, c].tolist()))


def emit_quotient(bundle: QuotientBundle, name: str = "quotient") -> str:
    """Serialize a quotient locality as a parseable plocality line, its
    conj and prod entries read row-major from pg.conj_table() and
    pg.padded_products()."""
    loc = bundle.quotient
    pg = loc.pg
    parts = [
        f"p {loc.p}",
        f"size {pg.size}",
        f"identity {pg.identity}",
        "inv " + " ".join(str(pg.inverse(x)) for x in pg.elements()),
        "sylow " + " ".join(str(s) for s in loc.sylow),
        "delta " + " ".join(
            "{ " + " ".join(str(x) for x in sorted(P)) + " }"
            for P in sorted(loc.delta.members, key=sorted)
        ),
    ]
    n, sylow = pg.size, np.array(loc.sylow)
    in_s = np.zeros(n + 1, dtype=bool)  # -1, the last entry, is outside S
    in_s[sylow] = True
    conj, table = pg.conj_table()[sylow, :n], pg.padded_products()[:n, :n]
    parts.append("conj " + _emitted(sylow, conj, in_s[conj]))
    parts.append("prod " + _emitted(np.arange(n), table, table >= 0))
    body = " : ".join(parts)
    lines = [
        "# quotient locality emitted as an explicit table",
        f"plocality {name} = {body}",
        "",
    ]
    return "\n".join(lines)
