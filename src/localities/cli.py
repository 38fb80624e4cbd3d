"""Command line interface: builds objects, runs checks, prints reports.

Exit codes: 0 every check passed, 1 at least one check failed (a finding),
2 bad input (unknown names, unparseable model, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import corpus as corpus_mod
from .groups import SizeCapExceeded
from .locality import Locality, LocalityConstructionError
from .model import ModelError, emit_quotient, parse_model
from .normal import partial_normals, product_theorem1, product_theorem2
from .partial import (
    PartialGroup, SweepBudgetExceeded, check_axioms, classify_subset, subset_product
)
from .quotient import QuotientConstructionError, build_quotient, verify_quotient_lemmas
from .report import VerificationReport


class InputError(ValueError):
    pass


@dataclass
class CatalogEntry:
    name: str
    kind: str  # "amalgam" | "locality"
    obj: object  # an AmalgamPartialGroup or a Locality
    subsets: dict[str, frozenset[int]]


def _a(kind: str) -> str:
    return f"an {kind}" if kind[0] in "aeiou" else f"a {kind}"


class Catalog:
    """Named objects from a builtin fixture or a parsed model file."""

    def __init__(self, entries: list[CatalogEntry]):
        self.entries = {e.name: e for e in entries}

    def pick(self, name: str | None, kind: str | None = None) -> CatalogEntry:
        pool = [
            e
            for e in self.entries.values()
            if kind is None or e.kind == kind
        ]
        if name is not None:
            got = self.entries.get(name)
            if got is None:
                raise InputError(
                    f"no object named {name!r}; available: {sorted(self.entries)}"
                )
            if kind is not None and got.kind != kind:
                raise InputError(f"{name!r} is {_a(got.kind)}; this command needs {_a(kind)}")
            return got
        if len(pool) == 1:
            return pool[0]
        if not pool and self.entries:
            kinds = ", ".join(f"{e.name!r} is {_a(e.kind)}" for e in self.entries.values())
            raise InputError(f"{kinds}; this command needs {_a(kind)}")
        raise InputError(
            f"select an object with --locality/--object; available: {sorted(e.name for e in pool)}"
        )

    def subset(self, entry: CatalogEntry, name: str) -> frozenset[int]:
        got = entry.subsets.get(name)
        if got is None:
            raise InputError(
                f"object {entry.name!r} has no subset {name!r}; "
                f"available: {sorted(entry.subsets)}"
            )
        return got


def _entry_from_builtin(name: str) -> CatalogEntry:
    fixture = corpus_mod.get_builtin(name)
    if isinstance(fixture, corpus_mod.AmalgamFixture):
        return CatalogEntry(fixture.name, "amalgam", fixture.pg, dict(fixture.subsets))
    return CatalogEntry(fixture.name, "locality", fixture.loc, dict(fixture.subsets))


def _catalog_from_model(path: str) -> Catalog:
    model = parse_model(path)
    entries: list[CatalogEntry] = []
    for name, pg in model.amalgams.items():
        subsets = {
            "1": frozenset({pg.identity}),
            "G1": frozenset(pg.from_left),
            "G2": frozenset(pg.from_right),
        }
        for sname, (owner, members) in model.subsets.items():
            if model.groups.get(owner) is pg.spec.left:
                subsets[sname] = frozenset(pg.from_left[x] for x in members)
            elif model.groups.get(owner) is pg.spec.right:
                subsets[sname] = frozenset(pg.from_right[x] for x in members)
        entries.append(CatalogEntry(name, "amalgam", pg, subsets))
    for name, loc in model.localities.items():
        subsets = {
            "1": frozenset({loc.identity}),
            "S": loc.sylow_set,
            "L": frozenset(loc.elements()),
        }
        to_local = getattr(loc, "to_local", None)
        ambient = getattr(loc, "ambient", None)
        if to_local is not None and ambient is not None:
            for sname, (owner, members) in model.subsets.items():
                if model.groups.get(owner) is ambient:
                    if all(g in to_local for g in members):
                        subsets[sname] = frozenset(to_local[g] for g in members)
        entries.append(CatalogEntry(name, "locality", loc, subsets))
    return Catalog(entries)


def load_catalog(args) -> Catalog:
    if args.model and args.builtin:
        raise InputError("--model and --builtin are mutually exclusive")
    if args.model:
        return _catalog_from_model(args.model)
    if args.builtin:
        try:
            return Catalog([_entry_from_builtin(args.builtin)])
        except KeyError as exc:
            raise InputError(str(exc))
    target = args.locality
    if target:
        try:
            return Catalog([_entry_from_builtin(target)])
        except KeyError:
            raise InputError(
                f"{target!r} is not a builtin; pass --model PATH or --builtin NAME"
            )
    raise InputError("pass --builtin NAME or --model PATH")


# ---------------------------------------------------------------------------
# commands


def _pg_of(entry: CatalogEntry) -> PartialGroup:
    return entry.obj if entry.kind == "amalgam" else entry.obj.pg


def cmd_pg_check(args, catalog: Catalog) -> VerificationReport:
    entry = catalog.pick(args.locality)
    pg = _pg_of(entry)
    rep = VerificationReport(f"pg-check {entry.name}")
    axioms = check_axioms(pg, max_len=args.max_word_len)
    rep.record(
        "axioms",
        axioms.ok,
        [(v.axiom, v.word, v.detail) for v in axioms.violations[:10]],
        "; ".join([axioms.summary(), *axioms.notes]),
    )
    return rep


def _as_locality(entry: CatalogEntry) -> Locality:
    """The locality itself, or the builtin amalgam's stated locality
    candidate; no other amalgam states one."""
    if entry.kind == "locality":
        return entry.obj
    builtin = corpus_mod.amalgam_counterexample()
    if entry.obj is not builtin.pg:
        raise InputError(f"amalgam {entry.name!r} states no locality candidate;"
                         f" only the builtin {builtin.name} does")
    return builtin.as_locality()


def cmd_loc_check(args, catalog: Catalog) -> VerificationReport:
    entry = catalog.pick(args.locality)
    rep = VerificationReport(f"loc-check {entry.name}")
    rep.extend(_as_locality(entry).report)
    return rep


def cmd_normals(args, catalog: Catalog) -> VerificationReport:
    entry = catalog.pick(args.locality, kind="locality")
    loc: Locality = entry.obj
    rep = VerificationReport(f"normals {entry.name}")
    handles = partial_normals(loc)
    listing = [
        {
            "order": len(h.members),
            "members": [loc.pg.labels[x] for x in sorted(h.members)],
        }
        for h in handles
    ]
    rep.record(
        "enumerate-partial-normals",
        True,
        listing,
        f"{len(handles)} partial normal subgroups",
    )
    return rep


def cmd_product(args, catalog: Catalog) -> VerificationReport:
    entry = catalog.pick(args.locality, kind="locality")
    loc: Locality = entry.obj
    names = [n.strip() for n in (args.ideals or "").split(",")]
    if len(names) < 2:
        raise InputError("--ideals needs at least two comma-separated subset names")
    if "" in names:
        raise InputError(f"--ideals has no subset name for factor {names.index('')}")
    factors = [catalog.subset(entry, n) for n in names]
    rep = VerificationReport(f"product {entry.name}: {' * '.join(names)}")
    cert = (product_theorem1(loc, *factors) if len(factors) == 2
            else product_theorem2(loc, factors))
    rep.extend(cert.report)
    return rep


def cmd_quotient(args, catalog: Catalog) -> VerificationReport:
    entry = catalog.pick(args.locality, kind="locality")
    loc: Locality = entry.obj
    if not args.kernel:
        raise InputError("--kernel NAME is required")
    K = catalog.subset(entry, args.kernel)
    rep = VerificationReport(f"quotient {entry.name} / {args.kernel}")
    try:
        bundle = build_quotient(loc, K)
    except QuotientConstructionError as exc:
        rep.extend(exc.report)
        return rep
    rep.extend(bundle.report)
    rep.record(
        "quotient-order",
        True,
        [],
        f"quotient locality has {bundle.quotient.size} elements",
    )
    if args.emit:
        Path(args.emit).write_text(emit_quotient(bundle, name=f"{entry.name}-mod-{args.kernel}"))
        rep.record("emitted", True, [], f"wrote {args.emit}")
    return rep


def cmd_lemmas(args, catalog: Catalog) -> VerificationReport:
    entry = catalog.pick(args.locality, kind="locality")
    loc: Locality = entry.obj
    if not args.kernel:
        raise InputError("--kernel NAME is required")
    K = catalog.subset(entry, args.kernel)
    try:
        rep = verify_quotient_lemmas(loc, K)
    except QuotientConstructionError as exc:
        rep = exc.report
    rep.title = f"lemmas {entry.name} / {args.kernel}"
    return rep


def cmd_counterexample(args, catalog: Catalog) -> VerificationReport:
    entry = catalog.pick(args.locality, kind="amalgam")
    pg = entry.obj
    rep = VerificationReport(f"counterexample {entry.name}")
    M, N, G1 = (catalog.subset(entry, name) for name in ("M", "N", "G1"))
    hm = classify_subset(pg, M)
    hn = classify_subset(pg, N)
    rep.record("m-partial-normal", hm.is_partial_normal, [],
               "first cyclic order-4 subgroup is conjugation-closed")
    rep.record("n-partial-normal", hn.is_partial_normal, [],
               "second cyclic order-4 subgroup is conjugation-closed")
    MN = subset_product(pg, [M, N])
    rep.record("product-is-left-group", MN == G1, [sorted(MN)],
               f"MN has {len(MN)} elements")
    hmn = classify_subset(pg, MN)
    witness = hmn.witness
    detail = "MN fails conjugation closure, as expected"
    if witness and witness[0] == "conjugation":
        x, f, img = witness[1], witness[2], witness[3]
        detail += f": {pg.labels[x]} ^ {pg.labels[f]} = {pg.labels[img]} outside MN"
    rep.record("product-not-partial-normal (expected)", not hmn.is_partial_normal,
               [witness] if witness else [], detail)
    return rep


COMMANDS = {
    "pg-check": cmd_pg_check,
    "loc-check": cmd_loc_check,
    "normals": cmd_normals,
    "product": cmd_product,
    "quotient": cmd_quotient,
    "lemmas": cmd_lemmas,
    "counterexample": cmd_counterexample,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports bad flags on one line,
    error: <message>, with exit code 2; subparsers are of this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _word_length(text: str) -> int:
    """--max-word-len: an int of at least 2, as check_axioms needs."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every
    later main() call in the process; each parse_args gives a new namespace."""
    parser = _Parser(
        prog="localities",
        description="verification engine for finite partial groups and localities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pg-check", "verify the partial group axioms for words of every length:"
                     " proved from the ambient group or by Light's test where they"
                     " apply, else decided by state searches over the tables; the"
                     " detail names the route"),
        ("loc-check", "print the locality's report on the locality axioms, made"
                      " once per locality and kept; --timings shows the times of"
                      " the run that made it"),
        ("normals", "enumerate partial normal subgroups"),
        ("product", "certify a product of 2 to 4 partial normal subgroups: record"
                    " that every factor order and every bracketing give the same"
                    " set, that it is partial normal, that its intersection with"
                    " S is the product of the factors' intersections, and a"
                    " witness word per element"),
        ("quotient", "build and verify a quotient locality"),
        ("lemmas", "run the quotient lemma suite for a kernel"),
        ("counterexample", "reproduce the amalgam where a product fails normality"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--builtin",
                       help=f"builtin object name ({', '.join(corpus_mod.builtin_names())})")
        p.add_argument("--model", help="path to a model file")
        p.add_argument("--locality", "--object", help="object name inside the source")
        if name == "pg-check":
            p.add_argument("--max-word-len", type=_word_length, default=4,
                           help="words up to this length are counted in the report;"
                                " no word is swept one at a time, at least 2 (default 4)")
        if name == "loc-check":
            p.add_argument("--max-word-len", type=int, default=4,
                           help="ignored: loc-check covers words of every length;"
                                " a later benchmark change drops the flag")
        if name == "lemmas":
            p.add_argument("--seed", type=int, default=0,
                           help="ignored: the suite samples nothing;"
                                " a later benchmark change drops the flag")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--timings", action="store_true", help="include timings in output")
        if name == "product":
            p.add_argument("--ideals", help="comma-separated subset names")
        if name in ("quotient", "lemmas"):
            p.add_argument("--kernel", help="subset name of the kernel")
        if name == "quotient":
            p.add_argument("--emit", help="write the quotient as a model file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "counterexample" and not (args.builtin or args.model or args.locality):
        args.builtin = "PG-AM20"
    try:
        catalog = load_catalog(args)
        report = COMMANDS[args.command](args, catalog)
    except (InputError, ModelError, SizeCapExceeded, ValueError,
            LocalityConstructionError, SweepBudgetExceeded) as exc:
        # a construction error carries its whole report: print its first line
        message = str(exc).partition("\n")[0]
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:  # a --model file not read, an --emit file not written
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = report.json(with_timings=args.timings)
    else:
        text = report.text(with_timings=args.timings)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`| head`).  Point stdout at devnull so
        # the interpreter's own flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
