"""The benchmark's workloads: CLI operations and the answer each must give.

Every operation is one `localities` CLI call with `--format json`.  The
expected answers come from three places: the frozen values in
`tests/_frozen.py` (normal subgroup orders and maximal coset counts, read
and never re-derived), the word counts of an exhaustive sweep (fixed below,
with the formula that gives them), and the product orders of the certified
products (fixed below).
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

FROZEN_PATH = Path("tests") / "_frozen.py"

# Subcommand -> the group its time is reported under.
GROUP_OF = {
    "normals": "normals_product",
    "product": "normals_product",
    "quotient": "quotient",
    "lemmas": "lemmas",
    "pg-check": "pg_check",
    "loc-check": "loc_check",
    "counterexample": "counterexample",
}

# Checks that fail on the amalgam read as a locality candidate: the expected
# finding of `loc-check PG-AM20`.
AM20_LOC_FAILURES = frozenset(
    {"L2-domain-iff-chain", "threading-matches-domain", "L3-overgroup-closure"}
)


def load_frozen():
    """Import `tests/_frozen.py` by path, without running any test code."""
    spec = importlib.util.spec_from_file_location("_bench_frozen", FROZEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Op:
    """One CLI call and the answer it must give.

    `expect` pairs a check name with text its `detail` must contain;
    `orders` is the sorted list of normal subgroup orders a `normals` call
    must list; `failing` is the set of checks that must fail (empty for an
    operation that must pass with exit code 0).  With `emit_order` set the
    call also writes the quotient with `--emit`, and the file must parse
    back into a locality of that order that passes `check_locality`.
    """

    argv: tuple[str, ...]
    expect: tuple[tuple[str, str], ...] = ()
    orders: tuple[int, ...] | None = None
    failing: frozenset[str] = frozenset()
    emit_order: int | None = None

    @property
    def group(self) -> str:
        return GROUP_OF[self.argv[0]]

    @property
    def exit_code(self) -> int:
        return 1 if self.failing else 0


def check_report(op: Op, code: int, report: dict) -> list[str]:
    """Every way the CLI's answer differs from the expected one."""
    problems = []
    if code != op.exit_code:
        problems.append(f"exit code {code}, expected {op.exit_code}")
    overall = "fail" if op.failing else "pass"
    if report.get("overall") != overall:
        problems.append(f"overall {report.get('overall')!r}, expected {overall!r}")
    checks = {c["name"]: c for c in report.get("checks", [])}
    failed = {name for name, c in checks.items() if c["status"] == "fail"}
    if failed != op.failing:
        problems.append(f"failing checks {sorted(failed)}, expected {sorted(op.failing)}")
    for name, text in op.expect:
        detail = checks.get(name, {}).get("detail", "")
        if text not in detail:
            problems.append(f"check {name!r} says {detail!r}, expected {text!r}")
    if op.orders is not None:
        listing = checks.get("enumerate-partial-normals", {}).get("witnesses", [])
        got = sorted(entry["order"] for entry in listing)
        if got != list(op.orders):
            problems.append(f"normal subgroup orders {got}, expected {list(op.orders)}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    builtins: tuple[str, ...]
    ops: tuple[Op, ...]


def _normals(builtin: str, orders) -> Op:
    return Op(("normals", "--builtin", builtin), orders=tuple(orders))


def _product(builtin: str, ideals: str, order: int) -> Op:
    return Op(
        ("product", "--builtin", builtin, "--ideals", ideals),
        expect=(("product-order", f"product has {order} elements"),),
    )


def _quotient(builtin: str, kernel: str, order: int, emit: bool = False) -> Op:
    return Op(
        ("quotient", "--builtin", builtin, "--kernel", kernel),
        expect=(("quotient-order", f"quotient locality has {order} elements"),),
        emit_order=order if emit else None,
    )


def _lemmas(builtin: str, kernel: str, seed: int) -> Op:
    return Op(("lemmas", "--builtin", builtin, "--kernel", kernel, "--seed", str(seed)))


def _pg_check(builtin: str, length: int, words: int) -> Op:
    return Op(
        ("pg-check", "--builtin", builtin, "--max-word-len", str(length)),
        expect=(("axioms", f"{words} words, ok"),),
    )


def _loc_check(builtin: str, length: int, failing=frozenset()) -> Op:
    return Op(("loc-check", "--builtin", builtin, "--max-word-len", str(length)), failing=failing)


def build(name: str, seed: int, frozen) -> Workload:
    """The workload called `name`; the seed reaches the program only as `lemmas --seed`."""
    if name == "s5-partial":
        b = "LOC-S5"
        co = frozen.S5_MAX_COSET_COUNTS
        ops = (
            _normals(b, frozen.S5_PN_ORDERS),
            _product(b, "N5,N20", 20),
            _product(b, "N5,N28", 28),
            _product(b, "N20,N28", 28),
            _product(b, "N5,N20,N28", 28),
            _quotient(b, "N5", co[5], emit=True),
            _quotient(b, "N20", co[20]),
            _lemmas(b, "N5", seed),
        )
        return Workload(name, (b,), ops)
    if name == "c2xs4-total":
        b = "GRP-C2xS4"
        co = frozen.C2XS4_MAX_COSET_COUNTS
        kernels = (("V4", 4), ("A4", 12), ("S4twist", 24))
        ops = (
            _normals(b, frozen.C2XS4_PN_ORDERS),
            _product(b, "C2xV4,A4", 24),
            _product(b, "C2,S4twist", 48),
            _product(b, "C2,V4,A4", 24),
            _product(b, "C2,V4,A4,S4", 48),
            *(_quotient(b, k, co[n]) for k, n in kernels),
            # `lemmas V4` (a third of a pass) is left out to fit three passes in a run.
            *(_lemmas(b, k, seed) for k, _ in kernels[1:]),
        )
        return Workload(name, (b,), ops)
    if name == "axiom-sweep":
        # Word counts: a total component of m elements sweeps m^2 + ... + m^n
        # words (PG-AM20 has components of 8 and 16, GRP-C2xS4 one of 48);
        # the per-word sweep on LOC-S5 visits all 56 + 56^2 + 56^3 words.
        ops = (
            _pg_check("PG-AM20", 5, 1155904),
            _pg_check("GRP-C2xS4", 4, 5421312),
            _pg_check("LOC-S5", 3, 178808),
            _loc_check("PG-AM20", 4, failing=AM20_LOC_FAILURES),
            _loc_check("GRP-S4", 4),
            _loc_check("GRP-C2xS4", 3),
            _loc_check("LOC-S5", 4),
            Op(("counterexample",), expect=(("product-is-left-group", "MN has 8 elements"),)),
        )
        return Workload(name, ("PG-AM20", "GRP-S4", "GRP-C2xS4", "LOC-S5"), ops)
    raise KeyError(f"unknown workload {name!r}; available: {', '.join(NAMES)}")


# Seconds that one full pass and one set-up-only pass of each workload take
# on the machine the benchmark was defined on (2 vCPUs, Python 3.11, at
# 8816268).  `run.py` fixes the number of passes from these and `--seconds`,
# never from the speed it measures.
PASS_S = {"s5-partial": (12.5, 2.6), "c2xs4-total": (5.5, 0.7), "axiom-sweep": (13.0, 2.8)}
NAMES = tuple(PASS_S)
