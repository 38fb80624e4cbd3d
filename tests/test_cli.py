"""CLI exit codes and the emit/parse round trip of quotient localities."""

import json
import os
import re
import sys

import pytest

from localities import cli, partial
from localities.locality import LocalityConstructionError, check_locality
from localities.model import parse_model
from localities.partial import SweepBudgetExceeded
from localities.quotient import QuotientConstructionError, build_quotient
from localities.report import VerificationReport


def _failing_report(title: str) -> VerificationReport:
    rep = VerificationReport(title)
    rep.record("partition", False, [[1, 2]], "maximal cosets overlap")
    return rep


def test_exit_code_0_when_every_check_passes(capsys):
    assert cli.main(["normals", "--builtin", "GRP-S4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"


def test_exit_code_1_when_lemmas_cannot_build_the_quotient(monkeypatch, capsys):
    def broken(loc, K, seed):
        raise QuotientConstructionError(_failing_report("quotient"))

    monkeypatch.setattr(cli, "verify_quotient_lemmas", broken)
    argv = ["lemmas", "--builtin", "GRP-S4", "--kernel", "V4", "--format", "json"]
    assert cli.main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["title"] == "lemmas GRP-S4 / V4"
    assert out["overall"] == "fail"
    assert [c["name"] for c in out["checks"]] == ["partition"]


@pytest.mark.parametrize(
    "exc",
    [
        LocalityConstructionError(_failing_report("locality construction")),
        SweepBudgetExceeded("generic bounded-length subgroup sweep is too large"),
    ],
    ids=["construction", "sweep-budget"],
)
def test_exit_code_2_with_one_line_error(monkeypatch, capsys, exc):
    def broken(loc):
        raise exc

    monkeypatch.setattr(cli, "enumerate_partial_normals", broken)
    assert cli.main(["normals", "--builtin", "GRP-S4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err


def _emit(tmp_path, capsys, builtin, kernel):
    path = tmp_path / "q.model"
    argv = ["quotient", "--builtin", builtin, "--kernel", kernel, "--max-word-len", "3",
            "--emit", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return path


def test_emit_parse_round_trip(s5f, tmp_path, capsys):
    path = _emit(tmp_path, capsys, "LOC-S5", "N5")
    (loc,) = parse_model(path).localities.values()
    assert check_locality(loc).ok
    quotient = build_quotient(s5f.loc, s5f.subsets["N5"]).quotient
    expected = quotient.pg
    assert loc.size == expected.size == 24
    assert loc.pg.product_table() == expected.product_table()
    conj = path.read_text().partition(" : conj ")[2].partition(" : prod ")[0]
    want = {
        (s, g, v)
        for s in quotient.sylow
        for g in expected.elements()
        if (v := expected.pi((expected.inverse(g), s, g))) in quotient.sylow_set
    }
    got = {tuple(map(int, t)) for t in re.findall(r"\((\d+) (\d+) (\d+)\)", conj)}
    assert got == want


def test_pg_check_over_the_word_budget_exits_2_before_sweeping(monkeypatch, capsys):
    def no_sweep(*args):
        raise AssertionError("the sweep started")

    for kernel in ("_table_axiom_sweep", "_dfs_axiom_sweep", "_vector_axiom_sweep"):
        monkeypatch.setattr(partial, kernel, no_sweep)
    assert cli.main(["pg-check", "--builtin", "LOC-S5", "--max-word-len", "6"]) == 2
    words = sum(56**k for k in range(1, 7))
    assert capsys.readouterr().err.splitlines() == [
        f"error: axiom sweep to length 6 needs {words} words,"
        f" over the budget of {partial.AXIOM_SWEEP_CAP}"
    ]


def test_plocality_missing_product_entry_exits_2(tmp_path, capsys):
    path = _emit(tmp_path, capsys, "GRP-S4", "V4")
    lines = path.read_text().splitlines()
    lineno, line = next((i, l) for i, l in enumerate(lines, 1) if l.startswith("plocality"))
    head, _, prod = line.partition(" : prod ")
    dropped = prod.split(") (")[1]
    lines[lineno - 1] = head + " : prod " + prod.replace(f" ({dropped})", "", 1)
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["loc-check", "--model", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    a, b, _ = dropped.split()
    assert err == [f"error: line {lineno}: product table has no entry for ({a},{b})"]


def test_plocality_out_of_range_product_reads_as_missing(tmp_path, capsys):
    path = _emit(tmp_path, capsys, "GRP-S4", "V4")
    lines = path.read_text().splitlines()
    lineno, line = next((i, l) for i, l in enumerate(lines, 1) if l.startswith("plocality"))
    size = int(line.partition(" : size ")[2].split()[0])
    head, _, prod = line.partition(" : prod ")
    entry = prod.split(") (")[1]
    a, b, _ = entry.split()
    lines[lineno - 1] = head + " : prod " + prod.replace(f"({entry})", f"({a} {b} {size})", 1)
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["loc-check", "--model", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: line {lineno}: product table has no entry for ({a},{b})"]


class _ClosedPipe:
    """A stdout whose reader has gone away; its descriptor is a plain file."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv, code",
    [
        (["normals", "--builtin", "GRP-S4"], 0),
        (["loc-check", "--builtin", "PG-AM20", "--max-word-len", "3"], 1),
    ],
    ids=["pass", "finding"],
)
def test_closed_pipe_keeps_the_report_exit_code(monkeypatch, tmp_path, argv, code):
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert cli.main(argv) == code
        os.write(fd, b"flushed at exit")
    finally:
        os.close(fd)
    # the descriptor now points at devnull, so nothing reaches the file
    assert path.read_bytes() == b""


TIMED_COMMANDS = [
    ["pg-check", "--builtin", "GRP-S4", "--max-word-len", "3"],
    ["loc-check", "--builtin", "GRP-S4", "--max-word-len", "3"],
    ["quotient", "--builtin", "GRP-S4", "--kernel", "V4", "--max-word-len", "3"],
    ["lemmas", "--builtin", "GRP-S4", "--kernel", "A4"],
]


@pytest.mark.parametrize("argv", TIMED_COMMANDS, ids=[a[0] for a in TIMED_COMMANDS])
def test_timings_stamp_every_check(capsys, argv):
    assert cli.main(argv + ["--format", "json", "--timings"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks
    assert all(c["timing_ms"] is not None and c["timing_ms"] >= 0 for c in checks), checks
    assert cli.main(argv + ["--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert all(c["timing_ms"] is None for c in checks)
