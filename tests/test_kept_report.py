"""Each locality keeps check_locality's report: the builder that verifies
it and every later loc-check read that one report, so a locality is
checked once, and the report is never shared or changed."""

import functools
import json
import sys
from dataclasses import asdict

import pytest

from localities import cli, corpus, locality
from localities.locality import LocalityConstructionError, locality_from_group
from localities.model import emit_quotient
from localities.quotient import build_quotient
from localities.report import VerificationReport


def _counting_checks(monkeypatch) -> list:
    """Every locality that check_locality is called on from now on: the
    function is rebound in localities.locality and in every other
    localities module that imported it by name."""
    calls = []
    check = locality.check_locality

    def counting(loc):
        calls.append(loc)
        return check(loc)

    for name, module in list(sys.modules.items()):
        if name.startswith("localities") and getattr(module, "check_locality", None) is check:
            monkeypatch.setattr(module, "check_locality", counting)
    return calls


@pytest.mark.parametrize("name,loader", [
    ("GRP-S4", corpus.locality_s4),
    ("GRP-C2xS4", corpus.locality_c2xs4),
    ("LOC-S5", corpus.locality_s5),
])
def test_a_fresh_loc_check_on_a_group_built_builtin_checks_once(monkeypatch, capsys, name, loader):
    """The builtin is built inside the call, past the loader's cache."""
    calls = _counting_checks(monkeypatch)
    monkeypatch.setitem(corpus.BUILTIN_LOADERS, name, loader.__wrapped__)
    assert cli.main(["loc-check", "--builtin", name, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"
    assert len(calls) == 1


def test_three_loc_checks_on_the_builtin_amalgam_check_its_candidate_once(monkeypatch, capsys):
    """PG-AM20 states one locality candidate and keeps it, so its report is
    made once; the amalgam is built inside the test, past the loader's cache."""
    fresh = functools.cache(corpus.amalgam_counterexample.__wrapped__)
    monkeypatch.setattr(corpus, "amalgam_counterexample", fresh)
    monkeypatch.setitem(corpus.BUILTIN_LOADERS, "PG-AM20", fresh)
    calls = _counting_checks(monkeypatch)
    for _ in range(3):
        assert cli.main(["loc-check", "--builtin", "PG-AM20", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["overall"] == "fail"
    assert calls == [fresh().as_locality()]


def test_a_fresh_loc_check_on_a_locality_line_checks_once(monkeypatch, capsys, tmp_path):
    path = tmp_path / "l.model"
    path.write_text("group s4 = (1 2 3 4), (1 2)\nlocality L = s4 p=2 sylow=auto delta=min-order:4\n")
    calls = _counting_checks(monkeypatch)
    assert cli.main(["loc-check", "--model", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_a_fresh_loc_check_on_a_plocality_line_checks_once(monkeypatch, capsys, tmp_path, s4f):
    """The parser builds a plocality unchecked; loc-check makes its report."""
    path = tmp_path / "q.model"
    path.write_text(emit_quotient(build_quotient(s4f.loc, s4f.subsets["V4"]), name="q"))
    calls = _counting_checks(monkeypatch)
    assert cli.main(["loc-check", "--model", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_two_localities_from_one_group_and_delta_keep_their_own_reports(monkeypatch, s4f):
    M = s4f.group
    delta = s4f.loc.delta.translate(dict(enumerate(s4f.loc.to_ambient)))
    calls = _counting_checks(monkeypatch)
    a, b = locality_from_group(M, 2, delta), locality_from_group(M, 2, delta)
    assert calls == [a, b]
    assert a.report is not b.report
    assert a.report.ok and b.report.ok
    a.report, b.report  # read again, not run again
    assert calls == [a, b]


def test_a_failing_candidate_report_never_reaches_a_passing_locality(monkeypatch, s4f):
    """The first build from (M, Delta) is made to fail its check; the next
    build from the same (M, Delta) makes and keeps a passing report."""
    M = s4f.group
    delta = s4f.loc.delta.translate(dict(enumerate(s4f.loc.to_ambient)))
    failing = VerificationReport("locality axioms")
    failing.record("L1-sylow-maximal", False, [], "made to fail")
    check = locality.check_locality
    monkeypatch.setattr(locality, "check_locality", lambda loc: failing)
    with pytest.raises(LocalityConstructionError) as err:
        locality_from_group(M, 2, delta)
    assert err.value.report is failing
    monkeypatch.setattr(locality, "check_locality", check)
    loc = locality_from_group(M, 2, delta)
    assert loc.report is not failing
    assert loc.report.ok and not failing.ok


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_loc_check_title_and_timings_leave_the_kept_report_as_it_was(capsys, s5f, fmt):
    """loc-check prints the kept checks under its own title; with
    --timings they carry the times of the run that made the report."""
    kept = s5f.loc.report
    before = (kept.title, [asdict(c) for c in kept.checks])
    argv = ["loc-check", "--builtin", "LOC-S5", "--format", fmt, "--timings"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert (kept.title, [asdict(c) for c in kept.checks]) == before
    assert kept.title == "locality axioms"
    if fmt == "json":
        printed = json.loads(out)
        assert printed["title"] == "loc-check LOC-S5"
        assert [c["timing_ms"] for c in printed["checks"]] == [
            round(c.timing_ms, 3) for c in kept.checks
        ]
    else:
        assert out.splitlines()[0] == "== loc-check LOC-S5: pass =="
        lines = [line for line in out.splitlines() if line.startswith("  [")]
        assert len(lines) == len(kept.checks)
        for line, c in zip(lines, kept.checks):
            assert line.endswith(f" ({c.timing_ms:.1f} ms)")
