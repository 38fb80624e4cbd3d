"""CLI exit codes and the emit/parse round trip of quotient localities."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from localities import cli, corpus, partial, quotient
from localities.locality import LocalityConstructionError, check_locality
from localities.model import parse_model
from localities.partial import SweepBudgetExceeded
from localities.quotient import QuotientConstructionError, build_quotient
from localities.report import VerificationReport

from fault_injection import CorruptedProducts


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

    monkeypatch.setattr(cli, "partial_normals", broken)
    assert cli.main(["normals", "--builtin", "GRP-S4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err


def test_a_locality_command_on_an_amalgam_says_what_it_needs(capsys):
    assert cli.main(["normals", "--builtin", "PG-AM20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: 'PG-AM20' is an amalgam; this command needs a locality"
    ]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["normals", "--model", "{tmp}/missing.model"], "No such file or directory"),
        (["normals", "--model", "{tmp}"], "Is a directory"),
        (["quotient", "--builtin", "GRP-S4", "--kernel", "V4",
          "--emit", "{tmp}/no/dir/x.model"], "No such file or directory"),
    ],
    ids=["missing-model", "model-is-a-directory", "emit-to-a-missing-directory"],
)
def test_a_file_that_cannot_be_read_or_written_exits_2_naming_it(tmp_path, capsys, argv, reason):
    argv = [a.format(tmp=tmp_path) for a in argv]
    path = next(a for a in argv if a.startswith(str(tmp_path)))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: {reason}"]


# PG-AM20 as model lines: C2xC4 glued to D16 along the Frattini subgroup
# of the abelian side and the center of the dihedral side
AMALGAM_MODEL = """\
group c2xc4 = (1 2), (3 4 5 6)
group d16 = (1 2 3 4 5 6 7 8), (2 8)(3 7)(4 6)
subset M = c2xc4 : (3 4 5 6)
subset N = c2xc4 : (1 2)(3 4 5 6)
amalgam am = c2xc4 & d16 : (1 2) ~ (2 8)(3 7)(4 6), (3 5)(4 6) ~ (1 5)(2 6)(3 7)(4 8), \
(1 2)(3 5)(4 6) ~ (1 5)(2 4)(6 8)
"""


def _amalgam_model(tmp_path, drop=None):
    path = tmp_path / "am.model"
    path.write_text("".join(line for line in AMALGAM_MODEL.splitlines(keepends=True)
                            if drop is None or not line.startswith(drop)))
    return str(path)


def _checks(capsys):
    return [(c["name"], c["status"]) for c in json.loads(capsys.readouterr().out)["checks"]]


def test_counterexample_on_a_model_amalgam_finds_what_the_builtin_finds(tmp_path, capsys):
    assert cli.main(["counterexample", "--format", "json"]) == 0
    builtin = _checks(capsys)
    assert cli.main(["counterexample", "--model", _amalgam_model(tmp_path), "--format", "json"]) == 0
    assert _checks(capsys) == builtin
    assert ("product-not-partial-normal (expected)", "pass") in builtin


def test_counterexample_on_a_locality_says_what_it_needs(capsys):
    assert cli.main(["counterexample", "--builtin", "GRP-S4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: 'GRP-S4' is a locality; this command needs an amalgam"
    ]


def test_counterexample_without_a_named_subset_exits_2(tmp_path, capsys):
    assert cli.main(["counterexample", "--model", _amalgam_model(tmp_path, "subset M")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: object 'am' has no subset 'M'; available: ['1', 'G1', 'G2', 'N']"
    ]


def test_loc_check_on_a_model_amalgam_exits_2(tmp_path, capsys):
    """Only the builtin amalgam states a locality candidate (S = G2)."""
    assert cli.main(["loc-check", "--model", _amalgam_model(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: amalgam 'am' states no locality candidate; only the builtin PG-AM20 does"
    ]
    assert cli.main(["loc-check", "--builtin", "PG-AM20"]) == 1
    assert cli.main(["pg-check", "--model", _amalgam_model(tmp_path)]) == 0


def _emit(tmp_path, capsys, builtin, kernel):
    path = tmp_path / "q.model"
    argv = ["quotient", "--builtin", builtin, "--kernel", kernel, "--emit", str(path)]
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


def test_pg_check_past_the_word_budget_passes_by_the_ambient_certificate(capsys):
    """The word budget bounds only the per-word DFS: LOC-S5 at length 6 is
    proved by its ambient-group certificate, which visits no word.  Past
    the budget the word count is not summed to the end, so it is stated
    as more than the budget, at any length."""
    assert sum(56**k for k in range(1, 7)) > partial.AXIOM_SWEEP_CAP
    for length in ("6", "2500", "99999999"):
        argv = ["pg-check", "--builtin", "LOC-S5", "--max-word-len", length, "--format", "json"]
        assert cli.main(argv) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["detail"] == (
            f"axiom sweep to length {length}: more than {partial.AXIOM_SWEEP_CAP} words, ok;"
            " route: ambient-group certificate (L is L_Delta(M) of its group M)"
        )


def test_pg_check_on_a_one_element_locality_counts_one_word_per_length(tmp_path, capsys):
    """A one-letter alphabet has one word of each length: 2499 words up to
    length 2500, and more than the budget at length 99999999, counted
    without a step per length."""
    path = tmp_path / "one.model"
    path.write_text("group t = trivial\nlocality one = t p=2 sylow=auto delta=min-order:1\n")
    for length, words in (("2500", "2499"), ("99999999", f"more than {partial.AXIOM_SWEEP_CAP}")):
        argv = ["pg-check", "--model", str(path), "--max-word-len", length, "--format", "json"]
        assert cli.main(argv) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["detail"].startswith(f"axiom sweep to length {length}: {words} words, ok;")


# A trivial S at a large prime: genuine localities, decided by Miller-Rabin
# and by x^p through repeated squaring, not by p - 1 multiplications.
LARGE_P = {
    "plocality-2^61-1": "plocality t = p 2305843009213693951 : size 1 : identity 0 : inv 0"
                        " : sylow 0 : delta { 0 } : conj (0 0 0) : prod (0 0 0)\n",
    "sylow-auto-10^9+7": "group t = table 0 1 / 1 0\n"
                         "locality l = t p=1000000007 sylow=auto delta=min-order:1\n",
}


@pytest.mark.parametrize("name", list(LARGE_P))
def test_a_large_prime_is_answered_within_a_second(tmp_path, capsys, name):
    path = tmp_path / "big.model"
    path.write_text(LARGE_P[name])
    start = time.perf_counter()
    assert cli.main(["loc-check", "--model", str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"


def test_a_prime_past_the_miller_rabin_bound_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "huge.model"
    path.write_text(LARGE_P["plocality-2^61-1"].replace("2305843009213693951", str(2**89 - 1)))
    assert cli.main(["loc-check", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: p = {2**89 - 1} is too large: primality is decided only below"
                   " 3317044064679887385961981\n")


def test_an_empty_sylow_set_is_reported_not_crashed_on(tmp_path, capsys):
    """A plocality whose S is empty: its threading states are rows of width
    0, one state, and loc-check reports S as no p-group."""
    path = tmp_path / "empty.model"
    path.write_text("plocality t = p 2 : size 1 : identity 0 : inv 0 : sylow : delta { }"
                    " : conj : prod (0 0 0)\n")
    assert cli.main(["loc-check", "--model", str(path), "--format", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["L1-sylow-maximal"]["witnesses"] == [["S-order-not-p-power", 0]]
    assert checks["L2-domain-iff-chain"]["detail"].endswith("(1 states)")


def test_the_per_word_dfs_over_the_word_budget_raises_before_visiting_a_word(s5f, monkeypatch):
    def no_visit(*args):
        raise AssertionError("a word was visited")

    monkeypatch.setattr(partial, "_word_violations", no_visit)
    pg = CorruptedProducts(s5f.loc.pg, {(1, 1): 24})
    with pytest.raises(SweepBudgetExceeded) as error:
        partial.check_axioms(pg, 6)
    assert str(error.value) == (
        f"axiom sweep to length 6 needs more words than the budget of {partial.AXIOM_SWEEP_CAP}"
    )


@pytest.mark.parametrize("length", ["1", "0", "-1"])
def test_pg_check_word_length_below_2_is_one_error_line(capsys, length):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["pg-check", "--builtin", "GRP-S4", "--max-word-len", length])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: argument --max-word-len: must be at least 2, got {length}\n"


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


def test_plocality_repeated_sylow_id_exits_2(tmp_path, capsys):
    path = _emit(tmp_path, capsys, "GRP-S4", "V4")
    text = path.read_text()
    assert text.count(" : sylow 0 1 : ") == 1
    path.write_text(text.replace(" : sylow 0 1 : ", " : sylow 0 0 1 : "))
    for command in ("pg-check", "loc-check", "normals"):
        assert cli.main([command, "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: line 2: sylow repeats id 0"]


OUT_OF_RANGE = [
    ("identity", "identity 0 :", "identity 9 :", 9),
    ("inv", "inv 0 1 :", "inv 0 7 :", 7),
    ("sylow", "sylow 0 1 :", "sylow 0 3 :", 3),
    ("delta", "{ 0 1 }", "{ 0 4 }", 4),
    ("conj", "(1 1 1)", "(1 1 8)", 8),
    ("prod", "(1 1 0)", "(1 1 5)", 5),
]


@pytest.mark.parametrize("field, old, new, bad", OUT_OF_RANGE, ids=[c[0] for c in OUT_OF_RANGE])
def test_plocality_out_of_range_id_exits_2(tmp_path, capsys, field, old, new, bad):
    path = _emit(tmp_path, capsys, "GRP-S4", "A4")
    text = path.read_text()
    assert " : size 2 : " in text and text.count(old) == 1
    path.write_text(text.replace(old, new))
    for command in ("pg-check", "loc-check", "normals"):
        assert cli.main([command, "--model", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: line 2: {field} holds id {bad}, outside 0..1"]


MALFORMED = [
    ("conj-pair", "(1 1 1)", "(1 1)", "conj entry (1 1) is not three integers"),
    ("conj-stray-text", "(1 1 1)", "(1 1 1) x", "conj holds text outside its entries"),
    ("prod-negative", "(1 1 0)", "(1 1 -1)", "prod holds id -1, outside 0..1"),
    ("delta-word", "{ 0 1 }", "{ 0 x }",
     "bad plocality numbers: invalid literal for int() with base 10: 'x'"),
    ("conj-against-prod", "(1 1 1)", "(1 1 0)",
     "conj entry (1 1 0) disagrees with prod, where (g^-1 s) g is 1"),
    ("conj-missing", " (1 1 1)", "",
     "conj has no entry for (1,1), whose conjugate 1 lies in sylow"),
    ("unknown-section", " : prod ", " : foo 1 : prod ", "plocality has unknown section 'foo'"),
    ("repeated-section", " : size 2 : ", " : size 2 : size 7 : ",
     "plocality repeats section 'size'"),
    ("size-0", " : size 2 : ", " : size 0 : ", "size must be at least 1"),
]


@pytest.mark.parametrize("old, new, message", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_plocality_malformed_entry_exits_2_naming_its_line(tmp_path, capsys, old, new, message):
    path = _emit(tmp_path, capsys, "GRP-S4", "A4")
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert cli.main(["loc-check", "--model", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: line 2: {message}"]


def test_quotient_over_the_state_budget_exits_2(monkeypatch, capsys):
    """The homomorphism check of GRP-S4 / V4 reaches 32 states."""
    monkeypatch.setattr(partial, "STATE_FIXPOINT_CAP", 31)
    assert cli.main(["quotient", "--builtin", "GRP-S4", "--kernel", "V4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: word-state search reached 32 states, over the budget of 31"
    ]


def test_quotient_over_the_automaton_budget_exits_2(s5f, monkeypatch, capsys):
    """The threading automaton of LOC-S5 / N5 reaches 10 states.  The CLI
    shares the fixture's LOC-S5, whose own automaton (15 states) is built
    already, and a first call keeps the kernel's coset partition; the
    second call builds the quotient again under a budget of 9, and its
    automaton is the first that meets it."""
    argv = ["quotient", "--builtin", "LOC-S5", "--kernel", "N5"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    quotient = build_quotient(s5f.loc, s5f.subsets["N5"]).quotient
    assert len(quotient.automaton.states) == 10
    monkeypatch.setattr(partial, "STATE_FIXPOINT_CAP", 9)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: threading automaton reached 10 states, over the budget of 9"
    ]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_object_is_another_name_for_locality(command):
    parser = cli.build_parser()
    args = parser.parse_args([command, "--object", "A"])
    assert args.locality == "A" and not hasattr(args, "object")
    assert parser.parse_args([command, "--locality", "A", "--object", "B"]).locality == "B"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_flags_are_taken_only_by_the_commands_that_read_them(command, capsys):
    parser = cli.build_parser()
    for flag, readers in [
        ("--max-word-len", {"pg-check", "loc-check"}),
        ("--seed", {"lemmas"}),
    ]:
        if command in readers:
            parser.parse_args([command, flag, "3"])
            continue
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args([command, flag, "3"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pg-check", "--bogus"], "unrecognized arguments: --bogus"),
        (["pg-check", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["unknown-flag", "bad-choice", "no-command"],
)
def test_a_bad_command_line_prints_one_error_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


def test_loc_check_ignores_the_word_length_flag(capsys):
    outputs = []
    for extra in ([], ["--max-word-len", "2"], ["--max-word-len", "7"]):
        assert cli.main(["loc-check", "--builtin", "PG-AM20", "--format", "json", *extra]) == 1
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]
    with pytest.raises(SystemExit):
        cli.main(["loc-check", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "ignored: loc-check covers words of every length" in help_text


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
    ["quotient", "--builtin", "GRP-S4", "--kernel", "V4"],
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


# BAD3: a total-domain candidate whose table has identity 0 and every element
# its own inverse, but 1*2 = 2 and 2*1 = 1, so it is not associative.  Its
# conj entries are s^g = (g s) g, read from the same table.
BAD3_MUL = [[0, 1, 2], [1, 0, 2], [2, 1, 0]]
BAD3 = (
    "plocality BAD3 = p 2 : size 3 : identity 0 : inv 0 1 2 : sylow 0 1 2 : delta { 0 1 2 }"
    " : conj " + " ".join(
        f"({s} {g} {BAD3_MUL[BAD3_MUL[g][s]][g]})" for s in range(3) for g in range(3)
    )
    + " : prod (0 0 0) (0 1 1) (0 2 2) (1 0 1) (1 1 0) (1 2 2) (2 0 2) (2 1 1) (2 2 0)\n"
)


def test_pg_check_on_a_total_domain_that_is_not_a_group_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad3.txt"
    path.write_text(BAD3)
    argv = ["pg-check", "--model", str(path), "--locality", "BAD3", "--max-word-len", "3"]
    assert cli.main(argv + ["--format", "json"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    pg = parse_model(path).localities["BAD3"].pg
    assert pg.domain_is_total
    assert partial.total_group_component(pg) is None
    words, expected = partial._dfs_axiom_sweep(pg, 3)
    assert (words, len(expected)) == (39, 16)
    assert expected[0] == partial.AxiomViolation("cancellation", (0, 1, 2), "pi(w^-1 ∘ w) != 1")
    # the searches find the collapse failures that the DFS's failing values
    # of w^-1 w follow from (reduction (V) of check_axioms), at every length
    report = partial.check_axioms(pg, 3)
    assert {v.axiom for v in expected} == {"collapse", "cancellation"}
    assert {v.axiom for v in report.violations} == {"collapse"}
    assert all(v in partial._word_violations(pg, v.word) for v in report.violations)
    assert check["detail"] == (
        "axiom sweep to length 3: 39 words, 38 violation(s); route: state searches over the"
        " automaton and raw product tables, every word length: split 9, collapse 33,"
        " cancellation 5 states"
    )
    assert check["witnesses"] == [[v.axiom, list(v.word), v.detail] for v in report.violations[:10]]
    argv[-1] = "2"
    assert cli.main(argv) == 1


def test_loc_check_on_a_total_domain_that_is_not_a_group_reports_a_failing_check(
    tmp_path, capsys
):
    path = tmp_path / "bad3.txt"
    path.write_text(BAD3)
    argv = ["loc-check", "--model", str(path), "--locality", "BAD3", "--format", "json"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    assert checks["S-is-a-group"]["status"] == "fail"
    assert checks["S-is-a-group"]["detail"] == (
        "table is not associative: (x 1) y != x (1 y) for some x, y"
    )
    assert checks["delta-well-formed"]["status"] == "skipped"
    assert checks["L3-overgroup-closure"]["status"] == "skipped"


# OPEN4: the cyclic group of order 4 with S = {0, 1}, which 1*1 = 2 leaves.
OPEN4 = (
    "plocality OPEN4 = p 2 : size 4 : identity 0 : inv 0 3 2 1 : sylow 0 1 : delta { 0 1 }"
    " : conj " + " ".join(f"({s} {g} {s})" for s in range(4) for g in range(4))
    + " : prod " + " ".join(f"({a} {b} {(a + b) % 4})" for a in range(4) for b in range(4))
    + "\n"
)


def test_loc_check_on_a_sylow_set_not_closed_under_products_reports_a_failing_check(
    tmp_path, capsys
):
    path = tmp_path / "open4.txt"
    path.write_text(OPEN4)
    argv = ["loc-check", "--model", str(path), "--locality", "OPEN4", "--format", "json"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    assert checks["S-is-a-group"]["status"] == "fail"
    assert checks["S-is-a-group"]["detail"] == "q1*q1 is undefined or not in the subset"
    assert checks["delta-well-formed"]["status"] == "skipped"


def test_no_command_imports_numpy_ma(tmp_path):
    """np.unique imports numpy.ma, about 15 ms per process; nothing on the
    fixture, quotient or lemma paths calls it."""
    script = """
import contextlib, io, sys
from localities import cli
runs = [["counterexample"], ["loc-check", "--builtin", "PG-AM20", "--max-word-len", "2"]]
for name, kernel in [("GRP-S4", "V4"), ("GRP-C2xS4", "A4"), ("LOC-S5", "N5")]:
    runs += [["normals", "--builtin", name], ["quotient", "--builtin", name, "--kernel", kernel],
             ["lemmas", "--builtin", name, "--kernel", kernel]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
print("numpy.ma" in sys.modules)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# what one main() call keeps for the next in the same process


def test_two_main_calls_build_the_parser_once(monkeypatch, capsys):
    """The first call builds the parser and its subparsers, one _Parser
    each; the second builds none."""
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()
    argv = ["normals", "--builtin", "GRP-S4", "--format", "json"]
    assert cli.main(argv) == 0
    assert len(built) == 1 + len(cli.COMMANDS)
    assert cli.main(argv) == 0
    assert len(built) == 1 + len(cli.COMMANDS)
    capsys.readouterr()


def test_a_flag_of_one_call_never_reaches_the_next(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["quotient", "--builtin", "GRP-S4", "--kernel", "V4", "--format", "json"]
    assert cli.main([*argv, "--emit", str(tmp_path / "q.model"), "--timings"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == [tmp_path / "q.model"]
    assert "emitted" in [c["name"] for c in first["checks"]]
    assert "emitted" not in [c["name"] for c in second["checks"]]
    assert all(c["timing_ms"] is not None for c in first["checks"])
    assert all(c["timing_ms"] is None for c in second["checks"])


def _fresh_builtin(monkeypatch, name, loader):
    """Serve the builtin `name` from one new fixture, built past the
    loader's lru_cache, for the rest of the test."""
    fixture = loader.__wrapped__()
    monkeypatch.setitem(corpus.BUILTIN_LOADERS, name, lambda: fixture)
    return fixture


def _counting_builds(monkeypatch) -> list:
    """The (locality, kernel) of every build_quotient call that
    verify_quotient_lemmas makes from now on."""
    builds = []
    build = quotient.build_quotient

    def counting(loc, K):
        builds.append((loc, K))
        return build(loc, K)

    monkeypatch.setattr(quotient, "build_quotient", counting)
    return builds


def test_lemmas_after_quotient_takes_the_bundle_quotient_verified(monkeypatch, capsys):
    lemmas = ["lemmas", "--builtin", "GRP-S4", "--kernel", "V4", "--format", "json"]
    _fresh_builtin(monkeypatch, "GRP-S4", corpus.locality_s4)
    assert cli.main(lemmas) == 0
    on_a_fresh_locality = capsys.readouterr().out
    _fresh_builtin(monkeypatch, "GRP-S4", corpus.locality_s4)
    assert cli.main(["quotient", "--builtin", "GRP-S4", "--kernel", "V4"]) == 0
    capsys.readouterr()
    builds = _counting_builds(monkeypatch)
    assert cli.main(lemmas) == 0
    assert builds == []
    assert capsys.readouterr().out == on_a_fresh_locality


def test_a_failing_build_is_not_kept_and_lemmas_fails_alike(monkeypatch, capsys):
    """check_locality of the quotient is made to fail: quotient and then
    lemmas on the same kernel each build, fail and print the build report."""
    fixture = _fresh_builtin(monkeypatch, "GRP-S4", corpus.locality_s4)
    monkeypatch.setattr(quotient, "check_locality", lambda loc: _failing_report("locality"))
    builds = _counting_builds(monkeypatch)
    for command, title in [("quotient", "quotient GRP-S4 / V4"), ("lemmas", "lemmas GRP-S4 / V4")]:
        assert cli.main([command, "--builtin", "GRP-S4", "--kernel", "V4", "--format", "json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["title"] == title
        assert [c["name"] for c in out["checks"] if c["status"] == "fail"] == ["quotient-partition"]
        assert fixture.subsets["V4"] not in quotient._BUNDLE_CACHE.get(fixture.loc, {})
    assert builds == [(fixture.loc, fixture.subsets["V4"])]
