"""The model layer: emitted quotients read back with the tables they were
written from, and plocality sections and locality settings that must be
refused."""

import re

import numpy as np
import pytest

from localities import cli
from localities.corpus import locality_s4
from localities.model import ModelError, emit_quotient, parse_model
from localities.normal import partial_normals
from localities.partial import check_axioms
from localities.quotient import build_quotient

import _frozen as frozen
import list_tables

FIXTURES = [
    ("s4f", frozen.S4_PN_ORDERS),
    ("c2s4f", frozen.C2XS4_PN_ORDERS),
    ("s5f", frozen.S5_PN_ORDERS),
]
# every partial normal subgroup of the three localities, 18 in all
KERNELS = [(name, i) for name, orders in FIXTURES for i in range(len(orders))]
KERNEL_IDS = [f"{name}-{orders[i]}-{i}" for name, orders in FIXTURES for i in range(len(orders))]


@pytest.mark.parametrize("fixture,index", KERNELS, ids=KERNEL_IDS)
def test_an_emitted_quotient_reads_back_with_its_tables(request, tmp_path, fixture, index):
    loc = request.getfixturevalue(fixture).loc
    bundle = build_quotient(loc, partial_normals(loc)[index].members)
    path = tmp_path / "q.model"
    path.write_text(emit_quotient(bundle, name="q"))
    back, qloc = parse_model(path).localities["q"], bundle.quotient
    assert list_tables.products(back.pg) == list_tables.products(qloc.pg)
    assert np.array_equal(back.pg.conj_table(), qloc.pg.conj_table())
    assert (back.sylow, back.delta.members) == (qloc.sylow, qloc.delta.members)


def test_a_partial_quotient_passes_the_state_searches(s5f):
    """LOC-S5 by its trivial kernel has a partial domain and no ambient
    group: check_axioms searches its tables for every word length."""
    qpg = build_quotient(s5f.loc, {s5f.loc.identity}).quotient.pg
    assert not qpg.domain_is_total
    report = check_axioms(qpg, 4)
    assert report.ok
    assert report.notes[0].startswith(
        "route: state searches over the automaton and raw product tables, every word length"
    )


def test_a_repeated_sylow_id_is_refused_naming_it(tmp_path):
    fix = locality_s4()
    text = emit_quotient(build_quotient(fix.loc, fix.subsets["V4"]), name="q")
    assert text.count(" : sylow 0 1 : ") == 1
    path = tmp_path / "q.model"
    path.write_text(text.replace(" : sylow 0 1 : ", " : sylow 0 0 1 : "))
    with pytest.raises(ModelError, match=r"^line \d+: sylow repeats id 0$"):
        parse_model(path)


S3 = "group s3 = (1 2 3), (1 2)\n"


@pytest.mark.parametrize("settings,message", [
    ("p=2 sylow=auto delta=min-order:1 bogus=7 whatever", "locality has unknown setting 'bogus=7'"),
    ("p=2 sylow=auto delta=min-order:1 whatever",
     "locality holds text outside its settings: 'whatever'"),
    ("p=2 p=3 sylow=auto delta=min-order:1", "locality repeats setting 'p=3'"),
], ids=["unknown-setting", "stray-text", "repeated-setting"])
def test_a_locality_line_refuses_text_outside_its_settings(tmp_path, capsys, settings, message):
    path = tmp_path / "l.model"
    path.write_text(S3 + f"locality L = s3 {settings}\n")
    with pytest.raises(ModelError, match="^line 2: " + re.escape(message) + "$"):
        parse_model(path)
    assert cli.main(["loc-check", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: line 2: {message}\n")


def test_a_space_after_a_seed_separator_keeps_the_next_seed(tmp_path):
    """delta=seeds: reads on past "; " to the next seed, as with no space."""
    spaced, tight = tmp_path / "spaced.model", tmp_path / "tight.model"
    spaced.write_text(S3 + "locality L = s3 p=2 sylow={(1 2)} delta=seeds:{(1 2)}; {}\n")
    tight.write_text(S3 + "locality L = s3 p=2 sylow={(1 2)} delta=seeds:{(1 2)};{}\n")
    loc, want = (parse_model(p).localities["L"] for p in (spaced, tight))
    assert len(want.delta.members) == 2
    assert loc.delta.members == want.delta.members
