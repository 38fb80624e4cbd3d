"""The model layer's parser on plocality sections that must be refused."""

import pytest

from localities.corpus import locality_s4
from localities.model import ModelError, emit_quotient, parse_model
from localities.quotient import build_quotient


def test_a_repeated_sylow_id_is_refused_naming_it(tmp_path):
    fix = locality_s4()
    text = emit_quotient(build_quotient(fix.loc, fix.subsets["V4"]), name="q")
    assert text.count(" : sylow 0 1 : ") == 1
    path = tmp_path / "q.model"
    path.write_text(text.replace(" : sylow 0 1 : ", " : sylow 0 0 1 : "))
    with pytest.raises(ModelError, match=r"^line \d+: sylow repeats id 0$"):
        parse_model(path)
