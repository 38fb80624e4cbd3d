"""The traced benchmark run (perfbench/tracing.py) still finds what it wraps.

The tracer rebinds functions and methods by name at run time, so renaming
or removing one of them would drop its figures without an error.
"""

import importlib.util
from pathlib import Path

import localities.cli  # noqa: F401  (imports every traced module)
from localities.corpus import locality_s4

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    targets = [*tracing.SPANS, *tracing.COUNTERS, ("locality", "ThreadAutomaton.__init__")]
    for module, attr in targets:
        owner, last = tracing._resolve(module, attr)
        assert callable(getattr(owner, last, None)), (module, attr)


def test_traced_build_counts_automaton_states():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        locality_s4.__wrapped__()  # a fresh build, past the fixture cache
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    # GRP-S4 reaches 10 threading states (test_dense_tables.CASES): the
    # tracer counts them as the rows of the automaton's states array
    assert stats["locality.ThreadAutomaton.states"] == 10
    assert stats["locality.ThreadAutomaton.step.calls"] > 0
    assert stats["locality.locality_from_group.calls"] == 1
