"""One pass of a workload in a fresh interpreter: set up, run every operation, check.

Run from the root of a checkout with `src` on `PYTHONPATH` (`run.py` starts
it that way):

    python3 perfbench/session.py --workload NAME --seed N --trace 0|1 --work DIR [--setup-only]

A fresh interpreter per pass keeps the fixture caches, the kernel cache and
the automaton tables cold, as they are for a CLI user.  The last line of
standard output is one JSON object with the pass's timings and checks.

Every timed call (a fixture build or a CLI operation) is reported twice: as
measured (`wall_s`) and rescaled to reference speed (`seconds`).  The shared
machine's speed for pure Python switches between levels up to 1.7x apart,
each lasting from under a second to tens of seconds, so the passes of one
run are fast or slow together.  A speed probe tracks that: a timer
interrupts the main thread every `PROBE_PERIOD_S` and the handler times a
fixed loop.  A call's time, less the time its handler runs took, is
multiplied by its mean speed, `REFERENCE_S` over the loop's time, over the
samples taken during the call and one taken right after it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

PROBE_PERIOD_S = 0.05
PROBE_LOOP = 2_000
# Seconds the probe loop takes at the speed all times are rescaled to: about
# its usual time on the machine the benchmark was defined on (2 vCPUs,
# Python 3.11).
REFERENCE_S = 0.00063
# The probe does what the program's inner loops do: it builds small tuples,
# looks them up in a dict of element pairs and tests set membership.  Of
# the loops tried, this one tracked the program's speed most closely.
_PAIRS = {(a, b): a ^ b for a in range(56) for b in range(56)}
_EVERY_THIRD = frozenset(range(0, 56, 3))


def probe_loop_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        a, b = i % 56, i * 7 % 56
        c = _PAIRS[a, b]
        if c in _EVERY_THIRD:
            total += len((a, b, c))
    return time.perf_counter() - t0


def at_reference_speed(wall_s: float, loop_s: list[float], handler_s: float) -> float:
    """Seconds a call measured at `wall_s` takes at reference speed.

    `loop_s` are the probe's loop times during and right after the call and
    `handler_s` the time the probe's handler runs took inside the call.
    """
    return (wall_s - handler_s) * statistics.fmean(REFERENCE_S / s for s in loop_s)


class SpeedProbe:
    """Samples the speed of pure Python in this thread while calls run."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, loop seconds)

    def _sample(self, *_):
        start = time.perf_counter()
        loop_s = probe_loop_s()
        self.samples.append((start, time.perf_counter(), loop_s))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, since: float, wall_s: float) -> float:
        """`wall_s`, measured on a call that began after `since`, at reference speed."""
        during = [sample for sample in self.samples if sample[0] >= since]
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        loop_s = [s[2] for s in during] + [self.samples[-1][2]]
        return at_reference_speed(wall_s, loop_s, sum(end - start for start, end, _ in during))


def build_fixtures(builtins, probe: SpeedProbe) -> tuple[dict[str, float], dict[str, float]]:
    """Seconds to build each builtin fixture, in order, in this (cold) process.

    Returns the seconds at reference speed and the measured seconds, keyed
    by builtin.
    """
    from localities import corpus

    seconds, wall = {}, {}
    for name in builtins:
        t0 = time.perf_counter()
        corpus.get_builtin(name)
        wall[name] = time.perf_counter() - t0
        seconds[name] = probe.rescale(t0, wall[name])
    return seconds, wall


def run_op(argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """(exit code, stdout, seconds, escaped exception) of one in-process CLI call."""
    from localities import cli

    buf = io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([*argv, "--format", "json"])
    except Exception as exc:  # counted as a failed operation; the pass goes on
        error = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), time.perf_counter() - t0, error


def check_emitted(path: Path, order: int) -> list[str]:
    """The emitted quotient parses back and passes the locality axioms."""
    from localities.locality import check_locality
    from localities.model import parse_model

    try:
        locs = list(parse_model(path).localities.values())
        if len(locs) != 1 or locs[0].size != order:
            return [f"emitted model holds {[loc.size for loc in locs]} elements, expected [{order}]"]
        if not check_locality(locs[0]).ok:
            return ["emitted quotient fails check_locality"]
    except Exception as exc:  # a broken file is a failed operation
        return [f"emitted model does not parse back: {type(exc).__name__}: {exc}"]
    return []


def run_pass(workload: workloads.Workload, trace: bool, work: Path, probe: SpeedProbe) -> dict:
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    setup_s, setup_wall_s = build_fixtures(workload.builtins, probe)
    results = []
    emitted = []
    for i, op in enumerate(workload.ops):
        argv = list(op.argv)
        if op.emit_order is not None:
            path = work / f"emit-{i}.model"
            argv += ["--emit", str(path)]
            emitted.append((len(results), path, op.emit_order))
        since = time.perf_counter()
        code, out, wall_s, error = run_op(argv)
        seconds = probe.rescale(since, wall_s)
        if error is not None:
            problems = [f"exception escaped cli.main: {error}"]
        else:
            try:
                problems = workloads.check_report(op, code, json.loads(out))
            except ValueError:
                problems = [f"output is not JSON: {out[:200]!r}"]
        results.append({"argv": argv, "group": op.group, "seconds": seconds, "wall_s": wall_s,
                        "problems": problems})
    layers = None
    if tracer is not None:
        layers = tracer.stats()
        tracer.uninstall()
        (work / "spans.json").write_text(json.dumps(tracer.spans, separators=(",", ":")))
    for index, path, order in emitted:
        results[index]["problems"] += check_emitted(path, order)
    return {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for the pass's files")
    parser.add_argument("--setup-only", action="store_true", help="build the fixtures and stop")
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed, workloads.load_frozen())
    with SpeedProbe() as probe:
        if args.setup_only:
            setup_s, setup_wall_s = build_fixtures(workload.builtins, probe)
            result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
        else:
            result = run_pass(workload, bool(args.trace), Path(args.work), probe)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
