"""The repository benchmark: `localities` CLI workloads timed end to end or per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is a closed loop with one client: passes run one after another, each
in a fresh interpreter (`session.py`).  A full pass builds the workload's
builtin fixtures (timed as set-up) and then runs every operation through
`localities.cli.main([..., "--format", "json"])` in-process, checking each
answer; a set-up-only pass builds the fixtures and stops.  The seed reaches
the program only as `lemmas --seed`.

The number of passes of each kind is fixed by S and the workload's nominal
pass lengths (`workloads.PASS_S`), so that every commit is measured with
the same estimator however fast it runs.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
set-up time as the sum over builtins of each one's fastest build, run time
as the sum over operations of each one's fastest time, and peak memory as
the median over full passes.  Every time is rescaled to reference speed by a
fixed loop timed around each call (see `session.py`); the measured times are
printed on an info line.  With `--trace 1` one traced pass joins the
same passes; the run reports the per-layer metrics, the untraced time
of each subcommand group and the tracing overhead.  Spans of the traced
pass are written under `.perfbench/`.  The last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
MIN_PASSES = 1
# No pass starts unless, as long as the longest pass so far, it would end
# this many seconds after the run began, so that the run ends within 180 s;
# a run cut short says so on an info line.
DEADLINE_S = 165.0
REQUIRED = (Path("BENCHMARK.json"), Path("src") / "localities" / "__init__.py", Path("tests") / "_frozen.py")
GROUPS = ("normals_product", "quotient", "lemmas", "pg_check", "loc_check")


class BenchError(RuntimeError):
    pass


def run_session(workload: str, seed: int, kind: str, work: Path, timeout: float) -> dict:
    """One pass of `kind` (see `plan`) in a fresh interpreter; its JSON result."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(kind == TRACED)), "--work", str(work)]
    if kind == SETUP:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not end within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def median(values) -> float:
    return statistics.median(list(values))


UNTRACED, TRACED, SETUP = "untraced", "traced", "setup"


def plan(seconds: float, workload: str, trace: bool) -> list[str]:
    """The kinds of the passes of a run, in order.

    Full untraced passes fill S seconds at nominal speed (at least
    MIN_PASSES), set-up-only passes fill what is left, and a traced run adds
    one traced pass second, so that the deadline can only cut untraced ones.
    """
    full_s, setup_only_s = workloads.PASS_S[workload]
    full = max(MIN_PASSES, int(seconds // full_s))
    kinds = [UNTRACED] * full + [SETUP] * max(0, int((seconds - full * full_s) // setup_only_s))
    if trace:
        kinds.insert(1, TRACED)
    return kinds


def ops_s(results: list[dict], group: str | None = None) -> float:
    """Sum over operations (of one group, or all) of each one's fastest time over passes.

    The times are at reference speed (see `session.py`); the fastest pass
    drops what the speed probe missed, such as a stall inside one call.
    """
    return sum(
        min(r["ops"][i]["seconds"] for r in results)
        for i, op in enumerate(results[0]["ops"])
        if group is None or op["group"] == group
    )


def setup_s(setups: list[dict[str, float]]) -> float:
    """Sum over builtins of each one's fastest cold build over passes."""
    return sum(min(s[name] for s in setups) for name in setups[0])


def end_to_end(untraced: list[dict], setups: list[dict[str, float]]) -> dict[str, float]:
    return {
        "setup_s": setup_s(setups),
        "run_s": ops_s(untraced),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    for group in GROUPS:
        out[f"cli.{group}_s"] = ops_s(untraced, group)
    out["trace.overhead_s"] = ops_s(traced) - ops_s(untraced)
    return out


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of a localities checkout; missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    kinds = plan(args.seconds, args.workload, bool(args.trace))
    passes: list[tuple[str, dict]] = []
    start = time.perf_counter()
    longest = 0.0
    try:
        for kind in kinds:
            t0 = time.perf_counter()
            if t0 - start + longest > DEADLINE_S:
                print(f"warning: deadline reached after {len(passes)} of {len(kinds)} passes")
                break
            work = run_dir / f"pass{len(passes)}-{kind}"
            passes.append((kind, run_session(args.workload, args.seed, kind, work, DEADLINE_S - (t0 - start))))
            longest = max(longest, time.perf_counter() - t0)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [r for kind, r in passes if kind == UNTRACED]
    traced = [r for kind, r in passes if kind == TRACED]
    setups = [r["setup_s"] for kind, r in passes if kind != TRACED]
    ops = [op for _, r in passes for op in r.get("ops", ())]
    failures = [op for op in ops if op["problems"]]
    print(json.dumps({"environment": environment(), "passes": len(passes)}))
    for op in failures:
        print(f"FAILED {' '.join(op['argv'])}: {'; '.join(op['problems'])}")
    walls = [r["setup_wall_s"] for kind, r in passes if kind != TRACED]
    print(json.dumps({
        "setup_s": [{k: round(v, 4) for k, v in s.items()} for s in setups],
        "setup_wall_s": [{k: round(v, 4) for k, v in s.items()} for s in walls],
        "untraced_ops_s": [[round(op["seconds"], 4) for op in r["ops"]] for r in untraced],
        "untraced_ops_wall_s": [[round(op["wall_s"], 4) for op in r["ops"]] for r in untraced],
    }))
    print(json.dumps({"untraced_subcommand_s": {g: round(ops_s(untraced, g), 4) for g in GROUPS}}))

    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']!r} is not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
