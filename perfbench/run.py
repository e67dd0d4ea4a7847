"""torodef benchmark: seeded batch-CLI workloads, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload torus-cut --seed 1 --seconds 25 --trace 0

Each op is one in-process ``torodef.cli.main(argv)`` call on files written
during set-up, run by one client in a closed loop (one process, one thread,
sequential ops).  A pass runs every op of the workload once; passes repeat
until ``--seconds`` have gone by.  After each pass, outside the timed region,
the gate judges every op.  The last line of standard output is a JSON object
with the end-to-end metrics (``--trace 0``) or, from one more pass with each
layer's functions wrapped, the per-layer metrics (``--trace 1``).  The exit
code is 1 when any op gave a wrong answer, and when the sources under ``src/``
are missing, in which case nothing is printed on standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WORKLOADS = ("torus-cut", "exact-decide", "sixreg-classify")


class Deadline(BaseException):
    """An op ran past its deadline.  A BaseException, so that no handler in
    the CLI can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline


def _use_sources() -> None:
    """Import torodef from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "torodef" / "__init__.py").is_file():
        sys.exit(f"error: no torodef sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torodef
    if Path(torodef.__file__).resolve().parent != SRC / "torodef":
        sys.exit(f"error: torodef imported from {torodef.__file__}, not from {SRC}")


def timed_setup(workload: str, seed: int) -> float:
    """Import, input generation and file writing; call it in a fresh interpreter."""
    start = time.perf_counter()
    import workloads
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workloads.build(workload, seed, work)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(work)


def setup_seconds(workload: str, seed: int) -> float:
    """Median of several set-ups, each in a new interpreter so the import counts."""
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; import run; "
            f"print(run.timed_setup({workload!r}, {seed}))")
    times = [float(subprocess.run([sys.executable, "-c", code], check=True, text=True,
                                  stdout=subprocess.PIPE).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def run_pass(cli, ops, deadline_s: float, tracer=None) -> tuple[float, list]:
    """Run every op once; returns (pass wall seconds, per-op (latency, exit code, error))."""
    results = []
    pass_start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        sink = io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline_s)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            error = "deadline"
        except Exception as exc:  # noqa: BLE001 - an escaped exception is a failed op
            error = type(exc).__name__
        results.append((time.perf_counter() - t0, code, error))
    if tracer is not None:
        tracer.op = None
    return time.perf_counter() - pass_start, results


def judge(ops, results) -> tuple[int, list[str]]:
    """Gate one pass: (failed op count, descriptions of wrong answers)."""
    failed, wrong = 0, []
    for op, (_, code, error) in zip(ops, results):
        if error is not None:
            failed += 1
            continue
        ok, problem = op.check(code)
        failed += not ok
        if problem:
            wrong.append(f"{' '.join(op.argv)}: {problem}")
    return failed, wrong


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _use_sources()
    WORK.mkdir(exist_ok=True)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    import workloads
    from torodef import cli
    work = Path(tempfile.mkdtemp(dir=WORK))
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        wrong = workloads.oracle_mismatches(ops)
        # Keep the benchmark's own objects out of the collections the ops trigger.
        gc.collect()
        gc.freeze()
        deadline_s = workloads.DEADLINE_S[args.workload]
        walls, latencies, attempted, failed = [], [[] for _ in ops], 0, 0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            wall, results = run_pass(cli, ops, deadline_s)
            walls.append(wall)
            for op_latencies, (lat, _, _) in zip(latencies, results):
                op_latencies.append(lat)
            pass_failed, pass_wrong = judge(ops, results)
            attempted += len(ops)
            failed += pass_failed
            wrong += pass_wrong
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_wall, results = run_pass(cli, ops, deadline_s, tracer)
            finally:
                tracer.uninstall()
            wrong += judge(ops, results)[1]
            timed_out = {i for i, (_, _, err) in enumerate(results) if err == "deadline"}
            values = tracing.layer_metrics(tracer.spans, timed_out)
            values["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write_jsonl(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
            names = spec["per_layer"]
        else:
            typical = [statistics.median(lats) for lats in latencies]
            values = {
                "wall_s": statistics.median(walls),
                "ops_per_s": (attempted - failed) / len(walls) / statistics.median(walls),
                "op_p50_ms": 1000 * statistics.median(typical),
                "op_p90_ms": 1000 * percentile(typical, 0.9),
                "ok_frac": (attempted - failed) / attempted,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            names = spec["end_to_end"]
    finally:
        gc.unfreeze()
        signal.signal(signal.SIGALRM, old_handler)
        shutil.rmtree(work)

    for problem in wrong:
        print(f"WRONG {problem}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per pass, {len(walls)} passes, "
          f"{attempted} attempted, {failed} failed, {len(wrong)} wrong answers")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
