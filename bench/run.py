"""Closed-loop benchmark of cuechaos: one client runs a workload's operations
back to back, checks every output, and prints the metrics.

    python3 bench/run.py --workload chaos-mass --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports cuechaos from ``src/`` there.
A run first times the set-up (``setup_probe.py`` in a fresh interpreter,
several times), warms every layer up in its own process, then repeats whole
rounds of the workload until ``--seconds`` have passed, and finally checks
every operation's output.  With ``--trace 1`` rounds 1 and 3 run with spans
recorded around each layer's public functions, and the per-layer metrics
are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else a
run measured, spans included, goes to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from program import BENCH_DIR, ProgramMissing, environment, import_program, warm_up

OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
TRACED_ROUNDS = (1, 3)
MIN_ROUNDS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="override the worker count of chaos-mass (reference figures only)",
    )
    return parser.parse_args(argv)


def _time_setup(work: Path) -> float:
    """Interpreter start to cuechaos imported and every layer warmed up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(work / "setup-probe")],
        check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.is_dir() else 0


def _run_round(ops) -> tuple[float, list[tuple]]:
    """Run the operations back to back; (round wall time, per-op results)."""
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            output, error = op.run(), None
        except (Exception, SystemExit) as exc:  # an operation that fails is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        results.append((op, time.perf_counter() - t0, output, error))
    return time.perf_counter() - start, results


def _check(results) -> list[str]:
    problems = []
    for op, _, output, error in results:
        if error is None:
            try:
                problems += [f"{op.metric}: {p}" for p in op.check(output)]
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"{op.metric}: output unreadable ({type(exc).__name__}: {exc})")
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, WORKLOADS[args.workload], work, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workload, work: Path, tracing) -> int:
    env = environment()
    setup_times = [_time_setup(work) for _ in range(SETUP_REPEATS)]

    tracer = tracing.Tracer() if args.trace else None
    traced_dirs = []
    if tracer:
        tracer.install()
    warm_up(work / "warm-up")
    if tracer:
        tracer.uninstall()
        traced_dirs.append(work / "warm-up")

    rounds = []  # (traced, wall, results)
    min_rounds = max(MIN_ROUNDS, max(TRACED_ROUNDS) + 1) if tracer else MIN_ROUNDS
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < min_rounds or time.perf_counter() < deadline:
        ops = workload.build_round(args.seed, index, work, args.workers)
        traced = bool(tracer) and index in TRACED_ROUNDS
        if traced:
            tracer.install()
        try:
            wall, results = _run_round(ops)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_dirs += [op.out_dir for op in ops if op.out_dir is not None]
        rounds.append((traced, wall, results))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_results = [r for _, _, results in rounds for r in results]
    problems = _check(all_results)
    problems += workload.check_run([out for _, _, out, error in all_results if error is None])
    failed = [f"{op.metric}: {error}" for op, _, _, error in all_results if error is not None]
    plain = [(t, w, r) for t, w, r in rounds if not t]
    wall_s = statistics.median(w for _, w, _ in plain)

    # per-operation detail: median over untraced rounds of each metric's
    # summed time in the round, and draws per second of operation time
    detail = {}
    for metric in dict.fromkeys(op.metric for op, *_ in all_results):
        detail[metric] = statistics.median(
            sum(dt for op, dt, _, _ in res if op.metric == metric) for _, _, res in plain
        )
    draws = sum(op.draws for op, *_ in plain[0][2])
    if draws:
        detail["draws_per_s"] = statistics.median(
            draws / sum(dt for _, dt, _, _ in res) for _, _, res in plain
        )

    if tracer:
        traced_wall = statistics.median(w for t, w, _ in rounds if t)
        metrics = tracing.summarize(
            tracer, traced_wall - wall_s, sum(_dir_bytes(d) for d in traced_dirs)
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result = {
        "correct": not problems,
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": args.workers,
        "environment": env,
        "setup_times_s": setup_times,
        "rounds": [
            {
                "traced": traced,
                "wall_s": wall,
                "ops": [
                    {"metric": op.metric, "seconds": dt, "error": error}
                    for op, dt, _, error in results
                ],
            }
            for traced, wall, results in rounds
        ],
        "operation_detail": detail,
        "problems": problems,
        "failures": failed,
        "result": result,
    }
    if tracer:
        record["spans"] = tracer.span_records()
        record["trace_counts"] = dict(tracer.counts)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    target = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{len(all_results)} operations, {len(failed)} failed, {len(problems)} check problems")
    for line in (problems + failed)[:20]:
        print(f"  {line}")
    for name, value in detail.items():
        unit = "1/s" if name == "draws_per_s" else "s"
        print(f"operation {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"results: {target.relative_to(BENCH_DIR.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
