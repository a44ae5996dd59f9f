"""Benchmark tbsim through its command line entry point, ``tbsim.cli.main``.

    python3 perfbench/run.py --workload fringe --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A run is one fresh interpreter on one thread.  With ``--trace 0``
it times set-up in fresh child interpreters, repeats whole rounds of its
workload's CLI calls for ``--seconds``, reads its peak resident set, checks
every artifact and prints the end-to-end metrics.  With ``--trace 1`` it runs
a fixed number of rounds with and without spans around each layer and prints
the per-layer metrics.  The last line of standard output is one JSON object;
the exit code is 0 when every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
PROBE = BENCH / "probe.py"
SETUP_SAMPLES = 11
TRACED_ROUNDS = {"fringe": 3, "feedforward": 3, "lock": 2, "sweep": 6}
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "shots_per_s": "shots/s",
         "pulses_per_s": "pulses/s", "steps_per_s": "steps/s", "runs_per_s": "runs/s"}


def call(cli, op: workloads.Op) -> tuple[float, str | None]:
    """Run one CLI invocation; return its wall time and None, or why it failed."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(op.argv))
        error = None if code == 0 else f"exit {code}: {sink.getvalue().strip()[-300:]}"
    except SystemExit as exc:
        error = f"exit {exc.code}: {sink.getvalue().strip()[-300:]}"
    except Exception:
        error = "uncaught " + traceback.format_exc().strip().splitlines()[-1]
    return time.perf_counter() - start, error


def where(op: workloads.Op) -> str:
    return f"{op.out.parent.name}/{op.out.name}"


def run_round(cli, ops: list[workloads.Op]) -> list[tuple]:
    return [(op, *call(cli, op)) for op in ops]


def rates(rounds: list[list[tuple]]) -> dict[str, float]:
    """Median over rounds of work per second of main() wall time."""
    per = defaultdict(list)
    for rnd in rounds:
        ok = [(op, s) for op, s, error in rnd if error is None]
        per["runs_per_s"].append(len(ok) / sum(s for _, s, _ in rnd))
        for command, name in workloads.RATE_OF.items():
            mine = [(op.work, s) for op, s in ok if op.command == command]
            if mine:
                per[name].append(sum(w for w, _ in mine) / sum(s for _, s in mine))
    return {name: statistics.median(values) for name, values in per.items()}


def setup_seconds(argv: tuple[str, ...]) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(PROBE), str(SRC), *argv],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def check_rounds(rounds: list[list[tuple]], pairs: bool) -> list[str]:
    """Problems found in the artifacts of every call that succeeded, and
    every subcommand of which no call succeeded.

    With ``pairs``, rounds 2j and 2j + 1 ran with the same seeds and must have
    written the same bytes.
    """
    import checks

    zs, problems = [], []

    def guarded(op, check):
        try:
            return check() or []
        except Exception as exc:  # a malformed artifact is a finding, not a crash
            problems.append(f"{where(op)}: {type(exc).__name__}: {exc}")
            return []

    for rnd in rounds:
        for op, _, error in rnd:
            if error is not None:
                continue
            if op.source is not None:
                guarded(op, lambda: checks.identical(op.source, op.out))
            else:
                values = workloads.CONFIGS[op.label][1]
                found = guarded(op, lambda: checks.BY_COMMAND[op.command](op.out, values))
                zs += [(f"{where(op)}: {name}", z) for name, z in found]
    if pairs:
        for first, second in zip(rounds[0::2], rounds[1::2]):
            for (a, _, ea), (b, _, eb) in zip(first, second):
                if ea is None and eb is None and a.source is None:
                    guarded(b, lambda: checks.identical(a.out, b.out))
    limit = checks.z_threshold(len(zs))
    problems += [f"{name}: {z:+.2f} sigma (limit {limit:.2f})"
                 for name, z in zs if not abs(z) <= limit]
    ran = {op.command for rnd in rounds for op, _, _ in rnd}
    checked = {op.command for rnd in rounds for op, _, error in rnd if error is None}
    problems += [f"no {command} call succeeded, so none was checked"
                 for command in sorted(ran - checked)]
    return problems


def measure(plan: workloads.Plan, cli, seconds: float) -> tuple[dict, list]:
    """End-to-end run: set-up, then timed rounds, each followed by its
    reference calls so that these sample the whole run, then peak memory."""
    metrics = {"setup_s": setup_seconds(plan.round(0)[0].argv)}
    rounds, reference = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(cli, plan.round(len(rounds))))
        if ops := plan.reference_round(len(reference)):
            reference.append(run_round(cli, ops))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics |= rates(reference)
    metrics |= rates(rounds)
    return {name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in UNITS.items()}, rounds + reference


def trace(plan: workloads.Plan, cli, seed: int) -> tuple[dict, list]:
    """Traced run: the same rounds with and without spans, then the set-up
    layer from ``-X importtime`` and the scaling exponents."""
    import tracing

    tracer = tracing.Tracer()
    rounds, plain, traced = [], [], []
    for k in range(TRACED_ROUNDS[plan.workload]):
        rounds.append(run_round(cli, plan.round(k, "u")))
        plain.append(sum(s for _, s, _ in rounds[-1]))
        tracer.install()
        try:
            rounds.append(run_round(cli, plan.round(k, "t")))
        finally:
            tracer.uninstall()
        traced.append(sum(s for _, s, _ in rounds[-1]))
    metrics = tracing.layer_metrics(tracer)
    written = sum(f.stat().st_size for rnd in rounds[1::2] for op, _, _ in rnd
                  if op.out.is_dir() for f in op.out.iterdir())
    metrics["cli.artifact_bytes"] = tracing.metric(written, "count")
    metrics["trace.overhead_s"] = tracing.metric(
        statistics.median(traced) - statistics.median(plain), "s")
    metrics |= tracing.import_times(PROBE, SRC, list(plan.round(0)[0].argv))
    metrics |= tracing.exponents(seed)
    tracer.write(OUT / f"trace-{plan.workload}.csv")
    return dict(sorted(metrics.items())), rounds


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"error: workload {workload} printed no result (exit {proc.returncode})")
        results[workload] = json.loads(lines[-1])
    for workload, res in results.items():
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:32s} {m['value']!r:>24} {m['unit']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD)
    if not (SRC / "tbsim" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tbsim sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import tbsim.cli as cli

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    plan = workloads.Plan(args.workload, args.seed, run_dir)
    workloads.write_configs(plan.cfg_dir)
    try:
        if args.trace:
            metrics, rounds = trace(plan, cli, args.seed)
        else:
            metrics, rounds = measure(plan, cli, args.seconds)
        problems = check_rounds(rounds, pairs=args.workload == "sweep")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [f"{where(op)}: {error}"
                for rnd in rounds for op, _, error in rnd if error is not None]
    for line in failures[:10] + problems[:20]:
        sys.stderr.write(line + "\n")
    for name, m in metrics.items():
        sys.stderr.write(f"{args.workload} {name} = {m['value']!r} {m['unit']}\n")
    print(json.dumps({"correct": not problems, "attempted": sum(map(len, rounds)),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
