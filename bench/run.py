"""Benchmark of the urbanrec pipeline.

    python3 bench/run.py --workload ablate-1x --seed 3 --seconds 10 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (spans
around every call into urbanrec, their self-time shares, peak allocations
and computed counts).  Lines before it carry the environment and notes.

    python3 bench/run.py

runs every workload, untraced and then traced, each in a fresh process,
prints every metric by name and unit plus the tracing overhead, and exits
non-zero if any output check failed or if the traced run's ``fit`` logged
other losses than the untraced run's.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# BLAS and OpenMP threads are pinned before numpy loads: one thread makes
# timings independent of the machine's core count and of its other tenants.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ablate-1x", "rank-4x", "city-10x")
DEFAULT_SECONDS = 6


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": commit, "cores": os.cpu_count(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": sys.version.split()[0]}


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import urbanrec
    if Path(urbanrec.__file__).resolve().parent != ROOT / "src" / "urbanrec":
        print(f"error: imported urbanrec from {urbanrec.__file__}", file=sys.stderr)
        return 2
    import workloads

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, notes = workloads.run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print("env " + json.dumps(environment(), sort_keys=True))
    for note in notes:
        print("note " + note)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload untraced then traced, in fresh processes."""
    ok = True
    env_printed = False
    for name in WORKLOADS:
        results, fit_logs = {}, {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if not env_printed and lines and lines[0].startswith("env "):
                print(lines[0])
                env_printed = True
            try:
                results[trace] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace={trace}: no result (exit {proc.returncode})\n"
                      f"{proc.stderr.strip()}")
                ok = False
                continue
            for line in lines:
                if line.startswith("note "):
                    print(f"{name} {line}")
                if line.startswith("note fit log "):
                    fit_logs[trace] = line
            r = results[trace]
            print(f"{name} trace={trace}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
            ok = ok and r["correct"] and proc.returncode == 0
            for metric, m in r["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        if len(fit_logs) == 2 and fit_logs[0] != fit_logs[1]:
            print(f"{name}: the traced fit logged other values than the untraced fit")
            ok = False
        if len(results) == 2:
            traced = results[1]["metrics"]["trace.wall_s"]["value"]
            plain = results[0]["metrics"]["wall_s"]["value"]
            print(f"{name} tracing overhead: {traced - plain:+.3f} s "
                  f"({100 * (traced - plain) / plain:+.1f}% of wall_s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="time budget of a run's measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny cities, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "urbanrec" / "__init__.py").is_file():
        print(f"error: no urbanrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
