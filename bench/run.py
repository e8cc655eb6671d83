"""secnet benchmark: times the public calls into each secnet module from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every sample runs in a fresh interpreter with
BLAS and OpenMP capped at one thread: the set-up samples import the library,
build the inputs and make one warm-up call; the measuring process then
repeats the workload's cycle of calls for about S seconds (always at least
one whole cycle) and checks every output against bench/reference.json.
With --trace 1 it instead alternates untraced and traced cycles and reports
per-layer metrics; the spans are written to bench/out/.  A human-readable
report goes first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("figures_grid", "figures_scan", "simulate_nearest", "simulate_best", "validate")
# (name, unit) of the end-to-end metrics, reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("work_per_s", "1/s"),
)
WORK_UNITS = {"figures_grid": "figure rows", "figures_scan": "figure rows",
              "simulate_nearest": "realizations", "simulate_best": "realizations",
              "validate": "validation rows"}
SETUP_SAMPLES = 3  # the measuring process's own set-up is the last sample
TIME_BUDGET_S = 170.0
WORKER_ENV = {
    **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    # A fixed glibc mmap threshold: by default it adapts to the sizes freed so
    # far, which made the simulators' peak RSS (163 or 184 MB) and speed
    # depend on the seed's allocation history.
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


class BenchmarkError(RuntimeError):
    pass


def source_digest(root: str) -> str:
    """sha256 over the library's source files, names included."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "secnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'none' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = {**os.environ, **WORKER_ENV}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("time budget exhausted before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchmarkError(f"{mode} worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def versions() -> dict:
    """numpy and scipy versions as the workers see them, without importing them here."""
    out = {}
    for name in ("numpy", "scipy"):
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = "unknown"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "secnet", "__init__.py")):
        print(f"error: no secnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_BUDGET_S
    try:
        setups = [run_worker(args.workload, args.seed, args.seconds, "setup", deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        main_run = run_worker(args.workload, args.seed, args.seconds,
                              "trace" if args.trace else "measure", deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples = setups + [main_run]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    setup_s = [s["setup_s"] for s in samples]
    rss = [s["peak_rss_mb"] for s in samples]
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "nproc": nproc(), "commit": git_commit(ROOT), "src_sha256": source_digest(ROOT),
           "python": platform.python_version(), **versions(),
           "randomness": "seeded simulator calls" if args.workload.startswith(("simulate", "validate"))
           else "none (closed forms only; the seed is unused)"}

    print("# environment")
    for key, value in env.items():
        print(f"  {key}: {value}")
    print(f"# operations: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4g} (failed/attempted)")
    print(f"  checks made: {sum(s['checks'] for s in samples)}; estimates outside the library's "
          f"3-sigma interval (information, not failures): {sum(s['excursions_3sigma'] for s in samples)}")
    for message in [m for s in samples for m in s["failure_messages"]][:10]:
        print(f"  FAILED {message}")
    raw_setup = ", ".join(f"{s['raw_setup_s']:.4f}" for s in samples)
    print(f"# set-up per process: {', '.join(f'{x:.4f}' for x in setup_s)} s at reference speed, "
          f"{raw_setup} s wall clock")
    print(f"# peak RSS per process (MB): {', '.join(f'{x:.1f}' for x in rss)}")

    if args.trace:
        print(f"# traced cycles: {main_run['cycles']} (trace file {main_run['trace_file']})")
        print("# exact counts per cycle" + ("" if main_run["exact_counts_repeat"]
                                            else " (WARNING: differed between cycles)"))
        for key, value in main_run["exact_counts"].items():
            if key == "window_radii":
                print("  window radii [side, k, group, radius, points_per_trial_computed, calls]:")
                for entry in value:
                    print(f"    {entry}")
            else:
                print(f"  {key}: {value}")
        metrics = main_run["per_layer"]
        untraced = metrics["trace.untraced_cycle_s"]["value"]
        traced = metrics["trace.traced_cycle_s"]["value"]
        self_sum = metrics["trace.self_time_sum_s"]["value"]
        print(f"# tracing overhead: {traced - untraced:+.4f} s per cycle (traced {traced:.4f} s, "
              f"untraced {untraced:.4f} s); layer self times sum to {self_sum:.4f} s, "
              f"{self_sum - untraced:+.4f} s from the untraced wall time")
    else:
        print(f"# measured cycles: {main_run['cycles']} "
              f"({main_run['work_per_cycle']} {WORK_UNITS[args.workload]} per cycle); "
              f"calibration kernel median {main_run['kernel_median_s'] * 1e3:.2f} ms")
        print("  median call time: wall clock, at reference speed")
        for label, (wall, scaled) in main_run["op_median_s"].items():
            print(f"  {wall * 1e3:10.2f} ms {scaled * 1e3:10.2f} ms  {label}")
        print(f"  wall-clock throughput (information): {main_run['raw_work_per_s']:.6g} "
              f"{WORK_UNITS[args.workload]}/s")
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": main_run["peak_rss_mb"],
            "ok_rate": 1.0 - failed / attempted,
            "work_per_s": main_run["work_per_s"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("# metrics")
    for name, m in metrics.items():
        print(f"  {name:58s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
