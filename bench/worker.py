"""One benchmark process: set up a workload, then measure it or trace it.

Started by run.py in a fresh interpreter per sample, so that set-up time and
peak memory belong to one workload.  Prints one JSON object on its last
line of standard output.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode setup|measure|trace
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402  (standard library only until a mixed kernel runs)
from checks import Verdict  # noqa: E402  (standard library only)

MAX_FAILURE_MESSAGES = 10


def op_seed(seed: int, cycle: int, index: int) -> int:
    """Master seed of one call, a pure function of its position in the run."""
    digest = hashlib.blake2b(f"{seed}:{cycle}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.excursions = 0
        self.messages: list[str] = []

    def add(self, verdict) -> None:
        self.attempted += 1
        self.checks += verdict.checks
        self.excursions += verdict.excursions
        if verdict.failures:
            self.failed += 1
            room = MAX_FAILURE_MESSAGES - len(self.messages)
            self.messages.extend(verdict.failures[:max(room, 0)])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "checks": self.checks,
                "excursions_3sigma": self.excursions, "failure_messages": self.messages}


def run_op(op, seed: int, tally: Tally, meter=None) -> float:
    """Make one call and check it; an exception counts as a failure.

    Returns the call's wall time, without the check and without the kernel
    samples an optional calibration.SpeedMeter takes during the call.
    """
    try:
        with meter or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                output = op.run(seed)
            finally:
                elapsed = time.perf_counter() - start - (meter.overhead_s if meter else 0.0)
    except Exception as exc:  # the operation failed; record it and keep measuring
        verdict = Verdict(checks=1)
        verdict.fail(f"{op.label}: {type(exc).__name__}: {exc}")
    else:
        try:
            verdict = op.check(output)
        except Exception as exc:  # malformed output
            verdict = Verdict(checks=1)
            verdict.fail(f"{op.label}: output check raised {type(exc).__name__}: {exc}")
    tally.add(verdict)
    return elapsed


def run_cycle(workload, seed: int, cycle: int, tally: Tally, tracer=None) -> float:
    """Every operation of the workload once, without the calibration kernel;
    returns the summed call time."""
    total = 0.0
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = cycle * len(workload.ops) + i
        total += run_op(op, op_seed(seed, cycle, i), tally)
    return total


def measure(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Repeat whole cycles while the next one is expected to end within `seconds`.

    A calibration.SpeedMeter samples the host's speed around and during each
    call, so each call's time is also reported at the reference speed.
    """
    raw: list[list[float]] = [[] for _ in workload.ops]
    scaled: list[list[float]] = [[] for _ in workload.ops]
    kernels: list[float] = []
    cycle_s: list[float] = []
    start = time.perf_counter()
    while True:
        cycle = len(cycle_s)
        for i, op in enumerate(workload.ops):
            meter = calibration.SpeedMeter()
            raw[i].append(run_op(op, op_seed(seed, cycle, i), tally, meter))
            scaled[i].append(raw[i][-1] * meter.speed)
            kernels.extend(meter.samples + meter.inside)
        cycle_s.append(sum(t[-1] for t in raw))
        if time.perf_counter() - start + statistics.median(cycle_s) > seconds:
            break
    work = sum(op.work for op in workload.ops)
    raw_medians = [statistics.median(t) for t in raw]
    scaled_medians = [statistics.median(t) for t in scaled]
    return {
        "cycles": len(cycle_s),
        "work_per_cycle": work,
        "work_per_s": work / sum(scaled_medians),
        "raw_work_per_s": work / sum(raw_medians),
        "kernel_median_s": statistics.median(kernels),
        "op_median_s": {op.label: [r, c] for op, r, c in zip(workload.ops, raw_medians, scaled_medians)},
        "cycle_s": cycle_s,
    }


def trace(workload, seed: int, seconds: float, tally: Tally, out_path: str) -> dict:
    """Alternate untraced and traced cycles on the same inputs; report per-layer metrics."""
    import layers
    from tracing import Tracer, installed

    untraced: list[float] = []
    traced: list[float] = []
    cycles: list[tuple[list, int]] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        cycle = len(traced)
        untraced.append(run_cycle(workload, seed, cycle, tally))
        first_span = len(tracer.spans)
        prims_before = tracer.counts[layers.PRIMITIVE_COUNT]
        with installed(layers.targets(tracer)):
            traced.append(run_cycle(workload, seed, cycle, tally, tracer=tracer))
        cycles.append((tracer.spans[first_span:], tracer.counts[layers.PRIMITIVE_COUNT] - prims_before))
        if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
            break
    exact = [layers.exact_counts(spans, prims) for spans, prims in cycles]
    values = layers.per_layer_metrics(cycles, statistics.median(untraced), statistics.median(traced))
    per_layer = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump({
            "workload": workload.name, "seed": seed,
            "untraced_cycle_s": untraced, "traced_cycle_s": traced,
            "per_layer": values, "exact_counts": exact[0],
            "spans": [{"sid": s.sid, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op, "error": s.error, "attrs": s.attrs}
                      for s in tracer.spans],
        }, fh)
        fh.write("\n")
    return {
        "cycles": len(traced),
        "per_layer": per_layer,
        "exact_counts": exact[0],
        "exact_counts_repeat": all(e == exact[0] for e in exact),
        "trace_file": os.path.relpath(out_path, ROOT),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    # Set-up: the first import of the library (numpy and scipy included),
    # building the workload's inputs, and one warm-up call.
    tally = Tally()
    with calibration.SpeedMeter(calibration.python_kernel_s, calibration.PYTHON_REFERENCE_S) as meter:
        start = time.perf_counter()
        import workloads

        workload = workloads.build(args.workload, reference)
        run_op(workload.ops[workload.warmup], op_seed(args.seed, -1, workload.warmup), tally)
        setup_s = time.perf_counter() - start - meter.overhead_s
    result = {"raw_setup_s": setup_s, "setup_s": setup_s * meter.speed}
    if args.mode == "measure":
        result.update(measure(workload, args.seed, args.seconds, tally))
    elif args.mode == "trace":
        out = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        result.update(trace(workload, args.seed, args.seconds, tally, out))
    result.update(tally.as_dict())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
