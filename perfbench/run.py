"""franklin-forge benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's details and the machine stamp. The program is imported from src/ of the
checkout this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
P99_MIN_OPS = 1000
MAX_TRACEBACKS = 3  # per record; later failures are only counted
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import franklin_forge.cli; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_cpu_p50_s": "s",
    "cells_per_s": "1/s",
    "peak_mib": "MiB",
}


class Record:
    """Timings, checks and output digests of the ops of one measured phase."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.cells = 0
        self.failed = 0
        self.digests: list[object] = []

    @property
    def ops(self) -> int:
        return len(self.wall)

    def run(self, ff, workload, state, i: int, tracer=None) -> None:
        """Time op i (traced when a tracer is given), then check it outside the timing."""
        if tracer is not None:
            tracer.install()
        try:
            c0, t0 = process_time(), perf_counter()
            try:
                out, error = workload.op(ff, state, i), None
            except Exception as exc:
                out, error = None, exc
            t1, c1 = perf_counter(), process_time()
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.cells += workload.cells(state, i)
        report = self.failed < MAX_TRACEBACKS
        if error is None:
            digest, passed = checked(workload, state, i, out, report)
        else:
            if report:
                traceback.print_exception(error, file=sys.stderr)
            digest, passed = None, False
        self.digests.append(digest if passed else None)
        self.failed += not passed


def checked(workload, state, i: int, out, report: bool = True) -> tuple[object, bool]:
    """(digest, passed) for the output of op i; a check that raises fails the op."""
    try:
        return workload.digest(state, out), bool(workload.check(state, i, out))
    except Exception:
        if report:
            traceback.print_exc(file=sys.stderr)
        return None, False


def run_op(ff, workload, state, i: int) -> tuple[object, bool]:
    """Run op i untimed and check it."""
    try:
        out = workload.op(ff, state, i)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, False
    return checked(workload, state, i, out)


def measure(ff, workload, state, seconds: float, tracer=None) -> tuple[Record, Record]:
    """Closed loop over ops 0, 1, ... until `seconds` have passed.

    With a tracer each op runs twice, untraced and traced, so both records see
    the same inputs and the same machine state; which of the two goes first
    alternates, so neither gains from running second. Without a tracer the
    second record stays empty.
    """
    plain, traced = Record(), Record()
    gc.collect()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        if tracer is None:
            plain.run(ff, workload, state, i)
        elif i % 2:
            traced.run(ff, workload, state, i, tracer)
            plain.run(ff, workload, state, i)
        else:
            plain.run(ff, workload, state, i)
            traced.run(ff, workload, state, i, tracer)
        i += 1
        if perf_counter() >= deadline:
            return plain, traced


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user's first call pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def peak_mib(ff, workload, state) -> tuple[float, bool]:
    """tracemalloc peak of single ops, in an untimed pass; the largest over the workload's peak ops."""
    peak, ok = 0, True
    for i in workload.peak_indices(state):
        # A collection empties the free lists first, so the peak does not
        # depend on what earlier set-ups left in them.
        gc.collect()
        tracemalloc.start()
        try:
            _, passed = run_op(ff, workload, state, i)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        ok = ok and passed
    return peak / 2**20, ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "franklin_forge" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    ff = importlib.import_module("franklin_forge")
    importlib.import_module("franklin_forge.cli")
    import numpy

    from perfbench import machine, tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        imports, setups, correct = [], [], True
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            t0 = perf_counter()
            state = workload.setup(ff, args.seed, workdir)
            warm = workload.setup(ff, args.seed, workdir, warm=True)
            _, warm_ok = run_op(ff, workload, warm, 0)
            setups.append(imports[-1] + perf_counter() - t0)
            correct = correct and warm_ok
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "import_reps_s": imports, "setup_reps_s": setups}

        if args.trace:
            tracer = tracing.Tracer(ff)
            plain, traced = measure(ff, workload, state, args.seconds, tracer)
            same = plain.digests == traced.digests
            correct = correct and same
            attempted, failed = plain.ops + traced.ops, plain.failed + traced.failed
            plain_p50, traced_p50 = statistics.median(plain.wall), statistics.median(traced.wall)
            values = tracer.metrics(traced.ops)
            values["trace.op_p50_s"] = traced_p50
            values["trace.overhead"] = traced_p50 / plain_p50 - 1
            units = dict(tracing.layer_metric_names())
            details.update(untraced_ops=plain.ops, traced_ops=traced.ops, outputs_match=same)
        else:
            peak, peak_ok = peak_mib(ff, workload, state)
            record, _ = measure(ff, workload, state, args.seconds)
            correct = correct and peak_ok
            attempted, failed = record.ops, record.failed
            values = {
                "setup_s": statistics.median(setups),
                "op_p50_s": statistics.median(record.wall),
                "op_cpu_p50_s": statistics.median(record.cpu),
                "cells_per_s": record.cells / record.ops / statistics.median(record.wall),
                "peak_mib": peak,
            }
            units = END_TO_END_UNITS
            details.update(ops=record.ops, fail_ratio=record.failed / record.ops)
            if record.ops >= P99_MIN_OPS:
                details["op_p99_s"] = statistics.quantiles(record.wall, n=100)[98]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    details["machine"] = machine.stamp(ROOT, numpy.__version__, workload.largest_order(), ff.core.MAX_ORDER)
    print(json.dumps(details))
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
