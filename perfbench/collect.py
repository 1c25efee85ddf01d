"""Run the benchmark over several seeds and summarise it as one trajectory point.

From the repository root:

    python3 perfbench/collect.py --out perfbench/trajectory/<label>.json

For every workload in BENCHMARK.json it runs `run.py --trace 0` once for each
of the seeds 0-9, one run at a time, and reports each end-to-end metric's
median and its spread (quartile distance over median, as
statistics.quantiles(n=4) gives the quartiles) against the metric's bound. It
then adds one --trace 1 run per workload, on seed 0. The exit code is 1 when
any run fails, is not correct, or a spread reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
SEEDS = list(range(10))


def run_once(config: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(details, result) of one benchmark run; raises when the run exits nonzero or times out.

    The details gain elapsed_s, the run's whole wall time, which bounds how many runs fit a budget.
    """
    cmd = [sys.executable, *config["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2])
    details["elapsed_s"] = elapsed
    return details, json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary: dict = {"run_seconds": config["run_seconds"], "seeds": SEEDS, "workloads": {}}
    ok = True
    for name in (w["name"] for w in config["workloads"]):
        runs = []
        for seed in SEEDS:
            details, result = run_once(config, name, seed, 0)
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append({"seed": seed, "details": details, "result": result})
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} ops={result['attempted']} "
                  f"elapsed={details['elapsed_s']:.1f}s {values}", flush=True)
        entry: dict = {"runs": runs, "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            row = {"median": statistics.median(values), "bound": bound,
                   "unit": runs[0]["result"]["metrics"][metric]["unit"]}
            row["spread"] = spread(values)
            ok = ok and row["spread"] < bound / 3
            entry["end_to_end"][metric] = row
            print(f"  {name} {metric}: {row}", flush=True)
        details, result = run_once(config, name, SEEDS[0], 1)
        ok = ok and result["correct"]
        entry["traced"] = {"seed": SEEDS[0], "details": details, "result": result}
        print(f"  {name} traced: correct={result['correct']} overhead="
              f"{result['metrics']['trace.overhead']['value']:.3f}", flush=True)
        summary["workloads"][name] = entry
    summary["machine"] = runs[0]["details"]["machine"]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady and correct" if ok else "NOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
