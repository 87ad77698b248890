"""Run the benchmark over several seeds and report the spread of each metric.

Usage (from the root of a checkout):

    python3 benchmarks/batch.py --label A --seeds 1-10 [--workloads cli_session,...]

Each run is a separate `python3 benchmarks/run.py` process, started as
BENCHMARK.json says, with its run_seconds and tracing off.  For every workload
and end-to-end metric the batch prints the median of the per-run values,
the first and third quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, and how long each run took.  The
summary is written to benchmarks/results/batch-<label>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "values": values}


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    summary = {}
    for workload in args.workloads.split(","):
        results, elapsed = [], []
        for seed in seeds_of(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            elapsed.append(time.monotonic() - started)
            result = json.loads(proc.stdout.splitlines()[-1])
            results.append(result)
            print(workload, seed, f"{elapsed[-1]:.1f}s", json.dumps(result), flush=True)
        entry = {
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "correct": all(r["correct"] for r in results),
            "run_seconds": spread(elapsed),
            "metrics": {name: spread([r["metrics"][name]["value"] for r in results])
                        for name in results[0]["metrics"]},
        }
        summary[workload] = entry
        for name, s in entry["metrics"].items():
            print(f"  {workload:16s} {name:24s} median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} iqr/median {s['iqr_share']:.3f}")
        print(f"  {workload:16s} failed share {entry['failed_share']} correct {entry['correct']}",
              flush=True)
    with open(os.path.join(HERE, "results", f"batch-{args.label}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
