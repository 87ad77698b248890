"""Self-test of the benchmark at tiny degrees; takes about twenty seconds.

Usage (from the root of a checkout):  python3 benchmarks/selftest.py

It checks that
  * every workload reports exactly the metrics BENCHMARK.json names, with
    tracing off (end_to_end) and on (per_layer), and that its outputs pass;
  * the only failed operation is the known one, `expand "h[2]" --max-degree -1`,
    and it is exempt only while it exits 1, as the documented fault does;
  * a corrupted reference value, or a wrong expected degree cap, makes an
    operation count as failed and the run incorrect, so the checks can fail;
  * without the symlie sources, run.py exits non-zero and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import reference as ref
import run

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def tiny(workload, trace=0):
    return run.run_workload(workload, seed=0, seconds=0, trace=trace, deg=run.TINY)


def test_metrics_reported(spec):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            result = tiny(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: metrics and units as declared")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{workload} trace={trace}: every value is a number")
            expect(result["correct"], f"{workload} trace={trace}: outputs correct")
            known = result["attempted"] // 8 if workload == "cli_session" else 0
            expect(result["failed"] == known,
                   f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{workload}: every end-to-end value is above 0")


def test_corrupted_reference():
    original = ref.lie_odd

    def corrupted(max_degree):
        out = original(max_degree)
        out[3] = dict(out[3])
        out[3][(3,)] += Fraction(1, 7)
        return out

    ref.lie_odd = corrupted
    try:
        result = tiny("cli_session")
    finally:
        ref.lie_odd = original
    expect(result["failed"] == 2 and not result["correct"],
           "a corrupted reference coefficient counts the inverse command as failed")


def test_fault_changed():
    """The known fault is exempt only while it exits 1; exiting 0 counts as wrong."""
    original = run.Run.spawn

    def spawn(self, job):
        out, record = original(self, job)
        if job.get("argv", [])[-2:] == ["--max-degree", "-1"] and record:
            out = "0\n"
            record["ops"][0]["rc"] = 0
        return out, record

    run.Run.spawn = spawn
    try:
        result = tiny("cli_session")
    finally:
        run.Run.spawn = original
    expect(result["failed"] == 1 and not result["correct"],
           "the faulty command exiting 0 instead of 1 makes the run incorrect")


def test_wrong_cap():
    original = run.CHECK_CAPS
    run.CHECK_CAPS = tuple((name, 3 if name == "lie_oracle" else cap) for name, cap in original)
    try:
        result = tiny("verify_capped")
    finally:
        run.CHECK_CAPS = original
    expect(result["failed"] == 1 and not result["correct"],
           "a report at a degree other than min(requested, cap) counts as failed")


def test_without_sources(spec):
    bare = os.path.join(HERE, "results", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(SPEC_PATH, bare)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, nothing printed")


def main():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    test_metrics_reported(spec)
    test_corrupted_reference()
    test_fault_changed()
    test_wrong_cap()
    test_without_sources(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
