"""symlie benchmark: three closed-loop workloads with one client each.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload verify_capped --seed 1 --seconds 30 --trace 0

Workloads
  verify_capped    symlie verify --all --max-degree 12 (every check at its cap)
  verify_uncapped  the 16 uncapped checks at degree 18, run_check in registry order
  cli_session      eight symlie commands in an order drawn from the seed

A round runs the workload's operations once, each process started cold, so
no lru_cache table survives from one round to the next.  Rounds repeat until
--seconds have passed (at least one round).  Every output is checked against
the references in reference.py, outside the timed region.

With --trace 0 the last line of stdout reports wall_s, setup_s and
peak_rss_mb, each the median over the run's rounds (setup_s over every
process the run started, including ten import-only probes).  With
--trace 1 one untraced round is followed by traced rounds, and the last
line reports the per-layer figures of tracing.py and the tracing overhead.
The full record is also written under benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
CHILD = os.path.join(HERE, "child.py")
DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 10

# Registry order and degree cap of every check; a report must pass at
# min(requested degree, cap).  Pinned here so that a change of cap shows
# as a failure instead of silently changing the work measured.
CHECK_CAPS = (
    ("thrall_h", None), ("thrall_e", None), ("main_inverse", None),
    ("main_inverse_alt", None), ("arctanh_pleth", None), ("arctan_pleth_alt", None),
    ("he_restate", None), ("hook_regular", None), ("he_lie_even", None),
    ("hook_alt_even", None), ("hook_alt_odd", None), ("carlitz", 12),
    ("foulkes", 12), ("alt_carlitz", 12), ("tanh_form", 12), ("tan_form", 12),
    ("arctan_sum", None), ("arctanh_sum", None), ("jordan", None),
    ("parity_props", None), ("alt_parity_props", None), ("lie_oracle", 7),
    ("pleth_oracle", 12),
)
REPORT_LINE = re.compile(r"(PASS|FAIL) (\S+) \(max degree (\d+)\): ")
UNCAPPED = tuple(name for name, cap in CHECK_CAPS if cap is None)

# Degrees of the full benchmark; the self-test swaps in small ones.
FULL = {"capped": 12, "uncapped": 18, "inverse_quotient": 18, "inverse_lie_odd": 14,
        "inverse_h": 14, "hooks": 12, "compose": 14, "h_lie": 14, "big_h": 40}
TINY = {"capped": 6, "uncapped": 6, "inverse_quotient": 7, "inverse_lie_odd": 5,
        "inverse_h": 5, "hooks": 4, "compose": 5, "h_lie": 5, "big_h": 8}


def cli_commands(deg):
    """(argv, reader, expected series, expected exit code, known-fault exit code).

    The last is the exit code a documented fault gives today; only that code
    counts as the known fault, any other wrong code counts as wrong.
    """
    text, js = ref.parse_text, ref.parse_json
    return [
        (["inverse", "E_odd/E_even", "--max-degree", str(deg["inverse_quotient"])],
         text, ref.lie_odd, 0, None),
        (["inverse", "Lie_odd", "--max-degree", str(deg["inverse_lie_odd"]), "--basis", "s"],
         text, ref.quotient_in_schur, 0, None),
        (["inverse", "H-1", "--max-degree", str(deg["inverse_h"]), "--basis", "s"],
         text, ref.cadogan_in_schur, 0, None),
        (["expand", "Hk", "--max-degree", str(deg["hooks"]), "--basis", "e"],
         text, ref.hooks_in_e, 0, None),
        (["expand", "(E_odd/E_even) o Lie_odd", "--max-degree", str(deg["compose"]), "--json"],
         js, ref.p1_only, 0, None),
        (["expand", "H o Lie", "--max-degree", str(deg["h_lie"]), "--json"],
         js, ref.p1_geometric, 0, None),
        (["expand", f"h[{deg['big_h']}]", "--max-degree", "2"], text, ref.zero, 0, None),
        # A usage error must exit 2; today cli.main maps the ValueError to 1.
        (["expand", "h[2]", "--max-degree", "-1"], None, None, 2, 1),
    ]


class Run:
    """State of one benchmark run: processes started, outcomes, timings."""

    def __init__(self, deg, trace_path=None):
        self.deg = deg
        self.trace_path = trace_path
        self.started = time.monotonic()
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # failures other than the known fault
        self.verdicts = {}
        self.processes = 0

    def spawn(self, job):
        """Start one cold process; returns (stdout, record or None)."""
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        if job.get("trace"):
            job["trace"]["process"] = self.processes
        self.processes += 1
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(job)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return "", None
        lines = err.splitlines()
        if not lines or not lines[-1].startswith("@@bench "):
            sys.stderr.write(err)
            return out, None
        record = json.loads(lines[-1][len("@@bench "):])
        self.setups.append(record["ready"] - spawned)
        return out, record

    def count(self, ok, label, known_fault=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.wrong.append(label)

    def judge(self, argv, reader, expected, want_rc, out, rc):
        """Check one command's output; verdicts are kept per distinct output."""
        key = (tuple(argv), rc, out)
        if key not in self.verdicts:
            ok = rc == want_rc
            if ok and reader is not None:
                degree = int(argv[argv.index("--max-degree") + 1])
                try:
                    got, seen = reader(out)
                except (ValueError, KeyError) as exc:
                    sys.stderr.write(f"unreadable output of {argv}: {exc}\n")
                    ok = False
                else:
                    ok = seen == list(range(degree + 1)) and got == expected(degree)
            self.verdicts[key] = ok
        return self.verdicts[key]

    def trace_job(self, op):
        return {"path": self.trace_path, "op": op} if self.trace_path else None


def verify_capped(run, seed, traced):
    degree = run.deg["capped"]
    argv = ["verify", "--all", "--max-degree", str(degree)]
    job = {"kind": "cli", "argv": argv}
    if traced:
        job["trace"] = run.trace_job(0)
    out, record = run.spawn(job)
    reports = {}
    for line in out.splitlines():
        match = REPORT_LINE.match(line)
        if match:
            reports[match.group(2)] = (match.group(1), int(match.group(3)))
    for name, cap in CHECK_CAPS:
        effective = degree if cap is None else min(degree, cap)
        ok = record is not None and reports.get(name) == ("PASS", effective)
        run.count(ok, f"verify {name}")
    return [record]


def verify_uncapped(run, seed, traced):
    degree = run.deg["uncapped"]
    job = {"kind": "checks", "names": list(UNCAPPED), "degree": degree}
    if traced:
        job["trace"] = run.trace_job(0)
    _, record = run.spawn(job)
    ops = {op["name"]: op for op in record["ops"]} if record else {}
    for name in UNCAPPED:
        op = ops.get(name)
        run.count(op is not None and op["passed"] and op["max_degree"] == degree,
                  f"run_check {name}")
    return [record]


def cli_session(run, seed, traced):
    commands = cli_commands(run.deg)
    random.Random(seed).shuffle(commands)
    records = []
    for op, (argv, reader, expected, want_rc, fault_rc) in enumerate(commands):
        job = {"kind": "cli", "argv": argv}
        if traced:
            job["trace"] = run.trace_job(op)
        out, record = run.spawn(job)
        records.append(record)
        rc = record["ops"][0]["rc"] if record else None
        ok = record is not None and run.judge(argv, reader, expected, want_rc, out, rc)
        run.count(ok, "symlie " + " ".join(argv), known_fault=fault_rc is not None and rc == fault_rc)
    return records


WORKLOADS = {
    "verify_capped": verify_capped,
    "verify_uncapped": verify_uncapped,
    "cli_session": cli_session,
}


def round_wall(records):
    return sum(op["s"] for record in records if record for op in record["ops"])


def layer_metrics(records):
    """Sum the per-process trace figures of one round into named metrics."""
    traces = [record["trace"] for record in records if record and "trace" in record]
    out = {}
    for key, value in traces[0].items():
        if isinstance(value, (int, float)):
            out[key] = sum(t[key] for t in traces)
    out["symfunc.max_den_bits"] = max(t["symfunc.max_den_bits"] for t in traces)
    keys = [len(t["lie.series_build_keys"]) for t in traces]
    out["lie.series_builds_distinct"] = sum(keys)
    builds = out["lie.series_builds"]
    out["lie.series_rebuild_share"] = 1 - sum(keys) / builds if builds else 0.0
    for name, _ in CHECK_CAPS:
        out[f"verify.check.{name}.s"] = sum(t["verify.check"].get(name, 0.0) for t in traces)
    return out


LAYER_UNITS = {"calls": "count", "term_pairs": "count", "s": "s", "max_den_bits": "bits",
               "series_builds": "count", "series_builds_distinct": "count", "spans": "count",
               "series_rebuild_share": "ratio", "overhead_s": "s", "overhead_share": "ratio"}


def unit_of(name):
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def run_workload(name, seed, seconds, trace, deg=FULL):
    """Run one workload; returns the result object printed as the last line."""
    os.makedirs(RESULTS, exist_ok=True)
    trace_path = None
    if trace:
        trace_path = os.path.join(RESULTS, f"{name}-seed{seed}-spans.csv")
        with open(trace_path, "w", encoding="ascii") as handle:
            handle.write("process,op,span,parent,name,start,end\n")
    run = Run(deg, trace_path)
    body = WORKLOADS[name]
    rounds = []
    if not trace:
        for _ in range(SETUP_PROBES):
            run.spawn({"kind": "probe"})
    else:
        untraced = round_wall(body(run, seed, False))
    while True:
        records = body(run, seed, bool(trace))
        rounds.append(records)
        if None in records or time.monotonic() - run.started >= seconds:
            break
    walls = [round_wall(records) for records in rounds]
    if trace:
        per_round = [layer_metrics(records) for records in rounds]
        metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
        metrics["trace.overhead_s"] = statistics.median(walls) - untraced
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
        reported = {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()}
    else:
        rss = [max((r["peak_rss_mb"] for r in records if r), default=0.0) for records in rounds]
        reported = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    result = {"correct": not run.wrong, "attempted": run.attempted,
              "failed": run.failed, "metrics": reported}
    round_ops = [[op["s"] for r in records if r for op in r["ops"]] for records in rounds]
    detail = dict(result, workload=name, seed=seed, rounds=len(rounds), round_walls=walls,
                  round_ops=round_ops, setups=run.setups, processes=run.processes, wrong=run.wrong)
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "symlie", "__init__.py")):
        sys.stderr.write(f"no symlie sources under {ROOT}/src: run from a full checkout\n")
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
