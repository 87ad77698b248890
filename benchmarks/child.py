"""One benchmark process: start cold, import symlie, run its operations.

Usage: python3 benchmarks/child.py '<job as JSON>'

The job is one of
  {"kind": "probe"}                                   import and exit
  {"kind": "cli", "argv": [...]}                      one symlie command
  {"kind": "checks", "names": [...], "degree": n}     run_check in order

and may carry "trace": {"path": ..., "process": ..., "op": ...} to record
spans.  The command's own output goes to stdout, as the symlie script would
print it.  The timing record is the last line of stderr, after the marker
``@@bench``, so that it never mixes with the command's output.
"""

import json
import sys
import time

MARKER = "@@bench "


def main():
    job = json.loads(sys.argv[1])
    import symlie  # noqa: F401  (set-up ends once the package is imported)
    from symlie import cli, verify

    ready = time.monotonic()
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer(job["trace"]["op"])
        tracer.install()
    record = {"ready": ready, "ops": []}
    if job["kind"] == "cli":
        start = time.perf_counter()
        code = cli.main(job["argv"])
        sys.stdout.flush()
        record["ops"].append({"s": time.perf_counter() - start, "rc": code})
    elif job["kind"] == "checks":
        for name in job["names"]:
            start = time.perf_counter()
            report = verify.run_check(name, job["degree"])
            elapsed = time.perf_counter() - start
            record["ops"].append({
                "s": elapsed,
                "name": name,
                "passed": report.passed,
                "max_degree": report.max_degree,
            })
    import resource

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["trace"] = tracer.metrics()
        tracer.write(job["trace"]["path"], job["trace"]["process"])
    sys.stderr.write("\n" + MARKER + json.dumps(record) + "\n")
    sys.stderr.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
