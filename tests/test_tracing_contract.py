"""The benchmark's tracer binds names inside symlie (benchmarks/tracing.py).
A refactor that renames or inlines one of them would make `--trace 1` count
nothing without failing, so this runs the tracer on two checks, two
`symlie inverse` commands, two plethysms and a tanh through
`symlie expand`, and one `expand --json`.  It runs in a subprocess, since
installing the tracer patches symlie's modules for good."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import symlie
from tracing import Tracer

tracer = Tracer(0)
tracer.install()
from symlie import verify

report = verify.run_check("hook_alt_odd", 5)
assert report.passed, report
metrics = tracer.metrics()
assert metrics["lie.series_builds"] >= 1, metrics["lie.series_builds"]
assert metrics["verify.check"].get("hook_alt_odd", 0) > 0, metrics["verify.check"]

# hk_alt_series builds on every call, so each build counts once
assert verify.run_check("alt_parity_props", 5).passed
metrics = tracer.metrics()
keys = metrics["lie.series_build_keys"]
assert metrics["lie.series_builds"] == len(keys), (metrics["lie.series_builds"], keys)
assert repr(("hook_series", 5)) in keys, keys

from symlie import cli

assert cli.main(["inverse", "H-1", "--max-degree", "5", "--basis", "e"]) == 0
metrics = tracer.metrics()
assert metrics["plethysm.pleth_inverse.calls"] == 1, metrics["plethysm.pleth_inverse.calls"]
assert metrics["symfunc.expand_in_basis.s"] > 0, metrics["symfunc.expand_in_basis.s"]

# the solve runs whole inside the pleth_inverse span: no plethysm of its own
calls = metrics["plethysm.pleth.calls"]
assert cli.main(["inverse", "E_odd/E_even", "--max-degree", "8"]) == 0
metrics = tracer.metrics()
assert metrics["plethysm.pleth_inverse.calls"] == 2, metrics["plethysm.pleth_inverse.calls"]
assert metrics["plethysm.pleth.calls"] == calls, (calls, metrics["plethysm.pleth.calls"])

# the generic plethysm, then the exponential behind a bare name, whose one
# plethysm is its log
calls = metrics["plethysm.pleth.calls"]
assert cli.main(["expand", "(H+0) o Lie", "--max-degree", "5"]) == 0
metrics = tracer.metrics()
assert metrics["plethysm.pleth.calls"] >= calls + 1, (calls, metrics["plethysm.pleth.calls"])
calls = metrics["plethysm.pleth.calls"]
assert cli.main(["expand", "H o Lie", "--max-degree", "5"]) == 0
metrics = tracer.metrics()
assert metrics["plethysm.pleth.calls"] == calls + 1, (calls, metrics["plethysm.pleth.calls"])

# a Taylor series other than exp still goes through compose_scalar
seconds = metrics["series.compose_scalar.s"]
assert cli.main(["expand", "tanh(p[1])", "--max-degree", "5"]) == 0
metrics = tracer.metrics()
assert metrics["series.compose_scalar.s"] > seconds, (seconds, metrics["series.compose_scalar.s"])

# the generators are called through symfunc's attributes, which the tracer rebinds
seconds = metrics["symfunc.generators.s"]
assert cli.main(["expand", "h[2] + e[2] + s[2]", "--max-degree", "3"]) == 0
metrics = tracer.metrics()
assert metrics["symfunc.generators.s"] > seconds, (seconds, metrics["symfunc.generators.s"])

# both printouts run under the cli.output span, the text and the --json one
seconds = metrics["cli.output.s"]
assert seconds > 0, seconds
assert cli.main(["expand", "Hk", "--max-degree", "5", "--basis", "s", "--json"]) == 0
metrics = tracer.metrics()
assert metrics["cli.output.s"] > seconds, (seconds, metrics["cli.output.s"])
print("ok")
"""


def test_tracer_counts_a_traced_check():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"
