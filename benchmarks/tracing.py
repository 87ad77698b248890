"""Spans and counts recorded around the public calls into each symlie layer.

Nothing under src/ is edited: after ``import symlie`` the tracer replaces
the class methods (``SymFunc.__mul__``, ``GradedSeries.__mul__``) and every
module's imported binding of the traced functions (``pleth`` as bound in
``lie``, ``verify``, ``cli`` and ``plethysm`` itself, and so on) with a
wrapper that opens a span.  Spans stay in memory, in flat arrays, and are
written out once the process has finished its operations.

Each layer's time is inclusive and counted only at its outermost span, so a
recursive call (``cli.evaluate``) or a generator called from another
generator is not counted twice.
"""

from __future__ import annotations

import importlib
import time
from array import array
from fractions import Fraction

# Metric names are fixed here; BENCHMARK.json lists the same ones.
SPAN_LAYERS = (
    "symfunc.mul",
    "symfunc.generators",
    "symfunc.expand_in_basis",
    "series.mul",
    "series.inverse",
    "series.compose_scalar",
    "plethysm.pleth",
    "plethysm.pleth_inverse",
    "lie.staircase_skew",
    "lie.series_build",
    "oracle.alternating_count",
    "oracle.lie_character",
    "oracle.pleth_sweep",
    "cli.parse",
    "cli.evaluate",
    "cli.output",
    "partitions.partitions_of",
)
CALL_COUNTED = (
    "symfunc.mul",
    "series.mul",
    "plethysm.pleth",
    "plethysm.pleth_inverse",
    "lie.staircase_skew",
)


class Tracer:
    def __init__(self, op_id):
        self.op_id = op_id
        self.names = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.active = {}
        self.seconds = {}
        self.calls = {}
        self.term_pairs = 0
        self.max_den_bits = 0
        self.builds = 0
        self.build_keys = set()

    # -- span bookkeeping ---------------------------------------------------------

    def open(self, name):
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(index)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.active[name] = self.active.get(name, 0) + 1
        self.starts.append(time.perf_counter())
        return index

    def close(self, index):
        end = time.perf_counter()
        self.ends[index] = end
        self.stack.pop()
        name = self.names[index]
        depth = self.active[name] - 1
        self.active[name] = depth
        if depth == 0:
            self.seconds[name] = self.seconds.get(name, 0.0) + end - self.starts[index]

    def wrap(self, name, fn, name_of=None):
        def traced(*args, **kwargs):
            index = self.open(name_of(args) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers --------------------------------------------------

    def install(self):
        # importlib, since the package attribute symlie.lie is the function lie()
        symlie, cli, lie, oracle, partitions, plethysm, series, symfunc, verify = (
            importlib.import_module(name) for name in (
                "symlie", "symlie.cli", "symlie.lie", "symlie.oracle", "symlie.partitions",
                "symlie.plethysm", "symlie.series", "symlie.symfunc", "symlie.verify"))
        modules = (symlie, cli, lie, oracle, partitions, plethysm, series, symfunc, verify)

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
            for key, entry in list(lie.SERIES_REGISTRY.items()):
                if entry.builder is original:
                    lie.SERIES_REGISTRY[key] = entry._replace(builder=replacement)

        def trace_function(name, original, name_of=None):
            rebind(original, self.wrap(name, original, name_of))

        sym_mul = symfunc.SymFunc.__mul__
        symfunc.SymFunc.__mul__ = symfunc.SymFunc.__rmul__ = self._symfunc_mul(sym_mul)
        ser_mul = series.GradedSeries.__mul__
        series.GradedSeries.__mul__ = series.GradedSeries.__rmul__ = self.wrap(
            "series.mul", ser_mul
        )
        for fn in (symfunc.h, symfunc.e, symfunc.schur):
            trace_function("symfunc.generators", fn)
        trace_function("symfunc.expand_in_basis", symfunc.expand_in_basis)
        trace_function("series.inverse", series.series_inverse)
        trace_function("series.compose_scalar", series.compose_scalar)
        trace_function("plethysm.pleth", plethysm.pleth)
        trace_function("plethysm.pleth_inverse", plethysm.pleth_inverse)
        trace_function("lie.staircase_skew", lie.staircase_skew)
        for fn in (lie.h_series, lie.e_series, lie.lie_series, lie.hook_series,
                   lie.hk_alt_series, lie.jordan_series):
            rebind(fn, self._series_build(fn))
        trace_function("oracle.alternating_count", oracle.alternating_count)
        trace_function("oracle.lie_character", oracle.lie_character)
        trace_function("oracle.pleth_sweep", oracle.monomial_pleth_collected)
        trace_function("oracle.pleth_sweep", oracle.specialize_collected)
        trace_function("verify.check", verify.run_check,
                       name_of=lambda args: f"verify.check.{args[0]}")
        trace_function("cli.parse", cli.parse)
        trace_function("cli.evaluate", cli.evaluate)
        trace_function("cli.output", cli._series_lines)
        trace_function("cli.output", cli._series_json)
        trace_function("partitions.partitions_of", partitions.partitions_of)

    def _symfunc_mul(self, original):
        def traced(f, g):
            index = self.open("symfunc.mul")
            try:
                result = original(f, g)
            finally:
                self.close(index)
            other = 1 if isinstance(g, (int, Fraction)) else len(g.terms)
            self.term_pairs += len(f.terms) * other
            if result is not NotImplemented and result.terms:
                bits = max(c.denominator for c in result.terms.values()).bit_length()
                if bits > self.max_den_bits:
                    self.max_den_bits = bits
            return result

        return traced

    def _series_build(self, original):
        def traced(*args):
            self.builds += 1
            self.build_keys.add((original.__name__,) + args)
            index = self.open("lie.series_build")
            try:
                return original(*args)
            finally:
                self.close(index)

        return traced

    # -- results -------------------------------------------------------------------

    def metrics(self):
        """Raw per-process figures; the caller sums them over processes."""
        out = {f"{name}.s": self.seconds.get(name, 0.0) for name in SPAN_LAYERS}
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        out["symfunc.mul.term_pairs"] = self.term_pairs
        out["symfunc.max_den_bits"] = self.max_den_bits
        out["lie.series_builds"] = self.builds
        out["lie.series_build_keys"] = sorted(repr(key) for key in self.build_keys)
        out["verify.check"] = {
            name[len("verify.check."):]: seconds
            for name, seconds in self.seconds.items()
            if name.startswith("verify.check.")
        }
        out["trace.spans"] = len(self.starts)
        return out

    def write(self, path, process):
        """Append one CSV line per span: process, op, span, parent, name, start, end."""
        lines = [
            f"{process},{self.op_id},{i},{self.parents[i]},{self.names[i]},"
            f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n"
            for i in range(len(self.starts))
        ]
        with open(path, "a", encoding="ascii") as handle:
            handle.writelines(lines)
