"""Command-line front end; the expression language it reads is symlie.expr.

The commands and their options are in _USAGE, which -h prints.  Exit codes:
0 on success (verify: all requested checks passed), 1 on a failed check,
an evaluation error or a reader that closed stdout early (| head), 2 on a
usage error, before anything is built, or a syntax error, including an
expression nested more than expr.MAX_EXPR_DEPTH levels deep (each
parenthesis, function call and 'o' is a level; a chain of binary operators
of any length is not).
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import List, Optional

from .expr import ParseError, Pleth, evaluate, parse
from .partitions import format_partition
from .plethysm import pleth_inverse
from .series import GradedSeries
from .symfunc import BASES, _term_sort_key, expand_in_basis, render
from .verify import check_names, run_all, run_check


# Ceiling on --max-degree: a series allocates one slot per degree before any
# work, so an absurd bound would exhaust memory instead of failing fast.
MAX_DEGREE = 40


# --- output -----------------------------------------------------------------------


def _series_lines(series: GradedSeries, basis: str) -> List[str]:
    return [f"deg {d}: {render(part, basis, expand_in_basis(part, basis))}"
            for d, part in enumerate(series.components)]


def _series_json(command: str, series: GradedSeries, basis: str) -> dict:
    results = []
    for d, part in enumerate(series.components):
        coeffs = expand_in_basis(part, basis)
        terms = [{"partition": list(lam), "num": coeffs[lam].numerator,
                  "den": coeffs[lam].denominator} for lam in sorted(coeffs, key=_term_sort_key)]
        results.append({"degree": d, "terms": terms})
    return {"command": command, "max_degree": series.max_degree, "results": results}


# --- commands ---------------------------------------------------------------------


def _print_series(args, series: GradedSeries) -> int:
    if args.json:
        print(json.dumps(_series_json(args.command, series, args.basis)))
    else:
        for line in _series_lines(series, args.basis):
            print(line)
    return 0


def _cmd_expand(args) -> int:
    return _print_series(args, evaluate(parse(args.expr), args.max_degree))


def _cmd_pleth(args) -> int:
    outer = parse(args.outer)
    inner = parse(args.inner)
    # the node stands for the whole command, so its errors point at offset 1
    return _print_series(args, evaluate(Pleth(outer, inner, 1), args.max_degree))


def _cmd_inverse(args) -> int:
    # a LeadingTermError is main's ValueError: "error: ..." and exit 1
    return _print_series(args, pleth_inverse(evaluate(parse(args.expr), args.max_degree)))


def _cmd_verify(args) -> int:
    if args.all == (args.check is not None):
        raise _UsageError("verify takes exactly one of --all and --check NAME")
    if args.check is not None and args.check not in dict(check_names()):
        raise _UsageError(f"unknown check {args.check!r}")
    reports = run_all(args.max_degree) if args.all else [run_check(args.check, args.max_degree)]
    if args.json:
        payload = {
            "command": "verify",
            "max_degree": args.max_degree,
            "results": [report.as_record() for report in reports],
        }
        print(json.dumps(payload))
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(f"{status} {report.check_name} (max degree {report.max_degree}): "
                  f"{report.paper_anchor}")
            if not report.passed:
                print(f"  first failure at degree {report.first_failure_degree}")
                print(f"  lhs: {report.mismatch[0]}")
                print(f"  rhs: {report.mismatch[1]}")
                print(f"  first difference at p{format_partition(report.mismatch_partition)}: "
                      f"lhs - rhs = {report.mismatch_delta}")
    return 0 if all(report.passed for report in reports) else 1


def _cmd_list_checks(args) -> int:
    for name, anchor in check_names():
        print(f"{name}\t{anchor}")
    return 0


# --- command line -----------------------------------------------------------------

_SERIES_USAGE = f"[--max-degree N] [--basis {'|'.join(BASES)}] [--json]"
_USAGE = f"""\
usage: symlie expand EXPR {_SERIES_USAGE}
       symlie pleth OUTER INNER {_SERIES_USAGE}
       symlie inverse EXPR {_SERIES_USAGE}
       symlie verify (--all | --check NAME) [--max-degree N] [--json]
       symlie list-checks
--max-degree N: 0 <= N <= {MAX_DEGREE}, default 8; --basis: default p; -h, --help: this text.
An option's value is the next argument, or follows '=' (--basis=s).
"""


class _UsageError(Exception):
    """A command line the argv table does not accept: exit 2 with the usage."""


def _max_degree(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_DEGREE:
        raise ValueError(f"must be in [0, {MAX_DEGREE}], got {value}")
    return value


def _basis(text: str) -> str:
    if text not in BASES:
        raise ValueError(f"invalid choice {text!r}")
    return text


# Each option's reader of its value (None for a flag) and its default.
_OPTIONS = {
    "--max-degree": (_max_degree, 8),
    "--basis": (_basis, "p"),
    "--json": (None, False),
    "--all": (None, False),
    "--check": (str, None),
}
_SERIES_OPTIONS = ("--max-degree", "--basis", "--json")

# Each command's positionals, the options it accepts and its handler.
_COMMANDS = {
    "expand": (("expr",), _SERIES_OPTIONS, _cmd_expand),
    "pleth": (("outer", "inner"), _SERIES_OPTIONS, _cmd_pleth),
    "inverse": (("expr",), _SERIES_OPTIONS, _cmd_inverse),
    "verify": ((), ("--all", "--check", "--max-degree", "--json"), _cmd_verify),
    "list-checks": ((), (), _cmd_list_checks),
}


def _read_argv(argv: List[str]):
    """The handler of a command line and its arguments, read by the tables above."""
    if not argv or argv[0] not in _COMMANDS:
        raise _UsageError(f"expected a command, one of {', '.join(_COMMANDS)}")
    command, *rest = argv
    positionals, accepted, handler = _COMMANDS[command]
    options = {option: _OPTIONS[option][1] for option in accepted}
    values = []
    items = iter(rest)
    for item in items:
        option, has_value, text = item.partition("=")
        if not item.startswith("-"):
            values.append(item)
        elif option not in accepted or (has_value and _OPTIONS[option][0] is None):
            raise _UsageError(f"{command} takes no option {item}")
        elif _OPTIONS[option][0] is None:
            options[option] = True
        else:
            text = text if has_value else next(items, None)
            if text is None:
                raise _UsageError(f"{option} needs a value")
            try:
                options[option] = _OPTIONS[option][0](text)
            except ValueError as exc:
                raise _UsageError(f"{option}: {exc}") from None
    if len(values) != len(positionals):
        raise _UsageError(f"{command} takes {len(positionals)} argument(s), got {len(values)}")
    args = SimpleNamespace(command=command, **dict(zip(positionals, values)))
    for option, value in options.items():
        setattr(args, option[2:].replace("-", "_"), value)
    return handler, args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_USAGE, end="")
        return 0
    try:
        handler, args = _read_argv(argv)
        code = handler(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"{_USAGE}error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (| head); the flush above makes
        # that raise here, and what is left in the buffer goes to devnull,
        # so the interpreter's final flush cannot hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
