"""Command-line front end with a small expression language.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom | atom 'o' factor          # 'o' is plethysm, right-associative
    atom   := integer | generator | name | fn '(' expr ')' | '(' expr ')'

Generators are p[k], h[k], e[k] and s[lam] (e.g. s[3,1]); names resolve via
the named-series registry (H, E, HE, Lie, Lie_odd, ...); fn is one of exp,
log1p, tan, tanh, arctan, arctanh, odd, even, odd_alt, even_alt.  Note that
'o' binds tighter than '*' and '/', so quotients compose as (E_odd/E_even) o X
only with explicit parentheses.

The commands and their options are in _USAGE, which -h prints.  Exit codes:
0 on success (verify: all requested checks passed), 1 on a failed check,
an evaluation error or a reader that closed stdout early (| head), 2 on a
usage error, before anything is built, or a syntax error, including an
expression nested more than MAX_EXPR_DEPTH levels deep (each parenthesis,
function call and 'o' is a level; a chain of binary operators of any
length is not).
"""

from __future__ import annotations

import json
import operator
import os
import sys
from types import SimpleNamespace
from typing import List, Optional, Union

from .lie import SERIES_REGISTRY, compose_named, named_series
from .partitions import check_partition, format_partition
from .plethysm import pleth, pleth_inverse
from .series import (
    GradedSeries,
    arctan_series,
    arctanh_series,
    exp_series,
    log1p_series,
    parity_split,
    tan_series,
    tanh_series,
)
from .symfunc import BASES, SymFunc, _term_sort_key, e, expand_in_basis, h, p, render, schur
from .verify import check_names, run_all, run_check


class ParseError(ValueError):
    """Syntax error with a 1-based byte offset and the expected token set."""

    def __init__(self, offset: int, expected):
        self.offset = offset
        self.expected = sorted(expected)
        super().__init__(
            f"syntax error at offset {offset}: expected {', '.join(self.expected)}"
        )


class EvalError(ValueError):
    """Evaluation error carrying the 1-based offset of the offending node."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"error at offset {offset}: {message}")


def _at(pos: int, fn, *args):
    """fn(*args), a library call, with its ValueError made an EvalError at
    the node whose offset is pos: the one place that maps library errors."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise EvalError(pos, str(exc)) from exc


# --- abstract syntax -------------------------------------------------------------


class _Node:
    """A syntax node or token: immutable, and equal and hashed by its type
    and the fields its class lists in __slots__.  A last positional argument
    gives pos, the 1-based offset of its first token (default 0), which
    takes no part in equality."""

    __slots__ = ("pos",)

    def __init__(self, *values):
        names = self.__slots__ + ("pos",)
        if not len(names) - 1 <= len(values) <= len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, values + (0,)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash((type(self),) + self._values())

    def __repr__(self):
        return f"{type(self).__name__}{self._values() + (self.pos,)!r}"


class Num(_Node):
    __slots__ = ("value",)


class Gen(_Node):
    __slots__ = ("kind", "arg")  # kind is 'p' | 'h' | 'e' | 's'


class Name(_Node):
    __slots__ = ("ident",)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")


class Pleth(_Node):
    __slots__ = ("outer", "inner")


class Call(_Node):
    __slots__ = ("fn", "arg")


Expr = Union[Num, Gen, Name, BinOp, Pleth, Call]

_FUNCTIONS = {
    "exp": exp_series,
    "log1p": log1p_series,
    "tan": tan_series,
    "tanh": tanh_series,
    "arctan": arctan_series,
    "arctanh": arctanh_series,
    "odd": lambda g: parity_split(g, "odd"),
    "even": lambda g: parity_split(g, "even"),
    "odd_alt": lambda g: parity_split(g, "odd", alternating=True),
    "even_alt": lambda g: parity_split(g, "even", alternating=True),
}

_GENERATORS = ("p", "h", "e", "s")

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# Ceiling on --max-degree: a series allocates one slot per degree before any
# work, so an absurd bound would exhaust memory instead of failing fast.
MAX_DEGREE = 40

# Ceiling on how deeply an expression nests.  Each parenthesis, function
# call and 'o' is one level, and parsing and evaluation recurse a bounded
# number of frames per level (at most about 510 of the default 1000 at the
# limit), so deeper input would overflow the interpreter's stack instead of
# failing as a syntax error.  A chain of '+', '-', '*' and '/' opens no
# level: it is parsed in a loop and evaluated along its left spine.
MAX_EXPR_DEPTH = 100


# --- tokenizer / parser -----------------------------------------------------------


class _Token(_Node):
    __slots__ = ("kind", "text")  # kind is 'int' | 'name' | the symbol itself


def _tokenize(source: str) -> List[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(_Token("int", source[i:j], i + 1))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i + 1))
            i = j
        elif ch in "+-*/()[],":
            tokens.append(_Token(ch, ch, i + 1))
            i += 1
        else:
            raise ParseError(i + 1, {"valid token"})
    tokens.append(_Token("end", "", n + 1))
    return tokens


def _integer(token: _Token) -> int:
    """The value of an 'int' token; int() refuses a literal longer than the
    interpreter's digit limit, which is a syntax error at the token."""
    try:
        return int(token.text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(token.pos, {f"integer of at most {limit} digits"}) from None


class _Parser:
    """Recursive descent.  self.depth counts the levels open around the
    token being parsed: each parenthesis, function call and 'o'."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(token.pos, {kind})
        return self.advance()

    def nested(self, token: _Token, parse) -> Expr:
        """Parse one level down; `token` opens the level, which is refused
        past MAX_EXPR_DEPTH."""
        if self.depth == MAX_EXPR_DEPTH:
            raise ParseError(token.pos, {f"at most {MAX_EXPR_DEPTH} nested levels"})
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> Expr:
        expr = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(tail.pos, {"+", "-", "*", "/", "end of input"})
        return expr

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            node = BinOp(op.kind, node, self.term(), op.pos)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            node = BinOp(op.kind, node, self.factor(), op.pos)
        return node

    def factor(self) -> Expr:
        node = self.atom()
        token = self.peek()
        if token.kind == "name" and token.text == "o":
            op = self.advance()
            # right-associative: f o g o h parses as f o (g o h)
            return Pleth(node, self.nested(op, self.factor), op.pos)
        return node

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "int":
            return Num(_integer(self.advance()), token.pos)
        if token.kind == "(":
            self.advance()
            node = self.nested(token, self.expr)
            self.expect(")")
            return node
        if token.kind == "name":
            self.advance()
            text = token.text
            if text in _GENERATORS and self.peek().kind == "[":
                return self._generator(text, token.pos)
            if text in _FUNCTIONS and self.peek().kind == "(":
                self.advance()
                arg = self.nested(token, self.expr)
                self.expect(")")
                return Call(text, arg, token.pos)
            return Name(text, token.pos)
        raise ParseError(
            token.pos, {"integer", "generator", "name", "function", "("}
        )

    def _generator(self, kind: str, pos: int) -> Gen:
        self.expect("[")
        if kind == "s":
            parts = []
            if self.peek().kind == "int":
                parts.append(_integer(self.advance()))
                while self.peek().kind == ",":
                    self.advance()
                    parts.append(_integer(self.expect("int")))
            self.expect("]")
            return Gen("s", _at(pos, check_partition, parts), pos)
        value = _integer(self.expect("int"))
        self.expect("]")
        return Gen(kind, value, pos)


def parse(source: str) -> Expr:
    """Parse an expression; raises ParseError with a 1-based offset."""
    return _Parser(source).parse()


def _registered(node: Name) -> str:
    if node.ident not in SERIES_REGISTRY:
        raise EvalError(node.pos, f"unknown series {node.ident!r}")
    return node.ident


def evaluate(expr: Expr, max_degree: int) -> GradedSeries:
    """Exact evaluation at the given truncation degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if isinstance(expr, Num):
        return GradedSeries.constant(expr.value, max_degree)
    if isinstance(expr, Gen):
        degree = sum(expr.arg) if expr.kind == "s" else expr.arg
        if degree > max_degree:
            # The degree is then positive, valid for every generator, so the
            # index checks below lose nothing by being skipped.
            return GradedSeries(max_degree)
        # built per call, so that it calls the module's current bindings
        f = _at(expr.pos, {"p": p, "h": h, "e": e, "s": schur}[expr.kind], expr.arg)
        return GradedSeries.from_symfunc(f, max_degree)
    if isinstance(expr, Name):
        return named_series(_registered(expr), max_degree)
    if isinstance(expr, Call):
        return _at(expr.pos, _FUNCTIONS[expr.fn], evaluate(expr.arg, max_degree))
    if isinstance(expr, Pleth):
        # A bare name is never built as a series: H, E and HE compose
        # through the plethystic exponential in lie.compose_named.
        name = _registered(expr.outer) if isinstance(expr.outer, Name) else None
        fn, outer = (compose_named, name) if name else (pleth, evaluate(expr.outer, max_degree))
        return _at(expr.pos, fn, outer, evaluate(expr.inner, max_degree))
    if isinstance(expr, BinOp):
        # A chain such as a * b + c - d is a left-deep spine of BinOps, walked
        # here without recursion: its leftmost operand first, then each right
        # operand from the bottom of the spine up.
        spine = []
        while isinstance(expr, BinOp):
            spine.append(expr)
            expr = expr.left
        value = evaluate(expr, max_degree)
        for node in reversed(spine):
            value = _at(node.pos, _ARITHMETIC[node.op], value, evaluate(node.right, max_degree))
        return value
    raise TypeError(f"not an Expr: {expr!r}")


# --- output -----------------------------------------------------------------------


def _component_terms(component: SymFunc, basis: str):
    coeffs = expand_in_basis(component, basis)
    order = sorted(coeffs, key=_term_sort_key)
    return [(lam, coeffs[lam]) for lam in order]


def _render_component(component: SymFunc, basis: str) -> str:
    coeffs = expand_in_basis(component, basis)
    return render(component, symbol=basis, terms=coeffs)


def _series_lines(series: GradedSeries, basis: str) -> List[str]:
    return [
        f"deg {d}: {_render_component(series.components[d], basis)}"
        for d in range(series.max_degree + 1)
    ]


def _series_json(command: str, series: GradedSeries, basis: str) -> dict:
    results = []
    for d in range(series.max_degree + 1):
        terms = [
            {"partition": list(lam), "num": coeff.numerator, "den": coeff.denominator}
            for lam, coeff in _component_terms(series.components[d], basis)
        ]
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
                if report.mismatch:
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
