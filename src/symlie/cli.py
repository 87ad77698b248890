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

Commands: expand, pleth, inverse, verify, list-checks.  Exit codes: 0 on
success (verify: all requested checks passed), 1 on a failed check or
evaluation error, 2 on usage or syntax errors, including a --max-degree
outside [0, MAX_DEGREE].
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Union

from .lie import SERIES_REGISTRY, compose_named, named_series
from .partitions import check_partition
from .plethysm import ConstantTermError, LeadingTermError, pleth, pleth_inverse
from .series import (
    GradedSeries,
    NonUnitConstantError,
    arctan_series,
    arctanh_series,
    exp_series,
    log1p_series,
    parity_split,
    tan_series,
    tanh_series,
)
from .symfunc import SymFunc, e, expand_in_basis, h, p, render, schur
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


# --- abstract syntax -------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Gen:
    kind: str  # 'p' | 'h' | 'e' | 's'
    arg: Union[int, tuple]
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Name:
    ident: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pleth:
    outer: "Expr"
    inner: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    pos: int = field(default=0, compare=False)


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

# Ceiling on --max-degree: a series allocates one slot per degree before any
# work, so an absurd bound would exhaust memory instead of failing fast.
MAX_DEGREE = 40


# --- tokenizer / parser -----------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'name' | symbol itself
    text: str
    pos: int  # 1-based byte offset of the first character


def _tokenize(source: str) -> List[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
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


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0

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
            return Pleth(node, self.factor(), op.pos)
        return node

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return Num(int(token.text), token.pos)
        if token.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if token.kind == "name":
            self.advance()
            text = token.text
            if text in _GENERATORS and self.peek().kind == "[":
                return self._generator(text, token.pos)
            if text in _FUNCTIONS and self.peek().kind == "(":
                self.advance()
                arg = self.expr()
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
                parts.append(int(self.advance().text))
                while self.peek().kind == ",":
                    self.advance()
                    parts.append(int(self.expect("int").text))
            self.expect("]")
            try:
                lam = check_partition(parts)
            except ValueError as exc:
                raise EvalError(pos, str(exc)) from exc
            return Gen("s", lam, pos)
        value = int(self.expect("int").text)
        self.expect("]")
        return Gen(kind, value, pos)


def parse(source: str) -> Expr:
    """Parse an expression; raises ParseError with a 1-based offset."""
    return _Parser(source).parse()


def render_expr(expr: Expr) -> str:
    """Fully parenthesized text form; reparses to an equal tree."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Gen):
        if expr.kind == "s":
            return "s[" + ",".join(str(part) for part in expr.arg) + "]"
        return f"{expr.kind}[{expr.arg}]"
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Call):
        return f"{expr.fn}({render_expr(expr.arg)})"
    if isinstance(expr, Pleth):
        return f"({render_expr(expr.outer)} o {render_expr(expr.inner)})"
    if isinstance(expr, BinOp):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    raise TypeError(f"not an Expr: {expr!r}")


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
        if expr.kind == "s":
            return GradedSeries.from_symfunc(schur(expr.arg), max_degree)
        k = expr.arg
        try:
            f = {"p": p, "h": h, "e": e}[expr.kind](k)
        except ValueError as exc:
            raise EvalError(expr.pos, str(exc)) from exc
        return GradedSeries.from_symfunc(f, max_degree)
    if isinstance(expr, Name):
        return named_series(_registered(expr), max_degree)
    if isinstance(expr, Call):
        arg = evaluate(expr.arg, max_degree)
        try:
            return _FUNCTIONS[expr.fn](arg)
        except NonUnitConstantError as exc:
            raise EvalError(expr.pos, str(exc)) from exc
    if isinstance(expr, Pleth):
        # A bare name is never built as a series: H, E and HE compose
        # through the plethystic exponential in lie.compose_named.
        name = _registered(expr.outer) if isinstance(expr.outer, Name) else None
        outer = None if name else evaluate(expr.outer, max_degree)
        inner = evaluate(expr.inner, max_degree)
        try:
            return compose_named(name, inner) if name else pleth(outer, inner)
        except ConstantTermError as exc:
            raise EvalError(expr.pos, str(exc)) from exc
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, max_degree)
        right = evaluate(expr.right, max_degree)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        try:
            return left / right
        except NonUnitConstantError as exc:
            raise EvalError(expr.pos, str(exc)) from exc
    raise TypeError(f"not an Expr: {expr!r}")


# --- output -----------------------------------------------------------------------


def _component_terms(component: SymFunc, basis: str):
    coeffs = expand_in_basis(component, basis)
    order = sorted(coeffs, key=lambda lam: (sum(lam), lam))
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


def _cmd_expand(args) -> int:
    series = evaluate(parse(args.expr), args.max_degree)
    if args.json:
        print(json.dumps(_series_json("expand", series, args.basis)))
    else:
        for line in _series_lines(series, args.basis):
            print(line)
    return 0


def _cmd_pleth(args) -> int:
    outer = parse(args.outer)
    inner = parse(args.inner)
    series = evaluate(Pleth(outer, inner), args.max_degree)
    if args.json:
        print(json.dumps(_series_json("pleth", series, args.basis)))
    else:
        for line in _series_lines(series, args.basis):
            print(line)
    return 0


def _cmd_inverse(args) -> int:
    series = evaluate(parse(args.expr), args.max_degree)
    try:
        inverse = pleth_inverse(series)
    except LeadingTermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(_series_json("inverse", inverse, args.basis)))
    else:
        for line in _series_lines(inverse, args.basis):
            print(line)
    return 0


def _cmd_verify(args) -> int:
    if args.check is not None:
        known = {name for name, _ in check_names()}
        if args.check not in known:
            print(f"usage error: unknown check {args.check!r}", file=sys.stderr)
            return 2
        reports = [run_check(args.check, args.max_degree)]
    else:
        reports = run_all(args.max_degree)
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
    return 0 if all(report.passed for report in reports) else 1


def _cmd_list_checks(args) -> int:
    for name, anchor in check_names():
        print(f"{name}\t{anchor}")
    return 0


def _max_degree(text: str) -> int:
    """argparse type for --max-degree: an integer in [0, MAX_DEGREE], else exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    if value > MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DEGREE}, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlie",
        description="Exact symmetric-function engine: expand, compose and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_):
        p_.add_argument("--max-degree", type=_max_degree, default=8)
        p_.add_argument("--basis", choices=("p", "s", "h", "e"), default="p")
        p_.add_argument("--json", action="store_true")

    p_expand = sub.add_parser("expand", help="print each degree of an expression")
    p_expand.add_argument("expr")
    common(p_expand)
    p_expand.set_defaults(func=_cmd_expand)

    p_pleth = sub.add_parser("pleth", help="expand (outer) o (inner)")
    p_pleth.add_argument("outer")
    p_pleth.add_argument("inner")
    common(p_pleth)
    p_pleth.set_defaults(func=_cmd_pleth)

    p_inverse = sub.add_parser("inverse", help="plethystic inverse of an expression")
    p_inverse.add_argument("expr")
    common(p_inverse)
    p_inverse.set_defaults(func=_cmd_inverse)

    p_verify = sub.add_parser("verify", help="run registered identity checks")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--check")
    p_verify.add_argument("--max-degree", type=_max_degree, default=8)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list-checks", help="list check names with anchors")
    p_list.set_defaults(func=_cmd_list_checks)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
