import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from math import comb
from pathlib import Path

import pytest

import symlie.cli as cli
from symlie.cli import (
    BinOp,
    EvalError,
    Gen,
    MAX_DEGREE,
    MAX_EXPR_DEPTH,
    Name,
    Num,
    ParseError,
    Pleth,
    evaluate,
    main,
    parse,
)
from symlie.series import GradedSeries
from symlie.symfunc import BASES, SymFunc, p
from symlie.verify import CHECKS

from helpers import prefix_equal, render_expr, run_perturbed


def test_parse_pleth_of_generators():
    tree = parse("p[2] o p[3]")
    assert isinstance(tree, Pleth)
    assert tree.outer == Gen("p", 2, 1)
    assert tree.inner == Gen("p", 3, 8)


def test_parse_quotient_of_names():
    tree = parse("E_odd / E_even")
    assert isinstance(tree, BinOp) and tree.op == "/"
    assert tree.left == Name("E_odd", 1)
    assert tree.right == Name("E_even", 9)


def test_parse_schur_generator():
    tree = parse("s[3,1]")
    assert tree == Gen("s", (3, 1), 1)
    assert parse("s[]") == Gen("s", (), 1)


def test_syntax_nodes_are_immutable_values_without_position():
    tree = parse("p[2] o (E + 1)")
    for field in ("outer", "inner", "pos"):
        with pytest.raises(AttributeError):
            setattr(tree, field, Name("H"))
    with pytest.raises(AttributeError):
        del tree.inner
    moved = Pleth(Gen("p", 2, 5), BinOp("+", Name("E", 9), Num(1, 3), 4), 2)
    assert moved == tree and hash(moved) == hash(tree)
    assert Gen("p", 2) != Gen("h", 2) and Name("H") != Num(1)


def test_parse_error_offset():
    with pytest.raises(ParseError) as info:
        parse("p[2] o")
    assert info.value.offset == 7
    assert "expected" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse("(h[2]")
    assert info.value.offset == 6

    with pytest.raises(ParseError) as info:
        parse("h[2] !")
    assert info.value.offset == 6


def test_pleth_right_associative():
    tree = parse("p[2] o p[3] o p[5]")
    assert isinstance(tree, Pleth)
    assert isinstance(tree.inner, Pleth)
    assert tree.outer == Gen("p", 2, 1)


def test_pleth_binds_tighter_than_mul():
    tree = parse("H * E o Lie")
    assert isinstance(tree, BinOp) and tree.op == "*"
    assert isinstance(tree.right, Pleth)


RENDER_CORPUS = [
    "p[2] o p[3]",
    "E_odd / E_even",
    "(E_odd/E_even) o Lie_odd",
    "1 - h[2] * 3 + e[4]",
    "tanh(arctanh(p[1]))",
    "odd(H) * even(E)",
    "s[2,1] + s[3]",
    "H o Lie",
    "exp(log1p(p[1]))",
    "h[1] o h[2] o h[1]",
]


@pytest.mark.parametrize(
    "source",
    RENDER_CORPUS
    + [
        " o ".join(["p[1]"] * 100),
        "(p[1] o p[2]) o (p[3] + 1) o h[2] * 3",
        "p[1] - (p[2] - p[3]) * (h[2] / (e[2] * 2)) o p[1]",
        "(1 + p[1]) * (2 - p[2] - (p[3] + p[4])) / (p[1] * p[2])",
        "exp((p[1] + p[2]) o p[1]) - (p[1] - (p[2] + p[3]))",
    ],
)
def test_render_parse_round_trip(source):
    tree = parse(source)
    rendered = render_expr(tree)
    assert parse(rendered) == tree


@pytest.mark.parametrize(
    "source, rendered",
    [
        ("((p[1] + p[2])) * p[3]", "(p[1] + p[2]) * p[3]"),
        ("(p[1] * p[2]) / (p[3] * p[4])", "p[1] * p[2] / (p[3] * p[4])"),
        ("(p[1] - p[2]) - (p[3] - p[4])", "p[1] - p[2] - (p[3] - p[4])"),
        ("p[1] + (p[2] * p[3])", "p[1] + p[2] * p[3]"),
        ("(p[1] o p[2]) o (p[3] o p[4])", "(p[1] o p[2]) o p[3] o p[4]"),
        ("(H + 0) o (Lie * 2)", "(H + 0) o (Lie * 2)"),
        ("(H o Lie) * 2", "H o Lie * 2"),
    ],
)
def test_render_adds_only_needed_parentheses(source, rendered):
    assert render_expr(parse(source)) == rendered


def test_equality_ignores_positions():
    tree = parse("(E_odd/E_even) o s[2,1]")
    shifted = parse("   ( E_odd / E_even )  o  s[2, 1]")
    assert shifted.pos != tree.pos
    assert shifted == tree
    assert hash(shifted) == hash(tree)


@pytest.mark.parametrize("source", RENDER_CORPUS)
def test_eval_truncation_extension(source):
    tree = parse(source)
    small = evaluate(tree, 6)
    large = evaluate(tree, 9)
    assert prefix_equal(small, large, 6)


def test_evaluate_examples():
    series = evaluate(parse("(E_odd/E_even) o Lie_odd"), 9)
    assert series.components[1] == p(1)
    assert all(not series.components[d] for d in range(10) if d != 1)

    thrall = evaluate(parse("H o Lie"), 8)
    for d in range(9):
        assert thrall.components[d] == SymFunc({(1,) * d: 1} if d else {(): 1})

    one = evaluate(parse("1"), 5)
    assert one == GradedSeries.constant(1, 5)

    # rational constants arise through division of integer literals
    half = evaluate(parse("1/2"), 3)
    assert half == GradedSeries.constant(Fraction(1, 2), 3)


def test_evaluate_errors_carry_positions():
    with pytest.raises(EvalError) as info:
        evaluate(parse("H o E"), 5)
    assert info.value.offset == 3

    with pytest.raises(EvalError) as info:
        evaluate(parse("p[0]"), 5)
    assert info.value.offset == 1

    with pytest.raises(EvalError) as info:
        evaluate(parse("Mystery"), 5)
    assert info.value.offset == 1

    # in a chain, at the '/' whose divisor has no unit constant term
    for source, offset in [("1/p[2]/(1+p[1])", 2), ("1/(1+p[1])/p[2]", 11)]:
        with pytest.raises(EvalError) as info:
            evaluate(parse(source), 4)
        assert info.value.offset == offset


@pytest.mark.parametrize("source, offset", [("p[1] + s[1,2]", 8), ("s[2,0]", 1)])
def test_cli_schur_shape_that_is_not_a_partition_is_an_error(source, offset, capsys):
    assert main(["expand", source, "--max-degree", "3"]) == 1
    err = capsys.readouterr().err
    assert f"offset {offset}" in err and "partition parts" in err


def test_generator_above_bound_is_zero(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("built a generator above the bound")

    for name in ("p", "h", "e", "schur"):
        monkeypatch.setattr(cli, name, unbuilt)
    series = evaluate(parse("h[60] + e[60] + p[60] + s[40,20]"), 2)
    assert series == GradedSeries(2)
    monkeypatch.undo()
    assert evaluate(parse("h[2] + s[2,1]"), 2) == evaluate(parse("h[2]"), 2)
    with pytest.raises(EvalError):
        evaluate(parse("p[0]"), 0)


def test_cli_expand_output(capsys):
    code = main(["expand", "h[2]", "--max-degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "deg 0: 0\n"
        "deg 1: 0\n"
        "deg 2: 1/2*p[1,1] + 1/2*p[2]\n"
        "deg 3: 0\n"
    )


def test_cli_expand_schur_basis(capsys):
    code = main(["expand", "h[2]*e[1]", "--max-degree", "3", "--basis", "s"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[3] == "deg 3: s[2,1] + s[3]"


def test_cli_expand_sparse_input_in_h_basis(capsys):
    # h[24] alone has 1575 p-terms; solving it in the h basis takes one step
    code = main(["expand", "h[24]", "--max-degree", "24", "--basis", "h"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[24] == "deg 24: h[24]"
    assert out[:24] == [f"deg {d}: 0" for d in range(24)]


def test_cli_expand_json(capsys):
    code = main(["expand", "e[2]", "--max-degree", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload == {
        "command": "expand",
        "max_degree": 2,
        "results": [
            {"degree": 0, "terms": []},
            {"degree": 1, "terms": []},
            {
                "degree": 2,
                "terms": [
                    {"partition": [1, 1], "num": 1, "den": 2},
                    {"partition": [2], "num": -1, "den": 2},
                ],
            },
        ],
    }


def test_cli_pleth_command(capsys):
    code = main(["pleth", "p[2]", "p[3]", "--max-degree", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[6] == "deg 6: p[6]"


def test_cli_inverse_command(capsys):
    code = main(["inverse", "E_odd/E_even", "--max-degree", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1] == "deg 1: p[1]"
    assert out[3] == "deg 3: 1/3*p[1,1,1] - 1/3*p[3]"


def test_cli_inverse_rejects_bad_leading_term(capsys):
    code = main(["inverse", "h[2]", "--max-degree", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "degree-1 part p_1" in captured.err


def test_cli_syntax_error_exit_code(capsys):
    code = main(["expand", "p[2] o", "--max-degree", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "offset 7" in captured.err


@pytest.mark.parametrize(
    "source, offset",
    # one literal longer than int()'s digit limit as a number, as a p/h/e
    # index and as a part of s[...]
    [("9" * 5000, 1), ("p[" + "9" * 5000 + "]", 3), ("s[2," + "9" * 5000 + "]", 5)],
    ids=["number", "index", "schur_part"],
)
def test_cli_oversized_integer_is_a_syntax_error(source, offset, capsys):
    with pytest.raises(ParseError) as raised:
        parse(source)
    assert raised.value.offset == offset
    assert main(["expand", source, "--max-degree", "2"]) == 2
    assert f"offset {offset}" in capsys.readouterr().err


def _mixed(levels: int) -> str:
    """`levels` levels that alternate 'o' and tanh(, each with a call, an 'o',
    a '+' and a '*' in it; the exp( call closes before the next level opens."""
    source = "p[1]"
    for level in range(levels, 0, -1):
        source = f"tanh({source})" if level % 2 == 0 else f"p[1]+p[2] o {source}*exp(p[1])"
    return source


# Each builder nests an expression `levels` levels deep, and the pattern
# matches the tokens that open its levels, in order; a chain of binary
# operators opens none, so "sums" has no pattern.
_DEEP = {
    "parentheses": (lambda levels: "(" * levels + "p[1]" + ")" * levels, r"\("),
    "calls": (lambda levels: "exp(" * levels + "p[1]" + ")" * levels, "exp"),
    "plethysms": (lambda levels: " o ".join(["p[1]"] * (levels + 1)), r"\bo\b"),
    "mixed": (_mixed, r"\bo\b|tanh"),
    "sums": (lambda levels: "+".join(["p[1]"] * (levels + 1)), None),
}


@pytest.mark.parametrize("shape", sorted(s for s in _DEEP if _DEEP[s][1]))
def test_cli_deep_nesting_is_a_syntax_error(shape, capsys):
    build, pattern = _DEEP[shape]
    source = build(3000)
    # the 1-based offset of the token that opens level MAX_EXPR_DEPTH + 1
    openers = re.finditer(pattern, source)
    offset = next(islice(openers, MAX_EXPR_DEPTH, None)).start() + 1
    with pytest.raises(ParseError) as info:
        parse(source)
    assert info.value.offset == offset
    assert main(["expand", source, "--max-degree", "3"]) == 2
    assert f"offset {offset}:" in capsys.readouterr().err


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_cli_nesting_at_the_limit_is_accepted(shape, capsys):
    source = _DEEP[shape][0](MAX_EXPR_DEPTH)
    if shape == "calls":
        # exp(p[1]) has constant term 1, which the next exp cannot take
        source = source.replace("exp(", "tanh(")
    tree = parse(source)
    assert parse(source) == tree and hash(parse(source)) == hash(tree)
    assert main(["expand", source, "--max-degree", "3", "--json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "op, term, expected",
    # 3000 p[1] summed, and 3000 factors 1 + p[1]: sum_k C(3000, k) p_1^k
    [("+", "p[1]", [0, 3000, 0, 0]), ("*", "(1+p[1])", [comb(3000, k) for k in range(4)])],
    ids=["sums", "products"],
)
def test_cli_long_chains_evaluate(op, term, expected, capsys):
    # far longer than the interpreter's recursion limit; the tree is never
    # compared or hashed, since both recurse once per node
    source = op.join([term] * 3000)
    series = evaluate(parse(source), 3)
    assert series == GradedSeries(3, {k: SymFunc({(1,) * k: c}) for k, c in enumerate(expected)})
    assert main(["expand", source, "--max-degree", "3", "--json"]) == 0
    capsys.readouterr()


def test_cli_chains_evaluate_left_to_right():
    one_plus = [1 + GradedSeries(4, {k: p(k)}) for k in (1, 2, 3)]
    assert evaluate(parse("p[1]-p[2]-p[3]"), 4) == GradedSeries(
        4, {1: p(1), 2: -p(2), 3: -p(3)}
    )
    assert evaluate(parse("(1+p[1])/(1+p[2])/(1+p[3])"), 4) == (
        one_plus[0] / one_plus[1] / one_plus[2]
    )


def test_cli_eval_error_exit_code(capsys):
    code = main(["expand", "H o E", "--max-degree", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "constant term" in captured.err


@pytest.mark.parametrize(
    "outer, inner", [("H", "Lie"), ("E", "Lie_odd"), ("HE", "Lie_odd")]
)
def test_cli_bare_name_composes_like_the_generic_plethysm(capsys, outer, inner):
    # "(H+0)" is not a bare name, so it is built as a series and composed
    # with the generic pleth.
    outputs = []
    for source in (f"{outer} o {inner}", f"({outer}+0) o {inner}"):
        assert main(["expand", source, "--max-degree", "10", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_pleth_bare_name_keeps_constant_term_error(capsys):
    errors = []
    for outer in ("H", "(H+0)"):
        assert main(["pleth", outer, "1+p[1]", "--max-degree", "4"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: error at offset 1: "
        "plethysm into a series with nonzero constant term is undefined\n"
    )


CONSTANT_TERM = "plethysm into a series with nonzero constant term is undefined"


@pytest.mark.parametrize("argv, message", [
    (["expand", "tan(1+p[1])"], f"error at offset 1: {CONSTANT_TERM}"),
    (["expand", "exp(1+p[1])"], f"error at offset 1: {CONSTANT_TERM}"),
    (["expand", "H o (1+p[1])"], f"error at offset 3: {CONSTANT_TERM}"),
    (["expand", "(H+0) o (1+p[1])"], f"error at offset 7: {CONSTANT_TERM}"),
    (["expand", "p[2]/p[1]"],
     "error at offset 5: cannot divide by a series with zero constant term"),
    (["expand", "p[0]"], "error at offset 1: p_k requires k >= 1"),
    # pleth_inverse runs on the whole expression, so there is no node to point at
    (["inverse", "p[2]"], "composition inverse requires degree-1 part p_1 exactly"),
])
def test_cli_library_error_exits_1_at_the_offset_of_its_node(argv, message, capsys):
    assert main(argv + ["--max-degree", "4"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_help_is_the_usage_the_readme_shows(capsys):
    assert main(["-h"]) == 0
    usage = capsys.readouterr().out
    assert f"```\n{usage}```\n" in (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the three series commands list the bases expand_in_basis knows
    assert usage.count(f"[--basis {'|'.join(BASES)}]") == 3


def test_cli_verify_single_check(capsys):
    code = main(["verify", "--check", "main_inverse", "--max-degree", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS main_inverse (max degree 7)")


def test_cli_verify_unknown_check(capsys):
    code = main(["verify", "--check", "bogus", "--max-degree", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown check" in captured.err


def test_cli_verify_requires_selection(capsys):
    code = main(["verify", "--max-degree", "5"])
    assert code == 2


def test_cli_verify_all_json(capsys):
    code = main(["verify", "--all", "--max-degree", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["command"] == "verify"
    assert payload["max_degree"] == 3
    names = [record["check_name"] for record in payload["results"]]
    assert names[0] == "thrall_h"
    assert all(record["passed"] for record in payload["results"])
    assert all("first_failure_degree" not in record for record in payload["results"])


def test_cli_verify_all_at_the_highest_cap(capsys):
    code = main(["verify", "--all", "--max-degree", "12", "--json"])
    records = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert len(records) == 25
    caps = {check.name: check.cap for check in CHECKS}
    for record in records:
        cap = caps[record["check_name"]]
        assert record["passed"], record["check_name"]
        assert record["max_degree"] == (12 if cap is None else min(12, cap))


def test_cli_list_checks(capsys):
    code = main(["list-checks"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 25
    assert out[0].startswith("thrall_h\t")


def test_cli_usage_error(capsys):
    assert main(["expand"]) == 2
    capsys.readouterr()
    assert main(["unknown-command"]) == 2
    capsys.readouterr()


@pytest.fixture
def nothing_built(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("built something for a usage error")

    for name in ("evaluate", "run_all", "run_check"):
        monkeypatch.setattr(cli, name, unbuilt)


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "h[2]", "--max-degree", "-1"],
        ["inverse", "E_odd/E_even", "--max-degree", "-1"],
        ["verify", "--all", "--max-degree", "-1"],
        ["verify", "--check", "thrall_h", "--max-degree", "-2"],
        ["expand", "h[2]", "--max-degree", "two"],
        ["expand", "H", "--max-degree", str(MAX_DEGREE + 1)],
        ["verify", "--all", "--max-degree", str(10**12)],
        ["expand", "h[2]", "--max-degree=-1"],
        ["expand", "h[2]", "--max-degree="],
        ["verify", "--all", "--max-degree"],
    ],
)
def test_cli_bad_max_degree_is_usage_error(capsys, nothing_built, argv):
    assert main(argv) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert "error:" in last and "--max-degree" in last


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["unknown-command"],
        ["expand", "h[2]", "--bogus"],
        ["expand", "h[2]", "--json=yes"],
        ["list-checks", "--json"],
        ["expand", "h[2]", "--basis"],
        ["expand"],
        ["pleth", "p[2]"],
        ["expand", "h[2]", "h[3]"],
        ["list-checks", "extra"],
        ["verify", "--all", "--check", "thrall_h"],
        ["verify"],
        ["verify", "--check", "bogus"],
        ["expand", "h[2]", "--basis", "x"],
    ],
)
def test_cli_usage_error_prints_usage_and_one_error_line(capsys, nothing_built, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert lines[0].startswith("usage: symlie expand EXPR")
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].startswith("error: ")


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["expand", "-h"], ["verify", "--all", "--help"]]
)
def test_cli_help_prints_usage(capsys, nothing_built, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: symlie") and captured.err == ""
    for command in ("expand", "pleth", "inverse", "verify", "list-checks"):
        assert f"symlie {command}" in captured.out


def test_cli_option_value_may_follow_equals(capsys):
    assert main(["expand", "h[2]*e[1]", "--max-degree", "5", "--basis", "s"]) == 0
    spaced = capsys.readouterr().out
    assert main(["expand", "h[2]*e[1]", "--max-degree=5", "--basis=s"]) == 0
    assert capsys.readouterr().out == spaced
    assert spaced.splitlines()[-1].startswith("deg 5: ")


def test_cold_import_loads_no_dataclasses_inspect_or_argparse():
    # Only the modules the import adds count, not those a site hook preloads.
    src = str(Path(cli.__file__).parents[1])
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import symlie, symlie.cli, symlie.verify; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    added = set(json.loads(run.stdout))
    assert "symlie.cli" in added
    assert not added & {"dataclasses", "inspect", "argparse"}


def test_cli_max_degree_at_ceiling(capsys):
    # The ceiling bounds the truncation, not a generator's degree.
    assert main(["expand", "h[40]", "--max-degree", "2"]) == 0
    assert main(["expand", "p[1]", "--max-degree", str(MAX_DEGREE)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"deg {MAX_DEGREE}: 0"


def test_cli_verify_json_carries_mismatch(capsys, monkeypatch):
    def perturbed(name, max_degree):
        return run_perturbed(name, max_degree, (0, 0, 3, (3,), Fraction(1)))

    monkeypatch.setattr(cli, "run_check", perturbed)
    code = main(["verify", "--check", "thrall_h", "--max-degree", "6", "--json"])
    (record,) = json.loads(capsys.readouterr().out)["results"]
    assert code == 1
    assert record["passed"] is False
    assert record["first_failure_degree"] == 3
    assert record["mismatch"]["lhs"].startswith("H[Lie]: ")
    assert record["mismatch"]["rhs"] == "H[Lie]: p[1,1,1]"


def test_cli_verify_text_names_the_first_difference(capsys, monkeypatch):
    def perturbed(name, max_degree):
        return run_perturbed(name, max_degree, (0, 1, 4, (2, 1, 1), Fraction(-2, 3)))

    monkeypatch.setattr(cli, "run_check", perturbed)
    code = main(["verify", "--check", "thrall_h", "--max-degree", "6"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[1:] == [
        "  first failure at degree 4",
        "  lhs: H[Lie]: p[1,1,1,1]",
        "  rhs: H[Lie]: p[1,1,1,1] - 2/3*p[2,1,1]",
        "  first difference at p[2,1,1]: lhs - rhs = 2/3",
    ]


def test_cli_reader_closing_the_pipe_exits_1_without_a_traceback():
    # the degree-30 line is about 190 KB, more than a pipe holds, so the
    # writer is still printing when the reader goes away
    src = str(Path(cli.__file__).parents[1])
    run = subprocess.Popen(
        [sys.executable, "-m", "symlie.cli", "expand", "h[30]", "--max-degree", "30"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert run.stdout.readline() == b"deg 0: 0\n"
    run.stdout.close()
    stderr = run.stderr.read()
    assert run.wait(timeout=60) == 1
    assert stderr == b""
