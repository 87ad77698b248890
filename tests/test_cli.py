import json
from fractions import Fraction

import pytest

import symlie.cli as cli
from symlie.cli import (
    BinOp,
    EvalError,
    Gen,
    MAX_DEGREE,
    Name,
    ParseError,
    Pleth,
    evaluate,
    main,
    parse,
    render_expr,
)
from symlie.series import GradedSeries
from symlie.symfunc import SymFunc, p
from symlie.verify import run_check

from helpers import prefix_equal


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


@pytest.mark.parametrize("source", RENDER_CORPUS)
def test_render_parse_round_trip(source):
    tree = parse(source)
    rendered = render_expr(tree)
    assert parse(rendered) == tree


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
        "error: error at offset 0: "
        "plethysm into a series with nonzero constant term is undefined\n"
    )


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


def test_cli_list_checks(capsys):
    code = main(["list-checks"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 23
    assert out[0].startswith("thrall_h\t")


def test_cli_usage_error(capsys):
    assert main(["expand"]) == 2
    capsys.readouterr()
    assert main(["unknown-command"]) == 2
    capsys.readouterr()


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
    ],
)
def test_cli_bad_max_degree_is_usage_error(capsys, monkeypatch, argv):
    def unbuilt(*args):
        raise AssertionError("built something for a rejected --max-degree")

    for name in ("evaluate", "run_all", "run_check"):
        monkeypatch.setattr(cli, name, unbuilt)
    assert main(argv) == 2
    assert "--max-degree" in capsys.readouterr().err


def test_cli_max_degree_at_ceiling(capsys):
    # The ceiling bounds the truncation, not a generator's degree.
    assert main(["expand", "h[40]", "--max-degree", "2"]) == 0
    assert main(["expand", "p[1]", "--max-degree", str(MAX_DEGREE)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"deg {MAX_DEGREE}: 0"


def test_cli_verify_json_carries_mismatch(capsys, monkeypatch):
    def perturbed(name, max_degree):
        return run_check(name, max_degree, perturb=(0, 0, 3, (3,), Fraction(1)))

    monkeypatch.setattr(cli, "run_check", perturbed)
    code = main(["verify", "--check", "thrall_h", "--max-degree", "6", "--json"])
    (record,) = json.loads(capsys.readouterr().out)["results"]
    assert code == 1
    assert record["passed"] is False
    assert record["first_failure_degree"] == 3
    assert record["mismatch"]["lhs"].startswith("H[Lie]: ")
    assert record["mismatch"]["rhs"] == "H[Lie]: p[1,1,1]"
