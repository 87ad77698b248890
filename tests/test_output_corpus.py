"""Byte-identity corpus: CLI outputs that a change to the engine must keep.

Each case runs symlie.cli.main in this process and compares its exit code
with the one listed, and its stderr and stdout with what is stored: stderr,
when there is any, in corpus/<name>.err, and stdout in corpus/<name>.out,
or, for an output above INLINE_LIMIT bytes, its SHA-256 in
corpus/<name>.sha256.  The timings of --json (elapsed_ms) are masked to 0
first; terms and max_den_bits are compared as printed.  After a deliberate change of output,
rewrite the stored files with

    PYTHONPATH=src python tests/test_output_corpus.py

and review their diff.
"""

import hashlib
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from symlie.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
INLINE_LIMIT = 16 * 1024
_ELAPSED = re.compile(r'("elapsed_ms": )[^,}]+')

# name -> (argv, exit code)
CASES = {
    "verify_all_12_json": (["verify", "--all", "--max-degree", "12", "--json"], 0),
    "verify_all_18_json": (["verify", "--all", "--max-degree", "18", "--json"], 0),
    "verify_all_9": (["verify", "--all", "--max-degree", "9"], 0),
    "list_checks": (["list-checks"], 0),
    # the eight commands of the benchmark's cli_session, at its full degrees
    "session_inverse_quotient_18": (["inverse", "E_odd/E_even", "--max-degree", "18"], 0),
    "session_inverse_lie_odd_14_s": (
        ["inverse", "Lie_odd", "--max-degree", "14", "--basis", "s"], 0),
    "session_inverse_h_14_s": (["inverse", "H-1", "--max-degree", "14", "--basis", "s"], 0),
    "session_expand_hooks_12_e": (["expand", "Hk", "--max-degree", "12", "--basis", "e"], 0),
    "session_expand_quotient_o_lie_odd_14_json": (
        ["expand", "(E_odd/E_even) o Lie_odd", "--max-degree", "14", "--json"], 0),
    "session_expand_h_o_lie_14_json": (["expand", "H o Lie", "--max-degree", "14", "--json"], 0),
    "session_expand_h40_2": (["expand", "h[40]", "--max-degree", "2"], 0),
    "session_expand_negative_degree": (["expand", "h[2]", "--max-degree", "-1"], 2),
    # the two large outputs, stored as SHA-256
    "inverse_lie_odd_40": (["inverse", "Lie_odd", "--max-degree", "40"], 0),
    "inverse_h_18_s": (["inverse", "H-1", "--max-degree", "18", "--basis", "s"], 0),
    # one command per basis
    **{f"basis_{basis}": (["expand", "s[2,1] * p[2] + e[3]", "--max-degree", "6",
                           "--basis", basis], 0) for basis in "pshe"},
    # one command per function family
    "fn_exp": (["expand", "exp(Lie)", "--max-degree", "8"], 0),
    "fn_log1p": (["expand", "log1p(H-1)", "--max-degree", "8"], 0),
    "fn_tan": (["expand", "tan(Lie_odd_alt)", "--max-degree", "9"], 0),
    "fn_tanh": (["expand", "tanh(Lie_odd)", "--max-degree", "9"], 0),
    "fn_arctan": (["expand", "arctan(p[1] + h[2])", "--max-degree", "8"], 0),
    "fn_arctanh": (["expand", "arctanh(p[1] - e[2])", "--max-degree", "8"], 0),
    "fn_parity": (["expand", "odd(H) + even_alt(E) - odd_alt(HE) * even(H)",
                   "--max-degree", "6"], 0),
    # the errors, each with its 1-based offset
    "syntax_error": (["expand", "p[1] + * h[2]", "--max-degree", "4"], 2),
    "eval_error": (["expand", "p[1] o (1 + p[1])", "--max-degree", "4"], 1),
    "unknown_series": (["expand", "Lie + Nope", "--max-degree", "4"], 1),
}


def run_masked(argv):
    """Exit code, stdout with elapsed_ms masked, and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, _ELAPSED.sub(r"\g<1>0", out.getvalue()), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_corpus(name):
    argv, expected_code = CASES[name]
    code, out, err = run_masked(argv)
    assert code == expected_code
    errors = CORPUS / f"{name}.err"
    assert err == (errors.read_text() if errors.exists() else "")
    stored = CORPUS / f"{name}.out"
    if stored.exists():
        assert out == stored.read_text()
    else:
        assert _sha256(out) == (CORPUS / f"{name}.sha256").read_text().strip()


def test_masking_keeps_every_other_byte():
    record = '{"elapsed_ms": 1.25e-05, "pairs": 1, "terms": 26, "max_den_bits": 1}'
    assert _ELAPSED.sub(r"\g<1>0", record) == (
        '{"elapsed_ms": 0, "pairs": 1, "terms": 26, "max_den_bits": 1}')


def write_corpus():
    CORPUS.mkdir(exist_ok=True)
    for name, (argv, _) in CASES.items():
        _, out, err = run_masked(argv)
        for suffix in (".out", ".sha256", ".err"):
            (CORPUS / f"{name}{suffix}").unlink(missing_ok=True)
        if err:
            (CORPUS / f"{name}.err").write_text(err)
        if len(out.encode()) > INLINE_LIMIT:
            (CORPUS / f"{name}.sha256").write_text(_sha256(out) + "\n")
        else:
            (CORPUS / f"{name}.out").write_text(out)


if __name__ == "__main__":
    write_corpus()
