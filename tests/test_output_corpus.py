"""Byte-identity corpus: CLI outputs that a change to the engine must keep.

Each case runs symlie.cli.main in this process and compares its exit code,
stderr and stdout with what is stored: stdout in corpus/<name>.out, or, for
an output above INLINE_LIMIT bytes, its SHA-256 in corpus/<name>.sha256.
The timings of --json (elapsed_ms) are masked to 0 first; terms and
max_den_bits are compared as printed.  After a deliberate change of output,
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

# name -> (argv, exit code, stderr)
CASES = {
    "verify_all_12_json": (["verify", "--all", "--max-degree", "12", "--json"], 0, ""),
    "verify_all_18_json": (["verify", "--all", "--max-degree", "18", "--json"], 0, ""),
    "verify_all_9": (["verify", "--all", "--max-degree", "9"], 0, ""),
    "list_checks": (["list-checks"], 0, ""),
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
    argv, expected_code, expected_err = CASES[name]
    code, out, err = run_masked(argv)
    assert (code, err) == (expected_code, expected_err)
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
    for name, (argv, _, _) in CASES.items():
        _, out, _ = run_masked(argv)
        for suffix in (".out", ".sha256"):
            (CORPUS / f"{name}{suffix}").unlink(missing_ok=True)
        if len(out.encode()) > INLINE_LIMIT:
            (CORPUS / f"{name}.sha256").write_text(_sha256(out) + "\n")
        else:
            (CORPUS / f"{name}.out").write_text(out)


if __name__ == "__main__":
    write_corpus()
