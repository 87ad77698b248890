"""The README's examples run as written: the library example's python block,
and each `symlie ...` line of its command-line block, through cli.main."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from symlie import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block_under(heading: str) -> str:
    """The first fenced block after the README heading `## heading`."""
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```[a-z]*\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, heading
    return match.group(1)


def test_readme_examples_run():
    exec(compile(block_under("Library example"), "README.md", "exec"), {})
    commands = [shlex.split(line, comments=True) for line in
                block_under("Command line").splitlines() if line.startswith("symlie ")]
    assert len(commands) == 8
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv[1:])
        assert code == 0, (argv, out.getvalue())
        assert out.getvalue()
