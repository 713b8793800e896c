import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

from steadyparts.cli import cli


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def invoke_cli(args: list[str]) -> CliResult:
    """Run the CLI in this process on `args`, with stdout and stderr captured
    apart.  The code is that of the SystemExit the CLI raised, or 0 if it
    returned; any other exception propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli(args)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture()
def run_cli():
    return invoke_cli
