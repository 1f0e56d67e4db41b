"""Run a command-line entry point in this process and keep what it printed.

    result = CliRunner().invoke(main, ["verify", "--config", "exp.json"])
    result.exit_code     0 when `main` returns, else its SystemExit code, or 1
                         for any other exception
    result.output        stdout, then stderr
    result.stderr        stderr alone
    result.exception     the SystemExit of a nonzero exit or the exception
                         raised, else None

The attributes are those the CLI tests read; the streams are plain text, so
`main` prints to them as to a UTF-8 terminal.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io


@dataclasses.dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    def invoke(self, main, args: list[str]) -> Result:
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                main(args)
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
        return Result(exit_code, stdout.getvalue(), stderr.getvalue(), exception)
