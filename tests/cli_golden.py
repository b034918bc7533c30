"""The CLI's golden transcript, ``tests/data/cli_golden.json``, and its one
reader.

Each case holds an argv (the arguments after ``freebax``), the exit code,
the exact stdout, and the stderr: exact, or ``{"has": ..., "lacks": ...}``,
one substring it must hold and one it must not, for argparse's usage text,
which each Python version lays out its own way.  An optional "why" says
what the case pins.  ``tests/test_cli.py`` runs every case in process,
through ``freebax.cli.main``.  Run as a script, ``python
tests/cli_golden.py``, this module runs them against the installed
``freebax`` script, 10 s at most each, and prints every failing case.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import traceback

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")
TIMEOUT = 10  # seconds per case against the installed script
FIELDS = {"argv", "code", "stdout", "stderr"}


def load() -> list[dict]:
    with open(PATH, encoding="utf-8") as f:
        cases = json.load(f)
    for case in cases:
        err = case.get("stderr", "")
        if set(case) - {"why"} != FIELDS or not isinstance(err, str) and set(err) != {"has", "lacks"}:
            raise ValueError(f"malformed case {case!r}")
    return cases


def in_process(argv) -> tuple:
    """(exit code, stdout, stderr) of ``freebax.cli.main(argv)``, with the
    code and the traceback the script would give for a ``SystemExit`` or an
    escaping exception."""
    from freebax.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def installed(argv) -> tuple:
    """(exit code, stdout, stderr) of the ``freebax`` script on the PATH."""
    try:
        proc = subprocess.run(["freebax", *argv], capture_output=True, encoding="utf-8", timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {TIMEOUT} s"
    return proc.returncode, proc.stdout, proc.stderr


def failures(run, cases: list[dict]) -> list[str]:
    """One report per case that ``run`` fails: its argv, what was expected
    and what came, as (code, stdout, stderr)."""
    reports = []
    for case in cases:
        got = run(case["argv"])
        code, stdout, stderr = got
        err = case["stderr"]
        err_ok = stderr == err if isinstance(err, str) else err["has"] in stderr and err["lacks"] not in stderr
        if code != case["code"] or stdout != case["stdout"] or not err_ok:
            want = (case["code"], case["stdout"], err)
            reports.append(f"argv {case['argv']!r}\n  expected {want!r}\n  got      {got!r}")
    return reports


def main() -> int:
    cases = load()
    reports = failures(installed, cases)
    print("\n".join(reports + [f"{len(cases) - len(reports)}/{len(cases)} CLI cases passed"]))
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
