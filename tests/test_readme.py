"""README.md's examples, checked as shown: each `$ freebax` line that shows
output against its golden case, and the library example against the
comment on each `print`."""
import os
import re
import shlex

import cli_golden

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def read_readme() -> str:
    with open(README, encoding="utf-8") as f:
        return f.read()


def shown_commands(text: str) -> list[tuple[tuple, str]]:
    """(argv, shown output) of each `$ freebax` line in a code block with
    output under it, which runs to a blank line, the next `$` line or the
    end of the block."""
    shown = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.S | re.M):
        for command, output in re.findall(r"^\$ freebax (.*)\n((?:(?!\$ )[^\n]+\n)*)", block, re.M):
            if output:
                shown.append((tuple(shlex.split(command)), output))
    return shown


def test_shown_cli_outputs_are_golden_cases():
    cases = {tuple(case["argv"]): case for case in cli_golden.load()}
    shown = shown_commands(read_readme())
    assert len(shown) >= 7  # README shows seven; fewer means the match broke
    for argv, output in shown:
        assert argv in cases, f"no golden case for the README line {shlex.join(argv)!r}"
        assert (cases[argv]["code"], cases[argv]["stdout"]) == (0, output), argv


def test_library_example_prints_what_its_comments_say():
    source = re.search(r"^## Library example\n\n```python\n(.*?)^```", read_readme(), re.S | re.M).group(1)
    expected = [line.partition("# ")[2] for line in source.splitlines() if line.startswith("print(")]
    printed = []
    exec(source, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert expected and printed == expected
