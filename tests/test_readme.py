"""The README's Python API example runs, and each commented value is what
its line returns; its command-line examples print the lines they show."""

import re
import shlex
from pathlib import Path

import pytest

from homgenus.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_api_example():
    block = re.search(r"## Python API\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no Python API example"
    namespace = {}
    checked = 0
    for line in block.group(1).splitlines():
        code, sep, comment = line.partition("  # ")
        if sep:
            assert repr(eval(code, namespace)) == comment.strip(), line
            checked += 1
        else:
            assert "#" not in line, "a comment the test cannot read: %r" % line
            exec(code, namespace)
    assert checked


def _cli_examples():
    """(argv, shown lines) for each `$ homgenus ...` example of the Command
    line section, skipping the piped ones, the --json ones (their shown
    output is abridged JSON) and the bare `reproduce`."""
    block = re.search(r"## Command line\n.*?```\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no command-line examples"
    examples = []
    for line in block.group(1).splitlines():
        if line.startswith("$ homgenus "):
            examples.append((line[len("$ homgenus "):], []))
        elif line:
            examples[-1][1].append(line)
    return [
        (shlex.split(cmd, comments=True), shown)
        for cmd, shown in examples
        if "|" not in cmd and "--json" not in cmd and shlex.split(cmd, comments=True) != ["reproduce"]
    ]


CLI_EXAMPLES = _cli_examples()


@pytest.mark.parametrize("argv, shown", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_readme_cli_example(capsys, argv, shown):
    # each shown line is an output line, in order, with `...` matching anything
    assert main(argv) == 0
    lines = iter(capsys.readouterr().out.splitlines())
    for want in shown:
        pattern = ".*".join(map(re.escape, want.split("...")))
        assert any(re.fullmatch(pattern, line) for line in lines), want
