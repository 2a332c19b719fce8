"""The README's Python API example runs, and each commented value is what
its line returns."""

import re
from pathlib import Path

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
