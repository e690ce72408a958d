"""The README's python examples run against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 3
    namespace = {}  # later blocks build on names the earlier ones define
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    # the quick start's single probe sits on class "c", index 2
    assert capsys.readouterr().out.splitlines()[0] == "2"
