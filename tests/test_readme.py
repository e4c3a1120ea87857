"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """The bodies of the fenced ```python blocks in a markdown text."""
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
