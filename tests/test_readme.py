"""The README's examples work as written: its library code, commands and config files."""

import re
import shlex
from pathlib import Path

from manetwalk.cli import build_parser
from manetwalk.core import config_from, read_config_file
from manetwalk.harness import read_sweep_file, validate_spec

README = Path(__file__).resolve().parent.parent / "README.md"

# Info string of a fenced config example -> how its file is read and validated.
READERS = {
    "config": lambda path: config_from(read_config_file(path)),
    "sweep": lambda path: validate_spec(read_sweep_file(path)),
}


def fenced_blocks(text):
    """(info string, body) of each fenced block in a markdown text."""
    return re.findall(r"^```(\w*)\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def python_blocks(text):
    """The bodies of the fenced ```python blocks in a markdown text."""
    return [body for info, body in fenced_blocks(text) if info == "python"]


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_commands_parse():
    # Parse only: a flag that the CLI no longer has fails here.
    commands = [line for _, body in fenced_blocks(README.read_text(encoding="utf-8"))
                for line in body.splitlines() if line.startswith("manetwalk ")]
    assert any(c.startswith("manetwalk sweep ") for c in commands)
    for command in commands:
        build_parser().parse_args(shlex.split(command, comments=True)[1:])


def test_readme_config_examples_read_and_validate(tmp_path):
    blocks = fenced_blocks(README.read_text(encoding="utf-8"))
    examples = [(info, body) for info, body in blocks if info in READERS]
    assert {info for info, _ in examples} == set(READERS)
    for i, (info, body) in enumerate(examples):
        path = tmp_path / f"example{i}.cfg"
        path.write_text(body, encoding="utf-8")
        READERS[info](path)
    # A `key = value` example in an untagged block would go unchecked.
    for info, body in blocks:
        if not info:
            assert not re.search(r"^\w+ = ", body, flags=re.MULTILINE), body
