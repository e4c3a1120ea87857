"""Locate the manetwalk sources of the checkout the benchmark lives in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def add_program(src=None) -> Path:
    """Put the checkout's `src/` (or an explicit source tree) first on sys.path.

    Exits with an error when the tree holds no manetwalk package, so a bare
    copy of the benchmark never prints a result.
    """
    src = Path(src).resolve() if src else ROOT / "src"
    if not (src / "manetwalk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no manetwalk package under {src}")
    sys.path.insert(0, str(src))
    return src
