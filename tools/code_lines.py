"""Code lines of Python source: blank lines, comments and docstrings excluded.

    python3 tools/code_lines.py [PATH ...]

Prints `count path` for every .py file of the given files and directories
(`src/nuqmc` of this repository by default), then `count total`.  The count
is the tokenizer's: a line counts when a token of code starts or runs on it,
so a statement over three lines counts three, and a line that holds only a
comment, layout or part of a docstring counts none.  A docstring is a string
that stands alone as a statement.
"""

from __future__ import annotations

import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIPPED = {tokenize.COMMENT, tokenize.NL}  # left out before anything is read
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in _SKIPPED]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        before = tokens[i - 1].type if i else tokenize.NEWLINE
        if tok.type == tokenize.STRING and before in _LAYOUT and tokens[i + 1].type in _LAYOUT:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths):
    """The .py files of `paths`, each directory's in sorted order."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or [ROOT / "src" / "nuqmc"]
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {os.path.relpath(path)}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
