"""Count the code lines of Python modules: lines without docstrings,
comments or blank lines.

    python3 tools/codelines.py [path ...]

Each path is a module or a directory searched for ``*.py``; the default is
this checkout's ``src/``.  One line per module gives its count, then a
``total`` line.  A line counts when a token other than a comment or a
docstring starts on it or runs across it, so a call over two lines counts
two.  A docstring is a statement that is only a string, wherever it
stands.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src"])
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        for module in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = code_lines(module.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
