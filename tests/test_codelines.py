"""tools/codelines.py, the count of code lines without docstrings,
comments or blank lines."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code


def f(a, b):
    """A function docstring."""
    # a comment on its own line
    return os.path.join(a,
                        b)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(_SOURCE)
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "codelines.py"), str(module)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    # import, def, and the two lines of the return
    assert result.stdout.splitlines() == [f"     4  {module}", "     4  total"]


def test_a_closed_reader_ends_the_tool_with_exit_141():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "codelines.py")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")
