"""tools/same.py, the comparison of a tree's outputs with those of a commit."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    not (ROOT / ".git").exists() or shutil.which("git") is None,
    reason="needs a git checkout",
)


def _head_src(dest: Path) -> Path:
    archive = subprocess.run(
        ["git", "archive", "HEAD", "src"], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def _same(src: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same.py"), "--against", "HEAD", "--seed", "5",
         "--src", str(src)],
        capture_output=True, text=True, timeout=600,
    )


def test_a_tree_is_the_same_as_itself(tmp_path):
    result = _same(_head_src(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "normal-forms", "paper-order", "traces", "unitaries", "branches", "cli", "errors"
    ]
    for line in lines:
        assert " holds, " in line and line.endswith("largest difference 0, bit-equal"), line


def test_a_changed_angle_is_caught(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    library = src / "onewaylab" / "library.py"
    text = library.read_text()
    planted = "(Entangle(i, k), Measure(i, angle.negated()), CorrectX(k, signal(i)))"
    assert text.count(planted) == 1
    library.write_text(text.replace(planted, planted.replace("angle.negated()", "angle")))
    result = _same(src)
    assert result.returncode == 1, result.stdout + result.stderr
    unitaries = next(line for line in result.stdout.splitlines() if line.startswith("unitaries:"))
    assert "DIFFERS" in unitaries


def test_a_changed_error_message_is_caught(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    patterns = src / "onewaylab" / "patterns.py"
    text = patterns.read_text()
    planted = 'f"input/output qubit {q!r} not in space"'
    assert text.count(planted) == 1
    patterns.write_text(text.replace(planted, planted.replace("not in space", "outside the space")))
    result = _same(src)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = dict(line.split(": ", 1) for line in result.stdout.splitlines())
    assert lines["errors"].startswith("DIFFERS"), lines
    assert lines["normal-forms"].startswith("holds"), lines


def test_a_changed_trace_text_is_caught(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    rewrite = src / "onewaylab" / "rewrite.py"
    text = rewrite.read_text()
    planted = 'f"{step.rule.value} @ {step.position}: {before} => {after}"'
    assert text.count(planted) == 1
    rewrite.write_text(text.replace(planted, planted.replace(" => ", " -> ")))
    result = _same(src)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = dict(line.split(": ", 1) for line in result.stdout.splitlines())
    assert lines["traces"].startswith("DIFFERS"), lines
    assert lines["normal-forms"].startswith("holds") and lines["paper-order"].startswith("holds"), lines


def test_a_tree_that_raises_while_its_corpus_is_built_gives_a_differs_line(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    patterns = src / "onewaylab" / "patterns.py"
    text = patterns.read_text()
    planted = "Pattern._rebuilt(interface, first.commands + second.commands)"
    assert text.count(planted) == 1
    # the composite runs its second operand first, so standardizing the
    # composed unitary-check patterns raises while the dumper builds them
    swapped = planted.replace("first.commands + second", "second.commands + first")
    patterns.write_text(text.replace(planted, swapped))
    result = _same(src)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    lines = dict(line.split(": ", 1) for line in result.stdout.splitlines())
    assert list(lines) == ["normal-forms", "paper-order", "traces", "unitaries", "branches", "cli", "errors"]
    assert lines["unitaries"].startswith("DIFFERS"), lines
