import ast
import subprocess
import sys
from pathlib import Path

import onewaylab

REPO = Path(__file__).resolve().parents[1]


def test_public_names():
    # the package-level surface, pinned so that no name is dropped unnoticed
    assert sorted(onewaylab.__all__) == [
        "Angle", "Branch", "Command", "CorrectX", "CorrectZ", "DslError", "Entangle",
        "Measure", "Pattern", "PatternDocument", "PatternError", "Rule", "Shift", "Signal",
        "angles", "applicable_redexes", "apply_rule", "as_angle", "clifford", "cnot",
        "commands", "compose", "controlled_u", "cz", "dependency_graph", "depth", "dsl",
        "entanglement_graph", "extract_unitary", "ghz", "h", "has_dependencies", "identity",
        "is_clifford", "is_deterministic", "is_emc", "is_pauli_only", "is_standard", "j",
        "j_chain", "library", "p_half", "parse", "parse_document", "patterns",
        "pauli_eliminate", "random_order_standardize", "rename", "rewrite", "rotation",
        "run_all_branches", "rx", "rz", "serialize", "signal", "signals", "simulate",
        "standardize", "standardize_extended", "teleport", "tensor", "termination_measure",
        "validate", "verify_no_dependency_theorems",
    ]


def test_no_module_imports_dataclasses():
    # values are ``__slots__`` classes over ``_values.Value``: importing
    # ``dataclasses`` costs every CLI process, and its classes are slower to build
    offenders = []
    for path in sorted(Path(onewaylab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            offenders += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_failing_property_reports_its_example(tmp_path):
    # under the repo's warning filters, a failing @given test must report its
    # falsifying example, not end in an INTERNALERROR
    test = tmp_path / "test_fails.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"), "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
