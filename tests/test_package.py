import onewaylab


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
