import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    CNOT_MAT,
    CZ_MAT,
    H_MAT,
    P_HALF_MAT,
    aligned_distance,
    assert_proportional,
    cu_mat,
    ghz_vec,
    j_mat,
    rotation_mat,
)

from onewaylab import rewrite
from onewaylab.angles import Angle
from onewaylab.commands import Entangle, Measure
from onewaylab.dsl import parse, serialize
from onewaylab.library import (
    BUILDERS,
    PatternError,
    cnot,
    controlled_u,
    cz,
    dependency_dot,
    dependency_graph,
    depth,
    entanglement_dot,
    entanglement_graph,
    ghz,
    h,
    identity,
    j,
    j_chain,
    p_half,
    random_circuit_pattern,
    random_wild_pattern,
    rotation,
    rx,
    rz,
    teleport,
)
from onewaylab.patterns import Pattern, validate
from onewaylab.rewrite import is_emc, standardize, standardize_extended
from onewaylab.simulate import extract_unitary, is_deterministic, run_all_branches


def test_builder_shapes():
    assert len(j(0).space) == 2
    assert len(teleport(0, 0).space) == 3
    assert len(rotation(0, 0, 0).space) == 5
    assert len(cnot().space) == 4
    assert len(ghz(4).space) == 7
    assert len(controlled_u(0, 0, 0, 0).space) == 14
    sample_args = {
        "j": (0.5,),
        "rx": (0.5,),
        "rz": (0.5,),
        "rotation": (0.1, 0.2, 0.3),
        "ghz": (3,),
        "cu": (0.1, 0.2, 0.3, 0.4),
    }
    for name, builder in BUILDERS.items():
        pattern = builder(*sample_args.get(name, ()))
        assert validate(pattern).ok, name


def test_j_realizes_its_matrix():
    for alpha in (0, Fraction(1, 4), 0.77):
        theta = float(alpha) * math.pi if not isinstance(alpha, float) else alpha
        u = extract_unitary(j(alpha if isinstance(alpha, float) else alpha))
        assert aligned_distance(u, j_mat(theta)) < 1e-9


def test_h_cz_cnot_p_half_unitaries():
    assert aligned_distance(extract_unitary(h()), H_MAT) < 1e-9
    assert aligned_distance(extract_unitary(cz(1, 2)), CZ_MAT) < 1e-9
    assert aligned_distance(extract_unitary(cnot()), CNOT_MAT) < 1e-9
    assert aligned_distance(extract_unitary(p_half()), P_HALF_MAT) < 1e-9


def test_rotation_family_unitaries():
    a, b, g = 0.3, 0.8, 1.4
    assert aligned_distance(
        extract_unitary(rotation(a, b, g)), rotation_mat(a, b, g)
    ) < 1e-9
    assert aligned_distance(extract_unitary(rx(a)), j_mat(a) @ j_mat(0)) < 1e-9
    assert aligned_distance(extract_unitary(rz(a)), j_mat(0) @ j_mat(a)) < 1e-9


def test_j_chain_composes_left_to_right():
    u = extract_unitary(j_chain([0.2, 0.5, 0.9]))
    assert aligned_distance(u, j_mat(0.9) @ j_mat(0.5) @ j_mat(0.2)) < 1e-9


def test_identity_passthrough():
    p = identity(7)
    assert p.inputs == (7,) and p.outputs == (7,) and p.commands == ()


def test_ghz_state_and_rejection():
    for n in (2, 3, 4):
        branches = run_all_branches(ghz(n))
        assert_proportional(branches[0].output, ghz_vec(n))
    with pytest.raises(PatternError):
        ghz(1)


def test_ghz_past_the_command_limit_is_refused(monkeypatch):
    monkeypatch.setattr(rewrite, "MAX_COMMANDS", 12)
    assert len(ghz(4).commands) == 12  # 4(n - 1) at the limit is accepted
    with pytest.raises(PatternError) as info:
        ghz(5)
    assert str(info.value) == "ghz(5) would hold 16 commands, more than the 12 allowed"


def test_controlled_u_matches_oracle():
    params = (0.3, 0.7, 1.1, 0.5)
    u = extract_unitary(controlled_u(*params), check_deterministic=False)
    assert aligned_distance(u, cu_mat(*params)) < 1e-9


def test_controlled_u_exact_params_stay_exact():
    p = controlled_u(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
    assert all(
        cmd.angle.is_exact for cmd in p.commands if isinstance(cmd, Measure)
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: j_chain([0] * 200),
        lambda: controlled_u(Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)),
        cnot,
        lambda: rotation(Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)),
        lambda: random_circuit_pattern(7, 3, 40),
    ],
    ids=["j_chain-200", "controlled_u", "cnot", "rotation", "random_circuit_pattern"],
)
def test_builders_hand_each_command_to_the_checking_constructor_once(monkeypatch, build):
    # the leaves are checked; compose and tensor join checked parts without
    # a rescan, so the scan stays linear in the result, not quadratic
    handed = []
    checked = Pattern.__init__

    def counting(self, space, inputs, outputs, commands):
        commands = tuple(commands)
        handed.append(len(commands))
        checked(self, space, inputs, outputs, commands)

    monkeypatch.setattr(Pattern, "__init__", counting)
    result = build()
    assert sum(handed) == len(result.commands)


def test_random_wild_pattern_is_valid():
    for seed in range(10):
        assert validate(random_wild_pattern(25, seed)).ok


@pytest.mark.parametrize(
    "n, seed, digest",
    [
        (24, 0, "c20796774009ecaf28ab9aba3dc045ba55101da3c065b0f5b2592c41492cc770"),
        (80, 7, "daa44986ae9c5e35f201f8a47655c88266d30ace3826782898eb9b5dc294b131"),
        (200, 1, "36058ac3eb26f7bcb27faa297057e3bd33b43b98a7a4189260c6def31830d060"),
    ],
)
def test_random_wild_pattern_is_pinned(n, seed, digest):
    # the benchmark's rewrite-wild inputs are these patterns, so a change to
    # the generator would change what a benchmark compares across commits
    text = serialize(random_wild_pattern(n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_circuit_pattern_is_valid_and_deterministic():
    for seed in range(4):
        p = random_circuit_pattern(seed, wires=2, steps=3)
        assert validate(p).ok
        assert is_deterministic(p)


# graphs and depth ---------------------------------------------------


def test_entanglement_graph_counts():
    g = entanglement_graph(ghz(3))
    assert g.number_of_nodes() == 5 and g.number_of_edges() == 4
    g = entanglement_graph(controlled_u(0, 0, 0, 0))
    assert g.number_of_nodes() == 14 and g.number_of_edges() == 14
    assert g.has_edge("A", "b") and g.has_edge("A", "f")


def test_dependency_graph_layers():
    std, _ = standardize_extended(ghz(3))
    g = dependency_graph(std)
    measures = [n for n, d in g.nodes(data=True) if isinstance(d["cmd"], Measure)]
    assert len(measures) == 2
    # both corrections depend on measurement outcomes
    assert g.number_of_edges() == 3


def test_depth_examples():
    assert depth(standardize_extended(ghz(3))[0]) == 2
    assert depth(standardize_extended(ghz(5))[0]) == 2
    assert depth(standardize(teleport(Fraction(1, 4), Fraction(1, 3)))[0]) == 3
    # measurement-free pattern with a single correction layer
    from onewaylab.commands import CorrectX
    from onewaylab.patterns import Pattern
    from onewaylab.signals import signal

    fixed = Pattern(
        frozenset((1, 2)),
        (1, 2),
        (1, 2),
        (Entangle(1, 2), CorrectX(1, signal(constant=1))),
    )
    assert depth(fixed) == 1


def test_depth_controlled_u():
    assert depth(standardize_extended(controlled_u(0.3, 0.7, 1.1, 0.5))[0]) == 7


def test_depth_requires_standard_form():
    with pytest.raises(PatternError, match=r"^depth is defined for standard \(EMC\) patterns$"):
        depth(teleport(0, 0))  # wild: corrections interleaved
    with pytest.raises(PatternError, match=r"^dependency graph requires a standard \(EMC\) pattern$"):
        dependency_dot(teleport(0, 0))


# EMC, but qubit 1 is measured twice: no run gives n2 -> n1 or depth 1
MEASURED_TWICE = parse(
    "pattern p { space: 1, 2; input: ; output: ; "
    "seq: M(1, 0); M(2, 1/3 pi, s=s[1]); M(1, 0); }"
)


@pytest.mark.parametrize("read", [depth, dependency_graph, dependency_dot], ids=lambda f: f.__name__)
def test_dependencies_of_an_invalid_pattern_are_refused(read):
    assert is_emc(MEASURED_TWICE) and not validate(MEASURED_TWICE).ok
    with pytest.raises(PatternError, match="cannot read the dependencies of an invalid pattern"):
        read(MEASURED_TWICE)


def test_dot_output_shape():
    text = entanglement_dot(ghz(3))
    assert text.startswith("graph") and text.rstrip().endswith("}")


def test_standard_forms_are_emc():
    for p in (cnot(), ghz(4), rotation(0.1, 0.2, 0.3)):
        std, _ = standardize_extended(p)
        assert is_emc(std)
