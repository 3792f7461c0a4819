import io
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import aligned_distance, run_isolated, with_extra_shifts

from onewaylab import dsl, rewrite
from onewaylab.angles import Angle
from onewaylab.cli import main as cli_main
from onewaylab.clifford import pauli_eliminate
from onewaylab.commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from onewaylab.dsl import serialize
from onewaylab.library import (
    cnot,
    controlled_u,
    ghz,
    j_chain,
    p_half,
    random_circuit_pattern,
    random_wild_pattern,
    rotation,
    rx,
    rz,
    teleport,
)
from onewaylab.patterns import Pattern, PatternError, validate
from onewaylab.rewrite import (
    RewriteError,
    Rule,
    applicable_redexes,
    apply_rule,
    format_trace,
    is_emc,
    is_standard,
    random_order_standardize,
    replay,
    standardize,
    standardize_extended,
    termination_measure,
)
from onewaylab.signals import Signal, signal
from onewaylab.simulate import extract_unitary


def seq_pattern(commands, space, inputs, outputs):
    return Pattern(frozenset(space), tuple(inputs), tuple(outputs), tuple(commands))


# single rules -------------------------------------------------------


def test_ex_rule():
    p = seq_pattern(
        [CorrectX(1, signal(constant=1)), Entangle(1, 2)], (1, 2), (1, 2), (1, 2)
    )
    q = apply_rule(p, Rule.EX, 0)
    assert q.commands == (
        Entangle(1, 2),
        CorrectX(1, signal(constant=1)),
        CorrectZ(2, signal(constant=1)),
    )


def test_ez_rule():
    p = seq_pattern(
        [CorrectZ(1, signal(constant=1)), Entangle(1, 2)], (1, 2), (1, 2), (1, 2)
    )
    q = apply_rule(p, Rule.EZ, 0)
    assert q.commands == (Entangle(1, 2), CorrectZ(1, signal(constant=1)))


def test_mx_rule_merges_into_sign_signal():
    p = seq_pattern(
        [
            Measure(2, Angle.exact(0)),
            CorrectX(1, signal(2)),
            Measure(1, Angle.exact(1, 4)),
        ],
        (1, 2),
        (1, 2),
        (),
    )
    q = apply_rule(p, Rule.MX, 1)
    assert q.commands[1] == Measure(1, Angle.exact(1, 4), s=signal(2))


def test_mz_rule_merges_into_pi_signal():
    p = seq_pattern(
        [
            Measure(2, Angle.exact(0)),
            CorrectZ(1, signal(2)),
            Measure(1, Angle.exact(1, 4)),
        ],
        (1, 2),
        (1, 2),
        (),
    )
    q = apply_rule(p, Rule.MZ, 1)
    assert q.commands[1] == Measure(1, Angle.exact(1, 4), t=signal(2))


def test_free_rules_swap_disjoint_commands():
    p = seq_pattern(
        [Measure(1, Angle.exact(0)), Entangle(2, 3)], (1, 2, 3), (1, 2, 3), (2, 3)
    )
    q = apply_rule(p, Rule.FREE_E, 0)
    assert q.commands == (Entangle(2, 3), Measure(1, Angle.exact(0)))


def test_apply_rule_rejects_non_matching():
    p = seq_pattern([Entangle(1, 2)], (1, 2), (1, 2), (1, 2))
    with pytest.raises(RewriteError):
        apply_rule(p, Rule.EX, 0)


_E12, _E23 = Entangle(1, 2), Entangle(2, 3)
_X1, _Z1 = CorrectX(1, signal(constant=1)), CorrectZ(1, signal(constant=1))
_M1, _M2 = Measure(1, Angle.exact(1, 4)), Measure(2, Angle.exact(1, 4))
_S1 = Shift(1, signal(constant=1))


@pytest.mark.parametrize(
    "window, accepted",
    [
        ((_X1, _E12), {Rule.EX}),
        ((_X1, _E23), {Rule.FREE_E, Rule.FREE_X}),
        ((_Z1, _E12), {Rule.EZ}),
        ((_Z1, _E23), {Rule.FREE_E, Rule.FREE_Z}),
        ((_X1, _M1), {Rule.MX}),
        ((_X1, _M2), {Rule.FREE_X}),
        ((_Z1, _M1), {Rule.MZ}),
        ((_Z1, _M2), {Rule.FREE_Z}),
        ((_M1, _E12), set()),
        ((_M1, _E23), {Rule.FREE_E}),
        ((_S1, _E12), set()),
        ((_S1, _E23), {Rule.FREE_E}),
        ((_S1, CorrectX(2, signal(1))), {Rule.SHIFT_X}),
        ((_S1, CorrectZ(2, signal(1))), {Rule.SHIFT_Z}),
        ((_S1, _M2), {Rule.SHIFT_M}),
        ((_E12, _X1), set()),
        ((_E12, _E23), set()),
        ((_X1, _Z1), set()),
        ((_M1, _M2), set()),
    ],
)
def test_apply_rule_accepts_exactly_the_matching_rules(window, accepted):
    p = seq_pattern(window, (1, 2, 3), (1, 2, 3), (1, 2, 3))
    results = set()
    for rule in Rule:
        if rule in accepted:
            results.add(apply_rule(p, rule, 0).commands)
        else:
            with pytest.raises(RewriteError):
                apply_rule(p, rule, 0)
    # overlapping free commutations all give the same swap
    assert len(results) == min(len(accepted), 1)


def test_apply_rule_rejects_positions_outside_the_sequence():
    p = seq_pattern([_X1, _E12], (1, 2), (1, 2), (1, 2))
    for position in (-2, -1, 1, 2):
        with pytest.raises(RewriteError):
            apply_rule(p, Rule.EX, position)


def test_shift_rules():
    # split: M with a pi-action signal becomes M plus a trailing shift
    p = seq_pattern(
        [
            Measure(2, Angle.exact(0)),
            Measure(1, Angle.exact(1, 4), t=signal(2)),
        ],
        (1, 2),
        (1, 2),
        (),
    )
    q = apply_rule(p, Rule.SHIFT_SPLIT, 1)
    assert q.commands[1:] == (Measure(1, Angle.exact(1, 4)), Shift(1, signal(2)))
    # propagation through a correction substitutes the recorded outcome
    r = seq_pattern(
        [
            Measure(1, Angle.exact(0)),
            Shift(1, signal(constant=1)),
            CorrectX(2, signal(1)),
        ],
        (1, 2),
        (1, 2),
        (2,),
    )
    s = apply_rule(r, Rule.SHIFT_X, 1)
    assert s.commands[1] == CorrectX(2, signal(1, constant=1))
    assert s.commands[2] == Shift(1, signal(constant=1))
    # trailing shift drops
    t = apply_rule(s.with_commands(s.commands[:2] + (s.commands[2],)), Rule.SHIFT_DROP, 2)
    assert t.commands == s.commands[:2]


def test_applicable_redexes_execution_order_and_priority():
    p = teleport(Fraction(1, 4), Fraction(1, 3))
    redexes = applicable_redexes(p)
    assert (Rule.EX, 2) in redexes  # X2 before E23
    assert all(pos < len(p.commands) for _, pos in redexes)
    std, _ = standardize(p)
    assert applicable_redexes(std) == []


# standardization ----------------------------------------------------


# (rule, position) at every step, as produced by the low-position cursor
# strategy under the rule priority EX, EZ, MX, MZ, FREE_E, FREE_X, FREE_Z.
GOLDEN_TRACES = {
    "teleport": (
        lambda: standardize(teleport(Fraction(1, 4), Fraction(1, 3))),
        [("EX", 2), ("FREE_E", 1), ("FREE_Z", 4), ("MX", 3)],
    ),
    "cnot-extended": (
        lambda: standardize_extended(cnot()),
        [
            ("EX", 2), ("FREE_E", 1), ("FREE_E", 4), ("EX", 3),
            ("FREE_E", 2), ("FREE_Z", 6), ("FREE_Z", 5), ("MX", 4),
        ],
    ),
    "ghz3-extended": (
        lambda: standardize_extended(ghz(3)),
        [
            ("EX", 3), ("FREE_E", 2), ("EZ", 5), ("FREE_E", 4), ("FREE_E", 3),
            ("MZ", 6), ("FREE_X", 5), ("SHIFT_SPLIT", 5), ("SHIFT_X", 6),
            ("SHIFT_X", 7), ("SHIFT_DROP", 8),
        ],
    ),
}


@pytest.mark.parametrize("name", GOLDEN_TRACES)
def test_golden_trace(name):
    run, expected = GOLDEN_TRACES[name]
    _, trace = run()
    assert [(step.rule.name, step.position) for step in trace] == expected


def expected_paper_order(body: str) -> str:
    return body


def test_teleport_standard_form():
    std, trace = standardize(teleport(Fraction(1, 4), Fraction(1, 3)))
    assert serialize(std, "p", paper_order=True) == (
        "pattern p {\n"
        "  space: 1, 2, 3;\n"
        "  input: 1;\n"
        "  output: 3;\n"
        "  seq:\n"
        "    X(3, s[2]);\n"
        "    Z(3, s[1]);\n"
        "    M(2, 5/3 pi, s=s[1]);\n"
        "    M(1, 7/4 pi);\n"
        "    E(2,3);\n"
        "    E(1,2);\n"
        "}\n"
    )
    assert replay(teleport(Fraction(1, 4), Fraction(1, 3)), trace) == std


def test_rx_standard_form():
    std, _ = standardize(rx(Fraction(1, 4)))
    assert [c for c in std.commands] == [
        Entangle(1, 2),
        Entangle(2, 3),
        Measure(1, Angle.exact(0)),
        Measure(2, Angle.exact(7, 4), s=signal(1)),
        CorrectZ(3, signal(1)),
        CorrectX(3, signal(2)),
    ]


def test_rz_standard_form():
    std, _ = standardize(rz(Fraction(1, 4)))
    assert [c for c in std.commands] == [
        Entangle(1, 2),
        Entangle(2, 3),
        Measure(1, Angle.exact(7, 4)),
        Measure(2, Angle.exact(0)),
        CorrectZ(3, signal(1)),
        CorrectX(3, signal(2)),
    ]


def test_p_half_extended_standard_form():
    std, _ = standardize_extended(p_half())
    assert [c for c in std.commands] == [
        Entangle(1, 2),
        Entangle(2, 3),
        Measure(1, Angle.exact(1, 2)),
        Measure(2, Angle.exact(0)),
        CorrectZ(3, signal(1, constant=1)),
        CorrectX(3, signal(2)),
    ]


def test_rotation_extended_standard_form():
    std, _ = standardize_extended(rotation(Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)))
    assert [c for c in std.commands] == [
        Entangle(1, 2),
        Entangle(2, 3),
        Entangle(3, 4),
        Entangle(4, 5),
        Measure(1, Angle.exact(9, 5)),
        Measure(2, Angle.exact(5, 3), s=signal(1)),
        Measure(3, Angle.exact(7, 4), s=signal(2)),
        Measure(4, Angle.exact(0)),
        CorrectZ(5, signal(1, 3)),
        CorrectX(5, signal(2, 4)),
    ]


def test_rz_chain_extended_standard_form():
    # the 5-qubit z-rotation built as H.Rx(pi/4).H
    std, _ = standardize_extended(j_chain([0, 0, Fraction(1, 4), 0]))
    assert [c for c in std.commands] == [
        Entangle(1, 2),
        Entangle(2, 3),
        Entangle(3, 4),
        Entangle(4, 5),
        Measure(1, Angle.exact(0)),
        Measure(2, Angle.exact(0)),
        Measure(3, Angle.exact(7, 4), s=signal(2)),
        Measure(4, Angle.exact(0)),
        CorrectZ(5, signal(1, 3)),
        CorrectX(5, signal(2, 4)),
    ]


def test_cnot_standard_form():
    # the unique normal form; entanglement and correction blocks keep the
    # relative order inherited from the wild sequence
    std, _ = standardize(cnot())
    assert [c for c in std.commands] == [
        Entangle(2, 3),
        Entangle(1, 3),
        Entangle(3, 4),
        Measure(2, Angle.exact(0)),
        Measure(3, Angle.exact(0)),
        CorrectZ(4, signal(2)),
        CorrectZ(1, signal(2)),
        CorrectX(4, signal(3)),
    ]


def test_ghz_extended_standard_form():
    std, _ = standardize_extended(ghz(3))
    assert [c for c in std.commands] == [
        Entangle(1, 2),
        Entangle(2, "2'"),
        Entangle("2'", 3),
        Entangle(3, "3'"),
        Measure(2, Angle.exact(0)),
        Measure(3, Angle.exact(0)),
        CorrectX("2'", signal(2)),
        CorrectX("3'", signal(2, 3)),
    ]


def test_standard_form_is_standard_and_emc():
    for pattern in (teleport(0, 0), cnot(), rotation(0.3, 0.7, 1.1), ghz(4)):
        std, _ = standardize(pattern)
        assert is_standard(std)
        assert is_emc(std)
        assert validate(std).ok


def test_already_standard_is_fixpoint():
    std, _ = standardize(cnot())
    again, trace = standardize(std)
    assert again == std and trace == []


def test_is_emc_shapes():
    assert is_emc(seq_pattern([], (1,), (1,), (1,)))
    wild = teleport(0, 0)
    assert not is_emc(wild)


def test_extended_removes_pi_signals_and_shifts():
    for pattern in (ghz(5), rotation(0.2, 0.4, 0.6), p_half()):
        std, _ = standardize_extended(pattern)
        for cmd in std.commands:
            assert not isinstance(cmd, Shift)
            if isinstance(cmd, Measure):
                assert not cmd.t


def test_extended_handles_explicit_shifts():
    p = seq_pattern(
        [
            Entangle(1, 2),
            Measure(1, Angle.exact(1, 4)),
            Shift(1, signal(constant=1)),
            CorrectX(2, signal(1)),
        ],
        (1, 2),
        (1,),
        (2,),
    )
    std, _ = standardize_extended(p)
    assert is_emc(std)
    assert std.commands[-1] == CorrectX(2, signal(1, constant=1))


# termination measure ------------------------------------------------


def test_measure_values_from_definition():
    h = seq_pattern(
        [Entangle(1, 2), Measure(1, Angle.exact(0)), CorrectX(2, signal(1))],
        (1, 2),
        (1,),
        (2,),
    )
    assert termination_measure(h) == (1, 0)
    p = seq_pattern(
        [CorrectX(1, signal(constant=1)), Entangle(1, 2)], (1, 2), (1, 2), (1, 2)
    )
    assert termination_measure(p) == (2, 1)
    q = apply_rule(p, Rule.EX, 0)
    assert termination_measure(q) == (1, 1)
    assert termination_measure(q) < termination_measure(p)
    empty = seq_pattern([], (), (), ())
    assert termination_measure(empty) == (0, 0)


def test_measure_can_increase_when_corrections_cross_repeated_entanglement():
    # With two entanglements on the corrected qubit, the forced EX step
    # lengthens the sequence and pushes the second entanglement later, so
    # the (sum of E positions, sum of C co-positions) pair goes up.
    p = seq_pattern(
        [CorrectX(1, signal(constant=1)), Entangle(1, 2), Entangle(1, 3)],
        (1, 2, 3),
        (1, 2, 3),
        (1, 2, 3),
    )
    before = termination_measure(p)
    after = termination_measure(apply_rule(p, Rule.EX, 0))
    assert before == (5, 2)
    assert after == (5, 3)
    assert not after < before


# uniqueness / properties --------------------------------------------


def test_random_order_agrees_with_deterministic_strategy():
    for seed in range(12):
        wild = random_wild_pattern(14, seed)
        std, _ = standardize(wild)
        for sub_seed in range(8):
            assert random_order_standardize(wild, sub_seed) == std


def test_random_order_on_standard_pattern_is_identity():
    std, _ = standardize(cnot())
    assert random_order_standardize(std, 3) == std


def test_trace_replays_and_formats():
    wild = teleport(Fraction(1, 4), Fraction(1, 3))
    std, trace = standardize(wild)
    assert replay(wild, trace) == std
    text = format_trace(trace)
    assert text.splitlines()[0].startswith("EX @ ")
    assert "=>" in text


def test_text_is_written_without_the_public_wrapper(monkeypatch):
    # a tracer rebinds every public function wherever a onewaylab module
    # holds it; if serialize or format_trace went through format_command, a
    # traced run would time one span per command
    wild = with_extra_shifts(random_wild_pattern(40, 3), random.Random(3))
    texts = []
    for run in (standardize, standardize_extended):
        std, trace = run(wild)
        texts.append((std, trace, serialize(std), serialize(std, paper_order=True), format_trace(trace)))
    public = dsl.format_command

    def forbidden(cmd):
        raise AssertionError("format_command was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "onewaylab" and vars(module).get("format_command") is public:
            monkeypatch.setattr(module, "format_command", forbidden)
    assert dsl.format_command is forbidden
    for std, trace, text, paper, steps in texts:
        assert (serialize(std), serialize(std, paper_order=True), format_trace(trace)) == (text, paper, steps)


def test_rewriting_never_creates_dependencies():
    for seed in range(10):
        wild = random_wild_pattern(20, seed)
        std, _ = standardize_extended(wild)

        def support_union(pattern):
            out = set()
            for cmd in pattern.commands:
                from onewaylab.commands import command_signals

                for sig in command_signals(cmd):
                    out |= sig.support
            return out

        assert support_union(std) <= support_union(wild)


def test_standardize_rejects_invalid_patterns():
    bad = seq_pattern([CorrectX(1, signal(2))], (1, 2), (1, 2), (1, 2))
    with pytest.raises(PatternError):
        standardize(bad)


def test_semantics_preserved_on_random_circuits():
    for seed in range(8):
        wild = random_circuit_pattern(seed, wires=2, steps=4)
        reference = extract_unitary(wild, check_deterministic=False)
        for transformed in (standardize(wild)[0], standardize_extended(wild)[0]):
            u = extract_unitary(transformed, check_deterministic=False)
            assert aligned_distance(u, reference) < 1e-9


# the direct construction and the lazy trace ---------------------------


@settings(deadline=None, max_examples=100)
@given(st.integers(4, 80), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
def test_direct_normal_form_is_where_the_rules_end(n, seed, extra_seed):
    wild = with_extra_shifts(random_wild_pattern(n, seed), random.Random(extra_seed))
    for run in (standardize, standardize_extended):
        std, trace = run(wild)
        assert replay(wild, trace).commands == std.commands
        steps = list(trace)
        assert len(trace) == len(steps) and trace == steps
        if steps:
            assert trace[-1] == steps[-1]


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 80), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
def test_normal_forms_pass_the_pattern_checks(n, seed, extra_seed):
    # standardize builds its result without the constructor's checks; they
    # would all pass
    wild = with_extra_shifts(random_wild_pattern(n, seed), random.Random(extra_seed))
    for run in (standardize, standardize_extended):
        std = run(wild)[0]
        assert std == Pattern(std.space, std.inputs, std.outputs, std.commands)
        assert (std.space, std.inputs, std.outputs) == (wild.space, wild.inputs, wild.outputs)


def test_dropped_traces_never_run_the_rules(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the rule engine ran for a trace nobody read")

    for name in [name for name in vars(rewrite) if name.startswith("_traced_")]:
        monkeypatch.setattr(rewrite, name, unreachable)
    wild = random_wild_pattern(60, 7)
    standardize(wild)
    _, trace = standardize_extended(wild)
    extract_unitary(controlled_u(0.3, 0.7, 1.1, 0.5))
    pauli_eliminate(standardize(cnot())[0])
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(wild, "wild")))
    assert cli_main(["standardize"]) == 0
    assert capsys.readouterr().out.startswith("pattern wild")
    with pytest.raises(AssertionError, match="nobody read"):
        len(trace)


# the size bound -------------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 120), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
def test_core_size_bounds_both_core_passes(n, seed, extra_seed):
    wild = with_extra_shifts(random_wild_pattern(n, seed), random.Random(extra_seed))
    core, size = rewrite._core(wild.commands), len(wild.commands)
    assert len(core) <= rewrite._core_size(wild.commands) <= size + size * size // 4
    # _shift_out's second core pass starts with every E first, so it spawns
    # nothing and ends no longer than the form checked before the first
    first = rewrite._substitution_pass(core, False)
    assert rewrite._core_size(first) == len(first) <= len(core)
    assert len(rewrite._core(first)) <= len(first)


def test_normal_form_size_is_checked_before_it_is_built(monkeypatch):
    wild = random_wild_pattern(200, 1)  # 777 commands in core normal form, bounded by 778
    assert len(standardize(wild)[0].commands) == 777
    runs = (standardize, standardize_extended)
    monkeypatch.setattr(rewrite, "MAX_COMMANDS", 778)
    for run in runs:
        run(wild)  # a bound at the limit is accepted

    def unreachable(commands):
        raise AssertionError("a normal form over the limit was built")

    monkeypatch.setattr(rewrite, "MAX_COMMANDS", 777)
    monkeypatch.setattr(rewrite, "_core", unreachable)
    for run in runs:
        with pytest.raises(RewriteError) as info:
            run(wild)
        assert str(info.value) == "the normal form would hold up to 778 commands, more than the 777 allowed"


_REFUSED_AT_SCALE = """
import resource, subprocess, sys, time
from onewaylab.dsl import serialize
from onewaylab.library import random_wild_pattern

text = serialize(random_wild_pattern(12800, 1))  # about 4.49 M commands in normal form
main = "import sys; from onewaylab.cli import main; sys.exit(main(sys.argv[1:]))"

def cap():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

for args in (["standardize"], ["standardize", "--extended"]):
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", main, *args], input=text, capture_output=True, text=True, preexec_fn=cap
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 1, (args, result.returncode, result.stderr[-500:])
    assert result.stderr.startswith("error: the normal form would hold up to 4487478 commands"), result.stderr
    assert result.stdout == ""
    assert elapsed < 1.0, (args, elapsed)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb < 100, peak_mb
"""


def test_a_normal_form_past_the_limit_is_refused_at_once():
    # a wrapper interpreter runs the CLI, so RUSAGE_CHILDREN sees only its runs
    result = run_isolated(_REFUSED_AT_SCALE, timeout=120)
    assert result.returncode == 0, result.stderr
