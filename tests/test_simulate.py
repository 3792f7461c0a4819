import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BUILDER_ARGS,
    CZ_MAT,
    H_MAT,
    SQ2,
    X_MAT,
    aligned_distance,
    assert_proportional,
    j_mat,
    run_isolated,
    with_extra_shifts,
)

from onewaylab.angles import Angle
from onewaylab.commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from onewaylab import library, patterns, rewrite, simulate
from onewaylab.clifford import pauli_eliminate
from onewaylab.library import (
    cnot,
    controlled_u,
    cz,
    ghz,
    h,
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
from onewaylab.patterns import Pattern, PatternError, compose, rename, tensor, validate
from onewaylab.rewrite import standardize, standardize_extended
from onewaylab.signals import Signal, qubit_key, signal
from onewaylab.simulate import (
    _BRANCH_CUTOFF,
    SimulationError,
    branch_maps,
    extract_unitary,
    is_deterministic,
    run_all_branches,
    run_branch,
)


def h_pattern():
    return Pattern(
        frozenset((1, 2)),
        (1,),
        (2,),
        (Entangle(1, 2), Measure(1, Angle.exact(0)), CorrectX(2, signal(1))),
    )


def truncated_h():
    # same as h_pattern but without the correction: intentionally wild in
    # outcome, used to exercise the non-deterministic paths
    return Pattern(
        frozenset((1, 2)),
        (1,),
        (2,),
        (Entangle(1, 2), Measure(1, Angle.exact(0))),
    )


def test_prepare_input_validation():
    with pytest.raises(SimulationError):
        run_branch(h_pattern(), {1: 0}, [1.0, 0.0, 0.0])


def test_h_pattern_branches_recombine():
    a, b = 0.8, 0.6j
    branches = run_all_branches(h_pattern(), [a, b])
    assert len(branches) == 2
    want = H_MAT @ np.array([a, b])
    for branch in branches:
        assert branch.probability == pytest.approx(0.5, abs=1e-12)
        assert_proportional(branch.output, want)


def test_branch_probability_formula():
    # measuring a fresh |+> qubit at angle pi/3 splits (1 +/- cos a)/2 = 3:1
    p = Pattern(
        frozenset((1, 2)),
        (1,),
        (1,),
        (Measure(2, Angle.exact(1, 3)),),
    )
    branches = run_all_branches(p, [1.0, 0.0])
    probs = sorted(b.probability for b in branches)
    assert probs[1] == pytest.approx(0.75, abs=1e-12)
    assert probs[0] == pytest.approx(0.25, abs=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_truncated_h_branches_differ():
    a, b = 1.0, 0.5
    branches = run_all_branches(truncated_h(), [a, b])
    outs = {bb.outcomes[1]: bb.output for bb in branches}
    assert_proportional(outs[0], [(a + b) / 2, (a - b) / 2])
    assert_proportional(outs[1], [(a - b) / 2, (a + b) / 2])
    for branch in branches:
        assert branch.probability == pytest.approx(0.5, abs=1e-12)


def test_run_branch_forced_outcomes():
    branch = run_branch(h_pattern(), {1: 1}, [1.0, 0.0])
    assert branch.outcomes == {1: 1}
    assert_proportional(branch.output, H_MAT @ np.array([1.0, 0.0]))


# the eager reference against closed forms ---------------------------


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), Fraction(2, 3), Fraction(3, 2)])
def test_run_branch_uncorrected_j_is_x_power_times_j(alpha):
    # E(1,2) then M(1, -alpha) leaves X^s J(alpha) psi on qubit 2, each s at 1/2
    p = Pattern(
        frozenset((1, 2)), (1,), (2,), (Entangle(1, 2), Measure(1, Angle.exact(-alpha)))
    )
    psi = _random_state(2, 11)
    for s in (0, 1):
        branch = run_branch(p, {1: s}, psi)
        assert branch.outcomes == {1: s}
        assert branch.probability == pytest.approx(0.5, abs=1e-12)
        want = np.linalg.matrix_power(X_MAT, s) @ j_mat(float(alpha) * math.pi) @ psi
        assert np.allclose(branch.output / math.sqrt(branch.probability), want, atol=1e-12)


def test_run_branch_probability_of_a_fresh_plus_measured_at_pi_over_3():
    # <+-_a|+> = (1 +- e^{-ia})/2 scales the untouched input, with probability
    # (1 +- cos a)/2: 3/4 for outcome 0 and 1/4 for outcome 1
    a = math.pi / 3
    p = Pattern(frozenset((1, 2)), (1,), (1,), (Measure(2, Angle.exact(1, 3)),))
    psi = _random_state(2, 12)
    for s, want in ((0, 0.75), (1, 0.25)):
        branch = run_branch(p, {2: s}, psi)
        assert branch.probability == pytest.approx(want, abs=1e-12)
        amplitude = (1 + (-1) ** s * np.exp(-1j * a)) / 2
        assert np.allclose(branch.output, amplitude * psi, atol=1e-12)


def test_run_branch_shift_relabels_the_outcome_a_later_signal_reads():
    # a shift by 1 before the correction makes X fire on raw outcome 0, not 1:
    # the output is X H psi on both branches, and the outcome reads flipped
    p = Pattern(
        frozenset((1, 2)),
        (1,),
        (2,),
        (
            Entangle(1, 2),
            Measure(1, Angle.exact(0)),
            Shift(1, Signal(constant=1)),
            CorrectX(2, signal(1)),
        ),
    )
    psi = _random_state(2, 13)
    for raw in (0, 1):
        branch = run_branch(p, {1: raw}, psi)
        assert branch.outcomes == {1: 1 - raw}
        assert branch.probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(branch.output * SQ2, X_MAT @ H_MAT @ psi, atol=1e-12)


def test_run_branch_plan_must_name_every_measured_qubit():
    # cnot measures 2 and 3
    with pytest.raises(KeyError, match="3"):
        run_branch(cnot(), {2: 0}, [1.0, 0.0, 0.0, 0.0])


def test_is_deterministic():
    assert is_deterministic(h_pattern())
    assert is_deterministic(teleport(Fraction(1, 4), Fraction(1, 3)))
    assert not is_deterministic(truncated_h())


def test_extract_unitary_h_and_j():
    assert aligned_distance(extract_unitary(h_pattern()), H_MAT) < 1e-9
    theta = 1.234
    assert aligned_distance(extract_unitary(j(theta)), j_mat(theta)) < 1e-9


def test_extract_unitary_cz():
    assert aligned_distance(extract_unitary(cz(1, 2)), CZ_MAT) < 1e-9


def test_extract_unitary_rejects_wild_truncation():
    with pytest.raises(SimulationError):
        extract_unitary(truncated_h())


def test_extract_without_determinism_check():
    u = extract_unitary(truncated_h(), check_deterministic=False)
    assert u.shape == (2, 2)


def test_composition_multiplies_unitaries():
    a = j(0.3)
    b = rename(j(0.7), {1: 2, 2: 3})
    u = extract_unitary(compose(b, a))
    assert aligned_distance(u, j_mat(0.7) @ j_mat(0.3)) < 1e-9


def test_tensor_krons_unitaries():
    a = j(0.3)
    b = rename(j(0.7), {1: 3, 2: 4})
    u = extract_unitary(tensor(a, b))
    assert aligned_distance(u, np.kron(j_mat(0.3), j_mat(0.7))) < 1e-9


def test_rename_preserves_semantics():
    u = extract_unitary(rename(cnot(), {1: "c", 2: "t", 3: "x", 4: "y"}))
    assert aligned_distance(u, extract_unitary(cnot())) < 1e-9


def test_probabilities_sum_to_one_over_many_branches():
    branches = run_all_branches(cnot(), np.full(4, 0.5))
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)
    # outputs all proportional for an intrinsically deterministic pattern
    mats = [b.output for b in branches]
    for m in mats[1:]:
        assert_proportional(m, mats[0])


def rank_one():
    # measuring the input leaves the untouched output in |+> on every
    # branch: all outputs agree, but no unitary exists
    return Pattern(frozenset((1, 2)), (1,), (2,), (Measure(1, Angle.exact(0)),))


def test_rank_one_pattern_is_deterministic_but_not_unitary():
    assert is_deterministic(rank_one())
    with pytest.raises(SimulationError):
        extract_unitary(rank_one())


def test_not_deterministic_error_is_a_simulation_error():
    with pytest.raises(simulate.NotDeterministicError):
        extract_unitary(truncated_h())
    assert issubclass(simulate.NotDeterministicError, SimulationError)


def _loop_deterministic(maps, dim):
    """``_maps_deterministic`` as a loop over each probe's outputs, one at a time."""
    stacked = np.stack([m.matrix for m in maps])
    for probe in (*np.eye(dim, dtype=complex), *simulate._pseudorandom_states(dim)):
        outputs = stacked @ probe
        kept = outputs[simulate._row_norms(outputs) > _BRANCH_CUTOFF * np.vdot(probe, probe).real]
        ref = None
        for v in kept:
            nv = np.linalg.norm(v)
            if nv == 0.0:
                continue
            if ref is None:
                ref, nref = v, nv
                continue
            if abs(np.vdot(ref, v)) < (1.0 - simulate._COLLINEAR_TOL) * nref * nv:
                return False
    return True


def _collinearity_cases():
    """Branch maps, input dimension and verdict for the determinism comparison."""
    rng = np.random.default_rng(5)

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def case(name, matrices, dim, verdict):
        maps = [simulate.BranchMap({}, {}, np.asarray(m, dtype=complex)) for m in matrices]
        return pytest.param(maps, dim, verdict, id=name)

    for dim_out, dim_in in [(2, 1), (2, 2), (4, 2), (4, 4), (8, 4)]:
        shape = f"{dim_out}x{dim_in}"
        yield case(f"random-{shape}", [rand(dim_out, dim_in) for _ in range(3)], dim_in, False)
        u = rand(dim_out, dim_in)
        yield case(f"proportional-{shape}", [c * u for c in rand(4)], dim_in, True)
        # a branch whose every output is under the cutoff is dropped
        yield case(f"under-cutoff-{shape}", [u, 1e-14 * rand(dim_out, dim_in)], dim_in, True)
        if dim_in > 1:
            # agrees with u on every basis input it does not vanish on, but
            # not on a superposition: only the pseudorandom probes see it
            partial = u.copy()
            partial[:, 0] = 0.0
            yield case(f"vanishing-column-{shape}", [u, partial], dim_in, False)
    # two rank-1 maps with one shared image: every output is a multiple of v,
    # although the maps are not proportional
    v = rand(2)
    yield case("rank-1-pair", [np.outer(v, rand(2)), np.outer(v, rand(2))], 2, True)
    # |<u, w>| = c |u| |w|, just inside and just outside 1 - tol
    for factor, verdict in ((0.9, True), (1.1, False)):
        c = 1.0 - factor * simulate._COLLINEAR_TOL
        yield case(f"cosine-{factor}-tol", [[[1.0], [0.0]], [[c], [math.sqrt(1.0 - c * c)]]], 1, verdict)


@pytest.mark.parametrize("maps, dim, verdict", _collinearity_cases())
def test_maps_deterministic_matches_per_vector_loop(maps, dim, verdict):
    assert simulate._maps_deterministic(maps, dim) == _loop_deterministic(maps, dim) == verdict


def _raw_plans(pattern):
    measured = sorted(pattern.measured, key=qubit_key)
    for bits in range(2 ** len(measured)):
        yield {q: (bits >> (len(measured) - 1 - k)) & 1 for k, q in enumerate(measured)}


def _key(outcomes):
    return tuple(sorted(outcomes.items(), key=lambda item: qubit_key(item[0])))


def _same_branches(got, want):
    """Match (probability, output) pairs one to one, to 1e-12."""
    unused = list(got)
    for prob, out in want:
        match = next(
            (
                k
                for k, (p, o) in enumerate(unused)
                if abs(p - prob) <= 1e-12 and np.allclose(o, out, rtol=0, atol=1e-12)
            ),
            None,
        )
        assert match is not None, f"no walk branch matches p={prob}"
        unused.pop(match)
    assert not unused


def assert_walk_matches_reference(pattern, psi):
    """The walk's branches are the eager reference's, plan by plan."""
    kept = []
    for plan in _raw_plans(pattern):
        branch = run_branch(pattern, plan, psi)
        if branch.probability > _BRANCH_CUTOFF:
            kept.append((plan, branch))
    # run_all_branches, matched by shifted outcomes; a shift can give two
    # raw plans the same shifted outcomes
    walked = run_all_branches(pattern, psi)
    keys = {_key(b.outcomes) for b in walked}
    assert keys == {_key(b.outcomes) for _, b in kept}
    for key in keys:
        _same_branches(
            [(b.probability, b.output) for b in walked if _key(b.outcomes) == key],
            [(b.probability, b.output) for _, b in kept if _key(b.outcomes) == key],
        )
    # branch_maps, matched by raw outcomes
    maps = {_key(m.raw): m for m in branch_maps(pattern)}
    for plan, b in kept:
        m = maps[_key(plan)]
        assert m.outcomes == b.outcomes
        out = m.matrix @ psi
        assert np.vdot(out, out).real / np.vdot(psi, psi).real == pytest.approx(
            b.probability, abs=1e-12
        )
        assert np.allclose(out, b.output, rtol=0, atol=1e-12)


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


_FORMS = {
    "built": lambda pattern: pattern,
    "standard": lambda pattern: standardize(pattern)[0],
    "extended": lambda pattern: standardize_extended(pattern)[0],
}


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 14),
    st.integers(0, 10**6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(_FORMS)),
)
def test_walk_matches_reference_on_wild_patterns(n_commands, seed, psi_seed, form):
    # the walk schedules each E at its first use; the reference keeps the
    # command order
    pattern = _FORMS[form](random_wild_pattern(n_commands, seed))
    psi = _random_state(2 ** len(pattern.inputs), psi_seed)
    assert_walk_matches_reference(pattern, psi)


BUILDERS = {
    "h": h(),
    "j": j(1.234),
    "teleport": teleport(Fraction(1, 4), Fraction(1, 3)),
    "teleport.extended": standardize_extended(teleport(Fraction(1, 4), Fraction(1, 3)))[0],
    "rotation": rotation(Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)),
    "rx": rx(0.5),
    "rz": rz(Fraction(1, 2)),
    "p_half": p_half(),
    "cz": cz(1, 2),
    "cnot": cnot(),
    "cnot.standard": standardize(cnot())[0],
    "ghz3": ghz(3),
    "ghz4.extended": standardize_extended(ghz(4))[0],
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(deadline=None, max_examples=10)
@given(psi_seed=st.integers(0, 2**32 - 1))
def test_walk_matches_reference_on_builders(name, psi_seed):
    pattern = BUILDERS[name]
    assert_walk_matches_reference(pattern, _random_state(2 ** len(pattern.inputs), psi_seed))


def _unreachable(*args):
    raise AssertionError("the walk started")


def test_state_size_guard(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_AMPLITUDES", 4)
    chain = j_chain([Fraction(1, 4)] * 5)  # 6 qubits, at most 2 live at once
    assert len(chain.space) == 6
    # one input row and 2 live qubits fit in 4 amplitudes
    built = run_all_branches(chain, [1.0, 0.0])
    assert len(built) == 32
    # the basis walk adds one batch bit
    with pytest.raises(SimulationError, match="3 qubits wide"):
        branch_maps(chain)
    # standardized, every E comes first, but the walk schedules each at its
    # first use: it fits in the same 4 amplitudes and gives the builder's
    # branches, each up to its phase
    standard = run_all_branches(standardize(chain)[0], [1.0, 0.0])
    assert [b.outcomes for b in standard] == [b.outcomes for b in built]
    for a, b in zip(standard, built):
        assert abs(a.probability - b.probability) <= 1e-9
        assert aligned_distance(a.output, b.output) <= 1e-9
    # ghz(3) is 4 qubits wide however it is scheduled; the guard fires
    # before the walk allocates anything
    monkeypatch.setattr(simulate, "_walk", _unreachable)
    with pytest.raises(SimulationError, match="4 qubits wide"):
        run_all_branches(ghz(3))
    # the eager reference prepares the whole space
    with pytest.raises(SimulationError, match="6 qubits wide"):
        run_branch(chain, {}, [1.0, 0.0])


@pytest.mark.parametrize("name", sorted(library.BUILDERS))
def test_standard_forms_walk_no_wider_than_their_builder(name):
    built = library.BUILDERS[name](*BUILDER_ARGS.get(name, ()))
    width = simulate._layout(built, 1).width
    for form in (standardize, standardize_extended):
        assert simulate._layout(form(built)[0], 1).width <= width


def test_standard_chain_of_30_walks_at_builder_width():
    chain = j_chain([0] * 30)  # H^30 on 31 qubits, at most 2 live at once
    standard = standardize(chain)[0]
    assert simulate._layout(standard, 2).width == simulate._layout(chain, 2).width == 2
    u = extract_unitary(standard)
    assert np.allclose(u, extract_unitary(chain), rtol=0, atol=1e-9)


def _same_leaves(a, b):
    """Two lists of branches or branch maps, equal bit for bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, simulate.Branch):
            assert list(x.outcomes.items()) == list(y.outcomes.items())
            assert x.probability == y.probability
            assert np.array_equal(x.output, y.output)
        else:
            assert list(x.raw.items()) == list(y.raw.items())
            assert list(x.outcomes.items()) == list(y.outcomes.items())
            assert np.array_equal(x.matrix, y.matrix)


def test_split_batches_give_the_same_leaves(monkeypatch):
    wild = [random_wild_pattern(14, seed) for seed in range(30)]
    wild += [form(p)[0] for p in wild[:10] for form in (standardize, standardize_extended)]

    def leaves():
        return [run_all_branches(ghz(6)), *map(branch_maps, wild)]

    batched = leaves()
    # a cap of 0 amplitudes splits every batch of two or more branches at
    # every measurement: the walk goes one branch at a time
    monkeypatch.setattr(simulate, "_BATCH_SHIFT", 64)
    for a, b in zip(leaves(), batched, strict=True):
        _same_leaves(a, b)


def test_extract_unitary_checks_the_width_before_certifying(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_AMPLITUDES", 4)

    def unreachable(pattern):
        raise AssertionError("the certificate ran before the width check")

    monkeypatch.setattr(simulate, "_certified", unreachable)
    with pytest.raises(SimulationError, match="qubits wide"):
        extract_unitary(ghz(5))


# the determinism certificate ----------------------------------------


def brute_deterministic(pattern):
    dim = 2 ** len(pattern.inputs)
    return simulate._maps_deterministic(branch_maps(pattern), dim)


def assert_certificate_sound(pattern):
    if simulate._certified(pattern):
        assert brute_deterministic(pattern)
        m = len(pattern.measured)
        for branch in run_all_branches(pattern, _random_state(2 ** len(pattern.inputs), m)):
            assert branch.probability == pytest.approx(2.0**-m, rel=1e-9)


def _earlier_measured(pattern, index):
    return sorted(
        (c.qubit for c in pattern.commands[:index] if isinstance(c, Measure)), key=qubit_key
    )


def mutate(pattern, kind, pick, bit):
    """``pattern`` with one change of the given kind, or None when it has no site for it.

    Kinds: drop a correction; toggle an outcome bit in a measurement's s or
    t or in a correction's signal; move a Pauli measurement angle off its
    axis by pi/4.
    """
    commands = list(pattern.commands)
    if kind == "drop":
        sites = [k for k, c in enumerate(commands) if isinstance(c, (CorrectX, CorrectZ))]
    elif kind == "off-axis":
        sites = [
            k for k, c in enumerate(commands)
            if isinstance(c, Measure) and c.angle.is_pauli_axis
        ]
    else:
        want = (CorrectX, CorrectZ) if kind == "signal" else Measure
        sites = [
            k for k, c in enumerate(commands)
            if isinstance(c, want) and _earlier_measured(pattern, k)
        ]
    if not sites:
        return None
    k = sites[pick % len(sites)]
    cmd = commands[k]
    if kind == "drop":
        del commands[k]
    elif kind == "off-axis":
        commands[k] = Measure(cmd.qubit, Angle.exact(cmd.angle.fraction + Fraction(1, 4)), cmd.s, cmd.t)
    else:
        earlier = _earlier_measured(pattern, k)
        toggle = signal(earlier[bit % len(earlier)])
        if kind == "signal":
            commands[k] = type(cmd)(cmd.qubit, cmd.signal + toggle)
        elif kind == "s":
            commands[k] = Measure(cmd.qubit, cmd.angle, cmd.s + toggle, cmd.t)
        else:
            commands[k] = Measure(cmd.qubit, cmd.angle, cmd.s, cmd.t + toggle)
    return pattern.with_commands(commands)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 6))
def test_certificate_sound_on_circuits(seed, wires, steps):
    pattern = random_circuit_pattern(seed, wires=wires, steps=steps)
    assert simulate._certified(pattern)
    assert_certificate_sound(pattern)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 14), st.integers(0, 10**6))
def test_certificate_sound_on_wild_patterns(n_commands, seed):
    assert_certificate_sound(random_wild_pattern(n_commands, seed))


def pauli_eliminated(pattern):
    """``pattern`` with its angles rounded down to multiples of pi/2, standardized
    and with every dependency eliminated: its determinism rests on the Pauli
    measurements themselves."""
    commands = [
        Measure(c.qubit, Angle.exact(Fraction(math.floor(c.angle.fraction * 2), 2)), c.s, c.t)
        if isinstance(c, Measure) else c
        for c in pattern.commands
    ]
    return pauli_eliminate(standardize(pattern.with_commands(commands))[0])


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from(["drop", "s", "t", "signal", "off-axis"]),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_certificate_sound_on_circuit_mutants(seed, eliminated, kind, pick, bit):
    base = random_circuit_pattern(seed, wires=2, steps=4)
    if eliminated:
        base = pauli_eliminated(base)
    mutant = mutate(base, kind, pick, bit)
    if mutant is not None:
        assert_certificate_sound(mutant)


def test_mutants_that_break_determinism_are_not_certified():
    broken = 0
    for seed in range(20):
        circuit = random_circuit_pattern(seed, wires=2, steps=4)
        for base, kind in ((circuit, "drop"), (circuit, "signal"), (pauli_eliminated(circuit), "off-axis")):
            mutant = mutate(base, kind, seed, seed)
            if mutant is not None and not brute_deterministic(mutant):
                assert not simulate._certified(mutant)
                broken += 1
    assert broken >= 40


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_builder_is_certified(name):
    assert simulate._certified(BUILDERS[name])


@pytest.mark.parametrize("params", [(1, 3, 5, 7), (0.3, 0.7, 1.1, 0.5)])
def test_controlled_u_is_certified(params):
    assert simulate._certified(controlled_u(*params))


def test_certificate_is_incomplete():
    assert not simulate._certified(truncated_h())
    # deterministic, as the brute force finds, but not certified
    assert not simulate._certified(rank_one())
    assert is_deterministic(rank_one())


_CERTIFICATE_SOURCES = st.one_of(
    st.builds(
        lambda n, seed, extra: with_extra_shifts(random_wild_pattern(n, seed), random.Random(extra)),
        st.integers(1, 40), st.integers(0, 10**6), st.integers(0, 2**32 - 1),
    ),
    st.sampled_from(sorted(library.BUILDERS)).map(
        lambda name: library.BUILDERS[name](*BUILDER_ARGS.get(name, ()))
    ),
    st.builds(random_circuit_pattern, st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 6)),
)


@settings(deadline=None, max_examples=200)
@given(_CERTIFICATE_SOURCES, st.sampled_from(sorted(_FORMS)))
def test_certificate_is_the_same_on_the_extended_form(pattern, form):
    # a form without shifts is certified on its core form, t-signals and
    # all; the extended form has none
    pattern = _FORMS[form](pattern)
    assert simulate._certified(pattern) == simulate._certified(standardize_extended(pattern)[0])


def test_certificate_validates_first():
    bad = Pattern(frozenset((1, 2)), (1,), (2,), (Entangle(1, 2),))
    with pytest.raises(PatternError, match="cannot run an invalid pattern"):
        is_deterministic(bad)
    with pytest.raises(PatternError, match="cannot run an invalid pattern"):
        extract_unitary(bad)


@pytest.mark.parametrize(
    "run",
    [
        lambda: extract_unitary(controlled_u(0.3, 0.7, 1.1, 0.5)),
        lambda: extract_unitary(h()),
        lambda: extract_unitary(truncated_h(), check_deterministic=False),
        lambda: is_deterministic(ghz(5)),
        lambda: is_deterministic(truncated_h()),
        lambda: run_all_branches(ghz(3)),
        lambda: branch_maps(cnot()),
    ],
    ids=["extract cu", "extract h", "extract uncertified", "deterministic ghz5",
         "deterministic uncertified", "run_all_branches", "branch_maps"],
)
def test_one_validation_per_call(monkeypatch, run):
    calls = []

    def counting(pattern):
        calls.append(pattern)
        return validate(pattern)

    for module in (patterns, rewrite, simulate):
        monkeypatch.setattr(module, "validate", counting)
    run()
    assert len(calls) == 1


def _criterion_corpora():
    shapes = [(2, 5), (3, 5), (2, 6), (1, 6)]
    for k in range(200):
        wires, steps = shapes[k % len(shapes)]
        wild = random_circuit_pattern(k, wires=wires, steps=steps)
        yield wild
        yield standardize(wild)[0]
        yield standardize_extended(wild)[0]
    for params in [(0.3, 0.7, 1.1, 0.5), (1.9, 0.2, 2.5, 0.9), (0.05, 1.3, 0.6, 2.2)]:
        yield controlled_u(*params)


def test_one_branch_unitary_equals_full_walk(monkeypatch):
    corpus = list(_criterion_corpora())
    fast = [extract_unitary(p) for p in corpus]
    monkeypatch.setattr(simulate, "_certified", lambda pattern: False)
    for pattern, u in zip(corpus, fast):
        assert np.array_equal(u, extract_unitary(pattern))


def test_vanishing_planned_branch_raises(monkeypatch):
    # Z then an X-basis measurement: outcome 0 never occurs, so a false
    # certificate plans a branch of probability 0, and the walk says so
    p = Pattern(frozenset((1, 2)), (), (2,), (CorrectZ(1), Measure(1, Angle.exact(0))))
    monkeypatch.setattr(simulate, "_certified", lambda pattern: True)
    with pytest.raises(SimulationError, match="planned branch has probability 0.0, not 2\\^-1"):
        extract_unitary(p)


_DEEP = """
import numpy as np
from conftest import flat_pattern
from onewaylab.angles import Angle
from onewaylab.library import j_chain
from onewaylab.simulate import (
    SimulationError, _certified, extract_unitary, is_deterministic, run_all_branches,
)

def assert_plus(u):
    assert u.shape == (2, 1) and abs(abs(u.sum()) - 2 ** 0.5) < 1e-9, u
"""


def test_deep_pattern_walks_in_a_loop():
    # 1,200 measurements in one branch: the walk is not bounded by the recursion limit
    result = run_isolated(_DEEP + """
p = flat_pattern(1200, Angle.exact(0))
assert not _certified(p)
(branch,) = run_all_branches(p)
assert abs(branch.probability - 1) < 1e-9
assert is_deterministic(p)
assert_plus(extract_unitary(p))
""")
    assert result.returncode == 0, result.stderr


def test_certified_extraction_walks_only_the_planned_branch():
    # the planned branch has probability 2^-m, far below the cutoff of a full walk
    result = run_isolated(_DEEP + """
u = extract_unitary(j_chain([0] * 80))  # H^80
assert abs(abs(np.trace(u)) - 2) < 1e-9, u
for m in (80, 1000):
    assert_plus(extract_unitary(flat_pattern(m, Angle.exact(1, 2))))
try:
    extract_unitary(flat_pattern(1100, Angle.exact(1, 2)))  # 2^-1100 underflows to 0
except SimulationError as exc:
    assert "planned branch has probability 0.0" in str(exc), exc
else:
    raise AssertionError("no SimulationError")
""")
    assert result.returncode == 0, result.stderr


def test_planned_walk_checks_branch_probability():
    # outcomes at 3:1, not the 1:1 of a certified pattern
    p = Pattern(frozenset((1, 2)), (1,), (1,), (Measure(2, Angle.exact(1, 3)),))
    with pytest.raises(SimulationError, match="not 2\\^-1"):
        simulate._branch_maps(simulate._layout(p, 2), planned=True)
