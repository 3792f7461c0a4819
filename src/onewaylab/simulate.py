"""Batched state-vector execution of measurement patterns.

One walk answers every question asked of a pattern.  It is a loop over
an explicit stack of unfinished batches of branches, not a recursion, so
its depth is not bounded by Python's recursion limit.  A batch is an
unnormalized tensor of shape ``(branches, rows, 2, ..., 2)``: its branches
have reached the same step, and every command acts on all of them at once,
a correction only on the branches its signal selects.  The second axis
batches input vectors: a walk over the input basis yields every branch's
whole linear map (``branch_maps``), and a walk with one row runs one input
state (``run_all_branches``).  The declared inputs hold the first qubit
axes from the start.  Every other qubit joins the tensor as |+> when a step
first touches it, which is the paper's N_i, and leaves it when it is
measured; outputs that no step touches join at the end, and the result is
transposed to the declared output order.

The steps are the commands with each E moved to just before the first
later command that acts on one of its qubits (``_schedule``).  A standard
form puts every E first, so in command order all its qubits would be live
at once; scheduled, it walks no wider than its builder's pattern.  Which
qubits are live after each step does not depend on the branch, so the axes,
and the peak state size, are worked out once before the walk starts.

Projecting on a measurement outcome simply scales the tensor, and a
branch's probability is its squared-norm ratio to the input's.

Determinism is first tried by a certificate (``_certified``): a polynomial
GF(2) test on the pattern's signals, sound but incomplete.  A certified
pattern has every branch equal up to phase, so ``is_deterministic`` answers
at once and ``extract_unitary`` walks a single branch, the all-zero one,
which is the branch the full walk would pick.  That planned walk applies
no cutoff; its check that the branch has probability 2^-m catches a branch
that vanishes or whose norm underflows.  Patterns the certificate does not
decide fall back to walking every branch and comparing them, the brute
force that stays the reference.

``run_branch`` is the eager reference the walk is tested against: it runs
one branch on a state prepared over the whole space up front, inputs first
and then the prepared qubits in label order, big-endian in flat indexing.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import prod, sqrt

import numpy as np

from ._values import Value
from .commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from .patterns import Pattern, PatternError, validate
from .rewrite import _core, _shift_out
from .signals import qubit_key

_INV_SQRT2 = 1.0 / sqrt(2.0)
_PLUS = np.full(2, _INV_SQRT2, dtype=complex)

# Branches whose squared norm falls below this fraction of the input's are
# zero up to rounding and are not explored, except by a planned walk.
_BRANCH_CUTOFF = 1e-24

# Relative tolerance for the two-outcome norms of a measurement summing to
# the pre-measurement norm.
_NORM_RTOL = 1e-12

# The largest state, in amplitudes, that a simulation may allocate: 2^24
# complex amplitudes are 256 MiB.  Checked before anything is allocated.
MAX_AMPLITUDES = 1 << 24

# (-1)^s and t * pi of a measurement's effective angle (-1)^s a + t pi, at
# index 2s + t
_PHASE_KEYS = tuple(((-1.0) ** s, t * np.pi) for s in (0, 1) for t in (0, 1))

# A batch that would hold more than MAX_AMPLITUDES >> _BATCH_SHIFT amplitudes
# at the walk's peak width is split in two (see ``_walk``).  At 2^16
# amplitudes, 1 MiB, larger batches no longer walk faster.
_BATCH_SHIFT = 8


class SimulationError(RuntimeError):
    pass


class NotDeterministicError(SimulationError):
    """The pattern's branches disagree, so it implements no single unitary."""


def _check_width(width: int) -> None:
    if 2**width > MAX_AMPLITUDES:
        raise SimulationError(
            f"the state would be {width} qubits wide (2^{width} amplitudes), "
            f"over the limit of {MAX_AMPLITUDES} amplitudes"
        )


class Branch(Value):
    """One completed execution branch.

    ``outcomes`` are as signals read them, after shifts; ``output`` is over
    the declared outputs.
    """

    __slots__ = ("outcomes", "probability", "output")

    def __init__(self, outcomes: dict, probability: float, output: np.ndarray):
        self._set_fields(outcomes, probability, output)


class BranchMap(Value):
    """One surviving branch of a walk over the input basis.

    ``raw`` holds the outcomes as measured, ``outcomes`` the same after
    shifts.  ``matrix`` is the branch's unnormalized linear map, of shape
    ``(2**outputs, 2**inputs)``: column k is the branch's output on basis
    input k, and its squared norm is that input's branch probability.
    """

    __slots__ = ("raw", "outcomes", "matrix")

    def __init__(self, raw: dict, outcomes: dict, matrix: np.ndarray):
        self._set_fields(raw, outcomes, matrix)


def _input_vector(pattern: Pattern, input_state) -> np.ndarray:
    """A fresh flat input vector; ``None`` means |0...0>."""
    n_in = len(pattern.inputs)
    if input_state is None:
        vec = np.zeros(2**n_in, dtype=complex)
        vec[0] = 1.0
        return vec
    vec = np.array(input_state, dtype=complex).reshape(-1)
    if vec.shape != (2**n_in,):
        raise SimulationError(
            f"input state must have {2 ** n_in} amplitudes, got {vec.size}"
        )
    return vec


def run_branch(pattern: Pattern, outcomes_plan, input_state=None) -> Branch:
    """Execute one branch with measurement outcomes forced from a plan.

    ``outcomes_plan`` maps each measured qubit to its raw bit; a qubit
    missing from it raises ``KeyError``.  The returned probability is what
    that branch would occur with under real measurement.  This is the eager
    reference the walk is tested against: the whole space is prepared up
    front, the input vector (``None`` means |0...0>) tensored with |+> on
    each prepared qubit in label order, and every command acts on that one
    tensor.  It does not validate the pattern.
    """
    _check_width(len(pattern.space))
    tensor = _input_vector(pattern, input_state).reshape((2,) * len(pattern.inputs))
    for _ in pattern.prepared:
        tensor = np.multiply.outer(tensor, _PLUS)
    live = tuple(pattern.inputs) + tuple(sorted(pattern.prepared, key=qubit_key))
    start_norm2 = float(np.real(np.vdot(tensor, tensor)))
    if start_norm2 == 0.0:
        raise SimulationError("input state is the zero vector")
    outcomes = {}
    for cmd in pattern.commands:
        if isinstance(cmd, Measure):
            # contract the measured axis against <outcome at the effective angle|
            outcome = outcomes_plan[cmd.qubit]
            s_val = cmd.s.evaluate(outcomes)
            t_val = cmd.t.evaluate(outcomes)
            angle = (-1.0) ** s_val * cmd.angle.radians + t_val * np.pi
            ax = live.index(cmd.qubit)
            zero = np.take(tensor, 0, axis=ax)
            one = np.take(tensor, 1, axis=ax)
            sign = -1.0 if outcome else 1.0
            tensor = (zero + sign * np.exp(-1j * angle) * one) * _INV_SQRT2
            live = tuple(q for q in live if q != cmd.qubit)
            outcomes[cmd.qubit] = outcome
        elif isinstance(cmd, Entangle):
            tensor[_ones_at([live.index(cmd.i), live.index(cmd.j)])] *= -1.0
        elif isinstance(cmd, CorrectX):
            if cmd.signal.evaluate(outcomes):
                tensor = np.flip(tensor, axis=live.index(cmd.qubit))
        elif isinstance(cmd, CorrectZ):
            if cmd.signal.evaluate(outcomes):
                tensor[_ones_at([live.index(cmd.qubit)])] *= -1.0
        elif isinstance(cmd, Shift):
            outcomes[cmd.qubit] ^= cmd.signal.evaluate(outcomes)
        else:
            raise SimulationError(f"cannot execute {cmd!r}")
    prob = float(np.real(np.vdot(tensor, tensor))) / start_norm2
    output = np.transpose(tensor, [live.index(q) for q in pattern.outputs]).reshape(-1)
    return Branch(outcomes, prob, output)


def _ones_at(axes) -> tuple:
    """Index selecting the |1> half of each of ``axes``."""
    idx = [slice(None)] * (max(axes) + 1)
    for a in axes:
        idx[a] = 1
    return tuple(idx)


class _Layout(Value):
    """The walk's step order and axis bookkeeping, the same on every branch.

    Axis 0 of the walk's tensor is the batch of branches and axis 1 the
    input rows; the ``inputs`` qubits hold axes 2, 3, ... from the start.
    ``steps`` holds the commands in ``_schedule`` order, each as
    ``(cmd, joins, where, operand)``: how many qubits join as |+> just
    before it; the index of its qubits' |1> halves, or for X the index that
    flips its qubit's axis, or for a shift the column it changes; and its
    compiled signal, or for a measurement what ``_layout`` says.
    ``tail`` qubits join at the end, and ``perm`` then puts the axes in
    output order.  ``measured`` lists the measured qubits in command order,
    the order of the outcome columns, and ``width`` is the peak number of
    live qubits.
    """

    __slots__ = ("inputs", "steps", "tail", "perm", "measured", "width")

    def __init__(self, inputs, steps, tail, perm, measured, width):
        self._set_fields(inputs, steps, tail, perm, measured, width)


def _check_valid(pattern: Pattern) -> None:
    report = validate(pattern)
    if not report.ok:
        raise PatternError(f"cannot run an invalid pattern: {report}")


def _schedule(commands) -> list:
    """The walk's step order: each E moved to just before the first later
    command that acts on one of its qubits, or to the end when none does.

    E commutes with every command on other qubits and with every other E,
    and no signal reads it, so no branch map changes; its qubits just join
    the walk later.  Every other command keeps its place relative to the
    rest, so the measurements keep their order.
    """
    waiting, on = {}, {}  # index -> E not yet placed; qubit -> indices of such E, in order
    order = []
    for k, cmd in enumerate(commands):
        if isinstance(cmd, Entangle):
            waiting[k] = cmd
            on.setdefault(cmd.i, []).append(k)
            on.setdefault(cmd.j, []).append(k)
        elif isinstance(cmd, Shift) or cmd.qubit not in on:
            order.append(cmd)
        else:
            order += [waiting.pop(e) for e in on.pop(cmd.qubit) if e in waiting]
            order.append(cmd)
    return order + list(waiting.values())


def _layout(pattern: Pattern, rows: int) -> _Layout:
    """Lay out a walk of a validated ``pattern`` over ``rows`` input rows.

    The k-th measured qubit's outcome has column 2k as measured and 2k + 1
    after shifts.  A signal is compiled to its constant and the columns it
    reads, and a measurement to its two signals, its angle in radians and
    its column.  Raises before anything is allocated when the peak state,
    live qubits plus input-batch bits, would exceed ``MAX_AMPLITUDES``.
    """
    shifted = {}  # measured qubit -> the column of its outcome after shifts

    def compiled(signal):
        return signal.constant, tuple(map(shifted.__getitem__, signal.support))

    live = list(pattern.inputs)
    peak = 0
    steps = []
    for cmd in _schedule(pattern.commands):
        if isinstance(cmd, Shift):
            steps.append((cmd, 0, shifted[cmd.qubit], compiled(cmd.signal)))
            continue
        targets = (cmd.i, cmd.j) if isinstance(cmd, Entangle) else (cmd.qubit,)
        fresh = [q for q in targets if q not in live]
        live += fresh
        axes = [2 + live.index(q) for q in targets]
        if isinstance(cmd, Entangle):
            where, operand = _ones_at(axes), None
        elif isinstance(cmd, Measure):
            # qubits leave only here, so the width peaks at a measurement or at the end
            peak = max(peak, len(live))
            column = 2 * len(shifted)
            where = _ones_at(axes)
            operand = (compiled(cmd.s), compiled(cmd.t), cmd.angle.radians, column)
            shifted[cmd.qubit] = column + 1
            live.remove(cmd.qubit)
        elif isinstance(cmd, CorrectX):
            where = (slice(None),) * axes[0] + (slice(None, None, -1),)
            operand = compiled(cmd.signal)
        elif isinstance(cmd, CorrectZ):
            where, operand = _ones_at(axes), compiled(cmd.signal)
        else:
            raise SimulationError(f"cannot execute {cmd!r}")
        steps.append((cmd, len(fresh), where, operand))
    tail = [q for q in pattern.outputs if q not in live]
    live += tail
    width = max(peak, len(live))
    _check_width(width + (rows - 1).bit_length())
    perm = (0, 1) + tuple(2 + live.index(q) for q in pattern.outputs)
    return _Layout(len(pattern.inputs), tuple(steps), len(tail), perm, tuple(shifted), width)


def _row_norms(tensor: np.ndarray, lead: int = 1) -> np.ndarray:
    """Squared norm of each slice over the ``lead`` leading axes of a complex tensor."""
    shape = tensor.shape[:lead]
    flat = np.ascontiguousarray(tensor).reshape(prod(shape), -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat).reshape(shape)


def _phase(radians: float, index: int) -> complex:
    """e^{-i a'} / sqrt(2) for the effective angle a' of a measurement at
    ``radians`` whose signals read s and t, with ``index`` 2s + t."""
    sign, turn = _PHASE_KEYS[index]
    return cmath.exp(-1j * (sign * radians + turn)) * _INV_SQRT2


def _value(signal, bits: np.ndarray):
    """A compiled signal on every branch of a batch: an int8 vector over the
    branches, or an int when the signal reads no outcome."""
    constant, columns = signal
    if not columns:
        return constant
    value = bits[:, columns[0]]
    for c in columns[1:]:
        value = value ^ bits[:, c]
    return value ^ constant if constant else value


def _chosen(value):
    """The branches a signal value selects: None for none, ``slice(None)``
    for all, otherwise their indices."""
    if isinstance(value, int):
        return slice(None) if value else None
    count = np.count_nonzero(value)
    if count == len(value):
        return slice(None)
    return np.flatnonzero(value) if count else None


def _join_plus(tensor: np.ndarray) -> np.ndarray:
    """``tensor`` with a new last axis for a qubit joining in |+>.

    Both halves of the new axis are written whole, rather than through a
    broadcast product whose inner loop is two elements long.
    """
    out = np.empty(tensor.shape + (2,), dtype=complex)
    np.multiply(tensor, _INV_SQRT2, out=out[..., 0])
    out[..., 1] = out[..., 0]
    return out


def _walk(layout: _Layout, batch: np.ndarray, planned: bool = False):
    """Every branch of a laid-out pattern run on the rows of ``batch``.

    ``batch`` is a fresh ``(rows, 2**inputs)`` array; it is used as the
    walk's starting tensor.  Returns ``(bits, out, norms, start)`` over the
    surviving branches, in the order of a depth-first walk that explores
    outcome 1 before outcome 0: ``bits`` holds each branch's outcome of the
    k-th of ``layout.measured`` in column 2k as measured and in column
    2k + 1 after shifts; ``out`` has shape ``(branches, rows, 2**outputs)``
    and ``norms`` its squared norms; ``start`` holds the input rows' squared
    norms.  A branch is dropped only when every row is below the cutoff.
    Checks norm conservation at each measurement and that each row's branch
    probabilities sum to 1.

    The walk is a loop over an explicit stack of unfinished batches, so its
    depth is not bounded by Python's recursion limit.  A batch is a tensor
    of shape ``(branches, rows, 2, ..., 2)`` with the branches' outcome bits.
    At a measurement the two outcomes of each branch are interleaved on the
    branch axis, 1 before 0, so the batch stays in walk order; signals are
    evaluated on every branch at once, and a correction acts on the branches
    it selects.  When the batch at the walk's peak width would hold more
    than ``MAX_AMPLITUDES >> _BATCH_SHIFT`` amplitudes, its two halves walk
    on as separate batches instead, down to one branch each.

    ``planned`` restricts the walk to the all-zero branch, with no cutoff;
    it is for certified patterns (see ``_certified``), whose 2^m branches
    each have probability 2^-m, so the sum check becomes a check that each
    row's probability is 2^-m, which also catches a planned branch that
    vanishes.  Its outcome bits stay 0, since no shift acts on a qubit
    before it is measured.
    """
    rows = batch.shape[0]
    start = _row_norms(batch)
    if not start.all():
        raise SimulationError("input state is the zero vector")
    cutoff = _BRANCH_CUTOFF * start
    cap = MAX_AMPLITUDES >> _BATCH_SHIFT
    steps, perm = layout.steps, layout.perm
    leaves = []
    tensor = batch.reshape((1, rows) + (2,) * layout.inputs)
    stack = [(tensor, np.zeros((1, 2 * len(layout.measured)), dtype=np.int8), 0)]
    while stack:
        tensor, bits, pos = stack.pop()
        for i in range(pos, len(steps)):
            cmd, joins, where, operand = steps[i]
            for _ in range(joins):
                tensor = _join_plus(tensor)
            if isinstance(cmd, Entangle):
                tensor[where] *= -1.0
            elif isinstance(cmd, Measure):
                s, t, radians, col = operand
                index = 2 * _value(s, bits) + _value(t, bits)
                if isinstance(index, int):
                    phase = _phase(radians, index)
                else:
                    table = np.array([_phase(radians, k) for k in range(4)])
                    phase = table[index].reshape((-1,) + (1,) * (tensor.ndim - 2))
                zero = tensor[where[:-1] + (0,)] * _INV_SQRT2
                one = tensor[where] * phase
                # outcome 1, then outcome 0, of each branch
                halves = np.empty((len(zero), 2) + zero.shape[1:], dtype=complex)
                np.subtract(zero, one, out=halves[:, 0])
                np.add(zero, one, out=halves[:, 1])
                pre, norms = _row_norms(tensor, 2), _row_norms(halves, 3)
                post = norms[:, 0] + norms[:, 1]
                error = np.abs(post - pre) - _NORM_RTOL * np.maximum(pre, 1.0)
                if error.max() > 0:
                    k = int(np.argmax(error))
                    raise SimulationError(
                        f"norm not conserved at measurement of {cmd.qubit!r}: "
                        f"{pre.flat[k]} -> {post.flat[k]}"
                    )
                if planned:
                    tensor = halves[:, 1]
                    continue
                size = 2 * len(zero)
                tensor = halves.reshape((size,) + halves.shape[2:])
                bits = np.repeat(bits, 2, axis=0)
                bits[::2, col:col + 2] = 1
                keep = np.logical_or.reduce(norms.reshape(size, rows) > cutoff, axis=1)
                if np.count_nonzero(keep) < size:
                    tensor, bits = tensor[keep], bits[keep]
                    size = len(tensor)
                    if not size:
                        break
                if size > 1 and (size * rows) << layout.width > cap:
                    half = (size + 1) // 2
                    stack.append((tensor[half:], bits[half:], i + 1))
                    stack.append((tensor[:half], bits[:half], i + 1))
                    break
            elif isinstance(cmd, CorrectX):
                chosen = _chosen(_value(operand, bits))
                if isinstance(chosen, slice):
                    tensor = tensor[where]
                elif chosen is not None:
                    tensor[chosen] = tensor[chosen][where]
            elif isinstance(cmd, CorrectZ):
                chosen = _chosen(_value(operand, bits))
                if chosen is not None:
                    tensor[(chosen,) + where[1:]] *= -1.0
            else:  # Shift
                bits[:, where] ^= _value(operand, bits)
        else:
            for _ in range(layout.tail):
                tensor = _join_plus(tensor)
            out = np.transpose(tensor, perm).reshape(len(tensor), rows, -1)
            leaves.append((bits, out, _row_norms(out, 2)))
    if not planned:
        total = sum((norms.sum(axis=0) for *_, norms in leaves), np.zeros(rows)) / start
        gap = np.abs(total - 1.0)
        if not (gap <= 1e-9).all():
            raise SimulationError(f"branch probabilities sum to {total[np.argmax(gap)]}, not 1")
    bits, out, norms = leaves[0] if len(leaves) == 1 else map(np.concatenate, zip(*leaves))
    if planned:
        m = len(layout.measured)
        prob = norms / start
        gap = np.abs(np.ldexp(prob, m) - 1.0)
        if not (gap <= 1e-9).all():
            raise SimulationError(
                f"planned branch has probability {prob.flat[np.argmax(gap)]}, not 2^-{m}"
            )
    return bits, out, norms, start


def run_all_branches(pattern: Pattern, input_state=None) -> list[Branch]:
    """Explore every measurement branch with nonzero probability.

    One walk with a single input row.  Checks on the way that each
    measurement conserves norm across its two outcomes, and that branch
    probabilities sum to 1.  Branches come sorted by their outcome bits
    over the measured qubits in label order.
    """
    _check_valid(pattern)
    layout = _layout(pattern, 1)
    bits, out, norms, start = _walk(layout, _input_vector(pattern, input_state)[None, :])
    measured, outcomes = layout.measured, bits[:, 1::2]
    probabilities = (norms[:, 0] / start[0]).tolist()
    # lexsort is stable and reads its last key first
    labels = sorted(range(len(measured)), key=lambda k: qubit_key(measured[k]), reverse=True)
    order = np.lexsort([outcomes[:, k] for k in labels]).tolist() if labels else [0]
    return [
        Branch(dict(zip(measured, outcomes[k].tolist())), probabilities[k], out[k, 0])
        for k in order
    ]


def branch_maps(pattern: Pattern) -> list[BranchMap]:
    """Every surviving branch's linear map, from one walk over the input basis.

    The walk runs all basis inputs at once, so it checks what
    ``run_all_branches`` checks on each of them, and drops a subtree only
    when it vanishes on every basis input.
    """
    _check_valid(pattern)
    return _branch_maps(_layout(pattern, 2 ** len(pattern.inputs)))


def _branch_maps(layout: _Layout, planned: bool = False) -> list[BranchMap]:
    """``branch_maps`` of a laid-out pattern; ``planned``, for a certified
    pattern, walks only its all-zero branch (see ``_walk``)."""
    bits, out, _, _ = _walk(layout, np.eye(2**layout.inputs, dtype=complex), planned)
    measured = layout.measured
    return [
        BranchMap(dict(zip(measured, row[::2])), dict(zip(measured, row[1::2])), matrix.T)
        for row, matrix in zip(bits.tolist(), out)
    ]


@lru_cache(maxsize=None)
def _pseudorandom_states(dim: int) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(0x1D2C3B4A)
    states = []
    for _ in range(8):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states.append(v / np.linalg.norm(v))
    return tuple(states)


_COLLINEAR_TOL = 1e-9


def _maps_deterministic(maps: list[BranchMap], dim: int) -> bool:
    """Whether every probe's non-vanishing branch outputs are collinear.

    The probes are every basis input plus a fixed set of pseudorandom ones;
    an output is dropped, as a vanishing branch, when its squared norm is at
    most the cutoff times the probe's.  Each probe's kept outputs are
    compared with its first kept output, all at once: two outputs u, v are
    collinear when |<u, v>| >= (1 - tol) |u| |v|.  The maps come from a walk
    whose branch probabilities sum to 1, so every probe keeps an output.
    """
    stacked = np.stack([m.matrix for m in maps])
    for probe in (*np.eye(dim, dtype=complex), *_pseudorandom_states(dim)):
        outputs = stacked @ probe
        norms = _row_norms(outputs)
        keep = norms > _BRANCH_CUTOFF * np.vdot(probe, probe).real
        kept, lengths = outputs[keep], np.sqrt(norms[keep])
        overlaps = np.abs(kept @ kept[0].conj())
        if (overlaps < (1.0 - _COLLINEAR_TOL) * lengths[0] * lengths).any():
            return False
    return True


def _certified(pattern: Pattern) -> bool:
    """Whether a GF(2) certificate proves the validated ``pattern`` deterministic.

    Sound but incomplete: True means every branch map equals every other up
    to a phase; False decides nothing.  The test runs on the commands of
    ``standardize(pattern)``, an E block, then measurements, then
    corrections, which realise the same branch maps.  If shifts remain
    there, it runs on ``standardize_extended(pattern)``, which has none and
    realises the same maps up to a relabelling of outcomes.

    Paulis are bit vectors, an X part and a Z part per qubit; signs and
    phases are dropped, since determinism is up to phase.  The generators
    are K_v = X_v Z_N(v) for every non-input v, N the neighbours in the
    open graph of the E block (a repeated pair cancels), and, for each
    measurement at an exact Pauli angle, its own eigen-operator: X_j on the
    X axis (0 or pi), X_j Z_j, proportional to Y_j, on the Y axis.  The flip
    operator of a measured qubit i is P_i = Z_i times X_j for every
    measurement j whose s holds i, times Z_j for every measurement j whose t
    holds i, times every correction whose signal holds i.  The pattern is
    certified when every P_i lies in the span of the generators.

    Soundness: flipping outcome i is, up to phase, inserting Z_i before i is
    measured, since <-_a| = <+_a| Z.  The flip also toggles s for each
    measurement j whose s holds i, and <+-_(-a)| is <+-_a| X up to phase, so
    that is an X_j before j is measured; it toggles t for each measurement j
    whose t holds i, and <+-_(a+pi)| is <+-_a| Z up to phase, so that is a
    Z_j before j is measured; and it toggles every correction whose signal
    holds i, which acts as itself.  The corrections act on outputs and the
    measurements on distinct qubits, so all of these Paulis commute, up to
    sign, onto the state just after the E block.  Each K_v fixes that state
    whatever the input, and a Pauli eigen-operator only multiplies the
    projection of its qubit by a phase.  So when P_i is a product of
    generators, the branch with outcome i flipped is the same linear map up
    to a phase.  Every branch is then one map up to phase, so
    the pattern is deterministic, and on every input all 2^m branches have
    the same probability: 2^-m, since they sum to 1.
    """
    index = {q: k for k, q in enumerate(sorted(pattern.space, key=qubit_key))}
    n = len(index)

    def x(q):
        return 1 << index[q]

    def z(q):
        return 1 << (n + index[q])

    neighbours = dict.fromkeys(pattern.space, 0)
    generators, flips = [], {}
    commands = _core(pattern.commands)
    if any(type(cmd) is Shift for cmd in commands):
        commands = _shift_out(commands)
    for cmd in commands:
        if isinstance(cmd, Entangle):
            neighbours[cmd.i] ^= z(cmd.j)
            neighbours[cmd.j] ^= z(cmd.i)
        elif isinstance(cmd, Measure):
            q = cmd.qubit
            if cmd.angle.is_x_axis:
                generators.append(x(q))
            elif cmd.angle.is_y_axis:
                generators.append(x(q) | z(q))
            flips[q] = z(q)
            for i in cmd.s.support:
                flips[i] ^= x(q)
            for i in cmd.t.support:
                flips[i] ^= z(q)
        else:
            op = x(cmd.qubit) if isinstance(cmd, CorrectX) else z(cmd.qubit)
            for i in cmd.signal.support:
                flips[i] ^= op
    generators += [x(v) | neighbours[v] for v in pattern.prepared]

    pivots = {}  # leading bit -> basis vector, for Gaussian elimination

    def reduce(v: int) -> int:
        while v:
            row = pivots.get(v.bit_length() - 1)
            if row is None:
                return v
            v ^= row
        return 0

    for g in generators:
        g = reduce(g)
        if g:
            pivots[g.bit_length() - 1] = g
    return not any(reduce(p) for p in flips.values())


def is_deterministic(pattern: Pattern) -> bool:
    """True when all branches produce the same output state up to phase.

    A certified pattern (see ``_certified``) is deterministic exactly.
    Otherwise this probes every basis input plus a fixed set of
    pseudorandom inputs, applied to the branch maps of one walk, and asks
    that on each probe the non-vanishing outputs agree up to a scalar.
    Collinearity is not linear: two maps can agree up to a scalar on every
    basis input and still disagree on a superposition, when the scalars
    differ.  The pseudorandom probes are what catch that, for all but a
    measure-zero set of probes.
    """
    _check_valid(pattern)
    if _certified(pattern):
        return True
    dim = 2 ** len(pattern.inputs)
    return _maps_deterministic(_branch_maps(_layout(pattern, dim)), dim)


def extract_unitary(pattern: Pattern, check_deterministic: bool = True) -> np.ndarray:
    """The unitary (isometry) a deterministic pattern implements, column by column.

    The columns come from a single branch map: the first, in order of raw
    outcome bits over the measured qubits in label order, that does not
    vanish on basis input 0.  Each column is then normalized.  Raises
    ``NotDeterministicError`` for patterns that are not deterministic
    (unless the check is skipped), and ``SimulationError`` when the forced
    branch vanishes on some basis input or its columns do not form an
    isometry.

    A certified pattern (see ``_certified``) needs no check, and only its
    all-zero branch, the first in that order, is walked, with no cutoff:
    the walk checks that it has probability 2^-m on every basis input, so
    a branch that vanishes, or whose norm underflows, raises
    ``SimulationError`` there.
    """
    _check_valid(pattern)
    dim_in = 2 ** len(pattern.inputs)
    # laid out first, so an over-wide state fails before the certificate runs
    layout = _layout(pattern, dim_in)
    if _certified(pattern):
        (branch,) = _branch_maps(layout, planned=True)
        norms = _row_norms(branch.matrix.T)
    else:
        maps = _branch_maps(layout)
        if check_deterministic and not _maps_deterministic(maps, dim_in):
            raise NotDeterministicError("pattern is not deterministic: no single unitary exists")
        measured = sorted(pattern.measured, key=qubit_key)
        for branch in sorted(maps, key=lambda m: tuple(m.raw[q] for q in measured)):
            norms = _row_norms(branch.matrix.T)
            if norms[0] > _BRANCH_CUTOFF:
                break
        else:
            raise SimulationError("no branch with nonzero probability found")
        for k in range(dim_in):
            if norms[k] <= _BRANCH_CUTOFF:
                raise SimulationError(
                    f"forced branch vanishes on basis input {k}; pattern not deterministic"
                )
    u = branch.matrix / np.sqrt(norms)
    # np.allclose(u^H u, 1, atol=1e-9) written out, without its overhead
    eye = np.eye(dim_in)
    if not (np.abs(u.conj().T @ u - eye) <= 1e-9 + 1e-5 * eye).all():
        raise SimulationError("extracted columns are not orthonormal")
    return u


def format_branch_report(pattern: Pattern, branches: list[Branch]) -> str:
    """Human-readable branch table: outcome bits, probability, amplitudes."""
    measured = sorted(pattern.space - pattern.output_set, key=qubit_key)
    lines = [f"branches: {len(branches)}  (outcome order: {', '.join(map(str, measured))})"]
    for b in branches:
        bits = "".join(str(b.outcomes[q]) for q in measured)
        amps = " ".join(
            f"{a.real:+.6f}{a.imag:+.6f}j" for a in np.asarray(b.output).reshape(-1)
        )
        lines.append(f"  [{bits}]  p={b.probability:.6f}  {amps}")
    return "\n".join(lines)
