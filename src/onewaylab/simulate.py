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
later command that acts on one of its qubits, and each X or Z to just after
the last earlier step that acts on its qubit or writes an outcome its signal
reads (``_schedule``).  A standard form puts every E first, so in command
order all its qubits would be live at once; scheduled, it walks no wider
than its builder's pattern, and its corrections act before later
measurements double the batch.  Which qubits are live after each step does
not depend on the branch, so the axes, the peak state size and the shape
each measurement views the tensor in are worked out once, by ``_layout``,
before the walk starts.

Projecting on a measurement outcome simply scales the tensor, and a
branch's probability is its squared-norm ratio to the input's.  Each
measurement records the norms before and after it, and the record is
checked once per walk, before the walk returns.

Determinism is first tried by a certificate (``_certified``): a polynomial
GF(2) test that reads the command sequence once, keeping a Pauli frame,
sound but incomplete.  A certified pattern has every branch equal up to
phase, so ``is_deterministic`` answers at once and ``extract_unitary``
walks a single branch, the all-zero one, which is the branch the full walk
would pick.  That planned walk applies no cutoff; it scales its branch
by 2^128 after every 256 measurements, so the norm, which halves at
each, cannot underflow, and its check that the branch has probability
2^-m catches a branch that vanishes.
``run_all_branches`` of a large certified pattern builds every branch as
a phase times that one, the phase read off one amplitude per branch.
Patterns the certificate does not decide fall back to the brute force that
stays the reference: one walk of every branch over the input basis, whose
arrays ``is_deterministic`` and ``extract_unitary`` read directly; only
``branch_maps`` turns them into per-branch values.  Where branches are put
in order, by outcome bits over the measured qubits in label order, one
helper sorts them (``_label_order``).

``run_branch`` is the eager reference the walk is tested against: it runs
one branch on a state prepared over the whole space up front, inputs first
and then the prepared qubits in label order, big-endian in flat indexing.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import accumulate
from math import prod, sqrt

import numpy as np

try:  # np.einsum's C core: on a walk's small tensors its Python dispatch costs more than the sum
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

from ._values import Value
from .commands import CorrectX, CorrectZ, Entangle, Measure, Shift
from .patterns import Pattern, _check_valid
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

# The most bytes that one walk may keep in all, 256 MiB: the amplitudes,
# outcome bits and norms of the branches it keeps, and the norms it records
# at each measurement for the conservation check.  Checked as each branch
# batch is kept, since a full walk keeps up to 2^m branches and MAX_AMPLITUDES
# bounds only one batch's width; a branch of a closed layout holds one
# amplitude per row but two outcome bytes per measurement.
_MAX_KEPT_BYTES = 1 << 28

# (-1)^s and t * pi of a measurement's effective angle (-1)^s a + t pi, at
# index 2s + t
_PHASE_KEYS = tuple(((-1.0) ** s, t * np.pi) for s in (0, 1) for t in (0, 1))

# A batch that would hold more than MAX_AMPLITUDES >> _BATCH_SHIFT amplitudes
# at the walk's peak width is split in two (see ``_walk``).  At 2^16
# amplitudes, 1 MiB, larger batches no longer walk faster.
_BATCH_SHIFT = 8

# A planned walk's branch loses half its squared norm at each measurement, so
# after every _RESCALE_EVERY of them it is scaled by exactly 2^_RESCALE_BITS,
# which restores it and keeps it far from the subnormal range.
_RESCALE_EVERY = 256
_RESCALE_BITS = _RESCALE_EVERY // 2

# ``run_all_branches`` of a certified pattern whose 2^m branch outputs hold
# at least this many amplitudes in all takes the certified amplitude path.
# Measured on ghz(n) (2n - 1 measured and output qubits): the path was
# slower at 2^13 amplitudes and faster from 2^15.
_AMPLITUDE_PATH_SIZE = 1 << 14


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
    """A fresh flat input vector; ``None`` means |0...0>.  A state needs one
    amplitude per input basis state, all finite, and a squared norm that
    neither underflows to 0 nor overflows."""
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
    if not (np.isfinite(vec).all() and 0.0 < np.vdot(vec, vec).real < np.inf):
        raise SimulationError("input state must be finite and nonzero")
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
            tensor[_ones_at(live.index(cmd.i), live.index(cmd.j))] *= -1.0
        elif isinstance(cmd, CorrectX):
            if cmd.signal.evaluate(outcomes):
                tensor = np.flip(tensor, axis=live.index(cmd.qubit))
        elif isinstance(cmd, CorrectZ):
            if cmd.signal.evaluate(outcomes):
                tensor[_ones_at(live.index(cmd.qubit))] *= -1.0
        else:  # Shift
            outcomes[cmd.qubit] ^= cmd.signal.evaluate(outcomes)
    prob = float(np.real(np.vdot(tensor, tensor))) / start_norm2
    output = np.transpose(tensor, [live.index(q) for q in pattern.outputs]).reshape(-1)
    return Branch(outcomes, prob, output)


@lru_cache(maxsize=None)
def _ones_at(*axes) -> tuple:
    """Index selecting the |1> half of each of ``axes``; cached, since a
    width within ``MAX_AMPLITUDES`` leaves only a few hundred axis sets."""
    idx = [slice(None)] * (max(axes) + 1)
    for a in axes:
        idx[a] = 1
    return tuple(idx)


class _Layout(Value):
    """The walk's step order and axis bookkeeping, the same on every branch.

    Axis 0 of the walk's tensor is the batch of branches and axis 1 the
    input rows; the ``inputs`` qubits hold axes 2, 3, ... from the start.
    ``steps`` holds the commands in ``_schedule`` order, each as
    ``(kind, joins, where, operand)``: the command's class; how many qubits
    join as |+> just before it; the index of its qubits' |1> halves, or for
    X the index that flips its qubit's axis, for a shift the column it
    changes, and for a measurement the ``(-1, rows * before, 2, after)``
    shape that views its qubit's axis between the live axes before and after
    it; and its compiled signal, or for a measurement what ``_layout`` says.
    ``tail`` qubits join at the end, and ``perm`` then puts the axes in
    output order.  ``measured`` lists the measured qubits in command order,
    the order of the outcome columns, and ``width`` is the peak number of
    live qubits.  A ``closed`` layout ends each branch as one amplitude
    (see ``_layout``).
    """

    __slots__ = ("inputs", "steps", "tail", "perm", "measured", "width", "closed")

    def __init__(self, inputs, steps, tail, perm, measured, width, closed):
        self._set_fields(inputs, steps, tail, perm, measured, width, closed)


def _schedule(commands, inputs=()) -> list:
    """The walk's step order: each E moved to just before the first later
    command that acts on one of its qubits, or to the end when none does,
    and each X or Z to just after the last earlier step that acts on its
    qubit or writes an outcome its signal reads.

    E commutes with every command on other qubits and with every other E,
    and no signal reads it, so no branch map changes; its qubits just join
    the walk later.  A correction commutes with every step it moves above,
    and is exact, so amplitudes keep their values (a zero can change sign).
    It never moves above the first step that touches a qubit not among
    ``inputs``, so each qubit joins, with its 1/sqrt(2), at the same point.
    Measurements and shifts keep their order.
    """
    waiting, on = {}, {}  # index -> E not yet placed; qubit -> indices of such E, in order
    slots = [[]]  # each step with the corrections placed just after it; slot 0 is the start
    acted = dict.fromkeys(inputs, 0)  # qubit -> slot of the last step acting on it
    wrote = {}  # measured qubit -> slot of the last step writing its outcome
    for k, cmd in enumerate(commands):
        kind = type(cmd)
        if kind is Entangle:
            waiting[k] = cmd
            on.setdefault(cmd.i, []).append(k)
            on.setdefault(cmd.j, []).append(k)
            continue
        q = cmd.qubit
        if q in on and kind is not Shift:
            for e in on.pop(q):
                if e in waiting:
                    ent = waiting.pop(e)
                    acted[ent.i] = acted[ent.j] = len(slots)
                    slots.append([ent])
        if kind is Measure or kind is Shift:
            wrote[q] = len(slots)
            slots.append([cmd])
        elif q in acted:
            acted[q] = slot = max([acted[q], *map(wrote.__getitem__, cmd.signal.support)])
            slots[slot].append(cmd)
        else:
            acted[q] = len(slots)
            slots.append([cmd])
    return [cmd for slot in slots for cmd in slot] + list(waiting.values())


@lru_cache(maxsize=None)
def _flip_at(axis: int) -> tuple:
    """Index reversing ``axis``, which an X on that axis's qubit applies."""
    return (slice(None),) * axis + (slice(None, None, -1),)


def _layout(pattern: Pattern, rows: int, close=None, schedule=None) -> _Layout:
    """Lay out a walk of a validated ``pattern`` over ``rows`` input rows.

    The k-th measured qubit's outcome has column 2k as measured and 2k + 1
    after shifts.  A signal is compiled to its constant and the columns it
    reads, and a measurement to its two signals, its angle in radians, its
    column, the walk's shape once its qubit has left, and its qubit.  Raises
    before anything is allocated when the peak state, live qubits plus
    input-batch bits, would exceed ``MAX_AMPLITUDES``.  ``schedule`` is the
    pattern's ``_schedule``, when the caller already has it.

    ``close``, one bit per output, closes the layout: each output leaves
    right after its last step, by a step ``(None, 0, where, None)`` that
    selects its bit on its axis, so a branch ends as one amplitude.  An
    output that is an input and that no step touches leaves at the start;
    one that no step touches and that is not an input never joins, so the
    same factor of 1/sqrt(2) is left out of every branch.
    """
    shifted = {}  # measured qubit -> the column of its outcome after shifts

    def compiled(signal):
        support = signal.support
        return signal.constant, tuple([shifted[q] for q in support]) if support else ()

    if schedule is None:
        schedule = _schedule(pattern.commands, pattern.inputs)
    closed = close is not None
    leaving = {}  # step index -> the outputs that leave a closed layout after it; -1: at the start
    if closed:  # a shift's qubit is no output
        last = {}
        for k, cmd in enumerate(schedule):
            if type(cmd) is Entangle:
                last[cmd.i] = last[cmd.j] = k
            else:
                last[cmd.qubit] = k
        for q, bit in zip(pattern.outputs, close):
            if q in last or q in pattern.inputs:
                leaving.setdefault(last.get(q, -1), []).append((q, bit))
    live = list(pattern.inputs)
    peak = len(live)
    steps = []
    append = steps.append

    def leave(k):
        for q, bit in leaving[k]:
            append((None, 0, (slice(None),) * (2 + live.index(q)) + (bit,), None))
            live.remove(q)

    if -1 in leaving:
        leave(-1)
    for k, cmd in enumerate(schedule):
        kind = type(cmd)
        if kind is Shift:
            append((Shift, 0, shifted[cmd.qubit], compiled(cmd.signal)))
            continue
        joins = 0
        if kind is Entangle:
            i, j = cmd.i, cmd.j
            for q in (i, j):
                if q not in live:
                    live.append(q)
                    joins += 1
            append((Entangle, joins, _ones_at(2 + live.index(i), 2 + live.index(j)), None))
        else:
            q = cmd.qubit
            if q not in live:
                live.append(q)
                joins = 1
            axis = live.index(q)
            if kind is Measure:
                after = len(live) - 1 - axis
                column = 2 * len(shifted)
                shape = (-1, rows) + (2,) * (axis + after)
                operand = (compiled(cmd.s), compiled(cmd.t), cmd.angle.radians, column, shape, q)
                append((Measure, joins, (-1, rows << axis, 2, 1 << after), operand))
                shifted[q] = column + 1
            elif kind is CorrectX:
                append((CorrectX, joins, _flip_at(2 + axis), compiled(cmd.signal)))
            else:
                append((CorrectZ, joins, _ones_at(2 + axis), compiled(cmd.signal)))
        if joins and len(live) > peak:
            peak = len(live)
        if kind is Measure:
            del live[axis]
        if k in leaving:
            leave(k)
    tail = [] if closed else [q for q in pattern.outputs if q not in live]
    live += tail
    width = max(peak, len(live))
    _check_width(width + (rows - 1).bit_length())
    perm = (0, 1) + tuple(2 + live.index(q) for q in pattern.outputs if q in live)
    return _Layout(len(pattern.inputs), tuple(steps), len(tail), perm, tuple(shifted), width, closed)


def _row_norms(tensor: np.ndarray, lead: int = 1) -> np.ndarray:
    """Squared norm of each slice over the ``lead`` leading axes of a complex tensor."""
    shape = tensor.shape[:lead]
    flat = np.ascontiguousarray(tensor).reshape(prod(shape), -1).view(np.float64)
    return _einsum("ij,ij->i", flat, flat).reshape(shape)


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


def _chosen(value, ndim: int):
    """The branches a signal value selects: None for none, True for all,
    otherwise a mask over the branches shaped to broadcast over ``ndim`` axes."""
    if isinstance(value, int):
        return True if value else None
    count = np.count_nonzero(value)
    if count == len(value):
        return True
    return value.view(bool).reshape((-1,) + (1,) * (ndim - 1)) if count else None


def _join_plus(tensor: np.ndarray, count: int) -> np.ndarray:
    """``tensor`` with ``count`` new last axes for qubits joining in |+>.

    The amplitudes are scaled by 1/sqrt(2) once per qubit, as when each
    joins alone, and then repeated along the new axes.
    """
    scaled = tensor * _INV_SQRT2
    for _ in range(count - 1):
        scaled *= _INV_SQRT2
    joined = scaled[..., None].repeat(1 << count, -1)
    return joined if count == 1 else joined.reshape(scaled.shape + (2,) * count)


def _check_norms(record: list, rows: int) -> None:
    """Raise for the first measurement in ``record``, in walk order, whose
    two outcomes' squared norms do not add up to the norm it measured.

    Each entry is ``(qubit, pre, halves)``: the squared norm of each
    (branch, row) before the measurement, and of each (branch, outcome, row)
    after it.  All entries are checked at once; only when one fails are they
    checked one by one, as the walk met them, and the faulty measurement's
    row with the largest error is named.
    """
    qubits, pres, halves = zip(*record)
    pre = np.concatenate(pres)
    post = np.add.reduce(np.concatenate(halves).reshape(-1, 2, rows), 1).reshape(-1)
    error = np.abs(post - pre) - _NORM_RTOL * np.maximum(pre, 1.0)
    if not (error > 0).any():
        return
    begin = 0
    for qubit, end in zip(qubits, accumulate(map(len, pres))):
        if error[begin:end].max() > 0:
            k = begin + int(np.argmax(error[begin:end]))
            raise SimulationError(f"norm not conserved at measurement of {qubit!r}: {pre[k]} -> {post[k]}")
        begin = end


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

    The walk is a loop over an explicit stack of unfinished batches, so its
    depth is not bounded by Python's recursion limit.  A batch is a tensor
    of shape ``(branches, rows, 2, ..., 2)`` with the branches' outcome bits.
    A measurement views it as ``(branches, rows * before, 2, after)``, the
    measured axis between the live axes before and after it, and writes the
    two outcomes of each branch interleaved on the branch axis, 1 before 0,
    so the batch stays in walk order; signals are evaluated on every branch
    at once, and a correction acts on the branches it selects.  When the
    batch at the walk's peak width would hold more than
    ``MAX_AMPLITUDES >> _BATCH_SHIFT`` amplitudes, its two halves walk on as
    separate batches instead, down to one branch each.  The branches it
    keeps and the norms it records may hold ``_MAX_KEPT_BYTES`` bytes in
    all; once a kept batch passes that, ``SimulationError`` is raised
    before the walk goes on.

    Every measurement records the squared norm of each row before it and of
    each outcome's row after it, and the record is checked once, before the
    walk returns: each row's two outcomes must add up to its norm before
    (``_check_norms``).  Then each row's branch probabilities must sum to 1.

    ``planned`` restricts the walk to the all-zero branch, with no cutoff;
    it is for certified patterns (see ``_certified``), whose 2^m branches
    each have probability 2^-m, so the sum check becomes a check that each
    row's probability is 2^-m, which also catches a planned branch that
    vanishes.  After every ``_RESCALE_EVERY`` measurements it scales its
    branch by 2^_RESCALE_BITS, so its ``out`` and ``norms`` come scaled by
    2^k and 4^k, k = 0 below that many measurements; the check allows for
    it.  It keeps its outcome bits as every walk does, with its raw bits
    all 0; since it holds one branch, a measurement takes one phase.

    A closed layout (see ``_layout``) ends each branch as one amplitude, so
    ``out`` has shape ``(branches, rows, 1)``: that walk keeps every branch,
    with no cutoff, and makes no sum check, but still checks norm
    conservation.
    """
    rows = batch.shape[0]
    start = _row_norms(batch)
    cutoff = None if planned or layout.closed else _BRANCH_CUTOFF * start
    cap = MAX_AMPLITUDES >> _BATCH_SHIFT
    steps, perm = layout.steps, layout.perm
    leaves, record, kept, scale = [], [], 0, 0
    tensor = batch.reshape((1, rows) + (2,) * layout.inputs)
    stack = [(tensor, np.zeros((1, 2 * len(layout.measured)), dtype=np.int8), 0)]
    while stack:
        tensor, bits, pos = stack.pop()
        for i in range(pos, len(steps)):
            kind, joins, where, operand = steps[i]
            if joins:
                tensor = _join_plus(tensor, joins)
            if kind is Entangle:
                ones = tensor[where]
                np.multiply(ones, -1.0, out=ones)
            elif kind is Measure:
                s, t, radians, col, shape, qubit = operand
                view = np.ascontiguousarray(tensor).reshape(where)
                size = len(view)
                index = 2 * _value(s, bits) + _value(t, bits)
                if not isinstance(index, int) and size == 1:
                    index = int(index[0])  # one branch, as in every planned walk, takes a scalar phase
                if isinstance(index, int):
                    phase = _phase(radians, index)
                else:
                    table = np.array([_phase(radians, k) for k in range(4)])
                    phase = table[index].reshape(-1, 1, 1)
                zero = view[:, :, 0] * _INV_SQRT2
                one = view[:, :, 1] * phase
                # outcome 1, then outcome 0, of each branch
                halves = np.empty((size, 2) + zero.shape[1:], dtype=complex)
                np.subtract(zero, one, out=halves[:, 0])
                np.add(zero, one, out=halves[:, 1])
                pre = view.reshape(size * rows, -1).view(np.float64)
                post = halves.reshape(2 * size * rows, -1).view(np.float64)
                pre_norms, norms = _einsum("ij,ij->i", pre, pre), _einsum("ij,ij->i", post, post)
                record.append((qubit, pre_norms, norms))
                kept += pre_norms.nbytes + norms.nbytes
                if planned:
                    tensor = halves[:, 1].reshape(shape)
                    if not len(record) % _RESCALE_EVERY:
                        tensor *= 2.0**_RESCALE_BITS
                        scale += _RESCALE_BITS
                    continue
                size *= 2
                tensor = halves.reshape(shape)
                bits = bits.repeat(2, axis=0)
                bits[::2, col:col + 2] = 1
                if cutoff is not None:
                    keep = np.logical_or.reduce(norms.reshape(size, rows) > cutoff, 1)
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
            elif kind is CorrectX:
                chosen = _chosen(_value(operand, bits), tensor.ndim)
                if chosen is True:
                    tensor = tensor[where]
                elif chosen is not None:
                    np.copyto(tensor, tensor[where], where=chosen)
            elif kind is CorrectZ:
                chosen = _chosen(_value(operand, bits), tensor.ndim - 1)
                if chosen is not None:
                    ones = tensor[where]
                    np.multiply(ones, -1.0, out=ones, where=chosen)
            elif kind is None:  # an output leaves a closed layout
                tensor = tensor[where]
            else:  # Shift
                bits[:, where] ^= _value(operand, bits)
        else:
            if layout.tail:
                tensor = _join_plus(tensor, layout.tail)
            out = tensor.transpose(perm).reshape(len(tensor), rows, -1)
            norms = _row_norms(out, 2)
            kept += out.nbytes + bits.nbytes + norms.nbytes
            if kept > _MAX_KEPT_BYTES:
                raise SimulationError(
                    f"the kept branches and norms would hold more than {_MAX_KEPT_BYTES} bytes"
                )
            leaves.append((bits, out, norms))
    if record:
        _check_norms(record, rows)
    if cutoff is not None:
        total = sum((norms.sum(axis=0) for *_, norms in leaves), np.zeros(rows)) / start
        gap = np.abs(total - 1.0)
        if not (gap <= 1e-9).all():
            raise SimulationError(f"branch probabilities sum to {total[np.argmax(gap)]}, not 1")
    bits, out, norms = leaves[0] if len(leaves) == 1 else map(np.concatenate, zip(*leaves))
    if planned:
        m = len(layout.measured)
        prob = norms / start
        gap = np.abs(np.ldexp(prob, m - 2 * scale) - 1.0)
        if not (gap <= 1e-9).all():
            prob = np.ldexp(prob, -2 * scale).flat[np.argmax(gap)]
            raise SimulationError(f"planned branch has probability {prob}, not 2^-{m}")
    return bits, out, norms, start


def _label_order(columns: np.ndarray, measured) -> list:
    """The indices of the branches sorted by ``columns``, which hold one bit
    per qubit of ``measured``, read with the measured qubits in label order."""
    labels = sorted(range(len(measured)), key=lambda k: qubit_key(measured[k]), reverse=True)
    # lexsort is stable and reads its last key first; with no measurement there is one branch
    return np.lexsort([columns[:, k] for k in labels]).tolist() if labels else [0]


def run_all_branches(pattern: Pattern, input_state=None) -> list[Branch]:
    """Explore every measurement branch with nonzero probability.

    One walk with a single input row.  Checks that each measurement
    conserves norm across its two outcomes, and that branch probabilities
    sum to 1.  Branches come sorted by their outcome bits over the measured
    qubits in label order.

    A certified pattern (see ``_certified``) whose 2^m outputs hold at least
    ``_AMPLITUDE_PATH_SIZE`` amplitudes walks its all-zero branch in full,
    by the planned walk with its 2^-m check, then every branch's amplitude
    at that branch's largest entry x, on a layout closed on x (see
    ``_layout``); both layouts share one schedule.  Each branch is the
    all-zero one times the ratio of their amplitudes at x, and its
    probability is the ratio's squared modulus times the all-zero branch's;
    a ratio off the unit circle by more than 1e-9 raises ``SimulationError``.
    The closed walk keeps all 2^m branches within ``_MAX_KEPT_BYTES``, so
    when it returns, m is below ``_RESCALE_EVERY`` and the planned walk's
    outputs are unscaled.
    """
    _check_valid(pattern, "run")
    schedule = _schedule(pattern.commands, pattern.inputs)
    layout = _layout(pattern, 1, schedule=schedule)
    measured, n_out = layout.measured, len(pattern.outputs)
    psi = _input_vector(pattern, input_state)[None, :]
    if 1 << (len(measured) + n_out) >= _AMPLITUDE_PATH_SIZE and _certified(pattern):
        _, out, norms, start = _walk(layout, psi.copy(), True)
        x = int(np.argmax(np.abs(out[0, 0])))
        close = [x >> (n_out - 1 - k) & 1 for k in range(n_out)]
        bits, amps, _, _ = _walk(_layout(pattern, 1, close, schedule), psi)
        zero = int(np.argmin(bits[:, ::2].any(axis=1)))  # the branch whose raw bits are all 0
        ratios = amps[:, 0, 0] / amps[zero, 0, 0]
        moduli = np.abs(ratios)
        if (np.abs(moduli - 1.0) > 1e-9).any():
            raise SimulationError("a certified pattern's branches differ by more than a phase")
        out = ratios[:, None, None] * out
        norms = np.square(moduli)[:, None] * norms
    else:
        bits, out, norms, start = _walk(layout, psi)
    outcomes, outputs = bits[:, 1::2], out[:, 0]
    probabilities = (norms[:, 0] / start[0]).tolist()
    order = _label_order(outcomes, measured)
    rows = outcomes.tolist()
    outputs = list(outputs)
    set_outcomes, set_probability, set_output = Branch._setters
    branches = []
    for k in order:
        branch = object.__new__(Branch)
        set_outcomes(branch, dict(zip(measured, rows[k])))
        set_probability(branch, probabilities[k])
        set_output(branch, outputs[k])
        branches.append(branch)
    return branches


def branch_maps(pattern: Pattern) -> list[BranchMap]:
    """Every surviving branch's linear map, from one walk over the input basis.

    The walk runs all basis inputs at once, so it checks what
    ``run_all_branches`` checks on each of them, and drops a subtree only
    when it vanishes on every basis input.
    """
    _check_valid(pattern, "run")
    dim = 2 ** len(pattern.inputs)
    layout = _layout(pattern, dim)
    bits, out, _, _ = _walk(layout, np.eye(dim, dtype=complex))
    return [
        BranchMap(dict(zip(layout.measured, row[::2])), dict(zip(layout.measured, row[1::2])), matrix.T)
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


def _maps_deterministic(out: np.ndarray, dim: int) -> bool:
    """Whether every probe's non-vanishing branch outputs are collinear.

    ``out`` is a walk's ``out`` over the ``dim`` basis inputs: ``out[k, j]``
    is branch k's output on basis input j, so ``probe @ out`` holds every
    branch's output on a probe.  The probes are every basis input plus a
    fixed set of pseudorandom ones; an output is dropped, as a vanishing
    branch, when its squared norm is at most the cutoff times the probe's.
    Each probe's kept outputs are compared with its first kept output, all
    at once: two outputs u, v are collinear when |<u, v>| >= (1 - tol) |u| |v|.
    The walk's branch probabilities sum to 1, so every probe keeps an output.
    """
    for probe in (*np.eye(dim, dtype=complex), *_pseudorandom_states(dim)):
        outputs = probe @ out
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
    to a phase; False decides nothing.  One pass over the commands, in
    command order, finds for each measured qubit i the Pauli P_i that
    flipping outcome i amounts to on the state just after every E; the
    pattern is certified when every P_i lies in the span of that state's
    generators.

    Paulis are bit vectors, an X part and a Z part per qubit; signs and
    phases are dropped, since determinism is up to phase.  The generators
    are K_v = X_v Z_N(v) for every non-input v, N the neighbours in the
    open graph of all the E commands (a repeated pair cancels), and, for
    each measurement at an exact Pauli angle, its own eigen-operator: X_j on
    the X axis (0 or pi), X_j Z_j, proportional to Y_j, on the Y axis.

    The pass keeps, as int bit masks over the outcomes, which outcomes a
    read of each measured qubit depends on (its own, and through shifts
    others), and a Pauli frame: for each qubit, the outcomes whose flip has
    put an X, and a Z, on it so far.  A signal depends on the outcomes of
    its reads.  An X or Z correction adds its signal's outcomes to its
    qubit's frame; an E adds to each qubit's Z frame the other's X frame; a
    shift adds its signal's outcomes to its qubit's reads.  A measurement of
    j takes its qubit's frame into its signals: every outcome its s then
    depends on gets X_j in its P, every outcome its t depends on gets Z_j,
    and its own outcome Z_j.  The frames left on the outputs go into the P
    of their outcomes last.

    Soundness: flipping outcome i is, up to phase, inserting Z_i before i is
    measured, since <-_a| = <+_a| Z.  The flip also toggles every signal
    that depends on i.  A shift of q reads s_q + its signal from then on,
    so a later signal that reads q depends on the outcomes of that signal
    too, as the SHIFT rules substitute s_q + signal into later signals.
    Toggling s of a measurement j is an X_j before j is measured, since
    <+-_(-a)| is <+-_a| X up to phase; on the X axis, where the
    measurement drops its s, that X_j is itself a generator.  Toggling t is
    a Z_j, since <+-_(a+pi)| is <+-_a| Z up to phase, and toggling a
    correction acts as the correction.  An E commutes with every earlier
    measurement, which acts on another qubit, so the pattern acts as if all
    its E commands came first, and every inserted Pauli moves to the state
    just after them: it commutes, up to sign, with measurements of other
    qubits and with the other Paulis, Z commutes with E, and an X on q
    followed by E(q, r) equals that E followed by X_q Z_r, so it picks up a
    Z on each later E-neighbour of q, which is what the frame does, as the
    EX rule does in ``standardize``.  A Pauli on j just before j is measured
    needs no such move, since every E on j comes before that measurement.
    Each K_v fixes that state whatever the input,
    and a Pauli eigen-operator only multiplies the projection of its qubit
    by a phase.  So when P_i is a product of generators, the branch with
    outcome i flipped is the same linear map up to a phase.  Every branch
    is then one map up to phase, so the pattern is deterministic, and on
    every input all 2^m branches have the same probability: 2^-m, since
    they sum to 1.
    """
    # each qubit's X bit; its Z bit is the next one up
    coordinate = {q: 1 << 2 * k for k, q in enumerate(pattern.space)}
    neighbours = dict.fromkeys(coordinate, 0)  # qubit -> the Z bits of its E-neighbours
    frame_x = dict.fromkeys(coordinate, 0)  # qubit -> outcomes whose flip has put an X on it
    frame_z = dict.fromkeys(coordinate, 0)  # ... and a Z
    reads = {}  # measured qubit -> the outcomes a read of it depends on
    flips = {}  # outcome bit -> the Pauli its flip amounts to
    generators = []

    def depends(signal) -> int:
        mask = 0
        for q in signal.support:
            mask ^= reads[q]
        return mask

    def add(outcomes: int, pauli: int) -> None:
        while outcomes:
            low = outcomes & -outcomes
            flips[low] ^= pauli
            outcomes ^= low

    for cmd in pattern.commands:
        kind = type(cmd)
        if kind is Entangle:
            i, j = cmd.i, cmd.j
            neighbours[i] ^= coordinate[j] << 1
            neighbours[j] ^= coordinate[i] << 1
            frame_z[j] ^= frame_x[i]
            frame_z[i] ^= frame_x[j]
        elif kind is Measure:
            q = cmd.qubit
            x = coordinate[q]
            own = reads[q] = 1 << len(flips)
            flips[own] = x << 1
            add(frame_x[q] ^ depends(cmd.s), x)
            add(frame_z[q] ^ depends(cmd.t), x << 1)
            angle = cmd.angle
            if angle.is_x_axis:
                generators.append(x)
            elif angle.is_y_axis:
                generators.append(x | x << 1)
        elif kind is Shift:
            reads[cmd.qubit] ^= depends(cmd.signal)
        elif kind is CorrectX:
            frame_x[cmd.qubit] ^= depends(cmd.signal)
        else:
            frame_z[cmd.qubit] ^= depends(cmd.signal)
    for q in pattern.outputs:
        add(frame_x[q], coordinate[q])
        add(frame_z[q], coordinate[q] << 1)
    inputs = set(pattern.inputs)
    generators += [x | neighbours[v] for v, x in coordinate.items() if v not in inputs]

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
    pseudorandom inputs, each applied to every branch at once through the
    ``out`` array of one walk over the input basis, and asks that on each
    probe the non-vanishing outputs agree up to a scalar.
    Collinearity is not linear: two maps can agree up to a scalar on every
    basis input and still disagree on a superposition, when the scalars
    differ.  The pseudorandom probes are what catch that, for all but a
    measure-zero set of probes.
    """
    _check_valid(pattern, "run")
    if _certified(pattern):
        return True
    dim = 2 ** len(pattern.inputs)
    _, out, _, _ = _walk(_layout(pattern, dim), np.eye(dim, dtype=complex))
    return _maps_deterministic(out, dim)


def _is_isometry(u: np.ndarray) -> bool:
    """``np.allclose(u^H u, 1, atol=1e-9)``, written out without its overhead."""
    eye = np.eye(u.shape[1])
    return bool((np.abs(u.conj().T @ u - eye) <= 1e-9 + 1e-5 * eye).all())


def extract_unitary(pattern: Pattern, check_deterministic: bool = True) -> np.ndarray:
    """The unitary (isometry) a deterministic pattern implements, column by column.

    One walk over the input basis answers it.  The columns are one
    branch's outputs on the basis inputs: the first branch, in order of raw
    outcome bits over the measured qubits in label order (``_label_order``),
    that does not vanish on basis input 0.  Each column is normalized by
    the squared norm the walk returns for it.  Raises
    ``NotDeterministicError`` for patterns that are not deterministic
    (unless the check is skipped), and ``SimulationError`` when the forced
    branch vanishes on some basis input or its columns do not form an
    isometry.

    A certified pattern (see ``_certified``) needs no check, and the walk is
    planned: only its all-zero branch, the first in that order, is walked,
    with no cutoff.  The walk checks that it has probability 2^-m on every
    basis input, so a branch that vanishes raises ``SimulationError`` there.
    The walk's power-of-two scaling cancels in the normalization.
    """
    _check_valid(pattern, "run")
    dim_in = 2 ** len(pattern.inputs)
    # laid out first, so an over-wide state fails before the certificate runs
    layout = _layout(pattern, dim_in)
    certified = _certified(pattern)
    bits, out, norms, _ = _walk(layout, np.eye(dim_in, dtype=complex), certified)
    k = 0
    if not certified:
        if check_deterministic and not _maps_deterministic(out, dim_in):
            raise NotDeterministicError("pattern is not deterministic: no single unitary exists")
        # the walk checked that input 0's probabilities sum to 1 over < 2^24 branches, so one passes the cutoff
        k = next(k for k in _label_order(bits[:, ::2], layout.measured) if norms[k, 0] > _BRANCH_CUTOFF)
        vanishing = np.flatnonzero(norms[k] <= _BRANCH_CUTOFF)
        if len(vanishing):
            raise SimulationError(
                f"forced branch vanishes on basis input {vanishing[0]}; pattern not deterministic"
            )
    matrix, norms = out[k].T, norms[k]
    u = matrix / np.sqrt(norms)
    if not _is_isometry(u):
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
