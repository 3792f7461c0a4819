"""Branch-by-branch state-vector execution of measurement patterns.

One walk answers every question asked of a pattern.  It is a loop over
an explicit stack of unfinished branches, not a recursion, so its depth is
not bounded by Python's recursion limit.  On each branch it carries an
unnormalized tensor of shape ``(rows, 2, ..., 2)`` whose leading axis
batches input vectors: a walk over the input basis
yields every branch's whole linear map (``branch_maps``), and a walk with
one row runs one input state (``run_all_branches``).  The declared inputs
hold the first qubit axes from the start.  Every other qubit joins the
tensor as |+> when a command first touches it, which is the paper's N_i,
and leaves it when it is measured; outputs that no command touches join at
the end, and the result is transposed to the declared output order.  Which
qubits are live after each command does not depend on the branch, so the
axes, and the peak state size, are worked out once before the walk starts.

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
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

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


@dataclass(frozen=True)
class Branch:
    """One completed execution branch.

    ``outcomes`` are as signals read them, after shifts; ``output`` is over
    the declared outputs.
    """

    outcomes: dict
    probability: float
    output: np.ndarray


@dataclass(frozen=True)
class BranchMap:
    """One surviving branch of a walk over the input basis.

    ``raw`` holds the outcomes as measured, ``outcomes`` the same after
    shifts.  ``matrix`` is the branch's unnormalized linear map, of shape
    ``(2**outputs, 2**inputs)``: column k is the branch's output on basis
    input k, and its squared norm is that input's branch probability.
    """

    raw: dict
    outcomes: dict
    matrix: np.ndarray


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


@dataclass(frozen=True)
class _Layout:
    """The walk's axis bookkeeping, the same on every branch.

    The ``inputs`` qubits hold axes 1, 2, ... from the start (axis 0 is
    the batch).  ``steps`` holds, per command, how many qubits join as |+>
    just before it and the index of its qubits' |1> halves.  ``tail``
    qubits join at the end, and ``perm`` then puts the axes in output order.
    """

    inputs: int
    steps: tuple
    tail: int
    perm: tuple


def _check_valid(pattern: Pattern) -> None:
    report = validate(pattern)
    if not report.ok:
        raise PatternError(f"cannot run an invalid pattern: {report}")


def _layout(pattern: Pattern, rows: int) -> _Layout:
    """Lay out a walk of a validated ``pattern`` over ``rows`` input rows.

    Raises before anything is allocated when the peak state, live qubits
    plus input-batch bits, would exceed ``MAX_AMPLITUDES``.
    """
    live = list(pattern.inputs)
    peak = len(live)
    steps = []
    for cmd in pattern.commands:
        if isinstance(cmd, Entangle):
            targets = (cmd.i, cmd.j)
        elif isinstance(cmd, Shift):
            targets = ()
        else:
            targets = (cmd.qubit,)
        fresh = [q for q in targets if q not in live]
        live += fresh
        peak = max(peak, len(live))
        where = _ones_at([1 + live.index(q) for q in targets]) if targets else None
        steps.append((cmd, len(fresh), where))
        if isinstance(cmd, Measure):
            live.remove(cmd.qubit)
    tail = [q for q in pattern.outputs if q not in live]
    live += tail
    _check_width(max(peak, len(live)) + (rows - 1).bit_length())
    perm = (0,) + tuple(1 + live.index(q) for q in pattern.outputs)
    return _Layout(len(pattern.inputs), tuple(steps), len(tail), perm)


def _row_norms(tensor: np.ndarray) -> np.ndarray:
    """Squared norm of each row (leading-axis slice) of a complex tensor."""
    flat = np.ascontiguousarray(tensor).reshape(tensor.shape[0], -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _walk(layout: _Layout, batch: np.ndarray, plan=None):
    """Every branch of a laid-out pattern run on the rows of ``batch``.

    ``batch`` is a fresh ``(rows, 2**inputs)`` array; it is used as the
    walk's starting tensor.  Returns the surviving branches as
    ``(raw, outcomes, out, norms)`` with ``out`` of shape
    ``(rows, 2**outputs)`` and ``norms`` its rows' squared norms, together
    with the input rows' squared norms.  A subtree is dropped only when
    every row is below the cutoff.  Checks norm conservation at each
    measurement and that each row's branch probabilities sum to 1.

    The walk is a loop over an explicit stack of unfinished branches, each
    a tensor, its outcomes and its next step, so its depth is not bounded
    by Python's recursion limit.  Outcome 1 is explored before outcome 0.

    ``plan``, a map from every measured qubit to a raw outcome, restricts
    the walk to that one branch, with no cutoff; it is for certified
    patterns (see ``_certified``), whose 2^m branches each have probability
    2^-m, so the sum check becomes a check that each row's probability is
    2^-m, which also catches a planned branch that vanishes.
    """
    rows = batch.shape[0]
    start = _row_norms(batch)
    if not start.all():
        raise SimulationError("input state is the zero vector")
    cutoff = _BRANCH_CUTOFF * start
    steps, perm = layout.steps, layout.perm
    leaves = []
    stack = [(batch.reshape((rows,) + (2,) * layout.inputs), {}, {}, 0)]
    while stack:
        tensor, raw, outcomes, pos = stack.pop()
        for i in range(pos, len(steps)):
            cmd, joins, where = steps[i]
            for _ in range(joins):
                tensor = tensor[..., None] * _PLUS
            if isinstance(cmd, Entangle):
                tensor[where] *= -1.0
            elif isinstance(cmd, Measure):
                s_val = cmd.s.evaluate(outcomes)
                t_val = cmd.t.evaluate(outcomes)
                angle = (-1.0) ** s_val * cmd.angle.radians + t_val * np.pi
                zero = tensor[where[:-1] + (0,)] * _INV_SQRT2
                one = tensor[where] * (cmath.exp(-1j * angle) * _INV_SQRT2)
                lo, hi = zero + one, zero - one
                pre, n_lo, n_hi = _row_norms(tensor), _row_norms(lo), _row_norms(hi)
                error = np.abs(n_lo + n_hi - pre) - _NORM_RTOL * np.maximum(pre, 1.0)
                if (error > 0).any():
                    k = int(np.argmax(error))
                    raise SimulationError(
                        f"norm not conserved at measurement of {cmd.qubit!r}: "
                        f"{pre[k]} -> {n_lo[k] + n_hi[k]}"
                    )
                q = cmd.qubit
                for bit, half, norms in ((0, lo, n_lo), (1, hi, n_hi)):
                    if (norms > cutoff).any() if plan is None else plan[q] == bit:
                        stack.append((half, {**raw, q: bit}, {**outcomes, q: bit}, i + 1))
                break
            elif isinstance(cmd, CorrectX):
                if cmd.signal.evaluate(outcomes):
                    # the qubit's axis is the last one ``where`` names
                    tensor = np.flip(tensor, axis=len(where) - 1)
            elif isinstance(cmd, CorrectZ):
                if cmd.signal.evaluate(outcomes):
                    tensor[where] *= -1.0
            elif isinstance(cmd, Shift):
                outcomes[cmd.qubit] ^= cmd.signal.evaluate(outcomes)
            else:
                raise SimulationError(f"cannot execute {cmd!r}")
        else:
            for _ in range(layout.tail):
                tensor = tensor[..., None] * _PLUS
            out = np.transpose(tensor, perm).reshape(rows, -1)
            leaves.append((raw, outcomes, out, _row_norms(out)))
    if plan is None:
        total = sum((leaf[3] for leaf in leaves), np.zeros(rows)) / start
        gap = np.abs(total - 1.0)
        if not (gap <= 1e-9).all():
            raise SimulationError(f"branch probabilities sum to {total[np.argmax(gap)]}, not 1")
    else:
        for *_, norms in leaves:
            prob = norms / start
            gap = np.abs(np.ldexp(prob, len(plan)) - 1.0)
            if not (gap <= 1e-9).all():
                raise SimulationError(
                    f"planned branch has probability {prob[np.argmax(gap)]}, not 2^-{len(plan)}"
                )
    return leaves, start


def run_all_branches(pattern: Pattern, input_state=None) -> list[Branch]:
    """Explore every measurement branch with nonzero probability.

    One walk with a single input row.  Checks on the way that each
    measurement conserves norm across its two outcomes, and that branch
    probabilities sum to 1.  Branches come sorted by their outcome bits
    over the measured qubits in label order.
    """
    _check_valid(pattern)
    layout = _layout(pattern, 1)
    leaves, start = _walk(layout, _input_vector(pattern, input_state)[None, :])
    branches = [
        Branch(outcomes, float(norms[0] / start[0]), out[0])
        for _, outcomes, out, norms in leaves
    ]
    measured = sorted(pattern.measured, key=qubit_key)
    branches.sort(key=lambda b: tuple(b.outcomes[q] for q in measured))
    return branches


def branch_maps(pattern: Pattern) -> list[BranchMap]:
    """Every surviving branch's linear map, from one walk over the input basis.

    The walk runs all basis inputs at once, so it checks what
    ``run_all_branches`` checks on each of them, and drops a subtree only
    when it vanishes on every basis input.
    """
    _check_valid(pattern)
    return _branch_maps(_layout(pattern, 2 ** len(pattern.inputs)))


def _branch_maps(layout: _Layout, plan=None) -> list[BranchMap]:
    """``branch_maps`` of a laid-out pattern; with a ``plan`` of raw outcomes
    for a certified pattern, only that branch is walked (see ``_walk``)."""
    leaves, _ = _walk(layout, np.eye(2**layout.inputs, dtype=complex), plan)
    return [BranchMap(raw, outcomes, out.T) for raw, outcomes, out, _ in leaves]


@lru_cache(maxsize=None)
def _pseudorandom_states(dim: int, count: int = 8) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(0x1D2C3B4A)
    states = []
    for _ in range(count):
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
    ``standardize_extended(pattern)``, which realise the same branch maps
    up to a relabelling of outcomes and is an E block, then measurements
    with sign-action signals only (no t-signals), then corrections, with no
    shifts.

    Paulis are bit vectors, an X part and a Z part per qubit; signs and
    phases are dropped, since determinism is up to phase.  The generators
    are K_v = X_v Z_N(v) for every non-input v, N the neighbours in the
    open graph of the E block (a repeated pair cancels), and, for each
    measurement at an exact Pauli angle, its own eigen-operator: X_j on the
    X axis (0 or pi), X_j Z_j, proportional to Y_j, on the Y axis.  The flip
    operator of a measured qubit i is P_i = Z_i times X_j for every
    measurement j whose s holds i, times every correction whose signal holds
    i.  The pattern is certified when every P_i lies in the span of the
    generators.

    Soundness: flipping outcome i is, up to phase, inserting Z_i before i is
    measured, since <-_a| = <+_a| Z.  The flip also toggles s for each
    measurement j whose s holds i, and <+-_(-a)| is <+-_a| X up to phase, so
    that is an X_j before j is measured; and it toggles every correction
    whose signal holds i, which acts as itself.  The corrections act on
    outputs and the measurements on distinct qubits, so all of these Paulis
    commute, up to sign, onto the state just after the E block.  Each K_v
    fixes that state whatever the input, and a Pauli eigen-operator only
    multiplies the projection of its qubit by a phase.  So when P_i is a
    product of generators, the branch with outcome i flipped is the same
    linear map up to a phase.  Every branch is then one map up to phase, so
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
    for cmd in _shift_out(_core(pattern.commands)):
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
        (branch,) = _branch_maps(layout, dict.fromkeys(pattern.measured, 0))
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
    gram = u.conj().T @ u
    if not np.allclose(gram, np.eye(dim_in), atol=1e-9):
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
