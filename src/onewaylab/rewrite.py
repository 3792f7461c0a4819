"""Rewriting patterns to entanglement-measurement-correction normal form.

Core rules push entanglements to the front and corrections to the back of
the command sequence, absorbing corrections into measurement signals on the
way.  An extended pass then splits the pi-action signals of measurements
into explicit outcome-shift commands, propagates those to the end, and
drops them, leaving measurements that carry sign-action dependencies only.

All rules act on adjacent command windows of the execution-order sequence.
The system is terminating and confluent, so every strategy reaches the same
normal form.  That form is therefore built directly, in one left-to-right
pass over the commands.  The rule engine, with a deterministic low-position
strategy, records the steps to it: it runs when a returned trace is first
read, and it is the oracle the direct construction is tested against.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .commands import Command, CorrectX, CorrectZ, Entangle, Measure, Shift
from .dsl import _format_command
from .patterns import Pattern, _check_valid
from .signals import ONE, ZERO, Signal


class RewriteError(RuntimeError):
    """A rule was applied where it does not match, rewriting ran away, or a
    normal form would be larger than ``MAX_COMMANDS``."""


# The most commands a normal form may hold, checked before it is built
# (``_core_size``), since it grows quadratically in its source.  At the peak
# of ``_shift_out`` an extended form takes about 1.2 KB per command, a core
# form about 70 B: the 491,653 commands of random_wild_pattern(4100, 1) took
# 623 MB and 80 MB of peak RSS in all.
MAX_COMMANDS = 1 << 19


class Rule(Enum):
    EX = "EX"
    EZ = "EZ"
    MX = "MX"
    MZ = "MZ"
    FREE_E = "FREE_E"
    FREE_X = "FREE_X"
    FREE_Z = "FREE_Z"
    SHIFT_SPLIT = "SHIFT_SPLIT"
    SHIFT_X = "SHIFT_X"
    SHIFT_Z = "SHIFT_Z"
    SHIFT_M = "SHIFT_M"
    SHIFT_DROP = "SHIFT_DROP"


class RewriteStep(NamedTuple):
    """One applied rule: replaces ``before`` at ``position`` with ``after``."""

    rule: Rule
    position: int
    before: tuple
    after: tuple


def termination_measure(pattern: Pattern) -> tuple[int, int]:
    """The published termination pair ``(e_sum, c_sum)``; tuples order lexicographically.

    ``e_sum`` adds the 1-based execution position of every entanglement;
    ``c_sum`` adds ``n - position`` for every correction, ``n`` being the
    sequence length.  It is not a progress measure for the core rules: when
    an X correction crosses an entanglement under EX, the spawned Z pushes
    every later entanglement one position back, so the pair can rise.
    """
    n = len(pattern.commands)
    e_sum = c_sum = 0
    for pos, cmd in enumerate(pattern.commands, start=1):
        if isinstance(cmd, Entangle):
            e_sum += pos
        elif isinstance(cmd, (CorrectX, CorrectZ)):
            c_sum += n - pos
    return e_sum, c_sum


_SPLIT_FRACTIONS = (Fraction(1), Fraction(3, 2))


def _split(cmd: Command) -> tuple | None:
    """SHIFT_SPLIT's replacement for a measurement, or None when it does not apply.

    The rule rewrites a measurement that carries a pi-action signal, or one
    whose exact angle is pi or 3*pi/2 with no sign-action dependency: there
    a constant shift turns it into a plain Pauli-axis measurement (this is
    how the phase-gate pattern acquires its ``s1 + 1`` correction signal).
    ``Measure`` folds a signal's constant into the angle, so a measurement's
    signal is nonzero exactly when its support is.
    """
    if type(cmd) is not Measure:
        return None
    angle, t = cmd.angle, cmd.t
    if not t.support:
        if cmd.s.support or not angle.is_exact or angle.fraction not in _SPLIT_FRACTIONS:
            return None
        angle, t = angle.plus_pi(), ONE
    return (Measure(cmd.qubit, angle, cmd.s, ZERO), Shift(cmd.qubit, t))


# Two-command rules, dispatched on the window's (type(a), type(b)).  Each
# entry returns the one (rule, replacement) the window admits, taking the
# first match in the order EX, EZ, MX, MZ, FREE_E, FREE_X, FREE_Z, or None.
# No other type pair matches a core rule.


def _x_entangle(a: CorrectX, b: Entangle) -> tuple:
    if a.qubit == b.i:
        return Rule.EX, (b, a, CorrectZ(b.j, a.signal))
    if a.qubit == b.j:
        return Rule.EX, (b, a, CorrectZ(b.i, a.signal))
    return Rule.FREE_E, (b, a)


def _z_entangle(a: CorrectZ, b: Entangle) -> tuple:
    if a.qubit == b.i or a.qubit == b.j:
        return Rule.EZ, (b, a)
    return Rule.FREE_E, (b, a)


def _x_measure(a: CorrectX, b: Measure) -> tuple:
    if a.qubit == b.qubit:
        return Rule.MX, (Measure(b.qubit, b.angle, b.s + a.signal, b.t),)
    return Rule.FREE_X, (b, a)


def _z_measure(a: CorrectZ, b: Measure) -> tuple:
    if a.qubit == b.qubit:
        return Rule.MZ, (Measure(b.qubit, b.angle, b.s, b.t + a.signal),)
    return Rule.FREE_Z, (b, a)


def _free_entangle(a: Measure | Shift, b: Entangle) -> tuple | None:
    if a.qubit == b.i or a.qubit == b.j:
        return None
    return Rule.FREE_E, (b, a)


_CORE_PAIRS = {
    (CorrectX, Entangle): _x_entangle,
    (CorrectZ, Entangle): _z_entangle,
    (CorrectX, Measure): _x_measure,
    (CorrectZ, Measure): _z_measure,
    (Measure, Entangle): _free_entangle,
    (Shift, Entangle): _free_entangle,
}

# FREE_X and FREE_Z also match the disjoint X-E and Z-E windows that FREE_E
# takes first; all three give the same swap.
_ALSO_FREE_E = {(Rule.FREE_X, CorrectX), (Rule.FREE_Z, CorrectZ)}


# Propagation of a shift past the command after it.  A command whose signals
# do not hold the shifted qubit is passed unchanged.


def _shift_correction(a: Shift, b: CorrectX | CorrectZ) -> tuple:
    kind = type(b)
    signal = b.signal.substitute(a.qubit, a.signal)
    rule = Rule.SHIFT_X if kind is CorrectX else Rule.SHIFT_Z
    return rule, (b if signal is b.signal else kind(b.qubit, signal), a)


def _shift_m(a: Shift, b: Measure) -> tuple:
    s = b.s.substitute(a.qubit, a.signal)
    t = b.t.substitute(a.qubit, a.signal)
    if s is not b.s or t is not b.t:
        b = Measure(b.qubit, b.angle, s, t)
    return Rule.SHIFT_M, (b, a)


_SHIFT_PAIRS = {
    (Shift, CorrectX): _shift_correction,
    (Shift, CorrectZ): _shift_correction,
    (Shift, Measure): _shift_m,
}


def _redexes(seq) -> list[tuple[Rule, int]]:
    found = []
    for pos in range(len(seq) - 1):
        a, b = seq[pos], seq[pos + 1]
        rewrite = _CORE_PAIRS.get((type(a), type(b)))
        match = None if rewrite is None else rewrite(a, b)
        if match is not None:
            found.append((match[0], pos))
    return found


def applicable_redexes(pattern: Pattern) -> list[tuple[Rule, int]]:
    """All (rule, position) pairs of the core rules matching the sequence, in
    position order.

    At a given position, only the highest-priority matching rule is listed
    (free commutations overlap pairwise, never with a propagation rule).
    """
    return _redexes(pattern.commands)


def _apply(seq: list, rule: Rule, pos: int) -> None:
    """Apply one rule at a position of a command list, in place."""
    width = 1 if rule in (Rule.SHIFT_SPLIT, Rule.SHIFT_DROP) else 2
    after = None
    if 0 <= pos <= len(seq) - width:
        if rule is Rule.SHIFT_SPLIT:
            after = _split(seq[pos])
        elif rule is Rule.SHIFT_DROP:
            if pos == len(seq) - 1 and isinstance(seq[pos], Shift):
                after = ()
        else:
            a, b = seq[pos], seq[pos + 1]
            key = (type(a), type(b))
            rewrite = _CORE_PAIRS.get(key) or _SHIFT_PAIRS.get(key)
            match = None if rewrite is None else rewrite(a, b)
            if match is not None and (
                match[0] is rule or (match[0] is Rule.FREE_E and (rule, type(a)) in _ALSO_FREE_E)
            ):
                after = match[1]
    if after is None:
        raise RewriteError(f"rule {rule.value} does not match at position {pos}")
    seq[pos : pos + width] = after


def apply_rule(pattern: Pattern, rule: Rule, position: int) -> Pattern:
    """Apply one rule at a position; raises RewriteError when it does not match."""
    seq = list(pattern.commands)
    _apply(seq, rule, position)
    return Pattern._rebuilt(pattern, seq)


def _step_budget(n: int) -> int:
    # Guard against rule bugs producing loops; never expected to fire.
    return 16 * n * n + 64


# The rule engine: one adjacent window at a time, every step recorded.  It
# produces the trace, and it is the oracle for the direct construction below.


def _traced_core(seq: list, trace: list) -> list:
    """Deterministic core standardization of a command list, in place.

    Strategy: keep a cursor at the lowest position where a redex may exist;
    apply the highest-priority matching rule there.  Applying a rule only
    creates new redexes in a window around it, so the cursor backs up one
    step after each application.  Confluence makes the strategy irrelevant
    for the result.
    """
    budget = _step_budget(len(seq))
    pos = 0
    while pos + 1 < len(seq):
        a, b = seq[pos], seq[pos + 1]
        rewrite = _CORE_PAIRS.get((type(a), type(b)))
        match = None if rewrite is None else rewrite(a, b)
        if match is None:
            pos += 1
            continue
        rule, after = match
        seq[pos : pos + 2] = after
        trace.append(RewriteStep(rule, pos, (a, b), after))
        if pos:
            pos -= 1
        if len(trace) > budget:
            raise RewriteError("rewrite step budget exceeded: rule loop?")
    return seq


def _traced_propagate_shift(seq: list, pos: int, trace: list) -> None:
    """Move the shift at ``pos`` rightward to the end of the sequence and drop it."""
    shift = seq[pos]
    while pos + 1 < len(seq):
        nxt = seq[pos + 1]
        rewrite = _SHIFT_PAIRS.get((type(shift), type(nxt)))
        if rewrite is None:
            raise RewriteError(f"cannot propagate shift past {nxt!r}")
        rule, after = rewrite(shift, nxt)
        seq[pos : pos + 2] = after
        trace.append(RewriteStep(rule, pos, (shift, nxt), after))
        pos += 1
    trace.append(RewriteStep(Rule.SHIFT_DROP, pos, (shift,), ()))
    del seq[pos]


def _traced_shift_out(seq: list, trace: list) -> None:
    """The extended rules on a core normal form, in place."""
    # Shifts present in the source first move out to the end (rightmost
    # first, so each propagation path is shift-free), then blocked
    # corrections get another core pass.
    had_shifts = False
    for pos in range(len(seq) - 1, -1, -1):
        if isinstance(seq[pos], Shift):
            had_shifts = True
            _traced_propagate_shift(seq, pos, trace)
    if had_shifts:
        _traced_core(seq, trace)
    pos = 0
    while pos < len(seq):
        after = _split(seq[pos])
        if after is None:
            pos += 1
            continue
        trace.append(RewriteStep(Rule.SHIFT_SPLIT, pos, (seq[pos],), after))
        seq[pos : pos + 1] = after
        _traced_propagate_shift(seq, pos + 1, trace)
        pos += 1


def _traced_standardize(commands: tuple, extended: bool) -> list[RewriteStep]:
    """Every step the rule engine takes from ``commands`` to the normal form."""
    trace: list[RewriteStep] = []
    seq = _traced_core(list(commands), trace)
    if extended:
        _traced_shift_out(seq, trace)
    return trace


class _LazyTrace(Sequence):
    """The rewrite steps to a normal form, computed by the rule engine when first read.

    It reads like the list of steps: by length, index and iteration, and it
    compares equal to a list of the same steps.
    """

    __slots__ = ("_commands", "_extended", "_steps")

    def __init__(self, commands: tuple, extended: bool):
        self._commands = commands
        self._extended = extended
        self._steps = None

    @property
    def steps(self) -> list[RewriteStep]:
        if self._steps is None:
            self._steps = _traced_standardize(self._commands, self._extended)
        return self._steps

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index):
        return self.steps[index]

    def __iter__(self):
        return iter(self.steps)

    def __eq__(self, other) -> bool:
        return self.steps == other

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self.steps)


# The direct construction.  The normal form is unique, so it is built from
# what the rules do to each command, in one left-to-right pass, without
# rewriting one window at a time.


def _core(commands) -> list:
    """The core normal form of a valid command sequence, in one pass.

    An E joins the E block, and each live X on one of its qubits gains a Z
    on the other qubit, with the X's signal, as its first child (EX); a Z
    lets an E pass unchanged (EZ).  A Shift closes the open segment:
    corrections and measurements never cross it, and an E does.  A
    measurement absorbs each correction on its qubit in the open segment
    (MX, MZ), nearest first, and passes the others (FREE_X, FREE_Z).  The
    result is the E block, then for each segment its measurements, its
    corrections, each followed by its children, and its Shift.
    """
    entangles, segments = [], []
    measures, groups, pending = [], [], set()
    # A group is [correction, or None once absorbed; its Zs in spawn order;
    # the set of qubits with a correction in the group's segment].
    live_x = {}  # qubit -> groups holding an X on it
    for cmd in commands:
        kind = type(cmd)
        if kind is Entangle:
            entangles.append(cmd)
            for q, other in ((cmd.i, cmd.j), (cmd.j, cmd.i)):
                for group in live_x.get(q, ()):
                    group[1].append(CorrectZ(other, group[0].signal))
                    group[2].add(other)
        elif kind is Measure:
            q = cmd.qubit
            live_x.pop(q, None)
            if q in pending:
                pending.discard(q)
                for group in reversed(groups):
                    kept = []
                    for z in group[1]:
                        if z.qubit == q:
                            cmd = Measure(q, cmd.angle, cmd.s, cmd.t + z.signal)
                        else:
                            kept.append(z)
                    group[1] = kept
                    c = group[0]
                    if c is not None and c.qubit == q:
                        if type(c) is CorrectX:
                            cmd = Measure(q, cmd.angle, cmd.s + c.signal, cmd.t)
                        else:
                            cmd = Measure(q, cmd.angle, cmd.s, cmd.t + c.signal)
                        group[0] = None
            measures.append(cmd)
        elif kind is Shift:
            segments.append((measures, groups, cmd))
            measures, groups, pending = [], [], set()
        else:
            group = [cmd, [], pending]
            groups.append(group)
            pending.add(cmd.qubit)
            if kind is CorrectX:
                live_x.setdefault(cmd.qubit, []).append(group)
    segments.append((measures, groups, None))
    out = entangles
    for measures, groups, shift in segments:
        out += measures
        for c, children, _ in groups:
            if c is not None:
                out.append(c)
            out += reversed(children)
        if shift is not None:
            out.append(shift)
    return out


def _core_size(commands) -> int:
    """A bound on the length of ``_core(commands)``, exact but for absorbed Zs.

    ``_core`` adds to the commands one Z for each live X that an E on its
    qubit meets (EX), and an X is live from its command until its qubit is
    measured; MX and MZ only take commands away.
    """
    size, live = len(commands), {}
    for cmd in commands:
        kind = type(cmd)
        if kind is Entangle:
            size += live.get(cmd.i, 0) + live.get(cmd.j, 0)
        elif kind is CorrectX:
            live[cmd.qubit] = live.get(cmd.qubit, 0) + 1
        elif kind is Measure:
            live.pop(cmd.qubit, None)
    return size


def _check_standardizable(pattern: Pattern) -> None:
    """Refuse an invalid pattern, then one whose normal form could exceed ``MAX_COMMANDS``."""
    _check_valid(pattern, "standardize")
    n = len(pattern.commands)
    # each spawned Z pairs an X with a later E, so there are at most n^2 / 4
    if n + n * n // 4 <= MAX_COMMANDS:
        return
    size = _core_size(pattern.commands)
    if size > MAX_COMMANDS:
        raise RewriteError(
            f"the normal form would hold up to {size} commands, more than the {MAX_COMMANDS} allowed"
        )


def _substituted(signal: Signal, d: dict) -> Signal:
    """``signal`` with ``s_q + d[q]`` in place of each ``s_q`` it holds that ``d`` maps."""
    # a signal's support is small, and usually smaller than ``d``
    for q in signal.support:
        if q in d:
            signal = signal + d[q]
    return signal


def _substitution_pass(commands, split: bool) -> list:
    """``commands`` with every shift carried to the end and dropped there.

    SHIFT_X, SHIFT_Z and SHIFT_M carry a Shift(q, t) to the end, putting
    ``s_q + t`` in place of ``s_q`` in every signal on the way, and
    SHIFT_DROP drops it there.  The shifts met so far compose into one
    substitution ``d``, left to right, which every later command takes.
    With ``split``, each measurement that SHIFT_SPLIT rewrites (see
    ``_split``) adds its shift to ``d`` after taking ``d`` itself.

    An inexact angle rounds at each negation or pi that a rule adds, so a
    measurement at one takes the shifts one SHIFT_M at a time, in the order
    the rules move them out: the source's rightmost shift first, and split
    shifts as they are made.  An exact one takes ``d`` at once.
    """
    d: dict = {}
    shifts, out = [], []
    for cmd in commands:
        kind = type(cmd)
        if kind is Shift:
            q, t = cmd.qubit, _substituted(cmd.signal, d)
            d[q] = d[q] + t if q in d else t
            shifts.append(cmd)
            continue
        if kind is Measure:
            s, t = cmd.s, cmd.t
            if not (s.support.isdisjoint(d) and t.support.isdisjoint(d)):
                if cmd.angle.is_exact:
                    cmd = Measure(cmd.qubit, cmd.angle, _substituted(s, d), _substituted(t, d))
                else:
                    for shift in shifts if split else reversed(shifts):
                        cmd = _shift_m(shift, cmd)[1][0]
            after = _split(cmd) if split else None
            if after is not None:
                cmd, shift = after
                d[cmd.qubit] = shift.signal
                shifts.append(shift)
        elif kind is not Entangle and not cmd.signal.support.isdisjoint(d):
            cmd = kind(cmd.qubit, _substituted(cmd.signal, d))
        out.append(cmd)
    return out


def _shift_out(commands: list) -> list:
    """The extended normal form of a core normal form.

    The source's shifts go first.  If there were any, the core pass runs
    again, since the corrections they held back can now move; every E is
    first by then, so it spawns no Z and the form stays within the size
    checked before the first.  Then the shifts that SHIFT_SPLIT makes go.
    """
    seq = _substitution_pass(commands, False)
    if len(seq) < len(commands):  # the pass dropped the source's shifts
        seq = _core(seq)
    return _substitution_pass(seq, True)


def standardize(pattern: Pattern) -> tuple[Pattern, Sequence[RewriteStep]]:
    """Rewrite to the unique core normal form.

    For input without explicit shift commands the result is in EMC order
    (entanglements, then measurements, then corrections).  Shifts are inert
    under the core rules and stay put; use :func:`standardize_extended` to
    move them out.  The input must satisfy the definiteness conditions; they
    are preserved by every rule.

    The normal form is built in one pass.  The trace is the rule engine's
    list of steps to it, computed when the trace is first read.  A form
    that could exceed ``MAX_COMMANDS`` raises ``RewriteError`` before it
    is built.
    """
    _check_standardizable(pattern)
    return Pattern._rebuilt(pattern, _core(pattern.commands)), _LazyTrace(pattern.commands, False)


def standardize_extended(pattern: Pattern) -> tuple[Pattern, Sequence[RewriteStep]]:
    """Core standardization followed by exhaustive signal shifting.

    The result carries no pi-action signals on measurements and no shift
    commands: those dependencies are folded into later measurement
    sign-actions or into the final corrections.  As in :func:`standardize`,
    the result is built directly and the trace is computed when first read,
    and is bounded by ``MAX_COMMANDS`` in the same way.
    """
    _check_standardizable(pattern)
    return (
        Pattern._rebuilt(pattern, _shift_out(_core(pattern.commands))),
        _LazyTrace(pattern.commands, True),
    )


def is_standard(pattern: Pattern) -> bool:
    """True when no core rule applies."""
    return not applicable_redexes(pattern)


# The block of each command type in EMC order; a Shift belongs to none.
_EMC_BLOCKS = {Entangle: 0, Measure: 1, CorrectX: 2, CorrectZ: 2}


def is_emc(pattern: Pattern) -> bool:
    """True when the sequence is an E block, then an M block, then corrections."""
    blocks = [_EMC_BLOCKS.get(type(cmd)) for cmd in pattern.commands]
    return None not in blocks and blocks == sorted(blocks)


def random_order_standardize(pattern: Pattern, seed: int) -> Pattern:
    """Standardize by applying uniformly random applicable redexes.

    By confluence this must agree exactly with :func:`standardize` for every
    seed; it exists to test that property.
    """
    _check_valid(pattern, "standardize")
    rng = random.Random(seed)
    seq = list(pattern.commands)
    for _ in range(_step_budget(len(seq))):
        redexes = _redexes(seq)
        if not redexes:
            return Pattern._rebuilt(pattern, seq)
        rule, pos = rng.choice(redexes)
        _apply(seq, rule, pos)
    raise RewriteError("rewrite step budget exceeded: rule loop?")


def replay(pattern: Pattern, trace: Iterable[RewriteStep]) -> Pattern:
    """Re-run a recorded trace; used to check traces reproduce their target."""
    seq = list(pattern.commands)
    for step in trace:
        width = len(step.before)
        window = tuple(seq[step.position : step.position + width])
        if window != step.before:
            raise RewriteError(f"trace mismatch at {step}")
        seq[step.position : step.position + width] = list(step.after)
    return pattern.with_commands(seq)


def format_trace(trace: Iterable[RewriteStep]) -> str:
    """Line-oriented trace: ``<rule> @ <position>: <before> => <after>``.

    Command windows are printed right-to-left (the written order used in
    hand derivations, where the rightmost command executes first).
    """
    lines = []
    for step in trace:
        before = " ".join(map(_format_command, reversed(step.before)))
        after = " ".join(map(_format_command, reversed(step.after))) or "(nothing)"
        lines.append(f"{step.rule.value} @ {step.position}: {before} => {after}")
    return "\n".join(lines)
