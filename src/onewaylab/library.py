"""Built-in patterns, random pattern generators, and graph/depth analyses.

The one-qubit workhorse is the two-qubit pattern for
J(a) = (1/sqrt 2) [[1, e^{ia}], [1, -e^{ia}]]; together with the bare
controlled-Z pattern it generates everything else here by sequential and
parallel composition.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import networkx as nx

from . import rewrite
from .angles import Angle, as_angle
from .commands import CorrectX, CorrectZ, Entangle, Measure, Shift, command_signals
from .dsl import format_command
from .patterns import Pattern, PatternError, _check_valid, compose, tensor
from .signals import Qubit, Signal, qubit_key, signal


# basic generators ---------------------------------------------------


def identity(q: Qubit = 1) -> Pattern:
    """The empty pattern on one qubit."""
    return Pattern(frozenset((q,)), (q,), (q,), ())


def j(alpha, i: Qubit = 1, k: Qubit = 2) -> Pattern:
    """The two-qubit pattern realizing J(alpha); input i, output k."""
    angle = as_angle(alpha)
    return Pattern(
        frozenset((i, k)),
        (i,),
        (k,),
        (Entangle(i, k), Measure(i, angle.negated()), CorrectX(k, signal(i))),
    )


def h(i: Qubit = 1, k: Qubit = 2) -> Pattern:
    """Hadamard: J(0)."""
    return j(0, i, k)


def cz(i: Qubit = 1, k: Qubit = 2) -> Pattern:
    """Controlled-Z on two input/output qubits."""
    return Pattern(frozenset((i, k)), (i, k), (i, k), (Entangle(i, k),))


def j_chain(angles) -> Pattern:
    """Sequential composition of J patterns on qubits 1 to n + 1, for n angles.

    ``angles[0]`` is applied first (measured on qubit 1).
    """
    result = identity(1)
    for i, alpha in enumerate(angles, 1):
        result = compose(j(alpha, i, i + 1), result)
    return result


# one-qubit examples -------------------------------------------------


def teleport(alpha=0, beta=0) -> Pattern:
    """J(beta) after J(alpha) on the chain 1-2-3; (0,0) is the identity."""
    return j_chain([alpha, beta])


def rx(alpha) -> Pattern:
    """x-rotation J(alpha).J(0) on 3 qubits."""
    return j_chain([0, alpha])


def rz(alpha) -> Pattern:
    """z-rotation (phase) J(0).J(alpha) on 3 qubits."""
    return j_chain([alpha, 0])


def rotation(alpha, beta, gamma) -> Pattern:
    """General rotation J(0)J(alpha)J(beta)J(gamma) on 5 qubits."""
    return j_chain([gamma, beta, alpha, 0])


def p_half() -> Pattern:
    """The phase gate diag(1, i) as J(0).J(pi/2)."""
    return rz(Fraction(1, 2))


# multi-qubit examples -----------------------------------------------


def cnot() -> Pattern:
    """Controlled-NOT, control on qubit 1, built as (I (x) H) CZ (I (x) H)."""
    first = tensor(identity(1), h(2, 3))
    middle = compose(cz(1, 3), first)
    return compose(tensor(identity(1), h(3, 4)), middle)


def _ghz_label(level: int, primed: bool):
    # unprimed labels stay integers so serialized patterns parse back equal
    return f"{level}'" if primed else level


def ghz(n: int) -> Pattern:
    """Preparation of the n-qubit GHZ state |0...0> + |1...1>.

    No inputs; qubits are labelled 1, 2, 2', ..., n, n' and the outputs are
    (1, 2', ..., n').  Each level entangles with the previous output and
    teleports through an X measurement.  It holds 4(n - 1) commands, and
    is refused before it is built when that is more than
    ``rewrite.MAX_COMMANDS``, the most a normal form may hold.
    """
    if n < 2:
        raise PatternError("ghz needs n >= 2")
    if 4 * (n - 1) > rewrite.MAX_COMMANDS:
        raise PatternError(
            f"ghz({n}) would hold {4 * (n - 1)} commands, more than the {rewrite.MAX_COMMANDS} allowed"
        )
    space = {1}
    commands = []
    outputs = [1]
    previous = 1
    for level in range(2, n + 1):
        plain = _ghz_label(level, False)
        primed = _ghz_label(level, True)
        space.update((plain, primed))
        commands.append(Entangle(previous, plain))
        commands.append(Entangle(plain, primed))
        commands.append(Measure(plain, Angle.exact(0)))
        commands.append(CorrectX(primed, signal(plain)))
        outputs.append(primed)
        previous = primed
    return Pattern(frozenset(space), (), tuple(outputs), tuple(commands))


def _exact_params(values) -> list[Fraction] | None:
    fracs = []
    for v in values:
        a = as_angle(v)
        if not a.is_exact:
            return None
        fracs.append(a.fraction)
    return fracs


def _cu_angles(alpha, beta, gamma, delta):
    """The J-decomposition angles of controlled-U, in application order.

    Returns (target_chain, alpha_prime): the eleven J angles walked along the
    target line a..k (with the two cross controlled-Z's sitting after chain
    steps 1 and 5), and the corrected control angle a' = a + (b+c+d)/2.
    """
    exact = _exact_params((alpha, beta, gamma, delta))
    if exact is not None:
        a, b, g, d = exact
        half = Fraction(1, 2)
        pi = Fraction(1)
        mk = Angle.exact
    else:
        a, b, g, d = (as_angle(v).radians for v in (alpha, beta, gamma, delta))
        half = 0.5
        pi = math.pi
        mk = Angle.from_radians
    # parameter-free chain angles stay exact so Pauli-axis detection works
    target = [
        mk((-b + d - pi) * half),  # then E(A, b)
        Angle.exact(0),
        mk((-pi - d - b) * half),
        mk(g * half),
        Angle.exact(1, 2),  # then E(A, f)
        Angle.exact(0),
        Angle.exact(-1, 2),
        mk(-g * half),
        mk(b + pi),
        Angle.exact(0),
    ]
    alpha_prime = mk(a + (b + g + d) * half)
    return target, alpha_prime


_CU_TARGET_LINE = "abcdefghijk"


def controlled_u(alpha, beta, gamma, delta) -> Pattern:
    """The 14-qubit controlled-U pattern from the J-generator decomposition.

    U is fixed by its Euler-style parameters: up to global phase,
    cU = J(0)J(a')  on the control line interleaved with a J chain on the
    target line and two cross controlled-Z's; a' = alpha + (beta+gamma+delta)/2.
    Inputs are (A, a) (control line A-B-C, target line a..k); outputs (C, k).
    """
    target, alpha_prime = _cu_angles(alpha, beta, gamma, delta)
    result = identity("A")
    result = tensor(result, identity("a"))
    for step, angle in enumerate(target):
        src, dst = _CU_TARGET_LINE[step], _CU_TARGET_LINE[step + 1]
        result = compose(tensor(identity("A"), j(angle, src, dst)), result)
        if step == 0:
            result = compose(cz("A", dst), result)
        elif step == 4:
            result = compose(cz("A", dst), result)
    result = compose(tensor(j(alpha_prime, "A", "B"), identity("k")), result)
    result = compose(tensor(j(0, "B", "C"), identity("k")), result)
    return result


BUILDERS = {
    "j": j,
    "h": h,
    "cz": cz,
    "teleport": teleport,
    "rx": rx,
    "rz": rz,
    "rotation": rotation,
    "cnot": cnot,
    "p_half": p_half,
    "ghz": ghz,
    "cu": controlled_u,
}


# random patterns ----------------------------------------------------

_RANDOM_FRACTIONS = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
    Fraction(3, 2),
    Fraction(7, 4),
)


def _random_signal(rng: random.Random, measured: list, allow_constant=True) -> Signal:
    support = rng.sample(measured, k=min(len(measured), rng.randint(0, 2)))
    constant = rng.randint(0, 1) if allow_constant else 0
    return Signal(frozenset(support), constant)


def random_wild_pattern(n_commands: int, seed: int) -> Pattern:
    """A random valid (D0/D1/D2) wild pattern with about n_commands commands.

    Useful for property tests of the rewrite engine: validity is guaranteed
    by construction (commands only touch unmeasured qubits, signals only
    reference measured ones, non-outputs all get measured).
    """
    rng = random.Random(seed)
    n_qubits = max(2, min(2 + n_commands // 3, 30))
    space = list(range(1, n_qubits + 1))
    n_out = rng.randint(1, max(1, n_qubits // 2))
    outputs = rng.sample(space, n_out)
    inputs = rng.sample(space, rng.randint(0, n_qubits // 2))
    to_measure = [q for q in space if q not in outputs]
    rng.shuffle(to_measure)
    measured: list = []
    unmeasured = list(space)
    commands = []

    def measure(q):
        angle = Angle.exact(rng.choice(_RANDOM_FRACTIONS))
        s = _random_signal(rng, measured, allow_constant=False)
        t = _random_signal(rng, measured, allow_constant=False)
        commands.append(Measure(q, angle, s, t))
        measured.append(q)
        unmeasured.remove(q)

    while len(commands) < n_commands:
        kind = rng.choice("EEMMXZS")
        if kind == "E" and len(unmeasured) >= 2:
            a, b = rng.sample(unmeasured, 2)
            commands.append(Entangle(a, b))
        elif kind == "M" and to_measure:
            measure(to_measure.pop())
        elif kind in "XZ" and unmeasured:
            q = rng.choice(unmeasured)
            cls = CorrectX if kind == "X" else CorrectZ
            commands.append(cls(q, _random_signal(rng, measured)))
        elif kind == "S" and measured:
            q = rng.choice(measured)
            commands.append(Shift(q, _random_signal(rng, measured)))
    for q in to_measure:
        measure(q)
    return Pattern(frozenset(space), tuple(inputs), tuple(outputs), tuple(commands))


def random_circuit_pattern(seed: int, wires: int = 2, steps: int = 4) -> Pattern:
    """A random composition of j/cz generators on a few logical wires.

    Qubit labels are ``wire * 100 + position`` so composition never clashes.
    The result is wild, deterministic, and has as many inputs as outputs.
    """
    rng = random.Random(seed)
    tip = {w: w * 100 for w in range(1, wires + 1)}
    result = identity(tip[1])
    for w in range(2, wires + 1):
        result = tensor(result, identity(tip[w]))
    for _ in range(steps):
        if wires >= 2 and rng.random() < 0.3:
            a, b = rng.sample(sorted(tip), 2)
            layer = cz(tip[a], tip[b])
            touched = {a, b}
        else:
            w = rng.choice(sorted(tip))
            alpha = rng.choice(_RANDOM_FRACTIONS)
            layer = j(alpha, tip[w], tip[w] + 1)
            touched = {w}
            tip[w] += 1
        for other in sorted(tip):
            if other not in touched:
                layer = tensor(layer, identity(tip[other]))
        result = compose(layer, result)
    return result


# graphs and depth ---------------------------------------------------


def _entangled_pairs(pattern: Pattern) -> list:
    """The distinct ``(i, j)`` pairs of the pattern's E commands, sorted by
    ``qubit_key``; each pair is in ``qubit_key`` order, as ``Entangle`` keeps it."""
    pairs = {(cmd.i, cmd.j) for cmd in pattern.commands if type(cmd) is Entangle}
    return sorted(pairs, key=lambda e: (qubit_key(e[0]), qubit_key(e[1])))


def _dependencies(pattern: Pattern, refusal: str = "dependency graph requires a standard (EMC) pattern"):
    """``(index, command, sources)`` for each M, X and Z of a valid standard
    pattern, in command order; ``sources`` are the indices of the
    measurements its signals read.  A pattern that is not EMC raises
    ``PatternError(refusal)``, and an invalid one the validity guard's."""
    if not rewrite.is_emc(pattern):
        raise PatternError(refusal)
    _check_valid(pattern, "read the dependencies of")
    commands = pattern.commands
    measured_at = {cmd.qubit: idx for idx, cmd in enumerate(commands) if type(cmd) is Measure}
    return [
        (idx, cmd, {measured_at[q] for s in command_signals(cmd) for q in s.support if q in measured_at})
        for idx, cmd in enumerate(commands)
        if type(cmd) is not Entangle
    ]


def entanglement_graph(pattern: Pattern) -> nx.Graph:
    """Undirected graph over the space with an edge per entanglement command."""
    graph = nx.Graph()
    graph.add_nodes_from(pattern.space)
    graph.add_edges_from(_entangled_pairs(pattern))
    return graph


def dependency_graph(pattern: Pattern) -> nx.DiGraph:
    """Signal-dependency DAG of a standard pattern.

    Nodes are the measurement and correction commands (keyed by sequence
    index, with the command in the ``cmd`` attribute); there is an edge from
    the measurement of qubit i to every command whose signals mention s_i.
    """
    graph = nx.DiGraph()
    for idx, cmd, sources in _dependencies(pattern):
        graph.add_node(idx, cmd=cmd)
        graph.add_edges_from((src, idx) for src in sources)
    return graph


def depth(pattern: Pattern) -> int:
    """Number of execution layers of a standard pattern.

    Entanglements are free (layer 0).  A measurement or correction sits in
    the earliest layer strictly after every earlier measurement its signals
    depend on; the depth is the largest layer used.
    """
    layer: dict = {}
    for idx, _, sources in _dependencies(pattern, "depth is defined for standard (EMC) patterns"):
        layer[idx] = 1 + max((layer[src] for src in sources if src < idx), default=0)
    return max(layer.values(), default=0)


# DOT export ---------------------------------------------------------
#
# Written from the commands, without networkx, so the text does not depend
# on the iteration order of a set of labels.


def _dot_id(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def entanglement_dot(pattern: Pattern) -> str:
    nodes = [f"  {_dot_id(str(q))};" for q in sorted(pattern.space, key=qubit_key)]
    edges = [f"  {_dot_id(str(a))} -- {_dot_id(str(b))};" for a, b in _entangled_pairs(pattern)]
    return "\n".join(["graph entanglement {", *nodes, *edges, "}"]) + "\n"


def dependency_dot(pattern: Pattern) -> str:
    scan = _dependencies(pattern)
    nodes = [f"  n{idx} [label={_dot_id(format_command(cmd))}];" for idx, cmd, _ in scan]
    edges = sorted({(src, idx) for idx, _, sources in scan for src in sources})
    edges = [f"  n{a} -> n{b};" for a, b in edges]
    return "\n".join(["digraph dependency {", *nodes, *edges, "}"]) + "\n"
