"""Compare onewaylab's outputs on a source tree with those of a commit.

    python3 tools/same.py --against <commit> --seed <n> [--src <dir>]

The commit's ``src/`` is exported with ``git archive`` into a temporary
directory.  One dumper per tree runs in its own interpreter, both at the
same time and with BLAS pinned to one thread, and pickles that tree's
outputs: the commit's under ``PYTHONHASHSEED=0`` and the checked tree's
under ``PYTHONHASHSEED=1``, so an output that depends on hash order
differs.  The corpora come from the benchmark's builders in
``perfbench/workloads.py`` at ``--seed``.  ``--src`` names the tree to
check (default: this checkout's ``src/``).  Seven families are compared:

- ``normal-forms``: the ``serialize`` text of ``parse``, ``standardize``
  and ``standardize_extended`` on the ``rewrite-wild`` corpus, and on a
  seeded variant of each of its patterns with shifts after some
  measurements and some angles made inexact (``_with_shifts``), so that
  the order in which an inexact angle takes its shifts shows; and the
  ``serialize`` text of the composed patterns (``_library_patterns``):
  every ``library.BUILDERS`` entry on seeded parameters, ``j_chain`` over
  ``CHAIN_LENGTH`` seeded angles and ``random_circuit_pattern`` on a few
  seeds;
- ``paper-order``: the same texts written with ``paper_order=True``;
- ``traces``: ``format_trace`` of the core and extended traces, forced, of
  those patterns and variants of at most ``TRACED_SIZE`` commands;
- ``unitaries``: ``extract_unitary``, ``branch_maps`` and
  ``is_deterministic`` on the ``unitary-check`` corpus, as built and
  standardized; and, on the ``rewrite-wild`` patterns of at most
  ``BRUTE_FORCE_QUBITS`` qubits, which no certificate covers, the
  brute-force ``is_deterministic``, ``branch_maps``,
  ``extract_unitary(p, check_deterministic=False)`` and the checked
  ``extract_unitary(p)``;
- ``branches``: ``run_all_branches`` (outcomes, order, probabilities and
  outputs) on that corpus and on every ``library.BUILDERS`` entry that
  takes no argument, on input |0...0> and on a seeded random input;
- ``cli``: ``cli.main``'s stdout, stderr and exit code on a fixed list of
  commands and texts, malformed ones among them, run in-process;
- ``errors``: on seeded mutations of the ``rewrite-wild`` texts, the
  ``serialize`` text of what ``parse_document`` reads, or its ``DslError``
  with line and column; on each ``rewrite-wild`` pattern with one qubit
  dropped from its space, the ``PatternError`` that ``Pattern`` raises, with
  the command at fault; and ``compose`` and ``tensor`` of every ordered
  pair of the composed patterns, and ``rename`` of each through a seeded
  map that is total, misses a qubit, is not injective, or sends a qubit to
  each of ``RENAME_NON_LABELS``: the ``serialize`` text or the refusal.

An exception is an output too: its type and message are compared, also
when it is raised while a corpus is built.  Each
family prints one line with its largest numeric difference and whether
every output is equal bit for bit.  Texts that differ are compared number
by number when everything between their decimal numbers is equal.  The
exit code is 0 only when every family holds: the same outputs, with every
number within 1e-9.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOLERANCE = 1e-9
FAMILIES = ("normal-forms", "paper-order", "traces", "unitaries", "branches", "cli", "errors")
MUTATIONS_PER_TEXT = 2
TRACED_SIZE = 40
BRUTE_FORCE_QUBITS = 10
CHAIN_LENGTH = 50
CIRCUIT_SEEDS = 4
RENAME_NON_LABELS = (True, -1, "7", "a b")
# the builder parameters ``_library_patterns`` draws; the rest keep their defaults
_PARAMETERS = ("n", "alpha", "beta", "gamma", "delta")

_INVALID = "pattern bad { space: 1, 2; input: 1; output: 2; seq: E(1,2); X(1, s[2]); }"
_MALFORMED = "pattern bad { space: 1, 2; input: 1; output: 2; seq: E(1,2); M(1, 1/0pi); }"
_UNCLOSED = "pattern bad { space: 1; input: 1; output: 1; seq: "
_SHIFTED = (
    "pattern shifted { space: 1, 2, 3, 4; input: 1; output: 4; seq: E(1,2); E(2,3); E(3,4);"
    " M(1, 0.3); X(2, s[1]); S(1, 1); M(2, 1/4 pi, t=s[1]); Z(3, s[1]); S(2, s[1]);"
    " M(3, 1.2, s=s[2], t=s[1]); X(4, s[3]); Z(4, s[2]); }"
)
# (argv, stdin); a stdin of argv lists is the stdout of those commands piped from no input
CLI_CASES = (
    (["library", "cnot"], ""),
    (["library", "ghz", "1"], ""),
    (["standardize"], (["library", "cnot"],)),
    (["standardize", "--extended", "--paper-order"], (["library", "teleport", "1/4pi", "1/3pi"],)),
    (["standardize", "--trace"], (["library", "teleport", "1/4pi", "1/3pi"],)),
    (["standardize", "--extended", "--trace"], _SHIFTED),
    (["simulate", "--branches", "--input", "1,2"], (["library", "rotation", "1/4pi", "1/3pi", "1/5pi"],)),
    (["simulate", "--branches"], (["library", "cnot"],)),
    (["simulate", "--branches"], (["library", "ghz", "9"], ["standardize"])),
    (["verify", "--against", "cnot"], (["library", "cnot"], ["standardize", "--extended"])),
    (["graph", "--kind", "entanglement"], (["library", "cnot"],)),
    (["graph", "--kind", "dependency"], (["library", "cnot"], ["standardize"])),
    (["validate"], _INVALID),
    (["standardize"], _INVALID),
    (["simulate"], _INVALID),
    (["simulate"], _MALFORMED),
    (["standardize"], _UNCLOSED),
)


def _run_cli(cli, argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


# characters a mutation inserts or writes over: the format's own, and a few it has no token for
_MUTATION_CHARACTERS = "0123456789()[];:,=/+-. \n#EMXZSspi'_a?"


def _mutated(text: str, rng) -> str:
    """``text`` with one character deleted, inserted or replaced, or with the
    first number from a random point on made 999, so that a label may name a
    qubit outside the space."""
    k = rng.randrange(len(text))
    kind = rng.randrange(4)
    if kind == 0:
        return text[:k] + text[k + 1:]
    if kind == 1:
        return text[:k] + rng.choice(_MUTATION_CHARACTERS) + text[k:]
    if kind == 2:
        return text[:k] + rng.choice(_MUTATION_CHARACTERS) + text[k + 1:]
    return text[:k] + re.sub(r"[0-9]+", "999", text[k:], count=1)


def _with_shifts(pattern, rng):
    """``pattern`` with about 30% of its angles made inexact (+0.1 rad) and a
    shift after about half of its measurements; the test suite imports it
    as ``conftest.with_extra_shifts``."""
    from onewaylab.angles import Angle
    from onewaylab.commands import Measure, Shift
    from onewaylab.signals import signal

    commands, measured = [], []
    for cmd in pattern.commands:
        commands.append(cmd)
        if type(cmd) is Measure:
            if rng.random() < 0.3:
                commands[-1] = Measure(cmd.qubit, Angle.from_radians(cmd.angle.radians + 0.1), cmd.s, cmd.t)
            measured.append(cmd.qubit)
            if rng.random() < 0.5:
                support = [q for q in measured if rng.random() < 0.3]
                commands.append(Shift(rng.choice(measured), signal(*support, constant=rng.randint(0, 1))))
    return pattern.with_commands(commands)


def _library_patterns(rng) -> dict:
    """The composed patterns: every ``library.BUILDERS`` entry with its angles
    drawn from ``rng`` (exact multiples of pi/4 or floats) and ``ghz`` on 2 to
    9 qubits, ``j_chain`` over ``CHAIN_LENGTH`` such angles, and
    ``random_circuit_pattern`` on ``CIRCUIT_SEEDS`` seeds from ``rng``."""
    import inspect
    import math
    from fractions import Fraction

    from onewaylab import library

    def angle():
        return Fraction(rng.randrange(8), 4) if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi)

    patterns = {}
    for name, builder in library.BUILDERS.items():
        params = inspect.signature(builder).parameters
        args = [rng.randint(2, 9) if param == "n" else angle() for param in params if param in _PARAMETERS]
        patterns[name] = builder(*args)
    patterns["j_chain"] = library.j_chain([angle() for _ in range(CHAIN_LENGTH)])
    for k in range(CIRCUIT_SEEDS):
        patterns["circuit", k] = library.random_circuit_pattern(rng.randrange(2**31), wires=3, steps=12)
    return patterns


def _renames(pattern, rng) -> dict:
    """Seeded maps for ``rename(pattern, ...)``: total and injective onto
    fresh labels, then one that misses a qubit, one that is not injective
    and one per ``RENAME_NON_LABELS`` entry; ``pattern`` has two qubits or more."""
    space = sorted(pattern.space, key=repr)
    fresh = {q: f"r{k}" for k, q in enumerate(rng.sample(space, len(space)))}
    q, other = rng.sample(space, 2)
    maps = {
        "total": fresh,
        "missing": {p: fresh[p] for p in space if p != q},
        "not-injective": {**fresh, q: fresh[other]},
    }
    for bad in RENAME_NON_LABELS:
        maps[bad] = {**fresh, q: bad}
    return maps


def dump(path: str, seed: int) -> None:
    """Pickle the outputs of the ``onewaylab`` on ``sys.path`` to ``path``."""
    import inspect
    import random

    import numpy as np
    import workloads
    from onewaylab import cli, dsl, library, rewrite, simulate
    from onewaylab.patterns import Pattern, PatternError, compose, rename, tensor

    def attempt(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            return ("raised", type(exc).__name__, str(exc))

    def raised(result):
        return isinstance(result, tuple) and result[:1] == ("raised",)

    def forms(text, paper_order=False):
        p = dsl.parse(text)
        return tuple(
            dsl.serialize(result, "nf", paper_order)
            for result in (p, rewrite.standardize(p)[0], rewrite.standardize_extended(p)[0])
        )

    def traces(pattern):
        return tuple(
            rewrite.format_trace(standardize(pattern)[1])
            for standardize in (rewrite.standardize, rewrite.standardize_extended)
        )

    def maps(p):
        return [(list(m.raw.items()), list(m.outcomes.items()), m.matrix) for m in simulate.branch_maps(p)]

    def branches(p, psi):
        return [(list(b.outcomes.items()), b.probability, b.output) for b in simulate.run_all_branches(p, psi)]

    out = {family: {} for family in FAMILIES}
    rng = random.Random(seed)
    for label, (pattern, text, _) in workloads.RewriteWild(seed).inputs.items():
        shifted = _with_shifts(pattern, rng)
        for key, p, text in ((label, pattern, text), ((label, "shifted"), shifted, dsl.serialize(shifted))):
            out["normal-forms"][key] = attempt(forms, text)
            out["paper-order"][key] = attempt(forms, text, True)
            if len(p.commands) <= TRACED_SIZE:
                out["traces"][key] = attempt(traces, p)
    composed = attempt(_library_patterns, rng)
    if raised(composed):
        out["normal-forms"]["library"], composed = composed, {}
    for name, p in composed.items():
        out["normal-forms"]["library", name] = attempt(dsl.serialize, p)
    patterns = {}
    for name, (pattern, _, _) in workloads.UnitaryCheck(seed).cases.items():
        patterns[name, "builder"] = pattern
        standardized = attempt(lambda: rewrite.standardize(pattern)[0])
        if raised(standardized):
            out["unitaries"][name, "standardized"] = standardized
        else:
            patterns[name, "standardized"] = standardized
    for key, p in patterns.items():
        out["unitaries"][key] = tuple(
            attempt(fn, p) for fn in (simulate.extract_unitary, maps, simulate.is_deterministic)
        )
    for label, (p, _, _) in workloads.RewriteWild(seed).inputs.items():
        if len(p.space) <= BRUTE_FORCE_QUBITS:
            out["unitaries"][label, "brute-force"] = (
                attempt(simulate.is_deterministic, p),
                attempt(maps, p),
                attempt(lambda: simulate.extract_unitary(p, check_deterministic=False)),
                attempt(simulate.extract_unitary, p),
            )
    for name, builder in library.BUILDERS.items():
        if all(param.default is not param.empty for param in inspect.signature(builder).parameters.values()):
            patterns[name, "library"] = builder()
    rng = np.random.default_rng(seed)
    for key, p in patterns.items():
        dim = 2 ** len(p.inputs)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out["branches"][key + ("zero",)] = attempt(branches, p, None)
        out["branches"][key + ("random",)] = attempt(branches, p, psi)
    for k, (argv, stdin) in enumerate(CLI_CASES):
        if isinstance(stdin, tuple):
            text = ""
            for command in stdin:
                text = _run_cli(cli, command, text)[1]
            stdin = text
        out["cli"][k, " ".join(argv)] = _run_cli(cli, argv, stdin)
    def read(text):
        try:
            document = dsl.parse_document(text)
        except dsl.DslError as exc:
            return ("DslError", str(exc), exc.line, exc.column)
        return dsl.serialize(document.pattern, document.name)

    def dropped(p, q):
        try:
            Pattern(p.space - {q}, p.inputs, p.outputs, p.commands)
        except PatternError as exc:
            return ("PatternError", str(exc), repr(exc.command))
        return "accepted"

    rng = random.Random(seed)
    for label, (pattern, text, _) in workloads.RewriteWild(seed).inputs.items():
        for k in range(MUTATIONS_PER_TEXT):
            out["errors"][label, k] = attempt(read, _mutated(text, rng))
        q = sorted(pattern.space, key=repr)[rng.randrange(len(pattern.space))]
        out["errors"][label, "dropped"] = attempt(dropped, pattern, q)
    for a, p in composed.items():
        for b, r in composed.items():
            out["errors"]["compose", a, b] = attempt(lambda: dsl.serialize(compose(p, r)))
            out["errors"]["tensor", a, b] = attempt(lambda: dsl.serialize(tensor(p, r)))
        for kind, mapping in _renames(p, rng).items():
            out["errors"]["rename", a, kind] = attempt(lambda: dsl.serialize(rename(p, mapping)))
    with open(path, "wb") as fh:
        pickle.dump(out, fh)


_NUMBER = re.compile(r"([-+]?\d+\.\d+(?:e[-+]?\d+)?)")


def _difference(a, b):
    """The largest numeric difference between two dumped outputs and whether
    they are equal bit for bit, or None when they differ in anything else."""
    import numpy as np

    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape or a.dtype != b.dtype:
            return None
        gap = float(np.abs(a - b).max()) if a.size else 0.0
        return gap, a.tobytes() == b.tobytes()
    if type(a) is not type(b):
        return None
    if isinstance(a, float):
        return abs(a - b), a.hex() == b.hex()
    if isinstance(a, str) and a != b:
        a, b = _NUMBER.split(a), _NUMBER.split(b)
        if len(a) != len(b) or a[::2] != b[::2]:
            return None
        return max(abs(float(x) - float(y)) for x, y in zip(a[1::2], b[1::2])), False
    if isinstance(a, dict):
        a, b = list(a.items()), list(b.items())
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return None
        gap, equal = 0.0, True
        for x, y in zip(a, b):
            d = _difference(x, y)
            if d is None:
                return None
            gap, equal = max(gap, d[0]), equal and d[1]
        return gap, equal
    return (0.0, True) if a == b else None


def compare(want: dict, got: dict) -> bool:
    """Print one line per family; True when every family holds."""
    holds = True
    for family in FAMILIES:
        a, b = want[family], got[family]
        gap, differ, inexact = 0.0, [key for key in b if key not in a], []
        for key in a:
            d = _difference(a[key], b[key]) if key in b else None
            if d is None:
                differ.append(key)
            else:
                gap = max(gap, d[0])
                if not d[1]:
                    inexact.append(key)
        ok = not differ and gap <= TOLERANCE
        holds = holds and ok
        if not inexact:
            equality = "bit-equal"
        else:
            kind = "equal in value but not bit for bit" if gap == 0 else "not bit-equal"
            equality = f"{kind} in {len(inexact)} (first: {inexact[0]!r})"
        line = f"{family}: {'holds' if ok else 'DIFFERS'}, {len(a)} outputs, largest difference {gap:.3g}"
        if differ:
            line += f", {len(differ)} differ (first: {differ[0]!r})"
        print(f"{line}, {equality}")
    return holds


def _dumped(trees, seed: int, tmp: Path) -> list[dict]:
    """Each tree's outputs, from dumpers run side by side, the i-th tree's
    under ``PYTHONHASHSEED=i``; a dumper that fails raises
    ``CalledProcessError`` once all have ended."""
    code = "import sys, same; same.dump(sys.argv[1], int(sys.argv[2]))"
    paths, runs = [], []
    for hash_seed, src in enumerate(trees):
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(hash_seed),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(map(str, (src, ROOT / "perfbench", ROOT / "tools"))),
        )
        paths.append(tmp / f"dump{hash_seed}.pkl")
        runs.append(subprocess.Popen([sys.executable, "-c", code, str(paths[-1]), str(seed)], env=env, cwd=ROOT))
    failed = [run for run in runs if run.wait()]  # waits for every dumper
    if failed:
        raise subprocess.CalledProcessError(failed[0].returncode, failed[0].args)
    return [pickle.loads(path.read_bytes()) for path in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the commit whose src/ is the reference")
    parser.add_argument("--seed", type=int, required=True, help="the corpora's seed")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree to check")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", args.against, "src"], cwd=ROOT, capture_output=True
        )
        if archive.returncode:
            print(f"error: cannot export {args.against}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive.stdout, check=True)
        want, got = _dumped((tmp / "src", args.src.resolve()), args.seed, tmp)
    return 0 if compare(want, got) else 1


if __name__ == "__main__":
    sys.exit(main())
