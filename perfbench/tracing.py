"""Spans around every call into the program's public module functions.

The wrappers live here; the program is not edited.  ``Tracer.enable``
rebinds each public function of the traced modules, in every ``onewaylab``
module namespace that holds it, so calls that one module makes into
another are recorded too.  Spans are kept in memory as
``(name, start, end, parent, op, work)`` and written out at the end; a
span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("library", "patterns", "rewrite", "simulate", "clifford", "dsl")
SETUP = "setup"


def _work(name: str, args, result):
    """The amount of work a call did, for the calls whose work is counted."""
    if name in ("rewrite.standardize", "rewrite.standardize_extended"):
        return len(args[0].commands), len(result[1])
    if name == "simulate.run_all_branches":
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = SETUP
        self._stack: list[int] = []
        self._bindings: list = []
        wrappers = {}
        for module in TRACED_MODULES:
            mod = importlib.import_module(f"onewaylab.{module}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(f"{module}.{attr}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "onewaylab" or mod_name.startswith("onewaylab."):
                namespace = vars(mod)
                for attr, value in namespace.items():
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        self._bindings.append((namespace, attr, *wrappers[id(value)]))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            work = _work(name, args, result)
            if work is not None:
                spans[index] = spans[index][:5] + (work,)
            return result

        return wrapper

    def enable(self):
        for namespace, attr, _, wrapper in self._bindings:
            namespace[attr] = wrapper

    def disable(self):
        for namespace, attr, original, _ in self._bindings:
            namespace[attr] = original

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "work")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh, default=str)

    def layer_metrics(self, traced_rounds: int) -> dict:
        """Per-layer figures, per traced round except ``library.build.ms`` (per set-up)."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, op, work in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms, total_ms, calls, entries = Counter(), Counter(), Counter(), Counter()
        build_ms = steps = commands_in = branches = det_walks = 0
        for k, (name, start, end, parent, op, work) in enumerate(spans):
            layer = name.split(".")[0]
            outer = parent < 0 or spans[parent][0].split(".")[0] != layer
            if op == SETUP:
                if layer == "library" and outer:
                    build_ms += (end - start) * 1e3
                continue
            self_ms[name] += (end - start - child_time[k]) * 1e3
            calls[name] += 1
            if outer:
                total_ms[name] += (end - start) * 1e3
                entries[layer] += 1
            if name.startswith("rewrite.standardize") and outer:
                commands_in += work[0]
                steps += work[1]
            if name == "simulate.run_all_branches":
                branches += work
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][0] != "simulate.is_deterministic":
                    ancestor = spans[ancestor][3]
                det_walks += ancestor >= 0
        rounds = max(traced_rounds, 1)
        checks = calls["simulate.is_deterministic"]
        metrics = {
            "rewrite.standardize.self_ms": self_ms["rewrite.standardize"] / rounds,
            "rewrite.standardize_extended.self_ms": self_ms["rewrite.standardize_extended"] / rounds,
            "rewrite.calls": entries["rewrite"] / rounds,
            "rewrite.steps": steps / rounds,
            "rewrite.commands_in": commands_in / rounds,
            "patterns.validate.ms": self_ms["patterns.validate"] / rounds,
            "patterns.validate.calls": calls["patterns.validate"] / rounds,
            "simulate.run_all_branches.self_ms": self_ms["simulate.run_all_branches"] / rounds,
            "simulate.run_all_branches.calls": calls["simulate.run_all_branches"] / rounds,
            "simulate.branches": branches / rounds,
            "simulate.is_deterministic.self_ms": self_ms["simulate.is_deterministic"] / rounds,
            "simulate.extract_unitary.self_ms": self_ms["simulate.extract_unitary"] / rounds,
            "simulate.walks_per_determinism_check": det_walks / checks if checks else 0.0,
            "clifford.pauli_eliminate.ms": total_ms["clifford.pauli_eliminate"] / rounds,
            "clifford.is_clifford.ms": total_ms["clifford.is_clifford"] / rounds,
            "dsl.parse.ms": (total_ms["dsl.parse"] + total_ms["dsl.parse_document"]) / rounds,
            "dsl.serialize.ms": (total_ms["dsl.serialize"] + total_ms["dsl.serialize_document"]) / rounds,
            "library.build.ms": build_ms,
        }
        return metrics
