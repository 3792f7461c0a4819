"""Benchmark of onewaylab: one workload, one seed, one run.

Usage, from the root of a checkout that holds ``src/onewaylab``::

    python3 perfbench/run.py --workload rewrite-wild --seed 1 --seconds 20 --trace 0

Workloads: ``rewrite-wild``, ``unitary-check``, ``cli-pipeline`` (see
README.md).  The run sets up, warms up, then repeats whole rounds of the
workload's operations for about ``--seconds`` seconds, one at a time in
this single-threaded process, and checks every output against the oracles
afterwards.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the same object, and the spans of a traced run,
are written under ``perfbench/results/``.  The exit code is 0 only when
every operation ran and passed its checks.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy is imported,
# here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Set-up runs this many times, each in a fresh interpreter; setup_s is the median.
SETUP_PROBES = 5
IMPORT_PROBES = 3
IMPORT_MODULES = ("onewaylab", "numpy", "networkx")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("rewrite-wild", "unitary-check", "cli-pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only import, build the inputs and warm up, then exit (times setup_s)",
    )
    return parser.parse_args(argv)


def build(workload: str, seed: int):
    import workloads

    cls = workloads.WORKLOADS[workload]
    if cls is workloads.CliPipeline:
        RESULTS.mkdir(exist_ok=True)
        return cls(seed, workloads.StageRunner(str(SRC), str(RESULTS)))
    return cls(seed)


def time_setup(args) -> float:
    """Median wall time of fresh interpreters that import, build and warm up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_imports() -> dict:
    """Cumulative import times from ``python -X importtime``, median of a few runs."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import onewaylab"],
            check=True, capture_output=True, text=True,
        ).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {f"import.{m}.ms": statistics.median(v) for m, v in samples.items()}


class Checker:
    """Collects outputs between rounds; checks them after the timed region.

    Between rounds only the first output of each operation is kept, with
    the count of later outputs equal to it, so memory stays flat and no
    oracle runs before the peak memory is read.  ``raised`` describes
    operations that ended in an exception, ``problems`` the checks that
    failed on the others.
    """

    def __init__(self, workload):
        self.workload = workload
        self.failed = 0
        self.raised: list[str] = []
        self.problems: list[str] = []
        self._kept: dict = {}

    def collect(self, outputs):
        for label, out in outputs:
            if isinstance(out, Exception):
                self.failed += 1
                self.raised.append(f"{label}: raised {type(out).__name__}: {out}")
                continue
            kept = self._kept.setdefault(repr(label), [])
            for entry in kept:
                if _same(out, entry[1]):
                    entry[2] += 1
                    break
            else:
                kept.append([label, out, 1])

    def finish(self):
        for kept in self._kept.values():
            for label, out, count in kept:
                try:
                    found = self.workload.check(label, out)
                except Exception as exc:  # a malformed output fails its check
                    found = [f"{label}: check raised {type(exc).__name__}: {exc}"]
                if found:
                    self.failed += count
                    self.problems.extend(found)


def _same(a, b) -> bool:
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "shape"):
        return hasattr(b, "shape") and a.shape == b.shape and bool((a == b).all())
    return type(a) is type(b) and a == b


def run_rounds(workload, seconds: float, checker: Checker, tracer=None):
    """Whole rounds until about ``seconds`` of them have passed; at least one, two when traced.

    Each round's outputs go to the checker after the round, outside its
    time.  Traced and untraced rounds alternate.  Returns the per-operation
    latencies and each round's time and whether it was traced.
    """
    ops = workload.ops()
    latencies, rounds = [], []
    timed = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.enable()
        outputs = []
        round_start = time.perf_counter()
        for k, (label, op) in enumerate(ops):
            if traced:
                tracer.op = (len(rounds), k)
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # counted as a failed operation and reported
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append((label, out))
        rounds.append((time.perf_counter() - round_start, traced))
        if traced:
            tracer.disable()
        checker.collect(outputs)
        timed += rounds[-1][0]
        if timed + timed / len(rounds) / 2 >= seconds and (tracer is None or len(rounds) >= 2):
            return latencies, rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "onewaylab" / "__init__.py").is_file():
        print(f"error: no onewaylab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = str(SRC)

    if args.setup_probe:
        workload = build(args.workload, args.seed)
        workload.warm_up()
        return 0

    setup_s = None if args.trace else time_setup(args)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.enable()
    workload = build(args.workload, args.seed)
    if tracer is not None:
        tracer.disable()
    workload.warm_up()

    checker = Checker(workload)
    latencies, rounds = run_rounds(workload, args.seconds, checker, tracer)
    if args.workload == "cli-pipeline":
        peak_rss_kb = workload.runner.peak_rss_kb
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checker.finish()

    attempted, failed = len(latencies), checker.failed
    correct = not checker.problems
    ms = sorted(x * 1e3 for x in latencies)
    round_s = statistics.median(t for t, _ in rounds)
    detail = {"rounds": len(rounds), "ops_per_round": attempted // len(rounds), "round_s": round_s}
    if len(ms) >= 100:
        detail["op_p90_ms"] = statistics.quantiles(ms, n=10)[-1]

    if args.trace:
        metrics = tracer.layer_metrics(sum(traced for _, traced in rounds))
        walls = getattr(getattr(workload, "runner", None), "walls", {})
        for stage in ("library", "standardize", "simulate"):
            metrics[f"cli.stage.{stage}.ms"] = statistics.median(walls[stage]) * 1e3 if stage in walls else 0.0
        metrics.update(time_imports())
        untraced = [t for t, traced in rounds if not traced]
        traced = [t for t, traced in rounds if traced]
        metrics["trace.overhead_pct"] = 100 * (statistics.mean(traced) / statistics.mean(untraced) - 1)
        units = {k: ("%" if k.endswith("_pct") else "ms" if k.endswith("ms") else "count") for k in metrics}
        units["simulate.walks_per_determinism_check"] = "walks/check"
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": detail["ops_per_round"] / round_s,
            "op_p50_ms": statistics.median(ms),
            "peak_rss_mb": peak_rss_kb / 1024,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, detail=detail, raised=checker.raised, problems=checker.problems), fh, indent=1)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")

    for problem in checker.raised[:10]:
        print(f"OPERATION FAILED: {problem}", file=sys.stderr)
    for problem in checker.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} operations in {len(rounds)} rounds, "
          f"{failed} failed, checks {'passed' if correct else 'FAILED'}")
    for name, value in detail.items():
        print(f"  {name:40s} {value:.6g}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
