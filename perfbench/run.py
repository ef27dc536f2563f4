"""Benchmark for pga-mech: seeded, closed-loop workloads in one process.

    python3 perfbench/run.py --workload relate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
One client runs a fixed list of operations one at a time, in interleaved
rounds, until ``--seconds`` have passed.  Each operation's time is the
minimum over its rounds.  The set-up is repeated at points spread over
the run.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from spans.  The last line of stdout
is one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from tracing import NULL, Tracer, layer_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cli", "relate", "search")

SETUPS = 5          # set-ups per run, spread over the timed rounds
MIN_ROUNDS = 2      # timed rounds per run, whatever --seconds says
CALIB_REPS = 5      # calibration loop repetitions at each end of a run
IMPORT_LAUNCHES = 3  # fresh interpreters timed for cli.import_ms
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s"}
BUSY_LAYERS = ("threads.bisimilar", "threads.minimize", "ordering.compare", "ordering.improves",
               "rewrites.search_implementations", "rewrites.pareto_front",
               "instructions.parse_pga", "extraction.extract_mechanistic",
               "extraction.extract_functional", "threads.render", "rewrites.unchain",
               "rewrites.improve_step", "rewrites.codegen", "cli.extract", "cli.compare",
               "cli.check", "cli.rewrite", "cli.codegen")
COUNTS = ("rewrites.search.results", "rewrites.pareto.front", "rewrites.steps_applied")


def calibrate() -> list[float]:
    """Milliseconds per repetition of a fixed pure-Python loop."""
    times = []
    for _ in range(CALIB_REPS):
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i & 7
        times.append((time.perf_counter() - start) * 1000)
    return times


def import_ms() -> float:
    """Median import time of ``pga_mech.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import pga_mech.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_LAUNCHES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout) * 1000)
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    values beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10 or p == 50:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class Raised:
    """The output of an op that raised."""

    error: str


class Run:
    """One workload: set up, time rounds, check, report."""

    def __init__(self, build, name: str, seed: int, seconds: float, trace: bool, scale: float,
                 import_s: float, workdir: str):
        self.build, self.name, self.seed, self.seconds = build, name, seed, seconds
        self.trace, self.scale, self.import_s, self.workdir = trace, scale, import_s, workdir
        self.lines: list[str] = []
        self.setups: list[list[float]] = []  # per set-up: build time, then each op's warm-up

    def set_up(self) -> None:
        """One set-up: build the op list from the seed and run every op once.
        The first set-up gives the ops that the rounds time and the reference
        outputs; a later one that gives another output marks that op."""
        start = time.perf_counter()
        ops = self.build(random.Random(f"{self.name}:{self.seed}"), self.scale, self.workdir)
        pieces = [time.perf_counter() - start]
        outputs = []
        for op in ops:
            start = time.perf_counter()
            outputs.append(self._attempt(op, NULL))
            pieces.append(time.perf_counter() - start)
        if not self.setups:
            self.ops, self.reference = ops, outputs
            self.mismatch = [False] * len(ops)
        elif len(outputs) != len(self.reference):
            raise RuntimeError("one seed gave op lists of different lengths")
        else:
            for i, out in enumerate(outputs):
                if out != self.reference[i]:
                    self.mismatch[i] = True
        self.setups.append(pieces)

    @property
    def setup_s(self) -> float:
        """Import time plus, for the build and for each op's warm-up, the
        median of its times over the set-ups."""
        return self.import_s + sum(statistics.median(piece) for piece in zip(*self.setups))

    @staticmethod
    def _attempt(op, tracer):
        try:
            return op.run(tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return Raised(repr(exc))

    def time_rounds(self) -> None:
        n = len(self.ops)
        best = {False: [math.inf] * n, True: [math.inf] * n}
        layer_best: list[dict] = [{} for _ in range(n)]
        self.tracer = Tracer()
        gc.collect()
        rounds, deadline = 0, time.perf_counter() + self.seconds
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            left = deadline - time.perf_counter()
            if len(self.setups) < SETUPS and left < self.seconds * (1 - len(self.setups) / SETUPS):
                start = time.perf_counter()
                self.set_up()
                gc.collect()
                deadline += time.perf_counter() - start  # set-ups do not count as timed time
            traced = self.trace and rounds % 2 == 1
            for i, op in enumerate(self.ops):
                if traced:
                    first = len(self.tracer.spans)
                    self.tracer.op_id = i
                    start = time.perf_counter()
                    out = self.tracer.call(op.label, self._attempt, op, self.tracer)
                    elapsed = time.perf_counter() - start
                    if op.replay is not None:
                        try:
                            op.replay(self.tracer)
                        except Exception:  # a failing call fails the op itself too
                            pass
                    totals = layer_totals(self.tracer.spans, first)
                    for name, (busy, count, work) in totals.items():
                        prev = layer_best[i].get(name)
                        if prev is None or busy < prev[0]:
                            layer_best[i][name] = (busy, count, work)
                else:
                    start = time.perf_counter()
                    out = self._attempt(op, NULL)
                    elapsed = time.perf_counter() - start
                best[traced][i] = min(best[traced][i], elapsed)
                if out != self.reference[i]:
                    self.mismatch[i] = True
            rounds += 1
        while len(self.setups) < SETUPS:  # a run too short to spread them
            self.set_up()
        self.rounds, self.best, self.layer_best = rounds, best, layer_best

    def verify(self) -> None:
        self.failures = []
        for i, op in enumerate(self.ops):
            out = self.reference[i]
            if isinstance(out, Raised):
                reason = f"raised {out.error}"
            elif self.mismatch[i]:
                reason = "output changed between set-ups or rounds"
            else:
                try:
                    reason = op.check(out)
                except Exception as exc:  # a malformed output that the checker cannot read
                    reason = f"output unreadable: {exc!r}"
            if reason:
                self.failures.append((op.label, reason))

    def counts(self) -> dict:
        inputs = [inp for op in self.ops for inp in op.inputs]
        nodes = sorted(r for _, r in inputs)
        out = {"input.ops": len(self.ops), "input.instructions": sum(i for i, _ in inputs),
               "input.reachable_nodes.p50": statistics.median(nodes) if nodes else 0,
               "input.reachable_nodes.max": nodes[-1] if nodes else 0}
        out.update({name: 0 for name in COUNTS})
        for op, ref in zip(self.ops, self.reference):
            if not isinstance(ref, Raised):
                for name, value in op.counts(ref).items():
                    out[name] += value
        return out

    def end_to_end(self) -> dict:
        times = self.best[False]
        pct, tail_s = tail(times)
        self.lines.append(f"op time: minimum over {self.rounds} interleaved rounds; "
                          f"op_tail_ms is p{pct:g} of {len(times)} ops "
                          f"({len(times) - math.ceil(pct / 100 * len(times))} beyond)")
        self.lines.append(f"set-up: import {self.import_s:.3f} s + per build and op the median "
                          f"over {len(self.setups)} set-ups spread over the run")
        return {"ops_per_s": len(times) / sum(times),
                "op_p50_ms": statistics.median(times) * 1000,
                "op_tail_ms": tail_s * 1000,
                "setup_s": self.setup_s}

    def per_layer(self, counts: dict, calib_ms: float, cli_import_ms: float) -> dict:
        self.lines.append(f"busy time: per op and layer the minimum over {self.rounds // 2} "
                          f"traced rounds, summed over {len(self.ops)} ops")

        def total(name, field=0):
            return sum(best[name][field] for best in self.layer_best if name in best)

        metrics = {f"{name}.busy_ms": (total(name) * 1000, "ms") for name in BUSY_LAYERS}
        parse_s = total("instructions.parse_pga")
        extract_s = total("extraction.extract_mechanistic") + total("extraction.extract_functional")
        extracted = (total("extraction.extract_mechanistic", 2)
                     + total("extraction.extract_functional", 2))
        improve_calls = total("rewrites.improve_step", 1)
        cli_self = 0.0
        for op, best in zip(self.ops, self.layer_best):
            if op.label.startswith("cli.") and op.label in best:
                cli_self += best[op.label][0] - sum(v[0] for k, v in best.items() if k != op.label)
        traced, plain = sum(self.best[True]), sum(self.best[False])
        metrics.update({
            "instructions.parse_pga.instr_per_s": (
                total("instructions.parse_pga", 2) / parse_s if parse_s else 0.0, "1/s"),
            "extraction.nodes_per_s": (extracted / extract_s if extract_s else 0.0, "1/s"),
            "rewrites.improve_step.success_ratio": (
                total("rewrites.improve_step", 2) / improve_calls if improve_calls else 0.0, "ratio"),
            "rewrites.pareto.kept_ratio": (
                counts["rewrites.pareto.front"] / counts["rewrites.search.results"]
                if counts["rewrites.search.results"] else 0.0, "ratio"),
            "cli.self_ms": (cli_self * 1000, "ms"),
            "cli.import_ms": (cli_import_ms, "ms"),
            "host.calib_ms": (calib_ms, "ms"),
            "trace.overhead_pct": ((traced / plain - 1) * 100, "%"),
        })
        for name, value in counts.items():
            metrics[name] = (value, "count")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the number of ops (the smoke test uses a small scale)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "pga_mech")):
        print(f"error: no pga_mech package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")  # imports pga_mech and its cli
    import_s = time.perf_counter() - start
    calib = calibrate()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runs = []
    try:
        for name in names:
            run = Run(workloads.WORKLOADS[name], name, args.seed, args.seconds,
                      bool(args.trace), args.scale, import_s, workdir)
            run.set_up()
            run.time_rounds()
            runs.append(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib += calibrate()
    calib_ms = statistics.median(calib)
    print(f"host calibration loop: {statistics.median(calib[:CALIB_REPS]):.2f} ms at start, "
          f"{statistics.median(calib[CALIB_REPS:]):.2f} ms at end")
    cli_import = import_ms() if args.trace else None

    metrics, attempted, failed, unexplained = {}, 0, 0, 0
    for run in runs:
        run.verify()
        counts = run.counts()
        if args.trace:
            run.tracer.write(os.path.join(ROOT, ".perfbench",
                                          f"trace-{run.name}-seed{args.seed}.jsonl"))
            values = run.per_layer(counts, calib_ms, cli_import)
        else:
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in run.end_to_end().items()}
        attempted += len(run.ops)
        failed += len(run.failures)
        unexplained += sum(1 for _, reason in run.failures if reason != workloads.KNOWN_BUG)
        print(f"== {run.name} (seed {args.seed})")
        for line in run.lines:
            print(line)
        if not args.trace:
            for name, value in counts.items():
                print(f"  {name:42s} {value}")
        for name, (value, unit) in values.items():
            print(f"  {name:42s} {value:.6g} {unit}")
        print(f"  failed {len(run.failures)} of {len(run.ops)} ops")
        for (label, reason), count in collections.Counter(run.failures).items():
            print(f"    {count} x {label}: {reason}")
        prefix = f"{run.name}." if len(runs) > 1 else ""
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    if not args.trace:
        # ru_maxrss is the peak of the whole process, so under --workload all
        # it is reported once, for all the workloads together
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  {'peak_rss_mb (whole process)':42s} {peak_mb:.6g} MB")
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    print(json.dumps({"correct": unexplained == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
