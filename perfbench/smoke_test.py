"""Smoke test of the benchmark itself, not of pga_mech.

    python3 perfbench/smoke_test.py      (or: python3 -m pytest perfbench/smoke_test.py)

Runs every workload at a small scale with a fixed seed, in both modes,
and checks that each metric named in BENCHMARK.json is printed with its
unit, that failed ops are counted against ops attempted, and that the
known bug is named only where its cause is found.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL  # noqa: E402
from workloads import Op  # noqa: E402


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
                          "--scale", "0.1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (workload, trace)
            assert 0 <= result["failed"] <= result["attempted"]
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, section)
            if trace:
                assert result["attempted"] == result["metrics"]["input.ops"]["value"]


def _fake_run(build) -> run.Run:
    bench = run.Run(build, "fake", 1, 0.0, False, 1.0, 0.0, HERE)
    bench.set_up()
    bench.time_rounds()
    bench.verify()
    return bench


def test_failed_ops_are_counted():
    def raise_error(tracer):
        raise ValueError("boom")

    ops = [Op("ok", lambda tr: 1, lambda out: None, [(1, 1)]),
           Op("wrong", lambda tr: 2, lambda out: "wrong answer", [(1, 1)]),
           Op("raises", raise_error, lambda out: None, [(1, 1)])]
    bench = _fake_run(lambda rng, scale, workdir: ops)
    assert [label for label, _ in bench.failures] == ["wrong", "raises"]
    assert bench.counts()["input.ops"] == 3
    assert len(bench.setups) == run.SETUPS


def test_output_that_changes_between_set_ups_is_a_failed_op():
    builds = []

    def build(rng, scale, workdir):
        builds.append(1)
        k = len(builds)
        return [Op("same", lambda tr: 1, lambda out: None, [(1, 1)]),
                Op("per-build", lambda tr: k, lambda out: None, [(1, 1)])]

    bench = _fake_run(build)
    assert [label for label, _ in bench.failures] == ["per-build"]


def test_known_bug_is_named_only_with_its_cause():
    # +a;!;#0 and +a;!;#1;#0 improve each other but are not bisimilar
    assert oracle.equivalent_unequal_pair(["+a;!;#0", "+a;!;#1;#0"])
    assert not oracle.equivalent_unequal_pair(["a;!", "a;#1;!"])
    # an empty front for results that hold no such pair is an ordinary failure
    ops = workloads.build_search(random.Random("search:7"), 0.1, HERE)
    for op in ops:
        results, front = op.run(NULL)
        if front:
            assert op.check((results, [])) not in (None, workloads.KNOWN_BUG)


if __name__ == "__main__":
    test_failed_ops_are_counted()
    test_output_that_changes_between_set_ups_is_a_failed_op()
    test_known_bug_is_named_only_with_its_cause()
    test_every_metric_with_its_unit()
    print("smoke test passed")
