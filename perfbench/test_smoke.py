"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q

Each workload runs briefly on two seeds in both modes; every run must
answer every operation correctly and print exactly the metrics named in
``BENCHMARK.json``.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(HERE), str(CHECKOUT / "src")]

from tracing import Span, outbound_time, span_times  # noqa: E402
from workloads import DecomposeDiskRW, Op  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_benchmark(workload: str, seed: int, trace: int, cwd: Path = CHECKOUT):
    # Runs are whole cycles of the mix, so even a 1 s run holds every shape
    # and, for decompose-disk-rw, the writes, flushes and compactions.
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_answers_correctly_and_emits_every_metric(workload, seed, trace):
    completed = run_benchmark(workload, seed, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, completed.stdout
    assert result["correct"] is True
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC[group]}
    for entry in SPEC[group]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("fanout-hot", 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_decompose_writes_never_change_an_oracle_answer(tmp_path):
    workload = DecomposeDiskRW(tmp_path)
    workload.seed = 7
    workload.setup()
    try:
        reads = [Op(index, shape, person)
                 for index, (shape, person) in enumerate(
                     [("fig1", p) for p in workload.persons[:4]]
                     + [("titles", p) for p in workload.persons[:4]])]
        before = [workload.run_op(op)[1] for op in reads]
        assert before == [workload.expected(op) for op in reads]
        compact_every = workload.definition["compact_every_writes"]
        for index in range(3 * compact_every):
            assert workload.run_op(Op(100 + index, "write")) == ("write", None)
        assert all(len(graph.store.segment_names) <= compact_every for graph in workload.stores)
        assert [workload.run_op(op)[1] for op in reads] == before
    finally:
        workload.teardown()


def test_self_time_subtracts_the_union_of_child_intervals():
    parent = Span("parent", None)
    parent.intervals = [(0.0, 10.0)]
    first, second = Span("a", parent), Span("b", parent)
    first.intervals = [(1.0, 4.0)]
    second.intervals = [(3.0, 6.0), (8.0, 9.0)]
    active, own, _ = span_times(parent)
    assert active == 10.0
    assert own == 10.0 - 6.0


def test_outbound_time_is_the_union_of_nested_calls_below_a_span():
    server = Span("server", None)
    server.intervals = [(0.0, 10.0)]
    execute = Span("execute", server)
    execute.intervals = [(1.0, 9.0)]
    first, second = Span("call", execute), Span("call", execute)
    first.intervals = [(2.0, 5.0)]
    second.intervals = [(4.0, 6.0)]
    Span("parse", first).intervals = [(2.5, 3.0)]
    assert outbound_time(server, "call") == 4.0
    assert outbound_time(first, "call") == 0.0
