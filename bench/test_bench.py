"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


def _inputs(workload: str, seed: int, workdir) -> tuple[list[str], dict[str, bytes]]:
    """One pass of ops for ``workload``: their labels and the files written."""
    workdir.mkdir()
    ops = workloads.setup(workload, seed, workdir)
    return [op.label for op in ops], {p.name: p.read_bytes() for p in workdir.iterdir()}


@pytest.mark.parametrize("workload", ["simulate-large", "verify-large", "sweep-small"])
def test_seed_changes_inputs_but_not_op_count(workload, tmp_path):
    labels_a, files_a = _inputs(workload, 1, tmp_path / "a")
    labels_b, files_b = _inputs(workload, 2, tmp_path / "b")
    again = _inputs(workload, 1, tmp_path / "c")
    assert again == (labels_a, files_a)
    assert (labels_a, files_a) != (labels_b, files_b)
    assert len(labels_a) == len(labels_b)


def test_compare_seed_changes_argv_but_not_op_count(tmp_path):
    passes = [workloads.setup("compare-search", seed, tmp_path) for seed in range(10)]
    assert {len(ops) for ops in passes} == {1}
    assert len({ops[0].label for ops in passes}) == 2


def _small_op(tmp_path) -> workloads.Op:
    (op,) = [
        op
        for op in workloads.setup("sweep-small", 1, tmp_path)
        if op.array == ("hybrid", 2, 1, 2, 1)
    ]
    return op


def _raise(api):
    raise RuntimeError("injected failure")


def test_wrong_reference_counts_as_failed_op(tmp_path):
    good = _small_op(tmp_path)
    wrong = dataclasses.replace(good, label="wrong reference", expected=(True, 0, 0, frozenset()))
    crash = dataclasses.replace(good, label="crash", call=_raise)
    runner = run.Runner(None)
    runner.run([good, wrong, crash], seconds=0)
    assert [r.ok for r in runner.records] == [True, False, False]


def _wrappers_left() -> list[str]:
    left = []
    for layer in tracing.LAYERS:
        mod = workloads.module(layer)
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and hasattr(obj, "__wrapped__"):
                left.append(f"{mod.__name__}.{attr}")
    return left


def test_no_wrapper_stays_installed(tmp_path):
    op = _small_op(tmp_path)
    crash = dataclasses.replace(op, label="crash", call=_raise)
    tracer = tracing.Tracer()
    runner = run.Runner(tracer)
    runner.run([op, crash], seconds=0)
    assert [r.ok for r in runner.records] == [True, True, False, False]
    # The traced op went through the wrapped hpda.hierarchy.verify_pda ...
    assert any(span.name == "pda.verify_pda" for span in tracer.spans)
    # ... which is gone again, even after an op that raised while traced.
    assert _wrappers_left() == []
    run.Runner(None).run([op], seconds=0)
    assert _wrappers_left() == []

    traced = [r.seconds for r in runner.records if r.traced]
    untraced = [r.seconds for r in runner.records if not r.traced]
    metrics = tracing.layer_metrics(
        tracer.spans, traced, untraced, runner.counts, workloads.computed_counts([op, crash])
    )
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    assert metrics["simulation.decoded_ratio"] == 1


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
