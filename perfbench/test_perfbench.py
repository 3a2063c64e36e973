"""Smoke test of the benchmark at toy size.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import casevec  # noqa: E402
import bench  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _toy(name):
    w = bench.WORKLOADS[name]
    return dataclasses.replace(w, cases_per_branch=3, batch_quadruples=2, steps=2,
                               queries=min(w.queries, 2))


def _wrapped_attributes():
    """Every attribute of a casevec module or class that is a tracing wrapper."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "casevec" and not mod_name.startswith("casevec."):
            continue
        owners = [module] + [v for v in vars(module).values()
                             if inspect.isclass(v) and v.__module__ == mod_name]
        for owner in owners:
            for attr, value in vars(owner).items():
                value = getattr(value, "__func__", value)
                if hasattr(value, "trace_key"):
                    found.append(f"{owner.__name__}.{attr}")
    return found


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert SPEC["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better, _, _) in tracing.LAYER_METRICS.items()
    ]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_is_emitted_and_wrappers_are_removed(name, tmp_path):
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS}
    for trace, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result, info = bench.run(_toy(name), seed=1, seconds=0, trace=trace,
                                 workdir=str(tmp_path))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        assert len(info["output_digest"]) == 64
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in originals.items())
    assert _wrapped_attributes() == []
    assert casevec.training.loss_gradient is casevec.circle_loss.loss_gradient


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    w = _toy("retrieve-long")
    first = bench.make_inputs(w, 5)
    assert first.digest == bench.make_inputs(w, 5).digest
    assert first.digest != bench.make_inputs(w, 6).digest


def test_closure_labels_follow_transitive_links():
    ids = ["a", "b", "c", "d"]
    matrix = [[1.0, 0.3, 0.0, 0.0],
              [0.0, 1.0, 0.0, 0.0],
              [0.0, 0.9, 1.0, 0.0],
              [0.0, 0.0, 0.0, 1.0]]
    table = casevec.WeightTable(ids, bench.np.array(matrix))
    assert bench.closure_labels(["d", "a", "c", "b"], table, 0.25) == [0, 1, 1, 1]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain-b16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
