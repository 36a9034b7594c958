"""Smoke test of the benchmark itself, on tiny runs of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every end-to-end and per-layer metric in BENCHMARK.json
is emitted with its unit, that the gemm seam sees exactly ``rank**steps``
calls for every (algorithm, steps) the matmul workloads run, that
``plan.adds_per_call`` matches the term lists, that the plan hit ratio
is 1 on train-mlp and below 1 on matmul-small, that the seed changes the
inputs but not the metric set, and that the benchmark refuses to run
outside a checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 3) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), \
        proc.stdout


def test_harness_matches_benchmark_json():
    assert list(harness.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(harness.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["end_to_end"]:
        assert harness.END_TO_END[m["name"]] == m["unit"]
    for m in SPEC["per_layer"]:
        assert harness.PER_LAYER[m["name"]] == m["unit"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    code, result, stdout = run(workload, trace)
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} = " in stdout  # the human-readable line
    if not trace:
        for m in expected:
            assert result["metrics"][m["name"]]["value"] != 0, m["name"]


def test_hit_ratio_by_workload():
    _, train, _ = run("train-mlp", 1)
    _, small, _ = run("matmul-small", 1)
    assert train["metrics"]["plan.hit_ratio"]["value"] == 1.0
    assert small["metrics"]["plan.hit_ratio"]["value"] < 1.0
    assert train["metrics"]["gemm.calls_per_op"]["value"] == 10.0


#: One generated input per workload, for the seed test.
INPUTS = {
    "wl_matmul_small": lambda w: w.operands[0][0],
    "wl_matmul_large": lambda w: w.operands["sq1024"][0],
    "wl_train_mlp": lambda w: w.x,
    "wl_serve_open": lambda w: w.operands[32][0][0],
}


@pytest.mark.parametrize("module_name", sorted(INPUTS))
def test_seed_changes_inputs(module_name, tmp_path):
    import importlib

    module = importlib.import_module(module_name)
    drawn = []
    for seed in (1, 1, 2):
        workload = module.Workload(seed, tmp_path)
        workload.setup()
        workload.close()
        drawn.append(INPUTS[module_name](workload))
    assert np.array_equal(drawn[0], drawn[1])
    assert not np.array_equal(drawn[0], drawn[2])


@pytest.mark.parametrize("trace", [0, 1])
def test_seed_keeps_metric_set(trace):
    _, other, _ = run("matmul-small", trace, seed=4)
    _, base, _ = run("matmul-small", trace)
    assert list(other["metrics"]) == list(base["metrics"])


def _cases():
    import wl_matmul_large
    import wl_matmul_small

    cases = {(alg, 1) for alg in wl_matmul_small.ALGORITHMS}
    cases |= {(op[2], op[3]) for op in wl_matmul_large.CYCLE}
    return sorted(cases)


@pytest.mark.parametrize("algorithm,steps", _cases())
def test_gemm_calls_are_rank_to_the_steps(algorithm, steps):
    from repro.algorithms.catalog import get_algorithm
    from repro.core.engine import ExecutionEngine

    probe = harness.LayerProbe()
    rng = np.random.default_rng(0)
    n = 96
    A = rng.standard_normal((n, n)).astype(np.float32)
    B = rng.standard_normal((n, n)).astype(np.float32)
    ExecutionEngine().matmul(A, B, algorithm, steps=steps, gemm=probe.gemm)
    assert probe.gemm_calls == get_algorithm(algorithm).rank ** steps


@pytest.mark.parametrize("algorithm,steps", _cases())
def test_adds_match_term_lists(algorithm, steps):
    from repro.algorithms.catalog import get_algorithm
    from repro.core.lam import optimal_lambda
    from repro.core.plan import PlanCache

    alg = get_algorithm(algorithm)
    lam = optimal_lambda(alg, d=23, steps=steps)
    plan = PlanCache().plan_for(alg, 96, 96, 96, np.float32, lam,
                                steps=steps)
    U, V, W = alg.evaluate(lam, dtype=np.float32)
    per_level = (sum(max(int(np.count_nonzero(U[:, i])) - 1, 0)
                     for i in range(alg.rank))
                 + sum(max(int(np.count_nonzero(V[:, i])) - 1, 0)
                       for i in range(alg.rank))
                 + sum(max(int(np.count_nonzero(W[q, :])) - 1, 0)
                       for q in range(W.shape[0])))
    subproblems = sum(alg.rank ** level for level in range(steps))
    assert harness.plan_adds(plan) == per_level * subproblems


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
