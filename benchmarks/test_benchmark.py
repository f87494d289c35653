"""Tests of the benchmark itself; run with

    python3 -m pytest benchmarks/test_benchmark.py -q

Every workload runs once at a tiny size through the same code path as a
full run.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(workload):
    if isinstance(workload, workloads.EvalWorkload):
        return dataclasses.replace(workload, chunk=2, chunks=2,
                                   oracle_digest=None,
                                   gate_images=min(workload.gate_images, 2))
    return dataclasses.replace(workload, images=128, agreement_images=2)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_correctly_at_a_tiny_size(name, spec):
    result = run.run(tiny(workloads.WORKLOADS[name]), seed=3, seconds=0,
                     trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_and_counts_equal_untraced(name, spec):
    workload = tiny(workloads.WORKLOADS[name])
    state = workload.setup(5)
    workload.prepare(state)
    untraced = [workload.run_unit(state, k) for k in range(workload.chunks)]
    passes = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            traced = [workload.run_unit(state, k)
                      for k in range(workload.chunks)]
        assert all(workload.same(a, b) == 0
                   for a, b in zip(untraced, traced))
        passes.append(tracing.layer_metrics(
            tracing.SpanIndex([]), tracing.SpanIndex(tracer.spans),
            workload.items, 0.0))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    assert {c: passes[0][c] for c in counts} == \
        {c: passes[1][c] for c in counts}
    if name == "hw-tnn-hrs":
        # one keyed normal per gated cell per READ
        assert passes[0]["rng.normals_per_image"] == \
            passes[0]["crossbar.cells_read_per_image"] > 0


def test_traced_run_emits_every_per_layer_metric(spec):
    workload = tiny(workloads.WORKLOADS["hw-tnn-hrs"])
    result = run.run(workload, seed=3, seconds=0, trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["hardware.tiles"] > 0 and m["rng.normals_per_image"] > 0
    assert m["rng.normals_per_image"] == m["crossbar.cells_read_per_image"]
    layers = sum(m[f"crossbar.vmm_ms_per_image.{n}"] for n in tracing.LAYERS)
    assert 0 < layers <= m["hardware.forward_ms_per_image"]


def test_every_wrapped_name_is_restored():
    def bound():
        return [vars(owner)[attr] for owner, attr, _, _ in
                tracing.PATCH_POINTS]

    originals = bound()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert all(a is not b for a, b in zip(bound(), originals))
            raise RuntimeError("abort the traced run")
    assert all(a is b for a, b in zip(bound(), originals))


def test_self_time_subtracts_direct_children():
    spans = [(0, -1, "outer", 0, 10_000_000, None),
             (1, 0, "inner", 1_000_000, 4_000_000, None),
             (2, 1, "leaf", 2_000_000, 3_000_000, None),
             (3, 0, "inner", 5_000_000, 6_000_000, None)]
    ix = tracing.SpanIndex(spans)
    assert ix.self_ms("outer") == 6.0
    assert ix.self_ms("inner") == 3.0
    assert ix.total_ms("inner") == 4.0


def test_ideal_oracle_digest_at_default_seed():
    workload = workloads.WORKLOADS["ideal-tnn"]
    state = workload.setup(workloads.DEFAULT_SEED)
    workload.prepare(state)
    assert workloads.digest(state.oracle) == workloads.IDEAL_TNN_DIGEST


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "hw-tnn-hrs",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(spec["workloads"][0]) == {"name", "why"}
    assert set(w["name"] for w in spec["workloads"]) == set(
        workloads.WORKLOADS)
    assert 1 <= spec["run_seconds"] <= 60
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
