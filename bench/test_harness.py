"""Fast smoke test of the benchmark harness itself, at a few trajectories.

    python3 -m pytest -q bench/test_harness.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that child spans never leave their parent, and that the layer self times add
up to the traced ensemble span. It does not check qtraj's physics: the
workload checks need the full trajectory counts.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts src/ on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402

import qtraj  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = {"protect_jump": 4, "zeroT_canonical": 4, "sme_protecting": 1, "protect_diffusion": 2}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, n in TINY.items():
        small = replace(workloads.WORKLOADS[name], n_trajectories=n)
        monkeypatch.setitem(workloads.WORKLOADS, name, small)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny, capsys, trace):
    argv = ["--workload", "protect_jump", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_spans_nest_and_self_times_add_up(tiny, name):
    config = workloads.build_config(name, 5)
    seed_index = {qtraj.trajectory_seed(5, i): i for i in range(config.n_trajectories)}
    _, tracer = spans.traced_call(qtraj.run_ensemble, config, seed_index)

    assert qtraj.runner.concurrence is qtraj.entangle.concurrence  # bindings restored
    assert tracer.name[0] == spans.ROOT_SPAN and tracer.parent[0] == -1
    for sid in range(1, len(tracer)):
        p = tracer.parent[sid]
        assert p >= 0, tracer.name[sid]
        assert tracer.start[p] <= tracer.start[sid] <= tracer.end[sid] <= tracer.end[p]
    assert min(tracer.self_times()) >= 0.0

    root = tracer.end[0] - tracer.start[0]
    metrics = spans.layer_metrics(tracer, workloads.N_STEPS)
    other_layers = sum(metrics[f"{layer}.share"] for layer in spans.LAYERS if layer != "runner")
    assert metrics["runner.run_ensemble.self_s"] + other_layers * root == pytest.approx(root)

    kernels = [
        tracer.traj[sid]
        for sid in range(len(tracer))
        if tracer.name[sid].split(".", 1)[0] in ("jumps", "diffusive")
    ]
    assert kernels == list(range(config.n_trajectories))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "protect_jump", "--seed", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
