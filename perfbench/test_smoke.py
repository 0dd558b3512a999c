"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the output schema against BENCHMARK.json, that every output check
passes on the current code, that a wrong probability is caught, and that
the benchmark refuses to run without the sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds",
                     "0.5", "--trace", str(trace), "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_output(capsys, workload, trace):
    details, result = run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if trace:
        assert details["absent_spans"] == []
        assert result["metrics"]["trace.overhead"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert len(details["param_sha256"]) == 1


def test_same_seed_same_outputs(capsys):
    first, _ = run_tiny(capsys, "train-planted", 0, seed=5)
    second, _ = run_tiny(capsys, "train-planted", 0, seed=6)
    assert first["param_sha256"] == second["param_sha256"]
    assert first["train_loss"] == second["train_loss"]


def test_wrong_probability_is_caught(capsys, monkeypatch):
    from longrec import serving
    monkeypatch.setattr(serving, "score_with_cache", lambda model, cache, cand: 0.5)
    details, result = run_tiny(capsys, "serve-wide", 0)
    assert result["correct"] is False and result["failed"] > 0
    assert any("MACs" in f for f in details["failures"])
    assert any("full forward" in f for f in details["failures"])


def test_raised_error_is_a_failed_operation(capsys, monkeypatch):
    from longrec import model

    def broken(*args, **kwargs):
        raise model.NumericalError("loss is not finite")
    monkeypatch.setattr(model, "train", broken)
    details, result = run_tiny(capsys, "train-planted", 0)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert any("NumericalError" in f for f in details["failures"])


def test_host_probe_scaling(monkeypatch, tmp_path):
    import bench
    w = bench.workload("serve-wide", tiny=True)
    inputs = bench.make_inputs(w, 3)
    monkeypatch.setattr(bench, "host_probe", lambda: bench.PROBE_S)
    at_nominal = bench.Runner(w, inputs, tmp_path).run(0.2)
    assert at_nominal.scaled == at_nominal.wall
    # A host twice as slow on both probes halves every scaled time.
    monkeypatch.setattr(bench, "host_probe",
                        lambda: tuple(2 * t for t in bench.PROBE_S))
    (tmp_path / "slow").mkdir()
    slow = bench.Runner(w, inputs, tmp_path / "slow").run(0.2)
    assert not at_nominal.failures and not slow.failures
    for phase in bench.PHASES:
        assert slow.scaled[phase] == pytest.approx([t / 2 for t in slow.wall[phase]])


def test_trace_plan_is_fixed_work(capsys):
    _, first = run_tiny(capsys, "serve-long", 1)
    _, second = run_tiny(capsys, "serve-long", 1)
    for name in ("serving.build_cache.calls", "tensors.matmul.calls",
                 "merge.macs", "tensors.macs"):
        assert first["metrics"][name] == second["metrics"][name], name


def test_renamed_function_is_reported_absent(capsys, monkeypatch):
    from longrec import attention
    monkeypatch.delattr(attention, "attention_block_cached")
    details, result = run_tiny(capsys, "serve-wide", 1)
    assert result["correct"] is True, details["failures"]
    assert details["absent_spans"] == ["attention.cached"]
    assert result["metrics"]["attention.cached.self_ms"]["value"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
