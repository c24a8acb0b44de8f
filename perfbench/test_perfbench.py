"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

import run
import worker
from neurovrp import decoding
from neurovrp.env import Solution
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "pomo-n100": dict(n=8, pass_items=2),
    "cpa-n1000": dict(n=30, cluster_size=5, pass_items=1),
    "train-tw": dict(n=6, epochs=1, batches_per_epoch=1, val_size=4),
    "oracle-small": dict(mix=(("VRP", 4), ("VRPTW", 4), ("EVRPCS", 3)),
                      pass_items=3),
}


def tiny(name: str):
    return replace(worker.WORKLOADS[name], **TINY[name])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def units(metrics: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in metrics.items()}


def test_code_and_benchmark_json_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS) \
        == list(run.WORKLOADS)
    assert declared("end_to_end") == {n: u for n, u, _ in worker.END_TO_END}
    assert declared("per_layer") == {n: u for n, u, _ in worker.PER_LAYER}
    for kind, table in (("end_to_end", worker.END_TO_END),
                        ("per_layer", worker.PER_LAYER)):
        assert {m["name"]: m["better"] for m in SPEC[kind]} == \
            {n: b for n, _, b in table}


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_metric_with_its_unit(name, tmp_path):
    res = worker.run(tiny(name), seed=3, seconds=0.01, trace=True,
                     t_start=time.monotonic(), out_dir=tmp_path)
    assert res["failed"] == 0
    assert units(res["metrics"]) == declared("end_to_end")
    assert units(res["per_layer"]) == declared("per_layer")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert set(res["from_array_sizes"]) <= set(res["per_layer"])
    assert (tmp_path / f"spans-{name}-seed3.npz").is_file()


def test_invalid_solutions_and_exceptions_are_counted(monkeypatch):
    real = decoding.solve
    calls = []

    def faulty(inst, *args, **kwargs):   # call 1 is the warm-up
        calls.append(inst)
        sol = real(inst, *args, **kwargs)
        if len(calls) == 2:
            return Solution(actions=sol.actions[:-2] + [0], cost=sol.cost)
        if len(calls) == 3:
            raise RuntimeError("injected")
        return sol

    monkeypatch.setattr(decoding, "solve", faulty)
    wl = replace(tiny("pomo-n100"), pass_items=4)
    res = worker.run(wl, seed=0, seconds=0.01, trace=False,
                     t_start=time.monotonic())
    assert res["attempted"] == 4
    assert res["failed"] == 2
    assert res["metrics"]["solves_per_s"]["value"] > 0


def test_traced_run_fails_when_a_listed_span_is_never_called():
    wl = replace(tiny("oracle-small"), spans=("oracle.brute_force", "model.encode"))
    with pytest.raises(RuntimeError, match="model.encode"):
        worker.run(wl, seed=0, seconds=0.01, trace=True, t_start=time.monotonic())


def test_self_time_excludes_child_spans(monkeypatch):
    fake = types.ModuleType("fake_layers")

    def inner():
        time.sleep(0.002)

    def outer():
        fake.inner()
        fake.inner()
        time.sleep(0.002)

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    tracer = Tracer()
    tracer.wrap("fake_layers", "inner", "inner")
    tracer.wrap("fake_layers", "outer", "outer")
    fake.outer()
    tracer.unwrap_all()
    assert fake.inner is inner and fake.outer is outer
    s = tracer.summary()
    assert s["inner"]["calls"] == 2 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["s"] - s["inner"]["s"])
    assert s["inner"]["self_s"] == s["inner"]["s"]


def test_command_prints_the_declared_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-small",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert units(out["metrics"]) == declared("end_to_end")
    assert any(line.startswith("fingerprint ") for line in lines)
    for name in ("failed_frac", "mean_objective"):
        assert any(line.split()[:1] == [name] for line in lines)


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
