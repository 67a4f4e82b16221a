"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``.

They run tiny sizings of both workload kinds against real ``repro serve``
children, so they take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from fleet import make_inputs  # noqa: E402
from server import Server, ServerError  # noqa: E402

TINY = {
    "tiny-read": workloads.Workload(
        "tiny-read", n_vehicles=10, algorithm="LR", old_days=30,
        kind="read", rate=40.0),
    "tiny-day": workloads.Workload(
        "tiny-day", n_vehicles=10, algorithm="LR", old_days=30,
        kind="day-close", replay_days=3),
}
CATALOGUE = json.loads((HERE / "metrics.json").read_text())
E2E = {m["name"] for m in CATALOGUE["end_to_end"]}
LAYER = {m["name"] for m in CATALOGUE["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    monkeypatch.setattr(workloads, "CAPACITY_S", 0.5)
    started: list[Server] = []
    original = Server.start

    def recording_start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(Server, "start", recording_start)
    yield started
    for server in started:
        assert server.proc.returncode is not None, "a server outlived its run"


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_emits_every_metric(tiny, name, trace):
    result, valid = run.run_one(name, seed=3, seconds=1.0, trace=trace)
    assert valid and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (LAYER if trace else E2E)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float | int) and entry["unit"]
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in E2E)


def test_correctness_gate_fires_on_perturbed_reference(tiny, monkeypatch):
    honest = workloads.reference_forecasts

    def perturbed(*args):
        reference = honest(*args)
        vehicle, forecast = next(iter(reference[0].items()))
        reference[0][vehicle] = dataclasses.replace(
            forecast, days_to_maintenance=np.nextafter(forecast.days_to_maintenance, np.inf))
        return reference

    monkeypatch.setattr(workloads, "reference_forecasts", perturbed)
    result, valid = run.run_one("tiny-read", seed=3, seconds=1.0, trace=0)
    assert not valid and not result["correct"]


def test_failed_run_leaves_no_server(tiny, monkeypatch):
    def broken(*args):
        raise workloads.BenchmarkError("injected")

    monkeypatch.setitem(workloads.PHASES, "read", broken)
    with pytest.raises(workloads.BenchmarkError):
        run.run_one("tiny-read", seed=3, seconds=1.0, trace=0)
    assert tiny, "no server was started"
    # the fixture checks every started server has exited


def test_server_without_drain_fails(tmp_path):
    fake = tmp_path / "fake_serve.py"
    fake.write_text(
        "import time\n"
        "print('repro gateway listening on http://127.0.0.1:9', flush=True)\n"
        "try:\n    time.sleep(60)\nexcept KeyboardInterrupt:\n    pass\n"
    )
    server = Server([], launcher=fake).start()
    server.wait_listening()
    with pytest.raises(ServerError):
        server.stop()
    assert server.proc.returncode is not None


def test_seed_changes_fleet_not_metric_names(tiny):
    one = make_inputs(1, n_vehicles=10, old_days=30, replay_days=3)
    two = make_inputs(2, n_vehicles=10, old_days=30, replay_days=3)
    assert any(
        not np.array_equal(a.usage, b.usage)
        for a, b in zip(one.fleet.vehicles, two.fleet.vehicles)
    )
    again = make_inputs(1, n_vehicles=10, old_days=30, replay_days=3)
    assert all(np.array_equal(a.usage, b.usage)
               for a, b in zip(one.fleet.vehicles, again.fleet.vehicles))
    names = [set(run.run_one("tiny-day", seed=s, seconds=1.0, trace=0)[0]["metrics"])
             for s in (1, 2)]
    assert names[0] == names[1] == E2E


def test_benchmark_json_matches_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["run_seconds"] == CATALOGUE["run_seconds"]
    assert bench["workloads"] == [{"name": w["name"], "why": w["why"]}
                                  for w in CATALOGUE["workloads"]]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")} for m in CATALOGUE["end_to_end"]]
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in CATALOGUE["per_layer"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-fleet-read",
         "--seed", "1", "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
