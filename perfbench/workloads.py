"""The three fleet workloads and the phases they run against ``repro serve``.

Each run generates its fleet from the seed, builds an in-process serial
reference of every forecast the server may answer, starts the server
several times to time set-up, then drives one server through the
workload's timed phase.  Every forecast answered 200 must equal its
reference exactly, or the run is not correct.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
from fleet import WINDOW, FleetInputs, make_inputs
from repro.serving import Forecast, MaintenancePredictionService
from server import ROOT, Client, Server

CONNECTIONS = min(2, os.cpu_count() or 1)  # at most nproc connections
SETUPS = 3  # set-ups per run; setup_s is their median
CAPACITY_S = 5.0  # closed-loop capacity probe of the read workloads
GEN_LAG_LIMIT_MS = 20.0  # beyond this p99 the generator, not the server, is slow
BATCH_DEADLINE_MS = 600_000
LAUNCHER = Path(__file__).resolve().parent / "traced_serve.py"


@dataclass(frozen=True)
class Workload:
    name: str  # the reason for each workload is in metrics.json
    n_vehicles: int
    algorithm: str
    old_days: int
    kind: str  # "read" or "day-close"
    rate: float = 0.0  # reads: offered GET rate (req/s)
    replay_days: int = 0  # day-close: days replayed, served with --durable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-fleet-read",
            n_vehicles=24, algorithm="RF", old_days=40, kind="read", rate=100.0,
        ),
        Workload(
            "day-close",
            n_vehicles=24, algorithm="LR", old_days=40, kind="day-close",
            replay_days=600,
        ),
        Workload(
            "large-fleet-read",
            n_vehicles=512, algorithm="LR", old_days=120, kind="read", rate=25.0,
        ),
    )
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid measurement."""


@dataclass
class Outcome:
    """Everything one run measured, before it is turned into metrics."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)


# -- reference ---------------------------------------------------------------


def reference_forecasts(workload: Workload, inputs: FleetInputs,
                        histories: dict[str, np.ndarray]) -> list[dict[str, Forecast]]:
    """Serial in-process forecasts: entry 0 after set-up, entry d after day d.

    The service is built as ``repro serve`` builds its own (same ``t_v``,
    window and algorithm, incremental cycle cache on) and asked one
    vehicle at a time through :meth:`MaintenancePredictionService.predict`.
    """
    service = MaintenancePredictionService(
        t_v=inputs.fleet.t_v, window=WINDOW, algorithm=workload.algorithm,
        cycle_cache=True,
    )
    ids = sorted(histories)
    for vehicle_id in inputs.vehicle_ids:
        service.register_vehicle(vehicle_id)
        service.ingest_series(vehicle_id, histories[vehicle_id])
    out = [{v: service.predict(v) for v in ids}]
    for day in range(workload.replay_days):
        for reading in inputs.day_readings(day):
            service.ingest(reading["vehicle_id"], reading["seconds"])
        out.append({v: service.predict(v) for v in ids})
    return out


def check_forecast(body: bytes | dict, expected: dict[str, Forecast],
                   outcome: Outcome, where: str) -> None:
    data = json.loads(body) if isinstance(body, bytes) else body
    forecast = Forecast.from_dict(data)
    if forecast != expected.get(forecast.vehicle_id):
        outcome.mismatches.append(
            f"{where}: {forecast.vehicle_id} served {data}, reference "
            f"{expected.get(forecast.vehicle_id)}"
        )


def check_batch(payload: dict, expected: dict[str, Forecast], ids: list[str],
                outcome: Outcome, where: str) -> None:
    forecasts = payload["forecasts"]
    served = [f.get("vehicle_id") for f in forecasts]
    if payload["errors"] or served != ids:
        errors = [f for f in forecasts if "error" in f][:3]
        outcome.mismatches.append(f"{where}: {payload['errors']} errors {errors}, ids {served[:5]}...")
        return
    for data in forecasts:
        check_forecast(data, expected, outcome, where)


# -- server life -------------------------------------------------------------


@dataclass
class Setup:
    """A started server, how long it took to serve its fleet, and the answer."""

    server: Server
    seconds: float
    payload: dict


class Run:
    """One invocation: inputs, reference, and the servers it starts."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = make_inputs(
            seed, n_vehicles=workload.n_vehicles, old_days=workload.old_days,
            replay_days=workload.replay_days,
        )
        self.fleet_dir = workdir / "fleet"
        self.histories = self.inputs.write(self.fleet_dir)
        self.ids = sorted(self.histories)
        self.reference: list[dict[str, Forecast]] | None = None
        self._servers = 0

    def serve_args(self) -> list[str]:
        self._servers += 1
        args = ["--input", str(self.fleet_dir), "--algorithm", self.workload.algorithm,
                "--window", str(WINDOW), "--max-queue", str(max(256, self.workload.n_vehicles))]
        if self.workload.kind == "day-close":
            args += ["--durable", str(self.workdir / f"state-{self._servers}")]
        return args

    def batch_request(self) -> dict:
        """A full-fleet batch; its deadline covers fits, so it never 504s."""
        return {"vehicle_ids": self.ids, "deadline_ms": BATCH_DEADLINE_MS}

    def start(self, outcome: Outcome, *, traced: bool = False) -> Setup:
        """Spawn a server and time it until a full-fleet batch answers 200."""
        env = None
        launcher = None
        if traced:
            launcher = LAUNCHER
            env = {"PERFBENCH_TRACE_OUT": str(self.workdir / "spans.json")}
        server = Server(self.serve_args(), launcher=launcher, env=env).start()
        try:
            client = Client(server.wait_listening(), timeout=600)
            outcome.attempted += 1
            status, body = client.request("POST", "/v1/predict:batch", self.batch_request())
            seconds = time.perf_counter() - server.spawned_at
            client.close()
            if status != 200:
                raise BenchmarkError(f"set-up batch answered {status}: {body[:300]!r}")
        except BaseException:
            server.stop(check=False)
            raise
        return Setup(server, seconds, json.loads(body))

    def start_with_reference(self, outcome: Outcome) -> Setup:
        """Start the first server while the reference is built here.

        The reference is CPU work in this process and the server's set-up
        is CPU work in the child, so on two or more CPUs they overlap.
        """
        result: dict = {}

        def start() -> None:
            try:
                result["setup"] = self.start(outcome)
            except BaseException as exc:  # re-raised below, in the main thread
                result["error"] = exc

        thread = threading.Thread(target=start)
        thread.start()
        try:
            self.reference = reference_forecasts(self.workload, self.inputs, self.histories)
        finally:
            thread.join()
            if self.reference is None and "setup" in result:
                result["setup"].server.stop(check=False)
        if "error" in result:
            raise result["error"]
        return result["setup"]

    def verify(self, setup: Setup, outcome: Outcome) -> None:
        check_batch(setup.payload, self.reference[0], self.ids, outcome, "set-up")
        outcome.setup_s.append(setup.seconds)


def metrics_snapshot(server: Server) -> dict:
    client = Client(server.address)
    try:
        return client.json("GET", "/v1/metrics")
    finally:
        client.close()


# -- timed phases ------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0-100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0, 50.0):
        if n * (1 - q / 100.0) >= 10:
            return q
    return 50.0


def read_phase(run: Run, server: Server, seconds: float, outcome: Outcome) -> None:
    """Open-loop GETs at the offered rate, then a closed-loop capacity probe."""
    workload = run.workload
    order = np.random.default_rng([run.seed, 1]).permutation(len(run.ids))
    paths = [f"/v1/predict/{run.ids[i]}" for i in order]
    expected = run.reference[0]
    samples = loadgen.open_loop(server.address, paths, workload.rate, seconds, CONNECTIONS)
    capacity = loadgen.closed_loop(server.address, paths, CAPACITY_S, CONNECTIONS)
    for phase, batch in (("open-loop", samples), ("closed-loop", capacity)):
        outcome.attempted += len(batch)
        for sample in batch:
            if sample.status != 200:
                outcome.failed += 1
            else:
                check_forecast(sample.body, expected, outcome, phase)
    ok = [s.latency * 1e3 for s in samples if s.status == 200]
    if not ok:
        raise BenchmarkError("no GET answered 200")
    q = tail_percentile(len(ok))
    lags = [s.gen_lag * 1e3 for s in samples]
    gen_lag = percentile(lags, 99.0)
    outcome.values["latency_p50_ms"] = statistics.median(ok)
    busy = max(s.done for s in capacity) - min(s.sent for s in capacity)
    outcome.info.update({
        "capacity_rps": sum(s.status == 200 for s in capacity) / busy,
        "offered_rate_rps": workload.rate,
        "samples": len(ok),
        "tail_pct": q,
        "predict_tail_ms": percentile(ok, q),
        "gen_lag_p99_ms": gen_lag,
        "forecasts": len(samples) + len(capacity),
    })
    if gen_lag > GEN_LAG_LIMIT_MS:
        raise BenchmarkError(
            f"run invalid: the load generator sent {gen_lag:.1f} ms late at p99 "
            f"(limit {GEN_LAG_LIMIT_MS} ms)"
        )


def day_close_phase(run: Run, server: Server, seconds: float, outcome: Outcome) -> None:
    """Replay the daily loop: fleet ingest, then fleet batch forecast, per day.

    The replay length is fixed by the workload, not by ``seconds``, so every
    run closes the same days.
    """
    client = Client(server.address, timeout=600)
    makespans, acks = [], []
    try:
        for day in range(run.workload.replay_days):
            started = time.perf_counter()
            outcome.attempted += 2
            status, body = client.request(
                "POST", "/v1/ingest", {"readings": run.inputs.day_readings(day)})
            acked = time.perf_counter()
            if status != 200:
                raise BenchmarkError(f"day {day}: ingest answered {status}: {body[:300]!r}")
            status, body = client.request("POST", "/v1/predict:batch", run.batch_request())
            finished = time.perf_counter()
            if status != 200:
                raise BenchmarkError(f"day {day}: batch answered {status}: {body[:300]!r}")
            check_batch(json.loads(body), run.reference[day + 1], run.ids, outcome,
                        f"day {day}")
            makespans.append(finished - started)
            acks.append(acked - started)
    finally:
        client.close()
    outcome.values["latency_p50_ms"] = statistics.median(makespans) * 1e3
    outcome.info.update({
        "capacity_rps": len(run.ids) * len(makespans) / sum(makespans),
        "days": len(makespans),
        "dayclose_total_s": sum(makespans),
        "dayclose_makespans_s": makespans,
        "ingest_ack_p50_ms": statistics.median(acks) * 1e3,
        "forecasts": len(run.ids) * len(makespans),
    })


PHASES = {"read": read_phase, "day-close": day_close_phase}


def timed_phase(run: Run, server: Server, seconds: float, outcome: Outcome) -> dict:
    """Run the workload's phase on ``server``; return the metrics snapshots."""
    before = metrics_snapshot(server)
    started = time.perf_counter()
    PHASES[run.workload.kind](run, server, seconds, outcome)
    window = (started, time.perf_counter())
    after = metrics_snapshot(server)
    outcome.values["peak_rss_mb"] = server.peak_rss_mb()
    return {"before": before, "after": after, "window": window}


def measure(workload: Workload, seed: int, seconds: float, workdir: Path,
            *, traced: bool) -> tuple[Outcome, Outcome | None, dict]:
    """One invocation.

    Untraced: ``SETUPS`` set-ups, the last server runs the timed phase.
    Traced: one untraced set-up and phase, then one traced set-up and phase
    (``trace.overhead_pct`` compares them); returns both outcomes and the
    traced run's snapshots.
    """
    run = Run(workload, seed, workdir)
    plain = Outcome()
    n_setups = 1 if traced else SETUPS
    for index in range(n_setups):
        setup = run.start(plain) if index else run.start_with_reference(plain)
        with setup.server:
            run.verify(setup, plain)
            if index == n_setups - 1:
                snap = timed_phase(run, setup.server, seconds, plain)
    if not traced:
        return plain, None, snap
    traced_outcome = Outcome()
    setup = run.start(traced_outcome, traced=True)
    with setup.server:
        run.verify(setup, traced_outcome)
        traced_snap = timed_phase(run, setup.server, seconds, traced_outcome)
    traced_snap["plain"] = snap
    traced_snap["trace_file"] = workdir / "spans.json"
    return plain, traced_outcome, traced_snap


def fresh_workdir(workload: str, seed: int) -> Path:
    path = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


