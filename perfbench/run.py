"""Fleet serving benchmark: ``repro serve`` driven over HTTP from outside.

    python3 perfbench/run.py --workload paper-fleet-read --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, both modes

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(an untraced and a traced server back to back).  Every metric is printed as
``name value unit``; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes its results, stamped with the code version and host, under
``.perfbench_results/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = json.loads((HERE / "metrics.json").read_text())
UNITS = {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]}
RESULTS = ROOT / ".perfbench_results"


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def end_to_end(outcome) -> dict[str, float]:
    return {"setup_s": statistics.median(outcome.setup_s), **outcome.values}


def per_layer(plain, traced, snap) -> dict[str, float]:
    from layers import Trace, snapshot_metrics, span_metrics

    plain_snap = snap["plain"]
    values = snapshot_metrics(plain_snap["before"], plain_snap["after"], plain.info["forecasts"])
    values.update(span_metrics(Trace.load(snap["trace_file"], snap["window"])))
    values["trace.overhead_pct"] = 100.0 * (
        traced.values["latency_p50_ms"] / plain.values["latency_p50_ms"] - 1.0)
    info = plain.info
    values.update({
        "load.failed_frac": plain.failed / plain.attempted,
        "load.capacity_rps": info["capacity_rps"],
        "load.gen_lag_p99_ms": info.get("gen_lag_p99_ms", 0.0),
        "load.predict_tail_ms": info.get("predict_tail_ms", 0.0),
        "load.dayclose_total_s": info.get("dayclose_total_s", 0.0),
        "load.ingest_ack_p50_ms": info.get("ingest_ack_p50_ms", 0.0),
    })
    return values


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, bool]:
    """Measure once; returns the result object and whether it is valid."""
    from workloads import WORKLOADS, fresh_workdir, measure

    workdir = fresh_workdir(workload, seed)
    try:
        plain, traced, snap = measure(WORKLOADS[workload], seed, seconds, workdir,
                                      traced=bool(trace))
        values = per_layer(plain, traced, snap) if trace else end_to_end(plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcomes = [o for o in (plain, traced) if o is not None]
    mismatches = [m for o in outcomes for m in o.mismatches]
    result = {
        "correct": not mismatches,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {**stamp(workload, seed, seconds, trace), **result,
              "setup_s_samples": [s for o in outcomes for s in o.setup_s],
              "info": plain.info, "mismatches": mismatches[:20]}
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2, default=str))
    for message in mismatches[:5]:
        print(f"MISMATCH {message}", file=sys.stderr)
    return result, not mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CATALOGUE["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from server import ServerError
    from workloads import WORKLOADS, BenchmarkError

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    ok = True
    for name in names:
        for trace in modes:
            try:
                result, valid = run_one(name, args.seed, args.seconds, trace)
            except (BenchmarkError, ServerError) as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            ok = ok and valid
            for metric, entry in result["metrics"].items():
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    if len(names) == 1:
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
