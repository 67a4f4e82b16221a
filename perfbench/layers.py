"""Per-layer metrics from the traced server's spans and ``/v1/metrics``.

Span rows are ``[id, name, start, end, parent, request id, thread, attrs]``
as written by ``traced_serve.py``.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import defaultdict


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _mean(values, default=0.0) -> float:
    return sum(values) / len(values) if values else default


class Trace:
    """The spans of one traced run, cut to its timed phase."""

    def __init__(self, payload: dict, window: tuple[float, float]):
        start, end = window
        self.state = payload.get("state", {})
        self.spans = [s for s in payload["spans"] if start <= s[2] and s[3] <= end]
        self.children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                self.children[span[4]].append(span)
        self.by_name: dict[str, list] = defaultdict(list)
        for span in self.spans:
            self.by_name[span[1]].append(span)
        self.engine = sorted(
            self.by_name["engine.predict_many"] + self.by_name["engine.ingest_records"],
            key=lambda s: s[2])
        self._engine_starts = [s[2] for s in self.engine]

    @classmethod
    def load(cls, path, window) -> "Trace":
        with open(path) as handle:
            return cls(json.load(handle), window)

    def self_time(self, span) -> float:
        kids = [(c[2], c[3]) for c in self.children.get(span[0], ())]
        return span[3] - span[2] - _union(kids)

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.by_name.get(name, ())]

    def served_by(self, request) -> list:
        """Engine calls that did this request's work, inside its interval."""
        target = request[7]["target"]
        vehicle = target.rsplit("/", 1)[-1] if target.startswith("/v1/predict/") else None
        lo = bisect.bisect_left(self._engine_starts, request[2])
        hi = bisect.bisect_right(self._engine_starts, request[3])
        return [s for s in self.engine[lo:hi] if s[3] <= request[3] and (
            vehicle is None or vehicle in s[7].get("ids", ()))]


def span_metrics(trace: Trace) -> dict[str, float]:
    requests = trace.by_name.get("gateway.handle_request", [])
    non_engine, uncovered, handled = [], 0.0, 0.0
    for request in requests:
        duration = request[3] - request[2]
        covered = _union([(s[2], s[3]) for s in trace.served_by(request)])
        handled += duration
        uncovered += duration - covered
        if request[7]["target"].startswith("/v1/predict/"):
            non_engine.append(duration - covered)
    batches = trace.by_name.get("service.predict_batch", [])
    forecasts = sum(s[7]["n"] for s in batches)
    similar = trace.durations("similarity.most_similar")
    fits = trace.durations("learn.fit")
    build_spans = trace.by_name.get("core.dataset_build", [])
    build_ids = {s[0] for s in build_spans}
    builds = [s[3] - s[2] for s in build_spans if s[4] not in build_ids]  # outermost only
    per_forecast = max(forecasts, 1)
    return {
        "gateway.handle_request.p50_ms": _median(
            [r[3] - r[2] for r in requests]) * 1e3,
        "gateway.non_engine.p50_ms": _median(non_engine) * 1e3,
        "engine.predict_many.calls": float(len(trace.by_name.get("engine.predict_many", ()))),
        "engine.predict_many.self_ms": _median(
            [trace.self_time(s) for s in trace.by_name.get("engine.predict_many", ())]) * 1e3,
        "engine.ingest_records.p50_ms": _median(trace.durations("engine.ingest_records")) * 1e3,
        "service.predict_batch.self_us_per_vehicle":
            sum(trace.self_time(s) for s in batches) / per_forecast * 1e6,
        "service.ingest.us_per_reading": _mean(trace.durations("service.ingest")) * 1e6,
        "service.pending_forecasts": float(trace.state.get("pending_forecasts", 0)),
        "service.state_dict_kb": trace.state.get("state_dict_bytes", 0) / 1024.0,
        "similarity.most_similar.calls_per_forecast": len(similar) / per_forecast,
        "similarity.most_similar.ms_per_forecast": sum(similar) / per_forecast * 1e3,
        "core.dataset_build.s": sum(builds),
        "learn.fit.count": float(len(fits)),
        "learn.fit.s": sum(fits),
        "durability.journal_append.us": _mean(trace.durations("durability.journal_append")) * 1e6,
        "durability.journal_sync.ms": _mean(trace.durations("durability.journal_sync")) * 1e3,
        "durability.checkpoint_save.ms": _mean(trace.durations("durability.checkpoint_save")) * 1e3,
        "trace.unattributed_pct": 100.0 * uncovered / handled if handled else 0.0,
    }


def _get(snapshot: dict, *path):
    """The value at ``path`` in a metrics snapshot, ``{}`` when absent."""
    node = snapshot
    for key in path:
        node = (node or {}).get(key) or {}
    return node


def _delta(before: dict, after: dict, *path) -> float:
    return float(_get(after, *path) or 0) - float(_get(before, *path) or 0)


def snapshot_metrics(before: dict, after: dict, forecasts: int) -> dict[str, float]:
    """Layer metrics read from outside, as the change over the timed phase.

    Histogram quantiles cannot be differenced, so ``*_p50_ms`` values are
    the server-lifetime quantiles (set-up adds one batch to them).
    """
    sizes_a, sizes_b = _get(after, "gateway", "batch", "sizes"), _get(before, "gateway", "batch", "sizes")
    n_batches = sizes_a.get("count", 0) - sizes_b.get("count", 0)
    rows = sizes_a.get("count", 0) * sizes_a.get("mean", 0) - sizes_b.get("count", 0) * sizes_b.get("mean", 0)
    kernel_batches = _delta(before, after, "kernel", "batches")
    hits = _delta(before, after, "kernel", "hits")
    lookups = hits + _delta(before, after, "kernel", "misses")
    cache_hits = _delta(before, after, "cache", "hits")
    cache_lookups = cache_hits + _delta(before, after, "cache", "misses")
    return {
        "gateway.server_p50_ms": _get(after, "gateway", "latency_s", "predict").get("p50", 0.0) * 1e3,
        "gateway.batch_size_mean": rows / n_batches if n_batches else 0.0,
        "gateway.batch_exec_p50_ms": _get(after, "gateway", "batch", "exec_s").get("p50", 0.0) * 1e3,
        "gateway.rejected": _delta(before, after, "gateway", "queue_rejections")
        + _delta(before, after, "gateway", "deadline_expirations"),
        "kernel.mean_rows_per_batch":
            _delta(before, after, "kernel", "batched_rows") / kernel_batches if kernel_batches else 0.0,
        "kernel.batches_per_forecast": kernel_batches / forecasts if forecasts else 0.0,
        "kernel.hit_rate": hits / lookups if lookups else 0.0,
        "kernel.compile_s": _delta(before, after, "kernel", "compile_seconds"),
        "cache.hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
    }
