"""Launch ``repro serve`` with each layer's public functions wrapped in spans.

Run exactly like ``python -m repro``::

    PERFBENCH_TRACE_OUT=spans.json python perfbench/traced_serve.py serve --input DIR

Spans (name, start, end, parent, request id, thread, attributes) are kept
in memory and written to ``$PERFBENCH_TRACE_OUT`` after the gateway drains,
together with the service's end-of-run state size.  Times are
``time.perf_counter`` readings, which on Linux share one monotonic clock
across processes, so the benchmark can cut the timed phase out of them.
Nothing under ``src/`` changes: the wrappers replace attributes at start-up.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

_current = contextvars.ContextVar("perfbench_span", default=None)


class SpanRecorder:
    """In-memory span store shared by every wrapped function."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, rid, thread, attrs]
        self._ids = itertools.count()
        self.engine = None

    def _open(self, name: str, attrs) -> list:
        parent = _current.get()
        span_id = next(self._ids)
        rid = parent[5] if parent is not None else span_id
        span = [span_id, name, time.perf_counter(), None,
                None if parent is None else parent[0], rid,
                threading.get_ident(), attrs]
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recording one span per call; ``attrs(args)`` adds fields."""
        recorder = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                span = recorder._open(name, attrs(args) if attrs else None)
                token = _current.set(span)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter()
                    _current.reset(token)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = recorder._open(name, attrs(args) if attrs else None)
                token = _current.set(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter()
                    _current.reset(token)
        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))

    def patch_function(self, fn, name: str) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that imported it."""
        traced = self.wrap(fn, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)

    def state_summary(self) -> dict:
        if self.engine is None:
            return {}
        state = self.engine.service.state_dict()
        return {
            "pending_forecasts": sum(
                len(v["pending"]) for v in state["vehicles"].values()
            ),
            "state_dict_bytes": len(json.dumps(state).encode()),
        }

    def dump(self, path: str) -> None:
        finished = [s for s in self.spans if s[3] is not None]
        with open(path, "w") as handle:
            json.dump({"spans": finished, "state": self.state_summary()}, handle)


def _ids_attr(args):
    return {"ids": list(args[1])}


def install() -> SpanRecorder:
    """Wrap the layer boundaries the benchmark reports on."""
    import repro.cli  # noqa: F401  (loads every module the server uses)
    from repro.core.coldstart import first_cycle_dataset
    from repro.core.predictors import RegressionPredictor
    from repro.dataprep.transformation import build_relational_dataset
    from repro.durability.checkpoint import CheckpointManager
    from repro.durability.journal import WriteAheadJournal
    from repro.learn import compiled
    from repro.serving.engine import FleetEngine
    from repro.serving.executor import FleetExecutor
    from repro.serving.gateway import FleetGateway
    from repro.serving.kernel_cache import CompiledModelCache
    from repro.serving.service import MaintenancePredictionService
    from repro.similarity.measures import most_similar

    recorder = SpanRecorder()
    init = FleetGateway.__init__

    def capture_engine(self, engine, *args, **kwargs):
        recorder.engine = engine
        init(self, engine, *args, **kwargs)

    FleetGateway.__init__ = capture_engine
    recorder.patch(FleetGateway, "handle_request", "gateway.handle_request",
                   lambda args: {"method": args[1], "target": args[2]})
    recorder.patch(FleetEngine, "predict_many", "engine.predict_many", _ids_attr)
    recorder.patch(FleetEngine, "ingest_records", "engine.ingest_records",
                   lambda args: {"n": len(args[1])})
    recorder.patch(FleetExecutor, "map_ordered", "engine.fanout")
    recorder.patch(MaintenancePredictionService, "predict_batch",
                   "service.predict_batch", lambda args: {"n": len(args[1])})
    recorder.patch(MaintenancePredictionService, "ingest", "service.ingest")
    recorder.patch_function(most_similar, "similarity.most_similar")
    recorder.patch_function(build_relational_dataset, "core.dataset_build")
    recorder.patch_function(first_cycle_dataset, "core.dataset_build")
    recorder.patch(RegressionPredictor, "fit", "learn.fit")
    recorder.patch(CompiledModelCache, "get", "kernel_cache.get")
    for kernel in vars(compiled).values():
        if inspect.isclass(kernel) and kernel.__module__ == compiled.__name__ \
                and "kind" in vars(kernel) and "predict" in vars(kernel):
            recorder.patch(kernel, "predict", "kernel.predict")
    recorder.patch(WriteAheadJournal, "append", "durability.journal_append")
    recorder.patch(WriteAheadJournal, "sync", "durability.journal_sync")
    recorder.patch(CheckpointManager, "save", "durability.checkpoint_save")
    return recorder


def main(argv: list[str]) -> int:
    recorder = install()
    from repro.cli import main as cli_main

    code = cli_main(argv)
    recorder.dump(os.environ["PERFBENCH_TRACE_OUT"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
