"""Cache of compiled inference kernels for the serving layer.

The service's Section-4 routing serves a handful of *shared* model
objects — each old vehicle's champion, the fleet-wide ``Model_Uni``,
one ``Model_Sim`` per similarity donor.  A kernel is a pure function of
its model object, so the cache holds each kernel in a weak-key map on
that object: lifecycle promotion, rollback, checkpoint restore, retrain
and donor changes all install a *new* model object, whose first lookup
is a miss, and a model the service lets go of takes its kernel with it.

All counters mutate under one lock (the cycle cache's stats race taught
that lesson); :meth:`stats` is the consolidated-metrics ``kernel``
section: compile count/time, hit rate, resident kernels, and a
rows-per-batch histogram in power-of-two buckets.
"""

from __future__ import annotations

import threading
import time
from weakref import WeakKeyDictionary

from ..learn.compiled import try_compile

__all__ = ["CompiledModelCache"]


class CompiledModelCache:
    """Compiled-kernel cache keyed weakly by model object."""

    def __init__(self):
        self._lock = threading.Lock()
        # model -> compiled kernel | None.  ``None`` kernels are cached
        # too: an uncompilable model should not re-attempt compilation
        # on every batch.
        self._kernels: WeakKeyDictionary = WeakKeyDictionary()
        self._hits = 0
        self._misses = 0
        self._compile_count = 0
        self._compile_seconds = 0.0
        self._batches = 0
        self._batched_rows = 0
        self._max_rows = 0
        self._row_buckets: dict[str, int] = {}

    def get(self, model):
        """The compiled kernel for ``model``.

        Returns ``None`` when the model cannot be compiled — callers
        fall back to the model's own ``predict``.
        """
        with self._lock:
            if model in self._kernels:
                self._hits += 1
                return self._kernels[model]
        started = time.perf_counter()
        compiled = try_compile(model)
        elapsed = time.perf_counter() - started
        with self._lock:
            self._misses += 1
            self._compile_count += 1
            self._compile_seconds += elapsed
            self._kernels[model] = compiled
        return compiled

    def record_batch(self, rows: int) -> None:
        """Account one kernel call covering ``rows`` stacked vehicles."""
        bucket = 1
        while bucket < rows:
            bucket *= 2
        label = f"<={bucket}"
        with self._lock:
            self._batches += 1
            self._batched_rows += rows
            if rows > self._max_rows:
                self._max_rows = rows
            self._row_buckets[label] = self._row_buckets.get(label, 0) + 1

    def stats(self) -> dict:
        """JSON-ready snapshot for the ``kernel`` metrics section."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / lookups if lookups else 0.0,
                "compile_count": self._compile_count,
                "compile_seconds": self._compile_seconds,
                "entries": len(self._kernels),
                "batches": self._batches,
                "batched_rows": self._batched_rows,
                "mean_rows_per_batch": (
                    self._batched_rows / self._batches if self._batches else 0.0
                ),
                "max_rows_per_batch": self._max_rows,
                "batch_rows": dict(
                    sorted(
                        self._row_buckets.items(),
                        key=lambda kv: int(kv[0][2:]),
                    )
                ),
            }
