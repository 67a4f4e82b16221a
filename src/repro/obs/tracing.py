"""Structured request tracing for the serving stack.

One trace per gateway request: the HTTP handler opens a *root span*
keyed by the request id, and every layer underneath — the micro-batch
dispatcher, :meth:`FleetEngine.predict_many`, the Section-4 strategy
ladder, :class:`ModelStore` reads — attaches child spans and events to
whatever span is *active* in the current :mod:`contextvars` context.

The design goal is that instrumentation sites cost nothing when no
trace is active: :func:`span` and :func:`add_event` first read the
context variable, and when it is ``None`` (tracing disabled, or the
call is not under a traced request) they return immediately without
allocating a span.  Forecast values are never touched — tracing only
*records* — so forecasts are bit-identical with tracing on or off (the
gateway bench enforces this).

Propagation rules:

* within one task/thread, ``with span(...)`` nests naturally;
* into the gateway's engine worker thread, the gateway copies the
  caller's context (``contextvars.copy_context``);
* across the micro-batch queue — where one ``predict_many`` call
  serves several requests with *different* traces — nothing crosses
  into the engine: once the batch returns, the gateway records each
  traced request's ``engine.predict`` child from the batch timing via
  :meth:`Tracer.record_span`, and a ``fallback`` event on the request's
  root span when the served Forecast is degraded.  In-process and
  sharded lanes share this path.

Completed traces are held in a bounded ring (oldest evicted) and served
by ``GET /v1/trace/{request_id}``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextvars import ContextVar

__all__ = [
    "Span",
    "Tracer",
    "current_span",
    "add_event",
    "activate",
    "span",
]

_ACTIVE: ContextVar["Span | None"] = ContextVar(
    "repro_active_span", default=None
)


def current_span() -> "Span | None":
    """The span active in this context, or ``None`` (the no-op state)."""
    return _ACTIVE.get()


def add_event(name: str, **attributes) -> None:
    """Record an event on the active span; free no-op without one."""
    active = _ACTIVE.get()
    if active is not None:
        active.event(name, **attributes)


class activate:
    """Make ``target`` the active span in this context.

    The gateway uses this to make a request's root span the parent of
    everything its handler opens.

    A ``__slots__`` context-manager class, not a generator: this sits
    on the per-prediction hot path and the generator protocol costs
    roughly a microsecond per use.
    """

    __slots__ = ("target", "_token")

    def __init__(self, target: "Span | None"):
        self.target = target

    def __enter__(self) -> "Span | None":
        if self.target is None:
            self._token = None
            return None
        self._token = _ACTIVE.set(self.target)
        return self.target

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False


class span:
    """Open a child span of the active one; free no-op without a parent.

    Instrumentation sites call this unconditionally — when the current
    context carries no trace (tracing disabled, in-process use, a
    background task) the body runs untouched and nothing is recorded.
    An exception escaping the body marks the span's status with the
    exception type and re-raises.
    """

    __slots__ = ("name", "attributes", "_child", "_token")

    def __init__(self, name: str, **attributes):
        self.name = name
        self.attributes = attributes

    def __enter__(self) -> "Span | None":
        parent = _ACTIVE.get()
        if parent is None:
            self._child = None
            return None
        child = parent.tracer._start_span(self.name, parent, self.attributes)
        self._child = child
        self._token = _ACTIVE.set(child)
        return child

    def __exit__(self, exc_type, exc, tb) -> bool:
        child = self._child
        if child is None:
            return False
        _ACTIVE.reset(self._token)
        if exc_type is not None:
            child.finish(f"error: {exc_type.__name__}")
        elif child.end_s is None:
            child.finish("ok")
        return False


class Span:
    """One timed operation within a request trace.

    The hot path (creation, events, :meth:`finish`) takes no locks:
    events are stored as raw ``(name, perf_counter, attributes)``
    tuples and :meth:`finish` renders the span into a *plain tuple*
    appended to its trace's sink list (``list.append`` is atomic under
    the GIL).  Tuples, not Span objects, for two reasons: the ring
    holds hundreds of completed traces, and tuples of atomic values
    are untracked by the cyclic garbage collector after one young-
    generation scan — keeping live Span objects in the ring made GC
    traversal the single largest tracing cost at gateway rates.  All
    JSON shaping is deferred to export time.
    """

    __slots__ = (
        "tracer",
        "request_id",
        "span_id",
        "parent_id",
        "name",
        "attributes",
        "events",
        "start_s",
        "end_s",
        "status",
        "_sink",
    )

    def __init__(
        self,
        tracer: "Tracer",
        request_id: str,
        span_id: int,
        parent_id: int | None,
        name: str,
        attributes: dict,
        sink: list,
    ):
        self.tracer = tracer
        self.request_id = request_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.events: list[tuple] | None = None
        self.start_s = time.perf_counter()
        self.end_s: float | None = None
        self.status = "in-progress"
        self._sink = sink

    def event(self, name: str, **attributes) -> None:
        if self.events is None:
            self.events = []
        self.events.append((name, time.perf_counter(), attributes))

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def finish(self, status: str = "ok") -> None:
        """Close the span and export it to its trace (idempotent)."""
        if self.end_s is not None:
            return
        self.end_s = end = time.perf_counter()
        self.status = status
        sink = self._sink
        self._sink = None
        sink.append(
            (
                self.span_id,
                self.parent_id,
                self.name,
                self.start_s,
                end,
                status,
                self.attributes,
                tuple(self.events) if self.events else (),
            )
        )


def _render_span(record: tuple) -> dict:
    span_id, parent_id, name, start_s, end_s, status, attrs, events = record
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_ms": round(start_s * 1e3, 3),
        "duration_ms": round((end_s - start_s) * 1e3, 3),
        "status": status,
        "attributes": attrs,
        "events": [
            {
                "name": event_name,
                "offset_ms": round((at - start_s) * 1e3, 3),
                "attributes": attributes,
            }
            for event_name, at, attributes in events
        ],
    }


class Tracer:
    """Bounded in-memory trace store keyed by request id.

    ``capacity`` bounds the number of *traces* held (oldest evicted);
    counters for started traces / recorded spans / evictions feed the
    consolidated metrics snapshot via :meth:`stats`.
    """

    def __init__(self, capacity: int = 512, *, enabled: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}.")
        self.capacity = capacity
        self.enabled = enabled
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, list[tuple]] = OrderedDict()
        # itertools.count() advances atomically under the GIL, so span
        # creation allocates its id without touching the tracer lock.
        self._next_span_id = itertools.count(1)
        self.traces_started = 0
        self.traces_evicted = 0
        self._spans_evicted = 0

    # -- span lifecycle ----------------------------------------------------

    def start_trace(self, request_id: str, name: str, **attributes) -> Span | None:
        """Open the root span of a new trace; ``None`` when disabled.

        A repeated ``request_id`` replaces the earlier trace — request
        ids identify requests, and a client re-sending one gets the
        fresh recording.  This is the only locking step of a trace's
        hot path; child spans and finishes are lock-free.
        """
        if not self.enabled:
            return None
        sink: list[tuple] = []
        with self._lock:
            self.traces_started += 1
            replaced = self._traces.pop(request_id, None)
            if replaced is not None:
                self._spans_evicted += len(replaced)
            while len(self._traces) >= self.capacity:
                _, evicted = self._traces.popitem(last=False)
                self._spans_evicted += len(evicted)
                self.traces_evicted += 1
            self._traces[request_id] = sink
        return Span(
            self, request_id, next(self._next_span_id), None, name,
            attributes, sink,
        )

    def record_span(
        self,
        name: str,
        parent: Span,
        start_s: float,
        end_s: float,
        status: str = "ok",
        **attributes,
    ) -> None:
        """Record an already-completed span from explicit timestamps.

        The gateway's micro-batch path uses this: the batch runs
        without touching any span object, and the dispatcher
        materialises each request's span afterwards in one tight loop
        — as finished-span tuples directly, no intermediate Span
        object.
        """
        sink = parent._sink
        if sink is None:
            with self._lock:
                sink = self._traces.get(parent.request_id)
            if sink is None:
                return
        sink.append(
            (
                next(self._next_span_id),
                parent.span_id,
                name,
                start_s,
                end_s,
                status,
                attributes,
                (),
            )
        )

    def _start_span(self, name: str, parent: Span, attributes: dict) -> Span:
        # Children share the parent's sink: a span finished after its
        # trace was evicted appends to an orphaned list and vanishes
        # with it, exactly like the trace it belonged to.
        sink = parent._sink
        if sink is None:
            # The parent already finished and unlinked its sink (a late
            # child); re-attach via the ring, or record nowhere if the
            # trace has been evicted meanwhile.
            with self._lock:
                sink = self._traces.get(parent.request_id)
            if sink is None:
                sink = []
        return Span(
            self, parent.request_id, next(self._next_span_id),
            parent.span_id, name, attributes, sink,
        )

    # -- export ------------------------------------------------------------

    def export(self, request_id: str) -> dict | None:
        """JSON-ready trace for one request id, or ``None`` if unknown.

        Spans are sorted by span id (creation order), root first; the
        dict shaping deferred by the spans happens here.
        """
        with self._lock:
            sink = self._traces.get(request_id)
            if sink is None:
                return None
            spans = list(sink)
        spans.sort(key=lambda record: record[0])
        return {
            "request_id": request_id,
            "spans": [_render_span(record) for record in spans],
        }

    def request_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def stats(self) -> dict:
        with self._lock:
            held_spans = sum(len(sink) for sink in self._traces.values())
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "traces_held": len(self._traces),
                "traces_started": self.traces_started,
                "traces_evicted": self.traces_evicted,
                "spans_recorded": self._spans_evicted + held_spans,
            }
