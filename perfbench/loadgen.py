"""Load generators that run in the benchmark process, outside the server.

``open_loop`` sends on a fixed schedule whatever the server does, over at
most ``connections`` keep-alive connections, and times every request from
when it was due, so a stall is charged to every request it delays.  It also
records how late the generator itself sent: the delay between a request
being due on a free connection and its send.  ``closed_loop`` keeps every
connection busy and counts completions per second.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass

from server import Client


@dataclass
class Sample:
    index: int  # position in the request list
    due: float  # perf_counter time the request was due
    sent: float
    done: float
    status: int  # 0 when the request raised (timeout, refused, reset)
    body: bytes
    gen_lag: float  # send delay the generator itself caused

    @property
    def latency(self) -> float:
        return self.done - self.due


def _send(client: Client, path: str) -> tuple[int, bytes]:
    try:
        return client.request("GET", path)
    except (OSError, http.client.HTTPException) as exc:
        return 0, repr(exc).encode()


def open_loop(address, paths: list[str], rate: float, duration: float,
              connections: int) -> list[Sample]:
    """GET ``paths`` (cycled) at ``rate`` per second for ``duration`` seconds."""
    n = max(1, int(rate * duration))
    lock = threading.Lock()
    cursor = iter(range(n))
    samples: list[Sample] = []
    start = time.perf_counter() + 0.05

    def worker() -> None:
        client = Client(address)
        try:
            while True:
                free = time.perf_counter()
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = _send(client, paths[index % len(paths)])
                done = time.perf_counter()
                samples.append(Sample(index, due, sent, done, status, body,
                                      sent - max(due, free)))
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.index)
    return samples


def closed_loop(address, paths: list[str], duration: float,
                connections: int) -> list[Sample]:
    """Keep ``connections`` requests in flight for ``duration`` seconds."""
    samples: list[Sample] = []
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    stop = time.perf_counter() + duration

    def worker() -> None:
        client = Client(address)
        try:
            while (now := time.perf_counter()) < stop:
                with lock:
                    index = next(counter)
                status, body = _send(client, paths[index % len(paths)])
                samples.append(Sample(index, now, now, time.perf_counter(),
                                      status, body, 0.0))
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.index)
    return samples
