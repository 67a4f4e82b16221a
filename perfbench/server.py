"""Run ``repro serve`` as a child process and talk HTTP to it.

A :class:`Server` owns one child process, spawned by :meth:`Server.start`.
It is a context manager: on exit the child gets SIGINT, must print
``gateway drained`` and end, and is killed (and the run failed) if it does
not.  No child outlives its block.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class ServerError(RuntimeError):
    """The server failed to start, answer or drain."""


class Server:
    """One ``repro serve`` child process on a free localhost port.

    ``launcher`` replaces ``-m repro`` with a script that takes the same
    arguments (the traced launcher); ``serve_args`` follow ``serve``.
    """

    def __init__(self, serve_args: list[str], *, launcher: Path | None = None,
                 env: dict[str, str] | None = None):
        entry = [str(launcher)] if launcher else ["-m", "repro"]
        self.argv = [sys.executable, "-u", *entry, "serve", "--port", "0", *serve_args]
        self.env = {**os.environ, **(env or {}),
                    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        self.proc: subprocess.Popen | None = None
        self.lines: list[str] = []
        self.address: tuple[str, int] | None = None
        self.spawned_at = 0.0
        self._listening = threading.Event()
        self._reader: threading.Thread | None = None

    # -- process lifetime ---------------------------------------------------

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(check=exc_type is None)

    def start(self) -> "Server":
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(target=self._read_output, daemon=True)
        self._reader.start()
        return self

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            match = LISTENING.search(line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                self._listening.set()
        self._listening.set()  # EOF: wake a waiter, which then sees no address

    def wait_listening(self) -> tuple[str, int]:
        if not self._listening.wait(START_TIMEOUT_S) or self.address is None:
            raise ServerError("server did not start listening:\n" + self.output())
        return self.address

    def output(self) -> str:
        return "\n".join(self.lines[-40:])

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` (peak resident set) so far, in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def stop(self, *, check: bool = True) -> None:
        """SIGINT, wait for the drain, and reap; kill if it hangs.

        With ``check`` a server that does not print ``gateway drained``
        and exit 0 raises :class:`ServerError`.
        """
        proc = self.proc
        if proc is None or self._reader is None:
            return  # never started, or already stopped
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._reader.join(STOP_TIMEOUT_S)
        self._reader = None
        if check and (proc.returncode != 0 or "gateway drained" not in self.lines):
            raise ServerError(
                f"server exited {proc.returncode} without a clean drain:\n" + self.output()
            )


class Client:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, address: tuple[str, int], timeout: float = 60.0):
        self.conn = http.client.HTTPConnection(*address, timeout=timeout)

    def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            raise

    def json(self, method: str, path: str, payload=None) -> dict:
        status, body = self.request(method, path, payload)
        if status != 200:
            raise ServerError(f"{method} {path} answered {status}: {body[:300]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()
