"""Server processes and HTTP load for the benchmark's server workloads.

The load generator is this one process: at most two client threads,
each holding one keep-alive connection.  Servers run as separate
processes in their own session, so stopping one also reaches the fleet
workers it started.
"""

from __future__ import annotations

import collections
import http.client
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.telemetry.exporters import parse_prometheus, sanitize_metric_name

CLIENTS = 2
_SERVING = re.compile(r"^serving .* on http://([\d.]+):(\d+)")
_FEEDBACK_OK = ("applied", "held_out")


class ServerProcess:
    """``python -m repro.serve`` (or ``bench/traced_serve.py``) child."""

    def __init__(self, root: str, args: List[str],
                 spans_dir: Optional[str] = None):
        entry = (["-m", "repro.serve"] if spans_dir is None else
                 [os.path.join(root, "bench", "traced_serve.py"),
                  spans_dir])
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.path.join(root, "src"))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *entry, *args], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True)
        self.output: List[str] = []
        self._address = threading.Event()
        self.host, self.port = "127.0.0.1", 0
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            match = _SERVING.match(line)
            if match and not self._address.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._address.set()
        self._address.set()  # exited: unblock a waiting caller

    def first_answer(self, body: bytes, expected: List[int],
                     timeout_s: float = 60.0) -> tuple:
        """``(seconds from spawn to the first answer, answer correct)``."""
        self._address.wait(timeout_s)
        if not self.port:
            raise RuntimeError("server did not start:\n"
                               + "\n".join(self.output[-20:]))
        conn = self.connect()
        try:
            status, payload = post(conn, "/predict", body)
        finally:
            conn.close()
        return (time.perf_counter() - self.started,
                status == 200 and payload.get("labels") == expected)

    def connect(self, port: Optional[int] = None
                ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, port or self.port,
                                          timeout=30)

    def get(self, path: str, port: Optional[int] = None) -> str:
        conn = self.connect(port)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()

    def worker_ports(self) -> List[int]:
        """Ports of the fleet workers behind this router."""
        health = json.loads(self.get("/healthz"))
        return [int(w["url"].rsplit(":", 1)[1])
                for w in health["fleet"]["workers"]]

    def stop(self) -> None:
        """SIGTERM (the server drains), then kill the whole session."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Fleet workers are grandchildren: wait until the group is empty.
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self._reader.join(timeout=5)


def post(conn: http.client.HTTPConnection, path: str, body: bytes
         ) -> tuple:
    """``(status, parsed JSON body)`` of one POST."""
    conn.request("POST", path, body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class _Client:
    """One keep-alive connection; a broken one is replaced, and the
    request on it is reported with status ``None``."""

    def __init__(self, server: ServerProcess):
        self.server = server
        self.conn = server.connect()

    def send(self, path: str, body: bytes) -> tuple:
        try:
            return post(self.conn, path, body)
        except (http.client.HTTPException, OSError, ValueError) as exc:
            self.conn.close()
            self.conn = self.server.connect()
            return None, {"error": f"{type(exc).__name__}: {exc}"}


def predict_body(rows: np.ndarray) -> bytes:
    return json.dumps({"features": np.atleast_2d(rows).tolist()}).encode()


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
class Scrape:
    """One parsed ``/metrics`` page."""

    def __init__(self, text: str):
        self._parsed = parse_prometheus(text)

    def value(self, name: str, key: str = "") -> float:
        entry = self._parsed.get(sanitize_metric_name(name))
        if entry is None:
            return 0.0
        value = float(entry["samples"].get(key, 0.0))
        return 0.0 if math.isnan(value) else value  # NaN: no samples yet

    def p50(self, name: str) -> float:
        return self.value(name, 'quantile="0.5"')

    def count(self, name: str) -> float:
        return self.value(name, "count")

    def mean(self, name: str) -> float:
        count = self.count(name)
        return self.value(name, "sum") / count if count else 0.0


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _run_threads(target) -> None:
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop_mixed(server: ServerProcess, bodies: List[bytes],
                      expected: List[List[int]], true_labels: np.ndarray,
                      seconds: float, predicts_per_feedback: int) -> Dict:
    """Each client repeats ``predicts_per_feedback`` single-row
    ``/predict`` calls on the next unused row, then one ``/feedback``
    for the last of them, until ``seconds`` have passed."""
    rows = itertools.count()
    predict_ms: List[float] = []
    feedback_ms: List[float] = []
    failures: List[str] = []
    outcomes: List[str] = []
    start = time.perf_counter()
    end = start + seconds

    def client(_: int) -> None:
        conn = _Client(server)
        try:
            while time.perf_counter() < end:
                request_id, label = None, 0
                for _ in range(predicts_per_feedback):
                    i = next(rows) % len(bodies)
                    t0 = time.perf_counter()
                    status, payload = conn.send("/predict", bodies[i])
                    predict_ms.append(1000.0 * (time.perf_counter() - t0))
                    if status != 200 or payload.get("labels") != expected[i]:
                        failures.append(f"predict {status} {payload}")
                    request_id = payload.get("request_id")
                    label = int(true_labels[i])
                body = json.dumps({"label": label,
                                   "request_id": request_id}).encode()
                t0 = time.perf_counter()
                status, payload = conn.send("/feedback", body)
                feedback_ms.append(1000.0 * (time.perf_counter() - t0))
                outcome = payload.get("status", str(status))
                outcomes.append(outcome)
                if status != 200 or outcome not in _FEEDBACK_OK:
                    failures.append(f"feedback {status} {payload}")
        finally:
            conn.conn.close()

    _run_threads(client)
    return {"elapsed_s": time.perf_counter() - start,
            "predict_ms": predict_ms, "feedback_ms": feedback_ms,
            "rows": len(predict_ms), "failures": failures,
            "feedback_outcomes": dict(collections.Counter(outcomes))}


def open_loop(server: ServerProcess, offsets: np.ndarray,
              bodies: List[bytes], expected: List[List[int]]) -> Dict:
    """Send request ``i`` at ``start + offsets[i]`` on whichever client
    connection is free; latency counts from the scheduled time.

    A request that comes due while both connections are busy waits for
    one to free up (``conn_wait_ms``): that wait is the program's and
    counts in its latency.  ``late_ms`` is only the generator's own
    delay, the time the send came after ``max(due, connection free)``.
    """
    order = itertools.count()
    latency_ms = [0.0] * len(bodies)
    late_ms = [0.0] * len(bodies)
    conn_wait_ms = [0.0] * len(bodies)
    failures: List[str] = []
    start = time.perf_counter() + 0.05
    done = [start]

    def client(_: int) -> None:
        conn = _Client(server)
        try:
            while True:
                i = next(order)
                if i >= len(bodies):
                    return
                free = time.perf_counter()
                due = start + offsets[i]
                if due > free:
                    time.sleep(due - free)
                sent = time.perf_counter()
                status, payload = conn.send("/predict", bodies[i])
                finished = time.perf_counter()
                latency_ms[i] = 1000.0 * (finished - due)
                late_ms[i] = 1000.0 * (sent - max(due, free))
                conn_wait_ms[i] = 1000.0 * max(0.0, free - due)
                done.append(finished)
                if status != 200 or payload.get("labels") != expected[i]:
                    failures.append(f"predict {status} {payload}")
        finally:
            conn.conn.close()

    _run_threads(client)
    return {"elapsed_s": max(done) - start, "latency_ms": latency_ms,
            "late_ms": late_ms, "conn_wait_ms": conn_wait_ms,
            "failures": failures,
            "rows": int(sum(len(e) for e in expected))}
