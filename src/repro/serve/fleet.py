"""Fleet supervision: spawn, probe, restart, quarantine worker processes.

A single :class:`~repro.serve.server.ModelServer` dies with its host
process; the paper's cheap-to-serve-anywhere claim needs a story for
crashes, hangs, and poisoned reloads.  :class:`Supervisor` provides it:

* **Spawn** — N worker processes, each a ``python -m repro.serve``
  instance serving the *same* bundle on its own port (so responses are
  interchangeable across the fleet and a router can hash over them).
  A worker is configured by its command line alone (``worker_args``);
  the supervisor adds nothing to its environment but ``PYTHONPATH``.
  The CLI may hand :meth:`Supervisor.start` a first generation it
  forked itself (:class:`ForkedProcess` handles); every restart is
  spawned as a new interpreter.
* **Probe** — per-worker heartbeats: process liveness (the handle's
  ``poll``) plus an HTTP ``/healthz`` probe with a timeout.  A
  worker whose process is alive but whose probe times out
  ``hang_probe_limit`` times in a row is *hung* — it is SIGKILLed and
  treated like a crash (this is what the chaos harness's ``/slow``
  stall exercises).
* **Restart** — crashed/hung workers respawn after exponential backoff
  (``backoff_base_s · 2^(recent failures − 1)``, capped at
  ``backoff_max_s``).
* **Quarantine** — ``crash_loop_threshold`` failures inside
  ``crash_loop_window_s`` mark the worker quarantined: the supervisor
  stops restarting it and the fleet degrades to the surviving workers
  instead of flapping.  ``revive()`` is the operator override.
* **Stop** — graceful: SIGTERM every worker (each drains its
  micro-batcher, see :meth:`ModelServer.drain`), wait ``grace_s``,
  SIGKILL stragglers.

Per-worker state, restarts and quarantine are served by
:meth:`Supervisor.describe`, the ``fleet`` block of the router's
``/healthz``.

``spawn_fn`` / ``probe_fn`` / ``clock`` are injectable, and
:meth:`Supervisor.tick` runs one monitor pass synchronously, so the
backoff/quarantine state machine is unit-testable with fake processes
and a fake clock.  :class:`StaticFleet` is the inert stand-in used to
test the router against in-process servers.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry import clock as _default_clock

__all__ = ["Supervisor", "StaticFleet", "Worker", "FleetError",
           "ForkedProcess", "free_port"]

#: Worker lifecycle states.
STARTING = "starting"
UP = "up"
BACKOFF = "backoff"
QUARANTINED = "quarantined"
STOPPED = "stopped"

#: /healthz statuses that count as "ready to take traffic".
_READY_STATUSES = ("ok", "shedding")
#: Probe cadence while a worker is starting, when shorter than
#: ``probe_interval_s``: a worker is up within this long of answering
#: its first ``/healthz``, not within a whole probe interval.
_STARTING_PROBE_S = 0.05


class FleetError(RuntimeError):
    """The fleet could not reach the requested state."""


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (bind-probe; tiny race accepted —
    the worker's own bind fails loudly if it loses it)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class ForkedProcess:
    """Popen-shaped handle on a worker this process forked.

    ``poll`` and ``wait`` reap the child with ``os.waitpid`` and report
    its exit as :class:`subprocess.Popen` does (``-N`` for signal N).
    ``send_signal`` and ``kill`` are ``os.kill`` under the same lock, and
    do nothing once the child is reaped, so a reused pid is never hit.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.returncode: Optional[int] = None
        self._lock = threading.Lock()

    def _reap(self) -> Optional[int]:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def poll(self) -> Optional[int]:
        with self._lock:
            return self._reap()

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"pid {self.pid}", timeout)
            time.sleep(delay)
            delay = min(2 * delay, 0.05)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        with self._lock:
            if self._reap() is None:
                os.kill(self.pid, signum)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class Worker:
    """One supervised worker slot (identity survives restarts)."""

    def __init__(self, worker_id: str, host: str, port: int):
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.process: Optional[Any] = None  # Popen-shaped
        self.state = STOPPED
        self.restarts = 0
        self.consecutive_probe_failures = 0
        self.failure_times: List[float] = []
        self.backoff_until = 0.0
        self.started_at = 0.0
        self.last_probe: Optional[Dict[str, Any]] = None
        self.last_failure_reason: Optional[str] = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.worker_id,
            "url": self.url,
            "state": self.state,
            "restarts": self.restarts,
            "pid": getattr(self.process, "pid", None),
            "consecutive_probe_failures": self.consecutive_probe_failures,
            "last_failure": self.last_failure_reason,
        }

    def __repr__(self) -> str:
        return (f"Worker({self.worker_id}, {self.url}, "
                f"state={self.state}, restarts={self.restarts})")


class Supervisor:
    """Spawn and babysit N model-server worker processes.

    Parameters
    ----------
    bundle_path:
        The bundle every worker serves.
    workers:
        Fleet size.
    host:
        Bind host for the workers; each gets a free port.
    probe_interval_s / probe_timeout_s:
        Heartbeat cadence and per-probe timeout.  While a worker is
        starting, the fleet is probed every 50 ms when the interval is
        longer.  The timeout is the hang detector: a wedged worker
        cannot answer ``/healthz``.
    hang_probe_limit:
        Consecutive failed probes (process still alive) before the
        worker is declared hung and SIGKILLed.
    startup_timeout_s:
        How long a freshly spawned worker may stay unready before the
        spawn itself counts as a failure.
    backoff_base_s / backoff_max_s:
        Exponential restart backoff bounds.
    crash_loop_threshold / crash_loop_window_s:
        K failures in W seconds quarantines the worker.
    worker_args:
        Extra ``python -m repro.serve`` flags for each worker, the one
        channel that configures it: ``--config`` and ``--cache-size``
        tuning, ``--chaos`` to arm ``POST /slow``, ``--trace-dir DIR``
        to export each worker's spans as ``trace-<service>-<pid>.jsonl``
        for the cross-process stitcher.  A worker's stdout and stderr
        go to devnull.
    spawn_fn / probe_fn / clock:
        Injection points for unit tests — ``spawn_fn(worker)`` returns
        a Popen-shaped object, ``probe_fn(worker)`` returns the parsed
        ``/healthz`` payload or ``None``.

    The default ``spawn_fn`` starts a new interpreter, which is safe
    from any process.  ``python -m repro.serve --fleet N`` forks its
    first generation instead, before any thread or socket exists, and
    passes the handles to :meth:`start`.  Restarts come while the
    router runs threads, so they are spawned, as is every worker of a
    supervisor built in-process.
    """

    def __init__(self, bundle_path: str, workers: int = 4,
                 host: str = "127.0.0.1",
                 probe_interval_s: float = 0.25,
                 probe_timeout_s: float = 1.0,
                 hang_probe_limit: int = 3,
                 startup_timeout_s: float = 30.0,
                 backoff_base_s: float = 0.25,
                 backoff_max_s: float = 8.0,
                 crash_loop_threshold: int = 5,
                 crash_loop_window_s: float = 30.0,
                 worker_args: Sequence[str] = (),
                 spawn_fn: Optional[Callable[["Worker"], Any]] = None,
                 probe_fn: Optional[
                     Callable[["Worker"],
                              Optional[Dict[str, Any]]]] = None,
                 clock: Optional[Callable[[], float]] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.bundle_path = bundle_path
        self.host = host
        self.probe_interval_s = float(probe_interval_s)
        self.probe_timeout_s = float(probe_timeout_s)
        self.hang_probe_limit = int(hang_probe_limit)
        self.startup_timeout_s = float(startup_timeout_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.crash_loop_threshold = int(crash_loop_threshold)
        self.crash_loop_window_s = float(crash_loop_window_s)
        self.worker_args = list(worker_args)
        self._spawn_fn = spawn_fn or self._default_spawn
        self._probe_fn = probe_fn or self._default_probe
        self._clock = clock if clock is not None else _default_clock
        self.workers: List[Worker] = [
            Worker(f"w{i}", host, free_port(host)) for i in range(workers)]
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Spawning and probing (default implementations)
    # ------------------------------------------------------------------
    def _default_spawn(self, worker: Worker):
        import repro
        cmd = [sys.executable, "-m", "repro.serve", self.bundle_path,
               "--host", worker.host, "--port", str(worker.port),
               *self.worker_args]
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.STDOUT)

    def _default_probe(self, worker: Worker) -> Optional[Dict[str, Any]]:
        try:
            with urllib.request.urlopen(
                    worker.url + "/healthz",
                    timeout=self.probe_timeout_s) as response:
                return json.loads(response.read())
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, wait_ready: bool = True,
              timeout_s: Optional[float] = None,
              first: Sequence[Any] = ()) -> "Supervisor":
        """Spawn the fleet and begin monitoring; optionally block until
        every worker answered its first probe.

        ``first`` holds Popen-shaped handles on processes already
        started for the first ``len(first)`` worker slots (the CLI
        forks them); those slots are not spawned.  Restarts always go
        through ``spawn_fn``.
        """
        with self._lock:
            for i, worker in enumerate(self.workers):
                if worker.state == STOPPED:
                    self._spawn(worker, first[i] if i < len(first)
                                else None)
        self._stop_event.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-supervisor",
            daemon=True)
        self._monitor.start()
        if wait_ready:
            self.wait_ready(timeout_s)
        return self

    def wait_ready(self, timeout_s: Optional[float] = None) -> None:
        """Block until every worker that is not quarantined is up.

        Raises :class:`FleetError` on timeout, or as soon as every
        worker is quarantined (a config every worker refuses crash-loops
        them all), naming each worker's last failure.
        """
        timeout_s = (self.startup_timeout_s if timeout_s is None
                     else timeout_s)
        deadline = self._clock() + timeout_s
        while True:
            with self._lock:
                up = sum(w.state == UP for w in self.workers)
                alive = sum(w.state != QUARANTINED for w in self.workers)
            if not alive:
                raise FleetError(
                    f"every worker is quarantined: {self._failures()}")
            if up >= alive:
                return
            if self._clock() >= deadline:
                raise FleetError(f"fleet not ready after {timeout_s:.1f}s: "
                                 f"{self._failures()}")
            self._stop_event.wait(0.05)

    def _failures(self) -> str:
        with self._lock:
            return "; ".join(f"{w.worker_id} {w.state} (last failure: "
                             f"{w.last_failure_reason or 'none'})"
                             for w in self.workers)

    def _spawn(self, worker: Worker, process: Any = None) -> None:
        worker.process = (process if process is not None
                          else self._spawn_fn(worker))
        worker.state = STARTING
        worker.started_at = self._clock()
        worker.consecutive_probe_failures = 0

    def _monitor_loop(self) -> None:
        while not self._stop_event.is_set():
            self.tick()
            with self._lock:
                starting = any(w.state == STARTING for w in self.workers)
            self._stop_event.wait(
                min(self.probe_interval_s, _STARTING_PROBE_S) if starting
                else self.probe_interval_s)

    # ------------------------------------------------------------------
    # One monitor pass (public for deterministic unit tests)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        # The health probe is a network call with a timeout: it must
        # NOT run under the fleet lock, or a hung worker would stall
        # every ``healthy_workers()`` read (and therefore the router)
        # for probe_timeout_s per tick.  State mutations take the lock;
        # the router tolerates the resulting staleness by retrying.
        for worker in list(self.workers):
            self._tick_worker(worker)

    def _tick_worker(self, worker: Worker) -> None:
        now = self._clock()
        if worker.state in (QUARANTINED, STOPPED):
            return
        if worker.state == BACKOFF:
            if now >= worker.backoff_until:
                with self._lock:
                    if worker.state == BACKOFF:
                        self._spawn(worker)
            return
        process = worker.process
        if process is not None and process.poll() is not None:
            with self._lock:
                self._on_failure(worker,
                                 f"exited with code {process.poll()}")
            return
        payload = self._probe_fn(worker)
        ready = bool(payload) and payload.get("status") in _READY_STATUSES
        if ready:
            worker.consecutive_probe_failures = 0
            worker.last_probe = payload
            if worker.state == STARTING:
                with self._lock:
                    if worker.state == STARTING:
                        worker.state = UP
            return
        worker.consecutive_probe_failures += 1
        if worker.state == STARTING:
            if now - worker.started_at >= self.startup_timeout_s:
                self._kill(worker)
                with self._lock:
                    self._on_failure(worker, "startup timeout")
            return
        if worker.consecutive_probe_failures >= self.hang_probe_limit:
            # Alive but unresponsive: hung.  Kill hard and restart.
            self._kill(worker)
            with self._lock:
                self._on_failure(
                    worker,
                    f"hung ({worker.consecutive_probe_failures} probes "
                    f"timed out)")

    def _kill(self, worker: Worker) -> None:
        process = worker.process
        if process is not None and process.poll() is None:
            try:
                process.kill()
                process.wait(timeout=5.0)
            except Exception:
                pass

    def _on_failure(self, worker: Worker, reason: str) -> None:
        now = self._clock()
        worker.last_failure_reason = reason
        worker.restarts += 1
        worker.process = None
        worker.failure_times = [
            t for t in worker.failure_times
            if now - t <= self.crash_loop_window_s] + [now]
        if len(worker.failure_times) >= self.crash_loop_threshold:
            worker.state = QUARANTINED
            return
        recent = len(worker.failure_times)
        backoff = min(self.backoff_max_s,
                      self.backoff_base_s * (2.0 ** (recent - 1)))
        worker.backoff_until = now + backoff
        worker.state = BACKOFF

    def revive(self, worker_id: str) -> None:
        """Operator override: clear quarantine and respawn."""
        with self._lock:
            worker = self._worker(worker_id)
            if worker.state != QUARANTINED:
                raise FleetError(
                    f"{worker_id} is {worker.state}, not quarantined")
            worker.failure_times = []
            self._spawn(worker)

    def stop(self, grace_s: float = 5.0) -> None:
        """Graceful fleet stop: SIGTERM (workers drain), then SIGKILL."""
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            live = [w for w in self.workers
                    if w.process is not None and w.process.poll() is None]
            for worker in live:
                try:
                    worker.process.send_signal(signal.SIGTERM)
                except Exception:
                    pass
            deadline = self._clock() + grace_s
            for worker in live:
                remaining = max(0.0, deadline - self._clock())
                try:
                    worker.process.wait(timeout=remaining)
                except Exception:
                    self._kill(worker)
            for worker in self.workers:
                worker.state = STOPPED
                worker.process = None

    # ------------------------------------------------------------------
    # Chaos / introspection surface
    # ------------------------------------------------------------------
    def _worker(self, worker_id: str) -> Worker:
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        raise FleetError(f"no worker {worker_id!r}")

    def kill_worker(self, worker_id: str) -> int:
        """SIGKILL one worker (chaos harness); returns the dead pid.

        The monitor's next tick sees the exit and schedules the
        restart — exactly the code path a real crash takes.
        """
        with self._lock:
            worker = self._worker(worker_id)
            process = worker.process
            if process is None or process.poll() is not None:
                raise FleetError(f"{worker_id} has no live process")
            pid = process.pid
        process.kill()
        process.wait(timeout=5.0)
        return pid

    def all_workers(self) -> List[Tuple[str, Tuple[str, int]]]:
        """Stable ``(worker_id, (host, port))`` membership (the hash
        ring is built over this, so key → worker stays stable while
        health flips)."""
        with self._lock:
            return [(w.worker_id, w.address) for w in self.workers]

    def healthy_workers(self) -> List[Tuple[str, Tuple[str, int]]]:
        """Workers currently in rotation (state ``up``)."""
        with self._lock:
            return [(w.worker_id, w.address) for w in self.workers
                    if w.state == UP]

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            states = [w.describe() for w in self.workers]
        up = sum(1 for s in states if s["state"] == UP)
        return {
            "bundle_path": self.bundle_path,
            "size": len(states),
            "up": up,
            "quarantined": sum(1 for s in states
                               if s["state"] == QUARANTINED),
            "restarts": sum(s["restarts"] for s in states),
            "workers": states,
        }

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        with self._lock:
            states = {w.worker_id: w.state for w in self.workers}
        return f"Supervisor({self.bundle_path!r}, workers={states})"


class StaticFleet:
    """Inert fleet over pre-existing servers (router tests / embedding).

    Wraps a list of ``(host, port)`` addresses with a manual health
    toggle — the router only needs ``all_workers`` / ``healthy_workers``
    / ``describe``, so in-process :class:`ModelServer` instances can
    stand in for supervised processes.
    """

    def __init__(self, addresses: Sequence[Tuple[str, int]]):
        self._workers = [(f"w{i}", (host, int(port)))
                         for i, (host, port) in enumerate(addresses)]
        self._healthy = {worker_id: True for worker_id, _ in self._workers}

    def all_workers(self) -> List[Tuple[str, Tuple[str, int]]]:
        return list(self._workers)

    def healthy_workers(self) -> List[Tuple[str, Tuple[str, int]]]:
        return [(worker_id, addr) for worker_id, addr in self._workers
                if self._healthy[worker_id]]

    def set_healthy(self, worker_id: str, healthy: bool) -> None:
        if worker_id not in self._healthy:
            raise FleetError(f"no worker {worker_id!r}")
        self._healthy[worker_id] = bool(healthy)

    def describe(self) -> Dict[str, Any]:
        return {
            "size": len(self._workers),
            "up": sum(self._healthy.values()),
            "quarantined": 0,
            "restarts": 0,
            "workers": [{"id": worker_id,
                         "url": f"http://{host}:{port}",
                         "state": UP if self._healthy[worker_id]
                         else STOPPED,
                         "restarts": 0}
                        for worker_id, (host, port) in self._workers],
        }

    def stop(self, grace_s: float = 0.0) -> None:
        """No-op (the embedded servers own their lifecycle)."""
