"""Fleet supervisor: backoff, quarantine, hang detection, real workers."""

import os
import re
import signal
import socket
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.serve import FleetError, StaticFleet, Supervisor, free_port
from repro.serve.fleet import (BACKOFF, QUARANTINED, STARTING, STOPPED, UP,
                               ForkedProcess)

from .conftest import get, post, wait_for

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN_BUNDLE = os.path.join(FIXTURES, "golden_nshd_bundle_packed.npz")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


class FakeProcess:
    """Popen-shaped test double the spawn_fn hands the supervisor."""

    _pids = iter(range(1000, 100000))

    def __init__(self):
        self.pid = next(FakeProcess._pids)
        self.returncode = None
        self.killed = False
        self.signals = []

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode

    def kill(self):
        self.killed = True
        self.returncode = -9

    def send_signal(self, signum):
        self.signals.append(signum)
        self.returncode = 0

    def exit(self, code):
        self.returncode = code


class Harness:
    """Supervisor wired to fake processes/probes and a fake clock.

    Tests drive :meth:`Supervisor.tick` by hand — no monitor thread, no
    real sockets — so every state transition is deterministic.
    """

    def __init__(self, workers=2, **overrides):
        self.clock = FakeClock()
        self.procs = {}
        self.probes = {}

        def spawn(worker):
            proc = FakeProcess()
            self.procs[worker.worker_id] = proc
            return proc

        def probe(worker):
            return self.probes.get(worker.worker_id)

        options = dict(probe_interval_s=0.1, probe_timeout_s=0.5,
                       hang_probe_limit=3, startup_timeout_s=10.0,
                       backoff_base_s=1.0, backoff_max_s=8.0,
                       crash_loop_threshold=3, crash_loop_window_s=60.0)
        options.update(overrides)
        self.sup = Supervisor("bundle.npz", workers=workers,
                              spawn_fn=spawn, probe_fn=probe,
                              clock=self.clock, **options)
        # Spawn directly instead of start(): no monitor thread in unit
        # tests, ticks are driven explicitly.
        for worker in self.sup.workers:
            self.sup._spawn(worker)

    def worker(self, worker_id="w0"):
        return self.sup._worker(worker_id)

    def mark_ready(self, *worker_ids):
        for worker_id in worker_ids or [w.worker_id
                                        for w in self.sup.workers]:
            self.probes[worker_id] = {"status": "ok"}


class TestLifecycleStates:
    def test_spawn_then_ready(self):
        h = Harness()
        assert all(w.state == STARTING for w in h.sup.workers)
        assert h.sup.healthy_workers() == []
        h.mark_ready()
        h.sup.tick()
        assert all(w.state == UP for w in h.sup.workers)
        assert len(h.sup.healthy_workers()) == 2

    def test_shedding_status_counts_as_ready(self):
        h = Harness(workers=1)
        h.probes["w0"] = {"status": "shedding"}
        h.sup.tick()
        assert h.worker().state == UP

    def test_unready_status_does_not_join_rotation(self):
        h = Harness(workers=1)
        h.probes["w0"] = {"status": "draining"}
        h.sup.tick()
        assert h.worker().state == STARTING

    def test_describe_shape(self):
        h = Harness()
        h.mark_ready()
        h.sup.tick()
        facts = h.sup.describe()
        assert facts["size"] == 2 and facts["up"] == 2
        assert facts["restarts"] == 0 and facts["quarantined"] == 0
        assert {w["id"] for w in facts["workers"]} == {"w0", "w1"}

    def test_stop_terminates_and_marks_stopped(self):
        h = Harness()
        h.mark_ready()
        h.sup.tick()
        h.sup.stop(grace_s=0.1)
        assert all(w.state == STOPPED for w in h.sup.workers)
        assert all(p.signals or p.killed for p in h.procs.values())


class TestCrashRestart:
    def test_exit_schedules_backoff_then_respawn(self):
        h = Harness(workers=1)
        h.mark_ready()
        h.sup.tick()
        first_pid = h.procs["w0"].pid

        h.procs["w0"].exit(1)
        h.sup.tick()
        worker = h.worker()
        assert worker.state == BACKOFF
        assert worker.restarts == 1
        assert "exited with code 1" in worker.last_failure_reason
        assert worker.backoff_until == pytest.approx(1.0)

        h.sup.tick()  # still inside backoff: no respawn
        assert h.procs["w0"].pid == first_pid

        h.clock.advance(1.1)
        h.sup.tick()
        assert worker.state == STARTING
        assert h.procs["w0"].pid != first_pid

        h.sup.tick()  # probe is still marked ready
        assert worker.state == UP

    def test_backoff_doubles_and_caps(self):
        h = Harness(workers=1, backoff_base_s=1.0, backoff_max_s=4.0,
                    crash_loop_threshold=100)
        delays = []
        h.mark_ready()
        h.sup.tick()
        for _ in range(5):
            h.procs["w0"].exit(1)
            h.sup.tick()
            worker = h.worker()
            assert worker.state == BACKOFF
            delays.append(worker.backoff_until - h.clock())
            h.clock.advance(worker.backoff_until - h.clock() + 0.01)
            h.sup.tick()  # respawn
            h.sup.tick()  # ready again
            assert worker.state == UP
        assert delays == [pytest.approx(d) for d in
                          [1.0, 2.0, 4.0, 4.0, 4.0]]

    def test_crashed_worker_leaves_rotation_until_ready(self):
        h = Harness()
        h.mark_ready()
        h.sup.tick()
        h.procs["w0"].exit(1)
        h.sup.tick()
        assert [w for w, _ in h.sup.healthy_workers()] == ["w1"]

    def test_startup_timeout_counts_as_failure(self):
        h = Harness(workers=1, startup_timeout_s=5.0)
        h.sup.tick()  # no probe answer yet
        assert h.worker().state == STARTING
        h.clock.advance(5.1)
        h.sup.tick()
        assert h.worker().state == BACKOFF
        assert "startup timeout" in h.worker().last_failure_reason


class TestHangDetection:
    def test_probe_timeouts_kill_hung_worker(self):
        h = Harness(workers=1, hang_probe_limit=3)
        h.mark_ready()
        h.sup.tick()
        assert h.worker().state == UP

        del h.probes["w0"]  # worker stops answering, process stays alive
        h.sup.tick()
        h.sup.tick()
        assert h.worker().state == UP  # below the limit: benign blip
        h.sup.tick()
        worker = h.worker()
        assert worker.state == BACKOFF
        assert "hung (3 probes timed out)" in worker.last_failure_reason
        assert h.procs["w0"].killed

    def test_one_good_probe_resets_the_hang_count(self):
        h = Harness(workers=1, hang_probe_limit=3)
        h.mark_ready()
        h.sup.tick()
        for _ in range(5):
            del h.probes["w0"]
            h.sup.tick()
            h.sup.tick()
            h.mark_ready("w0")
            h.sup.tick()
        assert h.worker().state == UP
        assert h.worker().restarts == 0


class TestQuarantine:
    def crash_loop(self, h, times):
        for _ in range(times):
            if h.procs["w0"].poll() is None:
                h.procs["w0"].exit(1)
            h.sup.tick()
            worker = h.worker()
            if worker.state == QUARANTINED:
                return
            h.clock.advance(worker.backoff_until - h.clock() + 0.01)
            h.sup.tick()

    def test_crash_loop_quarantines(self):
        h = Harness(workers=2, crash_loop_threshold=3,
                    crash_loop_window_s=60.0)
        h.mark_ready()
        h.sup.tick()
        self.crash_loop(h, 3)
        worker = h.worker()
        assert worker.state == QUARANTINED
        assert worker.restarts == 3
        # The supervisor stops respawning it...
        h.clock.advance(100.0)
        h.sup.tick()
        assert worker.state == QUARANTINED
        # ...and the fleet degrades to the survivor.
        assert [w for w, _ in h.sup.healthy_workers()] == ["w1"]
        assert h.sup.describe()["quarantined"] == 1

    def test_slow_failures_outside_window_do_not_quarantine(self):
        h = Harness(workers=1, crash_loop_threshold=3,
                    crash_loop_window_s=10.0,
                    backoff_base_s=0.5, backoff_max_s=0.5)
        h.mark_ready()
        h.sup.tick()
        for _ in range(6):  # 6 crashes, but spread far apart
            h.procs["w0"].exit(1)
            h.sup.tick()
            assert h.worker().state == BACKOFF
            h.clock.advance(0.6)
            h.sup.tick()
            h.sup.tick()
            assert h.worker().state == UP
            h.clock.advance(30.0)  # leave the crash-loop window
        assert h.worker().restarts == 6

    def test_revive_clears_quarantine(self):
        h = Harness(workers=1, crash_loop_threshold=2)
        h.mark_ready()
        h.sup.tick()
        self.crash_loop(h, 2)
        assert h.worker().state == QUARANTINED
        h.sup.revive("w0")
        assert h.worker().state == STARTING
        h.sup.tick()
        assert h.worker().state == UP

    def test_revive_requires_quarantine(self):
        h = Harness()
        with pytest.raises(FleetError):
            h.sup.revive("w0")
        with pytest.raises(FleetError):
            h.sup.revive("nope")


class TestStartupProbes:
    def test_starting_worker_is_probed_within_the_interval(self):
        """A worker that answers its second probe is up well before a
        (long) probe interval has passed."""
        probes = []

        def probe(worker):
            probes.append(time.monotonic())
            return {"status": "ok"} if len(probes) > 1 else None

        supervisor = Supervisor("bundle.npz", workers=1,
                                spawn_fn=lambda worker: FakeProcess(),
                                probe_fn=probe, probe_interval_s=30.0)
        try:
            supervisor.start(wait_ready=True, timeout_s=5.0)
            assert supervisor.workers[0].state == UP
            assert probes[1] - probes[0] < 1.0
        finally:
            supervisor.stop(grace_s=0.0)


class TestWaitReady:
    def test_fails_fast_once_every_worker_is_quarantined(self):
        """Workers that refuse their config exit at start: once all are
        quarantined, nothing is left to wait for, so the wait ends well
        before ``startup_timeout_s`` and names each failure."""
        def spawn(worker):
            process = FakeProcess()
            process.exit(2)
            return process

        supervisor = Supervisor("bundle.npz", workers=2, spawn_fn=spawn,
                                probe_fn=lambda worker: None,
                                probe_interval_s=0.01,
                                startup_timeout_s=5.0,
                                backoff_base_s=0.01, backoff_max_s=0.01,
                                crash_loop_threshold=2)
        began = time.monotonic()
        try:
            with pytest.raises(FleetError) as refused:
                supervisor.start(wait_ready=True)
        finally:
            supervisor.stop(grace_s=0.0)
        assert time.monotonic() - began < 2.5
        message = str(refused.value)
        assert message.startswith("every worker is quarantined")
        for worker_id in ("w0", "w1"):
            assert (f"{worker_id} quarantined (last failure: exited with "
                    f"code 2)") in message


class TestChaosSurface:
    def test_kill_worker_needs_live_process(self):
        h = Harness(workers=1)
        h.procs["w0"].exit(0)
        with pytest.raises(FleetError):
            h.sup.kill_worker("w0")

    def test_kill_worker_returns_pid_and_next_tick_restarts(self):
        h = Harness(workers=1)
        h.mark_ready()
        h.sup.tick()
        pid = h.sup.kill_worker("w0")
        assert pid == h.procs["w0"].pid
        h.sup.tick()
        assert h.worker().state == BACKOFF
        assert h.worker().restarts == 1


class TestValidationAndHelpers:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            Supervisor("bundle.npz", workers=0)

    def test_free_port_is_bindable_int(self):
        port = free_port()
        assert isinstance(port, int) and 1024 <= port <= 65535

    def test_static_fleet_membership_and_toggle(self):
        fleet = StaticFleet([("127.0.0.1", 9001), ("127.0.0.1", 9002)])
        assert [w for w, _ in fleet.all_workers()] == ["w0", "w1"]
        assert len(fleet.healthy_workers()) == 2
        fleet.set_healthy("w0", False)
        assert [w for w, _ in fleet.healthy_workers()] == ["w1"]
        assert fleet.describe()["up"] == 1
        with pytest.raises(FleetError):
            fleet.set_healthy("nope", True)
        fleet.stop()  # no-op


class TestRealSubprocessFleet:
    """One end-to-end check with real ``python -m repro.serve`` workers."""

    def test_boot_kill_recover(self, synthetic_bundle, tmp_path):
        bundle_path = str(tmp_path / "bundle.npz")
        synthetic_bundle(seed=41).save(bundle_path)
        supervisor = Supervisor(bundle_path, workers=2,
                                probe_interval_s=0.1, probe_timeout_s=1.0,
                                backoff_base_s=0.2, backoff_max_s=1.0,
                                startup_timeout_s=60.0)
        try:
            supervisor.start(wait_ready=True, timeout_s=60.0)
            assert len(supervisor.healthy_workers()) == 2

            # Workers answer /healthz with the bundle identity.
            worker = supervisor.workers[0]
            health = get(worker.url + "/healthz")
            assert health["status"] == "ok"
            assert health["bundle"]["path"] == bundle_path

            # SIGKILL one; the monitor must respawn it into rotation.
            # Health is eventually consistent (the monitor notices the
            # exit on its next tick), so poll for restart + recovery.
            supervisor.kill_worker("w0")
            wait_for(lambda: supervisor._worker("w0").restarts >= 1
                     and len(supervisor.healthy_workers()) == 2,
                     timeout_s=30.0)
            assert supervisor._worker("w0").restarts >= 1
            assert len(supervisor.healthy_workers()) == 2
        finally:
            supervisor.stop()
        assert all(w.state == STOPPED for w in supervisor.workers)


class TestForkedProcess:
    """The Popen-shaped handle on a forked first-generation worker."""

    @staticmethod
    def child(code):
        return ForkedProcess(os.posix_spawn(
            sys.executable, [sys.executable, "-c", code], os.environ))

    def test_exit_code_is_reaped_once(self):
        process = self.child("import sys; sys.exit(3)")
        assert process.wait(timeout=30.0) == 3
        assert process.poll() == 3
        process.kill()  # reaped: no signal goes to a reused pid

    def test_signal_exit_reads_like_popen(self):
        process = self.child("import time; time.sleep(60)")
        assert process.poll() is None
        with pytest.raises(subprocess.TimeoutExpired):
            process.wait(timeout=0.05)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30.0) == -signal.SIGTERM
        process = self.child("import time; time.sleep(60)")
        process.kill()
        assert process.wait(timeout=30.0) == -signal.SIGKILL


#: Runs ``python -m repro.serve`` on sys.argv[2:] with ``os.fork``
#: wrapped: for each fork the parent appends ``<threads> <child pid>``,
#: the thread count at the fork, to the file named by sys.argv[1].
FORK_RECORDER = textwrap.dedent("""\
    import os, runpy, sys, threading
    log, real_fork = sys.argv.pop(1), os.fork

    def fork():
        threads = threading.active_count()
        pid = real_fork()
        if pid:
            with open(log, "a") as handle:
                handle.write(f"{threads} {pid}\\n")
        return pid

    os.fork = fork
    sys.argv = ["repro.serve", *sys.argv[1:]]
    runpy.run_module("repro.serve", run_name="__main__")
    """)


def serve_cli(*args, recorder=None):
    """Start ``python -m repro.serve ARGS``, through the fork recorder
    when ``recorder`` names its log file."""
    cmd = ([sys.executable, "-c", FORK_RECORDER, recorder] if recorder
           else [sys.executable, "-m", "repro.serve"])
    return subprocess.Popen([*cmd, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC))


def forks(log):
    """``[(threads, pid)]`` per fork the recorder saw."""
    with open(log) as handle:
        return [tuple(map(int, line.split())) for line in handle]


def cmdline(pid):
    with open(f"/proc/{pid}/cmdline", "rb") as handle:
        return handle.read().split(b"\0")


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def surface(url, row):
    """What a worker shows after one /predict: its /healthz key paths
    and its /metrics sample names."""
    post(url + "/predict", {"features": [row]})

    def paths(value, prefix=""):
        if not isinstance(value, dict):
            return {prefix}
        return {path for key, item in value.items()
                for path in paths(item, f"{prefix}/{key}")}

    names = {re.split(r"[{ ]", line)[0] for line in
             get(url + "/metrics", text=True).splitlines()
             if line and not line.startswith("#")}
    return paths(get(url + "/healthz")), names


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the CLI forks its first workers on Linux only")
class TestForkedFirstGeneration:
    """``python -m repro.serve BUNDLE --fleet 2`` forks its first two
    workers.  The tests share one fleet; the last one stops it."""

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        log = str(tmp_path_factory.mktemp("forks") / "forks.log")
        port = free_port()
        router = serve_cli(GOLDEN_BUNDLE, "--port", str(port), "--fleet",
                           "2", recorder=log)
        url = f"http://127.0.0.1:{port}"
        try:
            wait_for(lambda: get(url + "/healthz")["fleet"]["up"] == 2,
                     timeout_s=60.0, errors=OSError)
            yield {"router": router, "url": url, "log": log}
        finally:
            if router.poll() is None:
                router.terminate()
                router.communicate(timeout=30.0)

    @staticmethod
    def workers(fleet):
        return {worker["id"]: worker for worker in
                get(fleet["url"] + "/healthz")["fleet"]["workers"]}

    def test_each_fork_happens_while_one_thread_runs(self, fleet):
        recorded = forks(fleet["log"])
        assert [threads for threads, _ in recorded] == [1, 1]
        pids = [worker["pid"] for worker in self.workers(fleet).values()]
        assert sorted(pids) == sorted(pid for _, pid in recorded)
        # A forked worker still runs the router's command line.
        router = cmdline(fleet["router"].pid)
        assert all(cmdline(pid) == router for pid in pids)

    def test_forked_worker_shows_what_an_exec_worker_shows(self, fleet):
        row = [0.25] * 1024
        port = free_port()
        plain = serve_cli(GOLDEN_BUNDLE, "--port", str(port))
        try:
            url = f"http://127.0.0.1:{port}"
            wait_for(lambda: get(url + "/healthz")["status"] == "ok",
                     timeout_s=60.0, errors=OSError)
            expected = surface(url, row)
        finally:
            plain.terminate()
            plain.communicate(timeout=30.0)
        for worker in self.workers(fleet).values():
            assert surface(worker["url"], row) == expected

    def test_killed_worker_restarts_by_exec_and_labels_stay_exact(
            self, fleet):
        victim = self.workers(fleet)["w0"]
        os.kill(victim["pid"], signal.SIGKILL)

        def restarted():
            worker = self.workers(fleet)["w0"]
            return (worker if worker["restarts"] == 1
                    and worker["state"] == "up" else None)

        back = wait_for(restarted, timeout_s=60.0, errors=OSError)
        assert back["last_failure"] == "exited with code -9"
        assert back["pid"] != victim["pid"]
        port = victim["url"].rsplit(":", 1)[1].encode()
        assert cmdline(back["pid"])[1:5] == [b"-m", b"repro.serve",
                                             GOLDEN_BUNDLE.encode(),
                                             b"--host"]
        assert port in cmdline(back["pid"])
        with np.load(os.path.join(FIXTURES, "golden_inputs.npz")) as golden:
            raw = golden["nshd.raw_features"]
            reference = golden["nshd.packed_labels"].tolist()
        labels = []
        for start in range(0, len(raw), 8):
            labels += post(fleet["url"] + "/predict", {
                "features": raw[start:start + 8].tolist()})["labels"]
        assert labels == reference

    def test_drain_leaves_only_the_routers_serving_line(self, fleet):
        pids = [worker["pid"] for worker in self.workers(fleet).values()]
        fleet["router"].terminate()
        out, _ = fleet["router"].communicate(timeout=60.0)
        assert fleet["router"].returncode == 0
        [line] = out.splitlines()
        assert line.startswith("serving ")
        assert "through a 2-worker fleet" in line
        assert not [pid for pid in pids if alive(pid)]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the CLI forks its first workers on Linux only")
def test_failed_start_leaves_no_forked_worker(tmp_path):
    """A router that cannot bind stops the workers it forked."""
    log = str(tmp_path / "forks.log")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        router = serve_cli(GOLDEN_BUNDLE, "--port", str(port), "--fleet",
                           "2", recorder=log)
        _, err = router.communicate(timeout=60.0)
    assert router.returncode == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    recorded = forks(log)
    assert len(recorded) == 2
    assert not [pid for _, pid in recorded if alive(pid)]
