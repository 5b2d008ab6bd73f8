"""The listener lifecycle the model server and the fleet router share
(:class:`repro.serve.handler.FrontEnd`): one test per property, run
against both front ends."""

import socket
import time

import pytest

from repro.serve import InferenceEngine, ModelServer, Router, StaticFleet
from repro.telemetry import get_registry

from .conftest import _synthetic_bundle


def _server(port=0):
    return ModelServer(InferenceEngine(_synthetic_bundle(seed=81)),
                       port=port)


def _router(port=0):
    return Router(StaticFleet([]), port=port)


front_ends = pytest.mark.parametrize("make", [_server, _router],
                                     ids=["server", "router"])


def _accepts(address):
    try:
        socket.create_connection(address, timeout=1).close()
    except OSError:
        return False
    return True


def _counter(name):
    entry = get_registry().snapshot().get(name) or {}
    return float(entry.get("value", 0.0))


@front_ends
def test_stop_without_start_returns(make):
    front = make()
    address = front.address
    front.stop()
    assert not _accepts(address)


@front_ends
def test_second_start_raises(make):
    front = make().start()
    try:
        with pytest.raises(RuntimeError, match="already started"):
            front.start()
    finally:
        front.stop()


@front_ends
def test_context_manager_releases_the_port(make):
    with make() as front:
        address = front.address
        assert _accepts(address)
    assert not _accepts(address)
    make(port=address[1]).stop()  # the port binds again


@pytest.mark.parametrize("make, metric", [(_server, "serve.drain"),
                                          (_router, "fleet.router.drain")],
                         ids=["server", "router"])
def test_drain_returns_at_once_is_idempotent_and_closes(make, metric):
    front = make().start()
    address = front.address
    before = _counter(metric)
    t0 = time.monotonic()
    front.drain()
    front.drain()
    assert time.monotonic() - t0 < 0.5
    assert front.draining
    assert _counter(metric) == before + 1
    deadline = time.monotonic() + 10.0
    while _accepts(address) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _accepts(address)
    front.stop()  # safe after a drain


@front_ends
def test_alertz_without_rules(make):
    front = make()
    try:
        assert front.alertz() == {"enabled": False, "rules": [],
                                  "firing": []}
    finally:
        front.stop()
