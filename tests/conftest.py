"""Shared fixtures for the test suite (gradient and serving helpers)."""

import http.client
import json
import time

import numpy as np
import pytest

from repro.nn import serialize
from repro.nn.serialize import save_state
from repro.serve import BUNDLE_SECTION, BUNDLE_VERSION, ModelBundle
from repro.serve import bundle as bundle_module
from repro.serve.handler import JsonHandler
from repro.telemetry import config_fingerprint, encode_non_finite, git_info
from repro.utils.rng import fresh_rng


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar ``fn`` wrt array ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class FixedUpdate:
    """HD-trainer stand-in for ``ManifoldLearner.train_step``: ``step``
    leaves M alone and ``compute_update`` returns a given U, so a test
    can drive the FC step with any update and class matrix."""

    def __init__(self, update, class_matrix):
        self.update = np.atleast_2d(update)
        self.class_matrix = class_matrix

    def step(self, hypervectors, labels, **_):
        return True

    def compute_update(self, hypervectors, labels, **_):
        return self.update


def _synthetic_bundle(dim=512, features=32, classes=6, seed=0,
                      binary=True):
    """Structurally-valid in-memory bundle with random weights.

    Mirrors ``scripts/synthetic.synthetic_bundle`` on its own RNG
    stream: a bipolar random projection + bipolar class matrix
    exercises exactly the packed fast path's code shape.  With
    ``binary=False`` the class matrix is Gaussian, which forces the
    engine onto the float cosine path.
    """
    rng = fresh_rng((seed, "serve-test-bundle"))
    projection = np.where(rng.random((features, dim)) < 0.5, -1.0, 1.0)
    if binary:
        class_matrix = np.where(rng.random((classes, dim)) < 0.5, -1.0, 1.0)
    else:
        class_matrix = rng.standard_normal((classes, dim))
    config = {"synthetic": True, "dim": dim, "features": features,
              "classes": classes, "seed": seed, "binary": binary}
    arrays = {
        "scaler.mean": np.zeros(features),
        "scaler.std": np.ones(features),
        "encoder.projection": projection,
        "classes": class_matrix,
    }
    info = {
        "bundle_version": BUNDLE_VERSION,
        "pipeline": "SyntheticHD",
        "dim": dim, "num_classes": classes,
        "created_at": float(time.time()),
        "git": git_info(),
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "binarized": bool(binary), "quantize_bits": None,
        "encoder": {"type": "random_projection", "in_features": features,
                    "dim": dim, "quantize": True},
        "extractor": None, "manifold": None,
        "arrays": sorted(arrays),
    }
    return ModelBundle(arrays, info)


def save_version_1(bundle, path):
    """Write ``bundle`` in the version-1 layout, every array as it is
    held (``ModelBundle.save`` writes version 2, whose bit-packed
    members cannot hold a projection that is not ±1)."""
    info = dict(bundle.info, bundle_version=1)
    save_state(bundle.arrays, path,
               meta={"kind": "model-bundle", "bundle_version": 1},
               sections={BUNDLE_SECTION: encode_non_finite(info)})


@pytest.fixture
def bundle_reads(monkeypatch):
    """The path of every archive read through
    ``load_state_with_manifest`` from here on."""
    reads = []
    original = serialize.load_state_with_manifest

    def counting(path, *args, **kwargs):
        reads.append(path)
        return original(path, *args, **kwargs)

    for module in (serialize, bundle_module):
        monkeypatch.setattr(module, "load_state_with_manifest", counting)
    return reads


@pytest.fixture
def synthetic_bundle():
    """Factory fixture: ``synthetic_bundle(dim=..., ...)`` → ModelBundle."""
    return _synthetic_bundle


# ----------------------------------------------------------------------
# HTTP wire helpers (worker and router handler tests)
# ----------------------------------------------------------------------
class _RecordingWriter:
    """A handler's ``wfile`` that logs every write before passing it on."""

    def __init__(self, wfile, log):
        self._wfile = wfile
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


@pytest.fixture
def handler_writes(monkeypatch):
    """Every ``wfile.write`` of every request handler, in order."""
    log = []
    setup = JsonHandler.setup

    def recording_setup(self):
        setup(self)
        self.wfile = _RecordingWriter(self.wfile, log)

    monkeypatch.setattr(JsonHandler, "setup", recording_setup)
    return log


def whole_response_status(chunk):
    """Status of a write that holds one complete HTTP response.

    Fails unless the chunk is a status line, headers, and exactly the
    ``Content-Length`` bytes of body.
    """
    head, sep, body = chunk.partition(b"\r\n\r\n")
    assert sep, f"write without a header block: {chunk[:60]!r}"
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith("HTTP/1.1 "), lines[0]
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert int(headers["Content-Length"]) == len(body), headers
    return int(lines[0].split()[1])


def keepalive_predict_ms(address, body, count=20):
    """Client-side ms of ``count`` sequential /predict on one connection."""
    conn = http.client.HTTPConnection(*address, timeout=10)
    times = []
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            conn.request("POST", "/predict", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            times.append(1000.0 * (time.perf_counter() - t0))
    finally:
        conn.close()
    return times


def post_with_content_length(address, value):
    """POST /predict announcing ``Content-Length: value`` and no body.

    Returns ``(status, headers, body, closed)`` where ``closed`` is
    whether the server hung up after answering.
    """
    conn = http.client.HTTPConnection(*address, timeout=5)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Content-Length", value)
        conn.endheaders()
        response = conn.getresponse()
        body = response.read()
        return (response.status, dict(response.getheaders()), body,
                response.will_close)
    finally:
        conn.close()


def http_status(address, method, path, payload=None):
    """Status of one request on a fresh connection (4xx/5xx included)."""
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()
