"""Pytest configuration for the benchmark harness.

Ensures the benchmarks directory itself is importable (for ``helpers``)
and keeps pytest-benchmark output compact.  Every benchmark run is
stamped with the machine/environment fingerprint (python, numpy, BLAS
backend, CPU count) and the repro seed — in each benchmark's
``extra_info`` and in pytest-benchmark's ``machine_info`` — so recorded
timings say where they were measured.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402

#: Seed pinning the repro's experiment configuration (override with the
#: REPRO_SEED environment variable to record a different stream).
REPRO_SEED = int(os.environ.get("REPRO_SEED", "0"))


def _fingerprint():
    from repro.telemetry.ledger import env_fingerprint
    info = dict(env_fingerprint())
    info["seed"] = REPRO_SEED
    return info


def pytest_benchmark_update_machine_info(config, machine_info):
    """Stamp pytest-benchmark's machine record with the env fingerprint."""
    try:
        machine_info["repro"] = _fingerprint()
    except Exception:  # fingerprinting must never fail the bench run
        pass


@pytest.fixture(autouse=True)
def _benchmark_extra_info(request):
    """Attach the env fingerprint + seed to every benchmark's extra_info."""
    if "benchmark" in request.fixturenames:
        try:
            benchmark = request.getfixturevalue("benchmark")
            benchmark.extra_info.update(_fingerprint())
        except Exception:
            pass
    yield

