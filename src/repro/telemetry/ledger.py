"""Provenance of a measurement: git state, environment and config digests.

``scripts/bench_gate.py`` stamps every BENCH file with :func:`git_info`
and :func:`env_fingerprint` (two BENCH files are gated against each
other only when their environments match), and ``bench/run.py`` names
its output after :func:`git_info`; model bundles carry a
:func:`config_fingerprint` of their training configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Dict, Optional

import numpy as np

from .exporters import encode_non_finite

__all__ = ["git_info", "env_fingerprint", "config_fingerprint"]


def git_info(cwd: Optional[str] = None) -> Dict[str, object]:
    """Best-effort ``{"sha", "short_sha", "branch", "dirty"}`` of ``cwd``.

    Degrades to ``sha="unknown"`` outside a git checkout (or without a
    git binary) instead of raising — recording a measurement must never
    fail on provenance capture.
    """
    def _git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ("git",) + args, cwd=cwd, capture_output=True, text=True,
                timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = _git("rev-parse", "HEAD")
    if sha is None:
        return {"sha": "unknown", "short_sha": "unknown", "branch": None,
                "dirty": None}
    status = _git("status", "--porcelain")
    return {
        "sha": sha,
        "short_sha": sha[:10],
        "branch": _git("rev-parse", "--abbrev-ref", "HEAD"),
        "dirty": bool(status) if status is not None else None,
    }


def _blas_info() -> str:
    """A short description of numpy's BLAS backend (best effort)."""
    try:
        cfg = np.show_config(mode="dicts")  # numpy >= 1.25
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "unknown")
        version = blas.get("version", "")
        return f"{name} {version}".strip()
    except Exception:  # show_config API varies across numpy versions
        return "unknown"


def env_fingerprint() -> Dict[str, object]:
    """Machine/environment identity for cross-commit comparability.

    Two benchmark records are only comparable when this fingerprint
    matches: interpreter, numpy + BLAS backend, CPU count, platform
    triple and machine architecture.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "cpu_count": os.cpu_count(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


def config_fingerprint(config: Dict[str, object]) -> str:
    """Stable 12-hex-char digest of a run configuration dict.

    Key order does not matter; non-finite floats are encoded via the
    exporters' codec so any JSON-serializable config hashes cleanly.
    """
    canonical = json.dumps(encode_non_finite(config), sort_keys=True,
                           separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
