"""Provenance helpers: git state, environment and config fingerprints."""

import math
import os

from repro.telemetry import config_fingerprint, env_fingerprint, git_info


class TestFingerprints:
    def test_env_fingerprint_keys(self):
        info = env_fingerprint()
        for key in ("python", "numpy", "blas", "cpu_count", "platform",
                    "machine"):
            assert key in info, key

    def test_config_fingerprint_order_independent(self):
        assert (config_fingerprint({"a": 1, "b": [2, 3]})
                == config_fingerprint({"b": [2, 3], "a": 1}))

    def test_config_fingerprint_differs_on_value(self):
        assert (config_fingerprint({"dim": 400})
                != config_fingerprint({"dim": 3000}))

    def test_config_fingerprint_handles_non_finite(self):
        fp = config_fingerprint({"alpha": math.nan})
        assert isinstance(fp, str) and len(fp) == 12

    def test_git_info_in_repo(self):
        info = git_info(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        assert set(info) == {"sha", "short_sha", "branch", "dirty"}

    def test_git_info_degrades_outside_repo(self, tmp_path):
        info = git_info(str(tmp_path))
        assert info["sha"] == "unknown"
