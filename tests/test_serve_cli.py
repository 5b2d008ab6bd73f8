"""CLI entry point: ``python -m repro.serve`` config/flag resolution."""

import argparse
import json

import pytest

from repro.serve.__main__ import build_server, load_config, main

from .conftest import _synthetic_bundle


@pytest.fixture
def bundle_path(tmp_path):
    path = str(tmp_path / "bundle.npz")
    _synthetic_bundle(seed=5, binary=True).save(path)
    return path


class TestLoadConfig:
    def test_sectioned_layout(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text(
            '[server]\nhost = "0.0.0.0"\nport = 9000\n'
            "[batcher]\nmax_batch_size = 64\nworkers = 3\n"
            "[engine]\ncache_size = 128\n")
        config = load_config(str(path))
        assert config == {"host": "0.0.0.0", "port": 9000,
                          "max_batch_size": 64, "workers": 3,
                          "cache_size": 128}

    def test_flat_layout(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text("port = 8123\nmax_latency_ms = 2.5\n")
        assert load_config(str(path)) == {"port": 8123,
                                          "max_latency_ms": 2.5}

    def test_unknown_section_raises(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text("[cluster]\nsize = 3\n")
        with pytest.raises(ValueError,
                           match=r"unknown config section \[cluster\]"):
            load_config(str(path))

    def test_legacy_compile_section_rejected(self, tmp_path):
        # The [compile] section older configs carried, verbatim.
        path = tmp_path / "serve.toml"
        path.write_text('[compile]\npasses = "all"\n'
                        '[compile.executors]\nencode = "threaded"\n')
        with pytest.raises(ValueError,
                           match=r"unknown config section \[compile\]"):
            load_config(str(path))

    def test_compile_keys_rejected(self, tmp_path):
        # Neither any key under [compile] nor the flat keys it used to
        # produce is accepted.
        path = tmp_path / "serve.toml"
        for key in ("jit", "stage_cache"):
            path.write_text(f"[compile]\n{key} = 1\n")
            with pytest.raises(ValueError, match=r"section \[compile\]"):
                load_config(str(path))
        for key in ("compile_passes", "compile_executors"):
            path.write_text(f'{key} = "all"\n')
            with pytest.raises(ValueError, match=key):
                load_config(str(path))

    def test_unknown_key_raises(self, tmp_path):
        path = tmp_path / "serve.toml"
        for section, key in (("server", "portt"), ("engine", "use_packed")):
            path.write_text(f"[{section}]\n{key} = 1\n")
            with pytest.raises(ValueError, match=key):
                load_config(str(path))

    def test_unknown_flat_key_raises(self, tmp_path):
        path = tmp_path / "serve.toml"
        for key in ("prot", "use_packed", "stage_cache"):
            path.write_text(f"{key} = 1\n")
            with pytest.raises(ValueError, match=key):
                load_config(str(path))


def _args(bundle, **overrides):
    defaults = dict(bundle=bundle, config=None, host=None, port=0,
                    max_batch_size=None, max_latency_ms=None, workers=None,
                    high_watermark=None, timeout_s=None, cache_size=None,
                    no_packed=False, no_extractor=False, dry_run=False)
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class TestBuildServer:
    def test_defaults(self, bundle_path):
        server = build_server(_args(bundle_path))
        try:
            assert server.bundle_path == bundle_path
            assert server.engine.use_packed  # auto-selected
            assert server.engine.cache_info()["max_entries"] == 256
        finally:
            server.stop()

    def test_flags_override_config(self, bundle_path, tmp_path):
        config = tmp_path / "serve.toml"
        config.write_text("[engine]\ncache_size = 64\n"
                          "[batcher]\nworkers = 4\n")
        server = build_server(_args(bundle_path, config=str(config),
                                    cache_size=8))
        try:
            # flag wins over file; file fills the rest
            assert server.engine.cache_info()["max_entries"] == 8
            assert len(server.batcher._workers) == 4
        finally:
            server.stop()

    def test_no_packed_flag(self, bundle_path):
        server = build_server(_args(bundle_path, no_packed=True))
        try:
            assert server.engine.use_packed is False
        finally:
            server.stop()

    def test_engine_options_propagate_to_reload(self, bundle_path):
        server = build_server(_args(bundle_path, cache_size=9))
        try:
            assert server.engine_options["cache_size"] == 9
            server.reload(bundle_path)
            assert server.engine.cache_info()["max_entries"] == 9
        finally:
            server.stop()


class TestMain:
    def test_dry_run_prints_health_and_exits_zero(self, bundle_path,
                                                  capsys):
        code = main([bundle_path, "--port", "0", "--dry-run"])
        assert code == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"
        assert health["engine"]["packed"] is True
        assert "graph" in health["engine"]

    def test_missing_bundle_exits_two(self, tmp_path, capsys):
        code = main([str(tmp_path / "missing.npz"), "--dry-run"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_bundle_exits_two(self, tmp_path, bundle_path,
                                      capsys):
        torn = tmp_path / "torn.npz"
        blob = open(bundle_path, "rb").read()
        torn.write_bytes(blob[:len(blob) // 2])
        code = main([str(torn), "--dry-run"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_exits_two(self, bundle_path, tmp_path,
                                      capsys):
        config = tmp_path / "serve.toml"
        config.write_text("[server]\nbogus = 1\n")
        code = main([bundle_path, "--config", str(config), "--dry-run"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err
