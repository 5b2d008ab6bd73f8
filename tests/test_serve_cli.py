"""CLI entry point: ``python -m repro.serve`` config/flag resolution."""

import json
import os
import subprocess
import sys

import pytest

from repro.serve.__main__ import (_parse_args, build_server,
                                  configure_tracing, load_config, main,
                                  worker_args_from)
from repro.serve.fleet import Supervisor
from repro.telemetry import disable_request_tracing
from repro.telemetry.reqtrace import HUB

from .conftest import _synthetic_bundle, http_status


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

    def test_flat_layout_rejected(self, tmp_path):
        # Every key sits in its section; a known key at the top level
        # is refused, not read.
        path = tmp_path / "serve.toml"
        path.write_text("port = 8123\n[batcher]\nmax_latency_ms = 2.5\n")
        with pytest.raises(ValueError, match="'port'.*outside a section"):
            load_config(str(path))

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
        # A key is read only in its own section.
        for section, key in (("server", "portt"), ("engine", "use_packed"),
                             ("server", "cache_size")):
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
    args = _parse_args([bundle, "--port", "0"])
    vars(args).update(overrides)
    return args


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

    def test_environment_arms_nothing(self, bundle_path, monkeypatch):
        # Chaos and tracing are flags only: variables a shell happens to
        # export neither route POST /slow nor switch the trace hub on.
        monkeypatch.setenv("REPRO_SERVE_CHAOS", "1")
        monkeypatch.setenv("REPRO_TRACE", "1")
        args = _args(bundle_path)
        server = build_server(args)
        try:
            assert configure_tracing(args, service="worker") is False
            assert HUB.enabled is False
            server.start()
            assert http_status(server.address, "POST", "/slow",
                               {"stall_s": 0.01}) == 404
        finally:
            server.stop()
            disable_request_tracing()

    def test_reads_the_bundle_once(self, bundle_path, bundle_reads):
        server = build_server(_args(bundle_path))
        try:
            assert bundle_reads == [bundle_path]
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

    def test_negative_cache_size_exits_two(self, bundle_path, capsys):
        code = main([bundle_path, "--port", "0", "--cache-size", "-1",
                     "--dry-run"])
        assert code == 2
        assert "cache_size must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "-0.1", "1.5"])
    def test_trace_sample_outside_unit_interval_exits_two(
            self, bundle_path, rate, capsys):
        code = main([bundle_path, "--port", "0", "--trace-sample", rate,
                     "--dry-run"])
        assert code == 2
        assert "--trace-sample" in capsys.readouterr().err

    def test_removed_batcher_flags_are_refused(self, bundle_path):
        # Batcher tuning lives in the [batcher] section only.
        for flag in ("--max-batch-size", "--max-latency-ms", "--workers",
                     "--high-watermark", "--timeout-s"):
            with pytest.raises(SystemExit):
                _parse_args([bundle_path, flag, "1"])


class TestFleetWorkerArgv:
    def test_flags_reach_workers_on_argv_alone(self, bundle_path,
                                               tmp_path, monkeypatch):
        """Each forwarded flag appears once on a worker's command line,
        and the supervisor exports no ``REPRO_*`` variable."""
        for key in [key for key in os.environ
                    if key.startswith("REPRO_")]:
            monkeypatch.delenv(key)
        config = tmp_path / "serve.toml"
        config.write_text("[batcher]\nworkers = 1\n")
        trace_dir = str(tmp_path / "traces")
        args = _parse_args([bundle_path, "--fleet", "2", "--chaos",
                            "--trace-dir", trace_dir,
                            "--trace-sample", "0.5", "--cache-size", "0",
                            "--config", str(config)])
        spawned = []

        def fake_popen(cmd, env=None, **kwargs):
            spawned.append((cmd, env))
            return object()

        monkeypatch.setattr(subprocess, "Popen", fake_popen)
        supervisor = Supervisor(bundle_path, workers=args.fleet,
                                worker_args=worker_args_from(args))
        for worker in supervisor.workers:
            supervisor._default_spawn(worker)
        assert len(spawned) == 2
        for (cmd, env), worker in zip(spawned, supervisor.workers):
            # The command shape the traced bench rewrites.
            assert cmd[:4] == [sys.executable, "-m", "repro.serve",
                               bundle_path]
            for flag, value in (("--chaos", None),
                                ("--trace-dir", trace_dir),
                                ("--trace-sample", "0.5"),
                                ("--cache-size", "0"),
                                ("--config", str(config)),
                                ("--port", str(worker.port))):
                assert cmd.count(flag) == 1, (flag, cmd)
                if value is not None:
                    assert cmd[cmd.index(flag) + 1] == value
            assert "--fleet" not in cmd
            assert not [key for key in env if key.startswith("REPRO_")]
