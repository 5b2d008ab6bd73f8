"""CLI entry point: ``python -m repro.serve`` config/flag resolution."""

import inspect
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro.serve.__main__ as serve_cli
from repro.online import OnlineLearner
from repro.online.learner import ONLINE_OPTION_TYPES
from repro.serve.__main__ import (_parse_args, build_server,
                                  configure_tracing, load_config, main,
                                  worker_args_from)
from repro.serve.fleet import Supervisor
from repro.telemetry import disable_request_tracing
from repro.telemetry.reqtrace import HUB

from .conftest import _synthetic_bundle, http_status

GOLDEN_BUNDLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "fixtures", "golden_nshd_bundle_packed.npz")


@pytest.fixture
def bundle_path(tmp_path):
    path = str(tmp_path / "bundle.npz")
    _synthetic_bundle(seed=5, binary=True).save(path)
    return path


class TestLoadConfig:
    def test_sectioned_layout(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text(
            "[batcher]\nmax_batch_size = 64\nworkers = 3\n"
            "[engine]\nquality_window = 64\n")
        config = load_config(str(path))
        assert config == {"max_batch_size": 64, "workers": 3,
                          "quality_window": 64}

    def test_online_keys_are_the_learner_keywords(self):
        # The [online] section is OnlineLearner's signature, key for key.
        keywords = set(inspect.signature(OnlineLearner).parameters)
        assert set(ONLINE_OPTION_TYPES) == keywords - {"server"}

    def test_docstring_example_loads(self, tmp_path):
        # The config the module documents is a config it accepts: the
        # indented block after the docstring's "::".
        lines = serve_cli.__doc__.split("::\n", 1)[1].splitlines()
        end = next(i for i, line in enumerate(lines)
                   if line and not line.startswith(" "))
        path = tmp_path / "serve.toml"
        path.write_text(textwrap.dedent("\n".join(lines[:end])))
        config = load_config(str(path))
        assert config["max_batch_size"] == 64
        assert config["online_options"]["promote_every"] == 64
        assert config["alert_rules"][0].name == "feature-drift"

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
        for section, key in (("batcher", "portt"), ("engine", "use_packed"),
                             ("batcher", "build_extractor")):
            path.write_text(f"[{section}]\n{key} = 1\n")
            with pytest.raises(ValueError, match=key):
                load_config(str(path))

    def test_unknown_flat_key_raises(self, tmp_path):
        path = tmp_path / "serve.toml"
        for key in ("prot", "use_packed", "stage_cache"):
            path.write_text(f"{key} = 1\n")
            with pytest.raises(ValueError, match=key):
                load_config(str(path))

    @pytest.mark.parametrize("text, name", [
        ('[server]\nhost = "0.0.0.0"\n', r"\[server\]"),
        ("[server]\nport = 9000\n", r"\[server\]"),
        ("[engine]\ncache_size = 64\n", "engine.cache_size"),
        ("[engine]\nselfcheck = false\n", "engine.selfcheck"),
        ('[online]\nrule = "mass"\n', "online.rule"),
        ('[[alerts.rules]]\nname = "slo"\nmetric = "fleet.slo.latency"\n'
         'kind = "burn_rate"\n',
         r"'burn_rate' \(expected one of \('threshold', 'absence'\)\)"),
    ])
    def test_removed_settings_are_refused_by_name(self, tmp_path, text,
                                                  name):
        # Host, port and cache size are flags only; the packed self-check
        # always runs; MASS is the one feedback rule; no router metric
        # feeds a burn-rate alert.
        path = tmp_path / "serve.toml"
        path.write_text(text)
        with pytest.raises(ValueError, match=name):
            load_config(str(path))

    @pytest.mark.parametrize("text, name", [
        ("[batcher]\nmax_batch_size = true\n", "batcher.max_batch_size"),
        ("[engine]\nquality_window = 1.5\n", "engine.quality_window"),
        ('[online]\nholdout_every = "8"\n', "online.holdout_every"),
    ])
    def test_wrongly_typed_value_names_its_key(self, tmp_path, text, name):
        path = tmp_path / "serve.toml"
        path.write_text(text)
        with pytest.raises(ValueError, match=name):
            load_config(str(path))

    def test_integer_accepted_for_a_number(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text("[batcher]\nmax_latency_ms = 5\ntimeout_s = 2\n")
        assert load_config(str(path)) == {"max_latency_ms": 5,
                                          "timeout_s": 2}


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

    def test_flag_and_config_file_combine(self, bundle_path, tmp_path):
        config = tmp_path / "serve.toml"
        config.write_text("[batcher]\nworkers = 4\n")
        server = build_server(_args(bundle_path, config=str(config),
                                    cache_size=8))
        try:
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

    def test_worker_never_builds_the_cnn_trunk(self):
        # Requests carry features: neither the first engine nor a
        # reloaded one runs the extractor the bundle ships.
        server = build_server(_args(GOLDEN_BUNDLE))
        try:
            assert server.engine.extractor is None
            server.reload()
            assert server.engine.extractor is None
            assert "extract" not in server.engine.graph.names
        finally:
            server.stop()

    def test_reads_the_bundle_once(self, bundle_path, bundle_reads):
        server = build_server(_args(bundle_path))
        try:
            assert bundle_reads == [bundle_path]
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
        config.write_text("[batcher]\nbogus = 1\n")
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
        # There is no --trace-sample any more: a traced process exports
        # every request it records, so any rate is refused by name.
        with pytest.raises(SystemExit) as excinfo:
            main([bundle_path, "--port", "0", "--trace-sample", rate,
                  "--dry-run"])
        assert excinfo.value.code == 2
        assert "--trace-sample" in capsys.readouterr().err

    def test_removed_batcher_flags_are_refused(self, bundle_path):
        # Batcher tuning lives in the [batcher] section only.
        for flag in ("--max-batch-size", "--max-latency-ms", "--workers",
                     "--high-watermark", "--timeout-s"):
            with pytest.raises(SystemExit):
                _parse_args([bundle_path, flag, "1"])

    def test_removed_engine_flags_are_refused(self, bundle_path):
        # The bundle picks the packed path; a worker never builds the
        # extractor.
        for flag in ("--no-packed", "--no-extractor"):
            with pytest.raises(SystemExit):
                _parse_args([bundle_path, flag])

    @pytest.mark.parametrize("port", ["70000", "-5"])
    def test_port_out_of_range_exits_two(self, bundle_path, port, capsys):
        code = main([bundle_path, "--port", port, "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --port") and err.count("\n") == 1

    @pytest.mark.parametrize("text, name", [
        ('[batcher]\nworkers = "two"\n', "batcher.workers"),
        ('[batcher]\nmax_latency_ms = "5"\n', "batcher.max_latency_ms"),
        ("[batcher]\ntimeout_s = 0\n", "timeout_s"),
        ("[batcher]\ntimeout_s = -1.0\n", "timeout_s"),
    ])
    def test_bad_batcher_value_exits_two(self, bundle_path, tmp_path,
                                         text, name, capsys):
        config = tmp_path / "serve.toml"
        config.write_text(text)
        code = main([bundle_path, "--port", "0", "--config", str(config),
                     "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("interval, mode", [
        ("0", []), ("nan", []), ("-1.0", ["--fleet", "2"])])
    def test_nonpositive_alert_interval_exits_two(self, bundle_path,
                                                  tmp_path, interval, mode,
                                                  capsys):
        # Refused at config load, before a server or a worker starts.
        config = tmp_path / "serve.toml"
        config.write_text(f"[alerts]\ninterval_s = {interval}\n")
        code = main([bundle_path, "--port", "0", "--config", str(config),
                     "--dry-run", *mode])
        assert code == 2
        assert "alerts.interval_s" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "0.0", "nan", "inf"])
    def test_feedback_update_cap_must_be_finite_and_positive(
            self, bundle_path, tmp_path, cap, capsys):
        # 0 would mean "no cap" and NaN or inf clip nothing: each would
        # leave one feedback sample's pull on the model unbounded.
        config = tmp_path / "serve.toml"
        config.write_text(f"[online]\nmax_update_norm = {cap}\n")
        code = main([bundle_path, "--port", "0", "--config", str(config),
                     "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_update_norm" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rate", ["0", "0.0", "nan", "inf", "-2.0"])
    def test_feedback_rate_limit_must_be_finite_and_positive(
            self, bundle_path, tmp_path, rate, capsys):
        # Leaving the key out is the only way to turn the flood defense
        # off: 0 used to, and NaN or inf admitted every sample.
        config = tmp_path / "serve.toml"
        config.write_text(f"[online]\nrate_limit_per_s = {rate}\n")
        code = main([bundle_path, "--port", "0", "--config", str(config),
                     "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rate_limit_per_s" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("section, key, value", [
        ("engine", "build_extractor", "false"),
        ("online", "enabled", "false"),
        ("online", "rate_limit_burst", "4.0"),
        ("online", "validation_capacity", "512"),
        ("online", "max_new_classes", "8"),
        ("online", "guard_policy", '"skip_batch"'),
        ("online", "guard_max_abs", "1e9"),
        ("online", "remember_requests", "1024"),
        ("online", "max_relative_drift", "0.5"),
    ])
    def test_removed_config_key_exits_two(self, bundle_path, tmp_path,
                                          section, key, value, capsys):
        # Each of these held one value in every caller; it is a constant
        # now, and a config that still sets it is refused by name.
        config = tmp_path / "serve.toml"
        config.write_text(f"[{section}]\n{key} = {value}\n")
        code = main([bundle_path, "--port", "0", "--config", str(config),
                     "--dry-run"])
        assert code == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("threshold", "nan"), ("for_s", "nan"), ("for_s", "inf")])
    def test_alert_rule_that_can_never_fire_exits_two(
            self, bundle_path, tmp_path, key, value, capsys):
        config = tmp_path / "serve.toml"
        config.write_text('[[alerts.rules]]\nname = "drift"\n'
                          'metric = "quality.feature.psi_max"\n'
                          f"{key} = {value}\n")
        code = main([bundle_path, "--port", "0", "--config", str(config),
                     "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert err.count("\n") == 1


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
                            "--trace-dir", trace_dir, "--cache-size", "0",
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
                                ("--cache-size", "0"),
                                ("--config", str(config)),
                                ("--port", str(worker.port))):
                assert cmd.count(flag) == 1, (flag, cmd)
                if value is not None:
                    assert cmd[cmd.index(flag) + 1] == value
            assert "--fleet" not in cmd
            assert not [key for key in env if key.startswith("REPRO_")]
