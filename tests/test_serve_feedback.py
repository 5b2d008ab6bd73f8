"""HTTP surface of the online-learning subsystem.

Covers ``POST /feedback`` (features and request_id paths, every error
status), ``POST /promote``, ``GET /onlinez``, the disabled-by-default
behavior, and the serve CLI's ``[online]`` config section (parsing,
unknown-key rejection, off without the section, build_server wiring).
"""


import numpy as np
import pytest

from repro.reliability.guards import NumericsGuard
from repro.serve import InferenceEngine, ModelServer
from repro.serve.__main__ import _parse_args, build_server, load_config
from repro.telemetry import MetricsRegistry, use_registry

from .conftest import _synthetic_bundle, request

FEATURES = 16
CLASSES = 4


@pytest.fixture(autouse=True)
def registry():
    fresh = MetricsRegistry()
    with use_registry(fresh):
        yield fresh


def online_server(online_options, seed=0, **server_kwargs):
    engine = InferenceEngine(
        _synthetic_bundle(dim=256, features=FEATURES, classes=CLASSES,
                          seed=seed),
        build_extractor=False)
    return ModelServer(engine, port=0, workers=1,
                       online_options=online_options,
                       **server_kwargs).start()


BASE_OPTIONS = {"lr": 2.0, "max_update_norm": 2.0,
                "holdout_every": 8, "auto_promote": False}


class TestDisabledByDefault:
    def test_endpoints_404_when_disabled(self):
        engine = InferenceEngine(
            _synthetic_bundle(dim=256, features=FEATURES, seed=1),
            build_extractor=False)
        with ModelServer(engine, port=0, workers=1) as server:
            assert server.online is None
            status, body, _ = request(server.url + "/feedback",
                                      {"label": 0,
                                       "features": [0.0] * FEATURES})
            assert status == 404
            status, body, _ = request(server.url + "/promote", {})
            assert status == 404
            status, body, _ = request(server.url + "/onlinez")
            assert (status, body) == (200, {"enabled": False})


class TestFeedbackEndpoint:
    @pytest.fixture()
    def server(self):
        server = online_server(dict(BASE_OPTIONS))
        yield server
        server.stop()

    def test_features_feedback_applies(self, server, registry):
        status, body, _ = request(
            server.url + "/feedback",
            {"label": 0, "features": [0.5] * FEATURES})
        assert status == 200
        assert body["status"] == "applied"
        assert body["classes"] == CLASSES
        assert body["generation"] == 0
        assert registry.counter("serve.feedback.requests").value == 1
        assert registry.counter("online.feedback.applied").value == 1

    def test_malformed_json_is_400(self, server, registry):
        status, _, _ = request(server.url + "/feedback", b"{not json")
        assert status == 400
        assert registry.counter("serve.feedback.bad_request").value == 1

    @pytest.mark.parametrize("payload", [
        {"features": [0.0] * FEATURES},           # no label
        {"label": True, "features": [0.0] * FEATURES},
        {"label": 0},                             # neither source
        {"label": 0, "features": [0.0] * FEATURES,
         "request_id": "x"},                      # both sources
        {"label": 0, "features": [[0.0] * FEATURES] * 2},  # batch
        {"label": 0, "features": [0.0] * (FEATURES + 1)},
        {"label": -1, "features": [0.0] * FEATURES},
        {"label": 99, "features": [0.0] * FEATURES},
        {"label": 0, "features": [-10 ** 400] + [0.0] * (FEATURES - 1)},
    ])
    def test_bad_payloads_are_400(self, server, payload):
        status, body, _ = request(server.url + "/feedback", payload)
        assert status == 400
        assert "error" in body

    @pytest.mark.parametrize("value, kind", [
        (True, "boolean"), ("1.5", "string"), (None, "null"),
        ({"x": 1.0}, "object")])
    def test_non_number_features_are_400_naming_the_type(
            self, server, registry, value, kind):
        status, body, _ = request(server.url + "/feedback",
                                  {"label": 0, "features": [value] * FEATURES})
        assert status == 400
        assert body["error"] == f"features are not numeric: got a JSON {kind}"
        assert registry.counter("online.feedback.applied").value == 0

    @pytest.mark.parametrize("row", [
        [True] + [0.5] * (FEATURES - 1), [0.5] * (FEATURES - 1) + [False]],
        ids=["true-first", "false-last"])
    def test_a_boolean_among_numbers_is_400(self, server, registry, row):
        """The row is not applied: the shadow does not learn 1.0/0.0."""
        status, body, _ = request(server.url + "/feedback",
                                  {"label": 0, "features": row})
        assert status == 400
        assert body["error"] == ("features are not numeric: "
                                 "got a JSON boolean")
        assert registry.counter("online.feedback.applied").value == 0
        assert registry.counter("serve.feedback.bad_request").value == 1

    @pytest.mark.parametrize("width", [FEATURES - 1, FEATURES + 1])
    def test_wrong_width_error_names_both_widths(self, server, width):
        status, body, _ = request(server.url + "/feedback",
                                  {"label": 0, "features": [0.0] * width})
        assert status == 400
        assert body["error"] == (f"features have {width} columns, "
                                 f"the model takes {FEATURES}")

    def test_unknown_request_id_is_404(self, server, registry):
        status, body, _ = request(server.url + "/feedback",
                                  {"label": 0, "request_id": "ghost"})
        assert status == 404
        assert registry.counter(
            "online.feedback.unknown_request").value == 1

    def test_request_id_round_trip(self, server):
        status, predicted, _ = request(
            server.url + "/predict",
            {"features": [[0.25] * FEATURES]})
        assert status == 200
        request_id = predicted["request_id"]
        status, body, _ = request(server.url + "/feedback",
                                  {"label": 2,
                                   "request_id": request_id})
        assert status == 200
        assert body["status"] in ("applied", "held_out")

    def test_batch_predictions_are_not_remembered(self, server):
        status, predicted, _ = request(
            server.url + "/predict",
            {"features": [[0.25] * FEATURES, [0.5] * FEATURES]})
        assert status == 200
        status, body, _ = request(
            server.url + "/feedback",
            {"label": 0, "request_id": predicted["request_id"]})
        assert status == 404  # one label cannot disambiguate a batch

    def test_new_class_over_http(self, server):
        status, body, _ = request(
            server.url + "/feedback",
            {"label": CLASSES, "features": [0.9] * FEATURES})
        assert status == 200
        assert body["status"] == "new_class"
        assert body["classes"] == CLASSES + 1

    def test_onlinez_reports_state(self, server):
        request(server.url + "/feedback",
                {"label": 1, "features": [0.1] * FEATURES})
        status, body, _ = request(server.url + "/onlinez")
        assert status == 200
        assert body["enabled"] is True
        assert body["generation"] == 0
        assert body["shadow"]["feedback"]["seen"] == 1
        assert body["gates"]["min_shadow_accuracy"] == 0.5

    def test_manual_promote_reports_failed_gates(self, server):
        status, decision, _ = request(server.url + "/promote", {})
        assert status == 200
        assert decision["promote"] is False
        assert "feedback" in decision["reasons"]


class TestThrottlingAndGuards:
    def test_rate_limited_is_429_with_retry_after(self):
        server = online_server(dict(BASE_OPTIONS,
                                    rate_limit_per_s=0.001))
        try:
            payload = {"label": 0, "features": [0.5] * FEATURES}
            first, _, _ = request(server.url + "/feedback", payload)
            assert first == 200
            status, body, headers = request(server.url + "/feedback",
                                            payload)
            assert status == 429
            assert body["status"] == "rate_limited"
            assert "Retry-After" in headers
        finally:
            server.stop()

    def test_guard_rejection_is_422(self, registry):
        # Encoded hypervectors are +-1; a 0.5 magnitude cap trips the
        # numerics guard on every sample.
        server = online_server(dict(BASE_OPTIONS))
        server.online.shadow.guard = NumericsGuard(
            policy="skip_batch", max_abs=0.5, name="online")
        try:
            status, body, _ = request(
                server.url + "/feedback",
                {"label": 0, "features": [0.5] * FEATURES})
            assert status == 422
            assert body["status"] == "rejected"
            assert registry.counter(
                "online.feedback.rejected").value == 1
        finally:
            server.stop()


class TestOnlineConfig:
    def test_online_section_parses(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text(
            "[online]\nlr = 0.5\n"
            "max_update_norm = 2.0\nrate_limit_per_s = 50.0\n"
            "holdout_every = 4\npromote_every = 128\n"
            "auto_promote = false\nmin_shadow_accuracy = 0.7\n")
        config = load_config(str(path))
        options = config["online_options"]
        assert options["promote_every"] == 128
        assert options["min_shadow_accuracy"] == 0.7

    def test_unknown_online_key_raises(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text("[online]\nlearning_rate = 0.5\n")
        with pytest.raises(ValueError, match="online.learning_rate"):
            load_config(str(path))

    def test_unknown_section_error_mentions_online(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text("[bogus]\nx = 1\n")
        with pytest.raises(ValueError, match="online"):
            load_config(str(path))

    def test_build_server_wires_learner(self, tmp_path):
        bundle_path = str(tmp_path / "bundle.npz")
        _synthetic_bundle(dim=256, features=FEATURES,
                          seed=3).save(bundle_path)
        config = tmp_path / "serve.toml"
        config.write_text("[online]\nlr = 1.5\npromote_every = 32\n")
        server = build_server(_parse_args(
            [bundle_path, "--config", str(config), "--port", "0"]))
        try:
            assert server.online is not None
            assert server.online.shadow.lr == 1.5
            assert server.online.promote_every == 32
        finally:
            server.stop()

    def test_no_online_section_disables(self, tmp_path):
        bundle_path = str(tmp_path / "bundle.npz")
        _synthetic_bundle(dim=256, features=FEATURES,
                          seed=4).save(bundle_path)
        config = tmp_path / "serve.toml"
        config.write_text("[batcher]\nworkers = 1\n")
        server = build_server(_parse_args(
            [bundle_path, "--config", str(config), "--port", "0"]))
        try:
            assert server.online is None
        finally:
            server.stop()
