from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from physeg.cli import main
from physeg.extraction import (
    EmptyGraphError,
    ExtractionError,
    ProviderConfig,
    TransportError,
    _post_chat,
    build_prompt,
    extract_entry,
    extract_graph,
    fixture_filename,
)
from physeg.priors import ENTRY_FIELDS, serialize_pckg

VALID_TEMPLATE = {
    "Category": None,
    "Meaning": "placeholder",
    "Modifier Analysis": "no modifiers",
    "Coarse Class": "vegetation",
    "NDVI Range": [0.20, 0.60],
    "DEM Range": [0.00, 500.00],
    "SAR Range": [-15.00, -6.00],
    "Reasoning": "typical mid-greenness cover",
}


def write_fixture(directory, term, obj=None, text=None):
    payload = text if text is not None else json.dumps(obj)
    (directory / fixture_filename(term)).write_text(payload, encoding="utf-8")


def valid_obj(term, **over):
    obj = dict(VALID_TEMPLATE)
    obj["Category"] = term
    obj.update(over)
    return obj


@pytest.fixture
def provider(tmp_path):
    return ProviderConfig(mode="fixture", fixture_dir=str(tmp_path), max_retries=2)


class TestPrompt:
    @pytest.mark.parametrize("term", ["bare soil", "urban park"])
    def test_contains_term_and_all_field_names(self, term):
        prompt = build_prompt(term)
        assert term in prompt
        for name in ENTRY_FIELDS:
            assert name in prompt

    def test_requests_protocol_steps(self):
        prompt = build_prompt("bare soil")
        for needle in ("modifier", "coarse physical class", "two decimal", "step-by-step"):
            assert needle in prompt.lower().replace("step by step", "step-by-step")

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            build_prompt("   ")


class TestExtractEntry:
    def test_valid_fixture_replay(self, tmp_path, provider):
        write_fixture(tmp_path, "water", valid_obj("water"))
        entry, attempts, raws = extract_entry("water", provider)
        assert entry.category == "water"
        assert attempts == 1
        assert len(raws) == 1

    def test_markdown_fenced_response_accepted(self, tmp_path, provider):
        text = "Here you go:\n```json\n" + json.dumps(valid_obj("water")) + "\n```\n"
        write_fixture(tmp_path, "water", text=text)
        entry, _, _ = extract_entry("water", provider)
        assert entry.category == "water"

    def test_invalid_fixture_exhausts_retries(self, tmp_path, provider):
        write_fixture(tmp_path, "swamp", valid_obj("swamp", **{"SAR Range": [-6.0, -15.0]}))
        with pytest.raises(ExtractionError) as err:
            extract_entry("swamp", provider)
        assert len(err.value.raw_responses) == provider.max_retries + 1

    def test_category_mismatch_is_invalid(self, tmp_path, provider):
        write_fixture(tmp_path, "swamp", valid_obj("marsh"))
        with pytest.raises(ExtractionError, match="Category"):
            extract_entry("swamp", provider)

    def test_missing_fixture_is_transport_error(self, provider):
        with pytest.raises(TransportError):
            extract_entry("nowhere", provider)

    def test_percent_encoded_fixture_names(self, tmp_path, provider):
        term = "salt marsh/estuary"
        assert "/" not in fixture_filename(term)
        write_fixture(tmp_path, term, valid_obj(term))
        entry, _, _ = extract_entry(term, provider)
        assert entry.category == term


class TestLiveTransport:
    def _live(self, retries=2):
        return ProviderConfig(mode="live", endpoint="https://llm.example/v1/chat", max_retries=retries)

    def test_reprompt_carries_validation_error(self):
        prompts = []

        def transport(endpoint, prompt, config):
            prompts.append(prompt)
            if len(prompts) == 1:
                return json.dumps(valid_obj("water", **{"NDVI Range": [0.9, 0.1]}))
            return json.dumps(valid_obj("water"))

        entry, attempts, raws = extract_entry("water", self._live(), transport=transport)
        assert attempts == 2
        assert len(raws) == 2
        assert "inverted interval" in prompts[1]

    def test_transport_failures_retry_then_raise(self):
        calls = []

        def transport(endpoint, prompt, config):
            calls.append(1)
            raise TransportError("connection refused")

        with pytest.raises(TransportError):
            extract_entry("water", self._live(retries=2), transport=transport)
        assert len(calls) == 3  # initial + 2 retries

    def test_retry_bound_respected(self):
        calls = []

        def transport(endpoint, prompt, config):
            calls.append(1)
            return "not json at all"

        with pytest.raises(ExtractionError):
            extract_entry("water", self._live(retries=1), transport=transport)
        assert len(calls) == 2


class _CannedResponse:
    def __init__(self, body):
        self._body = body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestUrllibTransport:
    """The live path through _post_chat, with urllib.request.urlopen replaced."""

    def _live(self, retries=0):
        return ProviderConfig(
            mode="live", endpoint="https://llm.example/v1/chat", max_retries=retries
        )

    def test_post_chat_returns_assistant_text(self, monkeypatch):
        sent = []

        def urlopen(request, timeout):
            sent.append((request, timeout))
            reply = {"choices": [{"message": {"role": "assistant", "content": "canned"}}]}
            return _CannedResponse(json.dumps(reply).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        monkeypatch.setenv("PHYSEG_LLM_API_KEY", "k123")
        assert _post_chat("https://llm.example/v1/chat", "the prompt", self._live()) == "canned"
        (request, timeout), = sent
        assert request.full_url == "https://llm.example/v1/chat"
        assert timeout == 30.0
        assert request.get_header("Authorization") == "Bearer k123"
        payload = json.loads(request.data)
        assert payload["messages"] == [{"role": "user", "content": "the prompt"}]
        assert payload["temperature"] == 0

    def test_url_error_becomes_transport_error(self, monkeypatch):
        calls = []

        def urlopen(request, timeout):
            calls.append(1)
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(TransportError, match="connection refused"):
            extract_entry("water", self._live(retries=1))
        assert len(calls) == 2

    def test_url_error_exits_3_from_cli(self, monkeypatch, tmp_path, capsys):
        def urlopen(request, timeout):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        code = main([
            "pckg", "extract", "--vocab", "water", "--live",
            "--endpoint", "https://llm.example/v1/chat", "--retries", "0",
            "--out", str(tmp_path / "graph.json"),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "TransportError"


def test_cli_import_leaves_network_and_thread_pool_modules_unloaded():
    # refine, eval and synth processes should not pay for http.client, ssl or email
    probe = (
        "import sys, physeg.cli; "
        "print([m for m in ('urllib.request', 'http.client', 'concurrent.futures')"
        " if m in sys.modules])"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


class TestExtractGraph:
    def test_five_valid_terms(self, tmp_path, provider):
        terms = ["water", "bare soil", "urban park", "forest", "road"]
        for term in terms:
            write_fixture(tmp_path, term, valid_obj(term))
        graph, report = extract_graph(terms, provider)
        assert graph.num_classes == 5
        assert graph.categories == tuple(terms)
        assert report.failures == []

    def test_partial_failure_reported(self, tmp_path, provider):
        terms = ["water", "swamp", "road"]
        write_fixture(tmp_path, "water", valid_obj("water"))
        write_fixture(tmp_path, "swamp", valid_obj("swamp", **{"DEM Range": [10.0, 1.0]}))
        write_fixture(tmp_path, "road", valid_obj("road"))
        graph, report = extract_graph(terms, provider)
        assert graph.num_classes == 2
        assert len(report.failures) == 1
        assert report.failures[0]["term"] == "swamp"
        assert report.failures[0]["raw_responses"]

    def test_report_records(self, tmp_path, provider):
        # one term per status: a valid one, an inverted DEM Range and no fixture at all
        inverted = valid_obj("swamp", **{"DEM Range": [10.0, 1.0]})
        write_fixture(tmp_path, "water", valid_obj("water"))
        write_fixture(tmp_path, "swamp", inverted)
        _, report = extract_graph(["water", "swamp", "road"], provider)
        ok, invalid, transport = report.terms
        assert list(ok.items()) == [("term", "water"), ("status", "ok"), ("attempts", 1)]
        assert list(invalid) == ["term", "status", "attempts", "error", "raw_responses"]
        assert (invalid["term"], invalid["status"], invalid["attempts"]) == ("swamp", "invalid", 3)
        assert invalid["error"] == (
            "term 'swamp': no valid entry after 3 attempts: "
            "category 'swamp': field 'DEM Range': inverted interval [10.00, 1.00]"
        )
        assert invalid["raw_responses"] == [json.dumps(inverted)] * 3
        missing = tmp_path / fixture_filename("road")
        assert list(transport.items()) == [
            ("term", "road"),
            ("status", "transport-error"),
            ("attempts", 3),
            ("error", f"term 'road': transport failed on all 3 attempts: "
                      f"no fixture recorded for term 'road' at {missing}"),
        ]
        assert report.to_json_dict()["succeeded"] == 1
        assert report.failures == [invalid, transport]

    def test_all_failures_raise_empty_graph(self, tmp_path, provider):
        write_fixture(tmp_path, "a", valid_obj("a", **{"NDVI Range": [2.0, 3.0]}))
        with pytest.raises(EmptyGraphError):
            extract_graph(["a"], provider)

    def test_duplicate_terms_rejected(self, provider):
        with pytest.raises(ValueError, match="unique"):
            extract_graph(["water", "water"], provider)

    def test_empty_vocab_rejected(self, provider):
        with pytest.raises(ValueError):
            extract_graph([], provider)

    def test_bit_deterministic_across_parallelism(self, tmp_path):
        terms = [f"class {k}" for k in range(6)]
        for term in terms:
            write_fixture(tmp_path, term, valid_obj(term))
        serialized = []
        for workers in (1, 4):
            cfg = ProviderConfig(mode="fixture", fixture_dir=str(tmp_path), parallelism=workers)
            graph, _ = extract_graph(terms, cfg)
            serialized.append(serialize_pckg(graph))
        assert serialized[0] == serialized[1]


class TestProviderConfig:
    def test_fixture_mode_requires_dir(self):
        with pytest.raises(ValueError):
            ProviderConfig(mode="fixture", fixture_dir="")

    def test_live_mode_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderConfig(mode="live", endpoint="")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ProviderConfig(mode="cached", fixture_dir="x")

    @pytest.mark.parametrize("timeout", [float("inf"), float("nan"), -1.0, 0.0])
    def test_request_timeout_must_be_finite_and_positive(self, timeout):
        # inf overflows the socket deadline and nan or -1 fail inside the socket
        with pytest.raises(ValueError, match=r"^request_timeout must be finite and > 0, got "):
            ProviderConfig(mode="live", endpoint="http://127.0.0.1:9/v1", request_timeout=timeout)
