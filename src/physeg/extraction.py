"""Prior extraction: prompt an LLM (or replay fixtures) into knowledge-graph entries.

A structured prompt asks the model to parse the category phrase, map it to a
coarse physical class, emit closed NDVI/DEM/SAR intervals with two decimals
and justify the choice step by step, answering as the 8-field JSON record the
graph file format uses.  Responses are validated with the same rules as file
parsing; invalid responses trigger error-feedback re-prompts up to a retry
bound, and every failure keeps its raw responses for audit.

Fixture mode replays one recorded response file per vocabulary term
(filename = percent-encoded term + ".json") and never touches the network,
so extraction runs are bit-deterministic.
"""

from __future__ import annotations

import json
import os
import urllib.parse
from dataclasses import dataclass, field

from .priors import PriorEntry, PriorError, PriorGraph, entry_from_json_obj

API_KEY_ENV = "PHYSEG_LLM_API_KEY"  # live requests send its value, if set, as a bearer token

PROMPT_TEMPLATE_V1 = """\
You are a remote-sensing analyst. For the land-cover category phrase below,
derive physically plausible measurement ranges.

Category phrase: "{category}"

Work through these steps:
1. Parse the semantic structure of the category phrase: identify the target
   object and any modifiers, and explain what each modifier implies.
2. Map the phrase to a coarse physical class (for example vegetation, road,
   water, building, bare ground).
3. Infer plausible closed numeric intervals for:
   - NDVI (unitless, within [-1.00, 1.00]),
   - DEM elevation in meters,
   - SAR backscatter in dB.
   Give every bound with exactly two decimal places and make sure the lower
   bound does not exceed the upper bound.
4. Justify each interval with brief step-by-step reasoning.

Answer with a single JSON object and nothing else, using exactly these keys:
"Category", "Meaning", "Modifier Analysis", "Coarse Class", "NDVI Range",
"DEM Range", "SAR Range", "Reasoning".
Each range must be a two-element array [low, high]. The "Category" value must
equal the category phrase verbatim.
"""


class TransportError(Exception):
    """Network-level failure talking to the provider (after retries)."""


class ExtractionError(Exception):
    """Provider answered, but no valid entry could be extracted."""

    def __init__(self, message, raw_responses=None):
        super().__init__(message)
        self.raw_responses = list(raw_responses or [])


class EmptyGraphError(ExtractionError):
    """Every vocabulary term failed extraction."""


@dataclass(frozen=True)
class ProviderConfig:
    mode: str = "fixture"  # "fixture" or "live"
    endpoint: str = ""
    fixture_dir: str = ""
    request_timeout: float = 30.0
    max_retries: int = 2
    model: str = "gpt-4o"
    parallelism: int = 1

    def __post_init__(self):
        if self.mode not in ("fixture", "live"):
            raise ValueError(f"unknown provider mode {self.mode!r}")
        if self.mode == "fixture" and not self.fixture_dir:
            raise ValueError("fixture mode needs fixture_dir")
        if self.mode == "live" and not self.endpoint:
            raise ValueError("live mode needs an endpoint URL")
        if self.max_retries < 0 or self.parallelism < 1:
            raise ValueError("max_retries must be >= 0 and parallelism >= 1")
        if not 0 < self.request_timeout < float("inf"):  # nan fails both
            raise ValueError(f"request_timeout must be finite and > 0, got {self.request_timeout}")


def build_prompt(vocab: str) -> str:
    """Render the extraction prompt for one category phrase."""
    if not vocab or not vocab.strip():
        raise ValueError("category phrase must be non-empty")
    return PROMPT_TEMPLATE_V1.format(category=vocab.strip())


def fixture_filename(term: str) -> str:
    return urllib.parse.quote(term, safe="") + ".json"


def _post_chat(endpoint: str, prompt: str, config: ProviderConfig) -> str:
    """One chat-completion POST; returns the raw assistant text.

    A reply without assistant text (a body that is not UTF-8 JSON, not an
    object, without ``choices`` or with an empty list, or a ``content`` that
    is not a string) is a TransportError, as an unreachable endpoint is.
    """
    import urllib.request  # loads http.client, ssl and email: only live extraction needs them

    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0,
    }
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        endpoint, data=json.dumps(payload).encode("utf-8"), headers=headers
    )
    with urllib.request.urlopen(request, timeout=config.request_timeout) as response:
        body = response.read()
    try:
        text = json.loads(body.decode("utf-8"))["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError):  # JSONDecodeError is a ValueError
        text = None
    if not isinstance(text, str):
        raise TransportError(f"reply holds no assistant text: {body[:200]!r}")
    return text


def _fetch_response(term: str, prompt: str, config: ProviderConfig, transport=None) -> str:
    if config.mode == "fixture":
        path = os.path.join(config.fixture_dir, fixture_filename(term))
        if not os.path.exists(path):
            raise TransportError(f"no fixture recorded for term {term!r} at {path}")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    send = transport or _post_chat
    try:
        return send(config.endpoint, prompt, config)
    except (OSError, KeyError, json.JSONDecodeError) as exc:  # urllib's URLError is an OSError
        raise TransportError(f"provider request failed for {term!r}: {exc}") from exc


def _extract_json_object(text: str) -> dict:
    """Decode the first JSON object in a possibly chatty response."""
    start = text.find("{")
    if start < 0:
        raise ValueError("response contains no JSON object")
    return json.JSONDecoder().raw_decode(text, start)[0]


def parse_response(term: str, text: str) -> PriorEntry:
    """Validate one raw response into an entry whose category matches the term."""
    try:
        obj = _extract_json_object(text)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise PriorError(f"unparseable response: {exc}") from exc
    entry = entry_from_json_obj(obj, where=f"term {term!r}")
    if entry.category.strip() != term.strip():
        raise PriorError(
            f"term {term!r}: response Category is {entry.category!r}, must match the term"
        )
    return entry


def extract_entry(vocab: str, provider: ProviderConfig, transport=None):
    """Extract one validated entry; returns (entry, attempts, raw_responses).

    Invalid responses are re-prompted with the validation error appended, up
    to provider.max_retries re-prompts.  Raises TransportError on network
    failure and ExtractionError (carrying the raw responses) when no attempt
    validates.
    """
    base_prompt = build_prompt(vocab)
    prompt = base_prompt
    raw_responses = []
    last_error = None
    for attempt in range(1, provider.max_retries + 2):
        try:
            raw = _fetch_response(vocab, prompt, provider, transport=transport)
        except TransportError as exc:
            last_error = exc
            continue
        raw_responses.append(raw)
        try:
            return parse_response(vocab, raw), attempt, raw_responses
        except PriorError as exc:
            last_error = exc
            prompt = (
                base_prompt
                + "\nYour previous answer was rejected with this validation error:\n"
                + f"{exc}\nCorrect the problem and answer again with only the JSON object.\n"
            )
    if raw_responses:
        raise ExtractionError(
            f"term {vocab!r}: no valid entry after {attempt} attempts: {last_error}",
            raw_responses=raw_responses,
        )
    raise TransportError(
        f"term {vocab!r}: transport failed on all {attempt} attempts: {last_error}"
    )


@dataclass
class ExtractionReport:
    terms: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [rec for rec in self.terms if rec["status"] != "ok"]

    def to_json_dict(self) -> dict:
        return {
            "succeeded": sum(1 for rec in self.terms if rec["status"] == "ok"),
            "failed": len(self.failures),
            "terms": self.terms,
        }


def extract_graph(vocab_list, provider: ProviderConfig):
    """Extract a graph from a vocabulary; returns (graph, report).

    Partial graphs are valid: failed terms are reported (with raw responses)
    and skipped.  Raises EmptyGraphError only when every term fails.
    Term order in the output graph follows the input list regardless of the
    parallelism used.
    """
    terms = list(vocab_list)
    if not terms:
        raise ValueError("vocabulary list must be non-empty")
    if len(set(terms)) != len(terms):
        raise ValueError("vocabulary terms must be unique")

    def attempt(term):
        try:
            entry, attempts, _ = extract_entry(term, provider)
            return {"term": term, "status": "ok", "attempts": attempts}, entry
        except (ExtractionError, TransportError) as exc:
            invalid = isinstance(exc, ExtractionError)
            record = {
                "term": term,
                "status": "invalid" if invalid else "transport-error",
                "attempts": provider.max_retries + 1,
                "error": str(exc),
            }
            if invalid:
                record["raw_responses"] = exc.raw_responses
            return record, None

    from concurrent.futures import ThreadPoolExecutor  # only extraction starts threads

    with ThreadPoolExecutor(max_workers=provider.parallelism) as pool:
        results = list(pool.map(attempt, terms))

    report = ExtractionReport(terms=[rec for rec, _ in results])
    entries = [entry for _, entry in results if entry is not None]
    if not entries:
        if all(rec["status"] == "transport-error" for rec, _ in results):
            raise TransportError(
                f"all {len(terms)} vocabulary terms failed with transport errors"
            )
        raise EmptyGraphError(
            f"all {len(terms)} vocabulary terms failed extraction",
            raw_responses=[
                raw for rec, _ in results for raw in rec.get("raw_responses", [])
            ],
        )
    return PriorGraph(tuple(entries)), report
