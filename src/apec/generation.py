"""Prompt rendering, chat providers, and revision-response parsing.

A GenerationRequest is a system prompt plus alternating user/assistant
turns ending on a user turn; demonstrations become exemplar turn pairs.
Decoding profiles mirror the run configurations used throughout: greedy
for default initial adaptation, a low-temperature sampled profile as an
alternative, and a temperature-0.8 profile for refinement cycles.

Providers speak an OpenAI-compatible chat completions contract. A
scripted provider replays canned responses from a fixture file so runs
are reproducible without a model server.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Literal, Optional, Protocol

from .corpus import read_jsonl
from .errors import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    ApecError,
    HttpTransport,
    ProviderUnavailableError,
    UnusableResponseError,
    with_retries,
)
from .prompts import (
    ANALYSIS_HEADER,
    CORRECTION_HEADER,
    FINAL_HEADER,
    VERDICT_CORRECT_MARKER,
    VERDICT_CRITICAL_MARKER,
    VERDICT_FIXABLE_MARKER,
    TASK_EASY_READ,
    fill_review_template,
    initial_system_prompt,
)
from .retrieval import Demonstration

DEFAULT_MAX_NEW_TOKENS = 2048


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0  # 0 is greedy decoding: HttpChatProvider then sends no top_k
    top_k: int = 1
    top_p: float = 1.0


GREEDY = DecodingParams()
INITIAL_SAMPLED = DecodingParams(temperature=0.3, top_k=40, top_p=0.95)
REFINE = DecodingParams(temperature=0.8, top_k=50, top_p=1.0)

DECODING_PROFILES = {
    "greedy": GREEDY,
    "initial-sampled": INITIAL_SAMPLED,
    "refine": REFINE,
}


@dataclass(frozen=True)
class GenerationRequest:
    system_prompt: str
    messages: tuple[tuple[str, str], ...]
    decoding: DecodingParams = GREEDY

    def last_user_content(self) -> str:
        return self.messages[-1][1]

    def as_flat_text(self) -> str:
        """Single-string view used for fixture matching and logging."""
        parts = []
        if self.system_prompt:
            parts.append(f"[system]\n{self.system_prompt}")
        for role, content in self.messages:
            parts.append(f"[{role}]\n{content}")
        return "\n\n".join(parts)


def _demo_turns(demos: list[Demonstration]) -> list[tuple[str, str]]:
    turns = []
    for demo in sorted(demos, key=lambda d: d.rank):
        turns.append(("user", demo.source))
        turns.append(("assistant", demo.adaptation))
    return turns


def render_initial_prompt(
    task: str,
    source: str,
    demos: list[Demonstration] | None = None,
    decoding: DecodingParams = GREEDY,
) -> GenerationRequest:
    """First-pass adaptation request: style instructions as the system
    prompt, demonstrations as exemplar turns, the source as the final
    user turn."""
    system = initial_system_prompt(task)
    messages = _demo_turns(demos or [])
    messages.append(("user", source))
    return GenerationRequest(
        system_prompt=system, messages=tuple(messages), decoding=decoding
    )


def render_apec_prompt(
    task: str,
    source: str,
    current_adaptation: str,
    demos: list[Demonstration] | None = None,
) -> GenerationRequest:
    """Revision request: the filled review template as the final user
    turn, exemplar turns ahead of it, no system prompt, REFINE decoding."""
    if not current_adaptation.strip():
        raise ApecError("cannot request a revision of an empty adaptation")
    filled = fill_review_template(task, source, current_adaptation)
    messages = _demo_turns(demos or [])
    messages.append(("user", filled))
    return GenerationRequest(system_prompt="", messages=tuple(messages), decoding=REFINE)


@dataclass(frozen=True)
class ParsedApecResponse:
    analysis: str
    correction: str
    final_notes: Optional[str] = None
    verdict: Optional[Literal["correct", "critical", "fixable"]] = None


def _header_pattern(header_text: str) -> re.Pattern:
    # tolerate '#' count and surrounding whitespace; title itself is fixed
    title = re.escape(header_text.lstrip("# "))
    return re.compile(rf"^\s*#+\s*{title}\s*$", re.MULTILINE)


_ANALYSIS_RE = _header_pattern(ANALYSIS_HEADER)
_CORRECTION_RE = _header_pattern(CORRECTION_HEADER)
_FINAL_RE = _header_pattern(FINAL_HEADER)

_VERDICT_MARKERS = (
    (VERDICT_CORRECT_MARKER, "correct"),
    (VERDICT_CRITICAL_MARKER, "critical"),
    (VERDICT_FIXABLE_MARKER, "fixable"),
)


def _detect_verdict(analysis: str):
    hits = []
    for marker, verdict in _VERDICT_MARKERS:
        pos = analysis.find(marker)
        if pos >= 0:
            hits.append((pos, verdict))
    if not hits:
        return None
    return min(hits)[1]


def parse_apec_response(raw: str, task: str) -> ParsedApecResponse:
    """Extract the sections of a three-part revision response.

    The correction is the text strictly between the correction header
    and the final header (or end of text). The verdict markers are only
    meaningful for ER responses.
    """
    correction_match = _CORRECTION_RE.search(raw)
    if correction_match is None:
        raise UnusableResponseError("response has no correction header")

    analysis_match = _ANALYSIS_RE.search(raw, 0, correction_match.start())
    analysis_start = analysis_match.end() if analysis_match else 0
    analysis = raw[analysis_start : correction_match.start()].strip()

    final_match = _FINAL_RE.search(raw, correction_match.end())
    correction_end = final_match.start() if final_match else len(raw)
    correction = raw[correction_match.end() : correction_end].strip()
    if not correction:
        raise UnusableResponseError("correction section is empty")

    final_notes = raw[final_match.end() :].strip() if final_match else None
    verdict = _detect_verdict(analysis) if task == TASK_EASY_READ else None
    return ParsedApecResponse(
        analysis=analysis,
        correction=correction,
        final_notes=final_notes,
        verdict=verdict,
    )


class ChatProvider(Protocol):
    """Single-attempt completion; retry policy lives in generate_text."""

    provider_id: str

    def complete(self, request: GenerationRequest) -> str: ...


def generate_text(
    provider: ChatProvider,
    request: GenerationRequest,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
) -> str:
    """Run one completion under the retry policy of `with_retries`.

    Raises ProviderUnavailableError once attempts are exhausted and
    UnusableResponseError on a blank completion.
    """
    what = f"provider {getattr(provider, 'provider_id', '?')}"
    content = with_retries(lambda: provider.complete(request), retries, backoff, what)
    if not content.strip():
        raise UnusableResponseError("provider returned an empty completion")
    return content


class HttpChatProvider:
    """OpenAI-compatible chat completions client.

    POST {endpoint} with {"model", "messages", "temperature", "top_p",
    "top_k" (when sampling, temperature > 0), "max_tokens"} through its own
    `HttpTransport`, whose idle connections `close` closes; the completion
    is read from choices[0].message.content, and a null there is an empty
    completion.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self._transport = HttpTransport(endpoint, api_key, timeout)
        self.model = model
        self.provider_id = f"http:{model}"

    def close(self) -> None:
        self._transport.close()

    def _payload(self, request: GenerationRequest) -> dict:
        messages = []
        if request.system_prompt:
            messages.append({"role": "system", "content": request.system_prompt})
        messages.extend(
            {"role": role, "content": content} for role, content in request.messages
        )
        decoding = request.decoding
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": decoding.temperature,
            "top_p": decoding.top_p,
            "max_tokens": DEFAULT_MAX_NEW_TOKENS,
        }
        if decoding.temperature > 0:
            payload["top_k"] = decoding.top_k
        return payload

    def complete(self, request: GenerationRequest) -> str:
        body = self._transport.post_json(self._payload(request), "chat endpoint")
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderUnavailableError(f"malformed chat response: {exc}") from exc
        if content is None or isinstance(content, str):
            return content or ""  # a null completion is an empty one
        raise ProviderUnavailableError(f"malformed chat response: {type(content).__name__} content")


def _check_fixture_entry(entry, what: str) -> None:
    fields = entry if isinstance(entry, dict) else {}
    if not all(isinstance(fields.get(key), str) for key in ("match", "response")):
        raise ValueError(
            f"{what} must be an object with string match and response keys, got {entry!r}"
        )


class ScriptedChatProvider:
    """Replays canned responses from a JSONL fixture.

    Each fixture line is {"match": substring, "response": text}. A
    completion consumes the first unconsumed entry whose match string
    occurs in the rendered request text; entries are therefore spent in
    file order when prompts arrive in fixture order.
    """

    def __init__(self, entries: list[dict], provider_id: str = "scripted"):
        for pos, entry in enumerate(entries):
            _check_fixture_entry(entry, f"fixture entry {pos}")
        self._entries = [dict(entry) for entry in entries]
        self._used = [False] * len(entries)
        self._lock = threading.Lock()
        self.provider_id = provider_id

    @classmethod
    def from_path(cls, path) -> "ScriptedChatProvider":
        entries = []
        for line_no, entry, *_ in read_jsonl(path):
            _check_fixture_entry(entry, f"{path} line {line_no}: fixture entry")
            entries.append(entry)
        return cls(entries, provider_id=f"scripted:{path}")

    def complete(self, request: GenerationRequest) -> str:
        text = request.as_flat_text()
        with self._lock:
            for pos, entry in enumerate(self._entries):
                if not self._used[pos] and entry["match"] in text:
                    self._used[pos] = True
                    return entry["response"]
        raise ProviderUnavailableError(
            "scripted provider has no unconsumed entry matching the request"
        )


class EchoChatProvider:
    """Returns the last user message; handy for plumbing tests."""

    provider_id = "echo"

    def complete(self, request: GenerationRequest) -> str:
        return request.last_user_content()
