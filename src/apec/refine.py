"""Metric-gated refinement cycles and cross-stream selection.

Each document runs a fixed number of revision cycles. Every cycle asks
the model to review the current adaptation and emit a corrected one;
the correction replaces the current adaptation only when its combined
readability/similarity score strictly improves. Unparseable responses
consume a cycle. Provider outages end the document early with the
trace flagged incomplete; everything produced so far is kept.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .corpus import Document, read_jsonl
from .errors import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    ApecError,
    MissingCorrectionError,
    NoWordsError,
    ProviderUnavailableError,
    ResponseEmptyError,
)
from .generation import (
    ChatProvider,
    generate_text,
    parse_apec_response,
    render_apec_prompt,
)
from .retrieval import Bm25Index, bm25_top_k
from .similarity import EmbeddingProvider, combined_score, cosine
from .textstats import fh_index

TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ApecConfig:
    cycles: int = 5
    demo_count: int = 5
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF

    def __post_init__(self):
        for name, low in (("cycles", 1), ("demo_count", 0), ("retries", 0), ("backoff", 0)):
            if not getattr(self, name) >= low:  # also NaN
                raise ValueError(f"{name} must be >= {low}")
        if not self.backoff < math.inf:  # time.sleep cannot wait forever
            raise ValueError("backoff must be finite")


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    candidate: str
    fh: float
    emb_sim: float
    score: float
    accepted: bool
    parse_failed: bool = False


@dataclass(frozen=True)
class ApecTrace:
    doc_id: str
    source: str
    initial: str
    initial_score: float
    records: tuple[CycleRecord, ...]
    final: str
    final_score: float
    stream: str = ""
    incomplete: bool = False


def score_candidate(
    source: str, candidate: str, embed_provider: EmbeddingProvider
) -> tuple[float, float, float]:
    """(readability, embedding similarity to source, combined score)."""
    fh = fh_index(candidate).fh
    source_vec, candidate_vec = embed_provider.embed([source, candidate])
    emb_sim = cosine(source_vec, candidate_vec)
    return fh, emb_sim, combined_score(fh, emb_sim)


def run_apec(
    doc: Document,
    initial: str,
    index: Bm25Index,
    llm_provider: ChatProvider,
    embed_provider: EmbeddingProvider,
    config: ApecConfig | None = None,
    stream: str = "",
) -> ApecTrace:
    """Run the full revision-cycle budget for one document.

    Demonstrations are retrieved once, against the source; the source
    never changes, so re-retrieving per cycle would be wasted work. A
    cycle's candidate is accepted only on strict score improvement
    (ties keep the incumbent, preventing oscillation). A cycle whose
    response is empty or cannot be parsed, or whose correction has no
    words, is recorded with parse_failed=True, zeroed metrics and what
    it got furthest to: "", the raw response or the correction.

    On ProviderUnavailable the trace is returned with incomplete=True
    and fewer records than the cycle budget; complete traces always
    have exactly `cycles` records.
    """
    config = config or ApecConfig()
    if not initial.strip():
        raise ApecError("initial adaptation is empty")
    initial_fh, initial_emb, initial_score = score_candidate(
        doc.source, initial, embed_provider
    )

    demos = (
        bm25_top_k(index, doc.source, k=config.demo_count)
        if config.demo_count > 0
        else []
    )

    current = initial
    current_score = initial_score
    records: list[CycleRecord] = []
    incomplete = False

    for cycle in range(1, config.cycles + 1):
        request = render_apec_prompt(doc.task, doc.source, current, demos)
        candidate = ""
        try:
            candidate = generate_text(
                llm_provider, request, retries=config.retries, backoff=config.backoff
            )
            candidate = parse_apec_response(candidate, doc.task).correction
            fh, emb_sim, score = score_candidate(doc.source, candidate, embed_provider)
        except ProviderUnavailableError:
            incomplete = True
            break
        except (ResponseEmptyError, MissingCorrectionError, NoWordsError):
            records.append(_failed_cycle(cycle, candidate))
            continue

        accepted = score > current_score
        records.append(
            CycleRecord(
                cycle=cycle,
                candidate=candidate,
                fh=fh,
                emb_sim=emb_sim,
                score=score,
                accepted=accepted,
            )
        )
        if accepted:
            current = candidate
            current_score = score

    return ApecTrace(
        doc_id=doc.id,
        source=doc.source,
        initial=initial,
        initial_score=initial_score,
        records=tuple(records),
        final=current,
        final_score=current_score,
        stream=stream,
        incomplete=incomplete,
    )


def _failed_cycle(cycle: int, candidate: str) -> CycleRecord:
    return CycleRecord(
        cycle=cycle,
        candidate=candidate,
        fh=0.0,
        emb_sim=0.0,
        score=combined_score(0.0, 0.0),
        accepted=False,
        parse_failed=True,
    )


def ensemble_select(
    traces: list[ApecTrace],
    priority: list[str] | None = None,
) -> ApecTrace:
    """The trace of the highest-scoring stream for one doc; its `final`
    is the chosen adaptation.

    Score ties go to the stream earliest in `priority`; streams not
    listed rank after listed ones, in input order.
    """
    if not traces:
        raise ApecError("no candidate streams for ensemble selection")
    priority = priority or []

    def tie_rank(position: int) -> int:
        stream = traces[position].stream
        if stream in priority:
            return priority.index(stream)
        return len(priority) + position

    best = min(
        range(len(traces)),
        key=lambda p: (-traces[p].final_score, tie_rank(p), p),
    )
    return traces[best]


def trace_to_dict(trace: ApecTrace) -> dict:
    payload = dataclasses.asdict(trace)
    payload["schema_version"] = TRACE_SCHEMA_VERSION
    return payload


# The JSON types that a field of each annotated type may hold (the
# annotations are strings under `from __future__ import annotations`).
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


def trace_from_dict(payload) -> ApecTrace:
    """The trace that `trace_to_dict` wrote, read back from JSON; other keys
    are ignored. ValueError unless `payload` is a dict of this schema version
    whose fields and cycle records are all present and of their annotated
    type, with every float finite."""
    if not isinstance(payload, dict):
        raise ValueError(f"trace must be a JSON object, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(f"unsupported trace schema version {version!r}")
    fields = {f.name for f in dataclasses.fields(ApecTrace)}
    kwargs = {k: v for k, v in payload.items() if k in fields}
    try:
        kwargs["records"] = tuple(CycleRecord(**r) for r in payload["records"])
        trace = ApecTrace(**kwargs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace: {type(exc).__name__}: {exc}") from exc
    for record in (trace, *trace.records):
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if field.type in _JSON_TYPES and type(value) not in _JSON_TYPES[field.type]:
                raise ValueError(f"{field.name} must be {field.type}, got {value!r}")
            if field.type == "float" and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{field.name} must be finite, got {value!r}")
    return trace


def read_traces(path) -> dict[str, ApecTrace]:
    """doc id -> trace for each line of a trace file, in file order; a trace
    without a stream takes the file's stem as its stream. A malformed trace or
    a repeated doc id raises ApecError naming the file and the line."""
    label = Path(path).stem
    traces: dict[str, ApecTrace] = {}
    for line_no, record in read_jsonl(path):
        try:
            trace = trace_from_dict(record)
        except ValueError as exc:
            raise ApecError(f"{path} line {line_no}: {exc}") from exc
        if trace.doc_id in traces:
            raise ApecError(f"{path} line {line_no}: duplicate doc_id {trace.doc_id!r}")
        traces[trace.doc_id] = trace if trace.stream else dataclasses.replace(trace, stream=label)
    return traces
