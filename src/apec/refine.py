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
from dataclasses import dataclass
from typing import Optional

from .corpus import Document
from .errors import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    EmptyAdaptationError,
    EmptyCandidateError,
    EmptyTextError,
    MissingCorrectionError,
    NoCandidatesError,
    NoWordsError,
    ProviderUnavailableError,
    ResponseEmptyError,
)
from .generation import (
    REFINE,
    ChatProvider,
    DecodingParams,
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
    refine_decoding: DecodingParams = REFINE
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF

    def __post_init__(self):
        for name, low in (("cycles", 1), ("demo_count", 0), ("retries", 0), ("backoff", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


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
    if not candidate.strip():
        raise EmptyCandidateError("cannot score an empty candidate")
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
    (ties keep the incumbent, preventing oscillation). Cycles whose
    response cannot be parsed or whose correction is unscorable are
    recorded with parse_failed=True and zeroed metrics.

    On ProviderUnavailable the trace is returned with incomplete=True
    and fewer records than the cycle budget; complete traces always
    have exactly `cycles` records.
    """
    config = config or ApecConfig()
    if not initial.strip():
        raise EmptyAdaptationError("initial adaptation is empty")
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
        request = render_apec_prompt(
            doc.task, doc.source, current, demos, decoding=config.refine_decoding
        )
        try:
            raw = generate_text(
                llm_provider, request, retries=config.retries, backoff=config.backoff
            )
        except ProviderUnavailableError:
            incomplete = True
            break
        except ResponseEmptyError:
            records.append(_failed_cycle(cycle, ""))
            continue

        try:
            parsed = parse_apec_response(raw, doc.task)
        except MissingCorrectionError:
            records.append(_failed_cycle(cycle, raw))
            continue

        candidate = parsed.correction
        try:
            fh, emb_sim, score = score_candidate(doc.source, candidate, embed_provider)
        except (EmptyCandidateError, NoWordsError, EmptyTextError):
            records.append(_failed_cycle(cycle, candidate))
            continue
        except ProviderUnavailableError:
            incomplete = True
            break

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


@dataclass(frozen=True)
class EnsembleChoice:
    doc_id: str
    stream: str
    adaptation: str
    final_score: float


def ensemble_select(
    traces: list[ApecTrace],
    priority: Optional[list[str]] = None,
) -> EnsembleChoice:
    """Pick the highest-scoring stream's final adaptation for one doc.

    Score ties go to the stream earliest in `priority`; streams not
    listed rank after listed ones, in input order.
    """
    if not traces:
        raise NoCandidatesError("no candidate streams for ensemble selection")
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
    chosen = traces[best]
    return EnsembleChoice(
        doc_id=chosen.doc_id,
        stream=chosen.stream,
        adaptation=chosen.final,
        final_score=chosen.final_score,
    )


def trace_to_dict(trace: ApecTrace) -> dict:
    payload = dataclasses.asdict(trace)
    payload["records"] = [dataclasses.asdict(r) for r in trace.records]
    payload["schema_version"] = TRACE_SCHEMA_VERSION
    return payload


def trace_from_dict(payload: dict) -> ApecTrace:
    version = payload.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(f"unsupported trace schema version {version!r}")
    records = tuple(CycleRecord(**r) for r in payload["records"])
    fields = {f.name for f in dataclasses.fields(ApecTrace)}
    kwargs = {k: v for k, v in payload.items() if k in fields}
    kwargs["records"] = records
    return ApecTrace(**kwargs)
