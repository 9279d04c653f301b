"""Span tracing of the apec layers from outside the program.

`traced(tracer)` wraps each layer's public functions for the duration of
a `with` block and restores them afterwards, so untraced runs in the
same process pay nothing. A function is wrapped under every name an
apec module binds it to: `from .retrieval import bm25_top_k` makes
`apec.cli.bm25_top_k` and `apec.refine.bm25_top_k` separate bindings of
one function, and both must be patched for the calls through them to be
seen. Provider and embedder methods are wrapped on their classes.

Spans (name, start, end, parent) are kept in memory and analysed after
the traced work ends; `write_spans` saves them for a closer look. Spans opened on a pool thread with nothing open
on that thread take the current `cli` span as parent.

Self time: at each instant, the open spans with no open child are the
ones doing the work; the instant's wall time is split equally between
them and credited to their layers. Instants with no span open go to
`other`. Layer self times plus `other` therefore add up to the traced
wall time, also when pool threads overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# layer -> (home module, public functions)
FUNCTIONS = {
    "cli": (
        "apec.cli",
        ("cmd_stats", "cmd_index", "cmd_adapt", "cmd_refine", "cmd_ensemble", "cmd_evaluate"),
    ),
    "corpus": ("apec.corpus", ("load_corpus", "corpus_stats", "evaluate_run")),
    "retrieval": (
        "apec.retrieval",
        ("build_index", "save_index", "load_index", "bm25_top_k", "embedding_top_k"),
    ),
    "textstats": ("apec.textstats", ("text_stats", "fh_index")),
    "similarity": ("apec.similarity", ("cosine", "bow_vector")),
    "generation": (
        "apec.generation",
        ("render_initial_prompt", "render_apec_prompt", "parse_apec_response", "generate_text"),
    ),
    "refine": (
        "apec.refine",
        ("run_apec", "score_candidate", "ensemble_select", "trace_to_dict", "trace_from_dict"),
    ),
}
# layer -> (home module, class, method)
METHODS = (
    ("similarity", "apec.similarity", "CachedEmbeddingProvider", "embed"),
    ("similarity", "apec.similarity", "HashEmbeddingProvider", "embed"),
    ("similarity", "apec.similarity", "HttpEmbeddingProvider", "embed"),
    ("generation", "apec.generation", "HttpChatProvider", "complete"),
)
LAYERS = tuple(FUNCTIONS)


def _words(args, result):
    return result.word_count


def _texts(args, result):
    return len(args[1])


def _trace_summary(args, result):
    records = result.records
    return (len(records), sum(r.accepted for r in records), result.incomplete)


# span name -> what to keep from (args, result) of a successful call
INFO = {
    "textstats.text_stats": _words,
    "similarity.CachedEmbeddingProvider.embed": _texts,
    "similarity.HashEmbeddingProvider.embed": _texts,
    "similarity.HttpEmbeddingProvider.embed": _texts,
    "refine.run_apec": _trace_summary,
}


@dataclass(eq=False)
class Span:
    id: int
    parent: int
    name: str
    start: float = 0.0
    end: float = 0.0
    error: str = ""
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    # pool threads share spans and _ids: list.append and count's next are
    # single steps under the interpreter lock
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    root: int = 0  # the open cli span, parent of spans opened on pool threads
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        is_cli = name.startswith("cli.")

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(next(self._ids), stack[-1] if stack else self.root, name)
            stack.append(span.id)
            if is_cli:
                self.root = span.id
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_cli:
                    self.root = 0
                self.spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        return traced_call


class traced:
    """Context manager: patch every binding of the traced functions."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "apec" or n.startswith("apec.")]
        for layer, (home, names) in FUNCTIONS.items():
            for name in names:
                fn = getattr(sys.modules.get(home), name, None)
                if fn is None:
                    self.tracer.missing.append(f"{home}.{name}")
                    continue
                wrapper = self.tracer.wrap(f"{layer}.{name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, wrapper)
        for layer, home, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(home), cls_name, None)
            fn = getattr(cls, method, None)
            if fn is None:
                self.tracer.missing.append(f"{home}.{cls_name}.{method}")
                continue
            self._patch(cls, method, self.tracer.wrap(f"{layer}.{cls_name}.{method}", fn))
        return self.tracer

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans: list[Span], start: float, end: float) -> tuple[dict, float]:
    """(self seconds per span name, seconds with no span open) over [start, end]."""
    by_id = {span.id: span for span in spans}
    # at equal times starts go first, so even a zero-length span opens
    events = sorted(
        [(s.start, 0, s.id) for s in spans] + [(s.end, 1, s.id) for s in spans]
    )
    per_name: dict[str, float] = {}
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    other = 0.0
    previous = start
    for moment, kind, span_id in events:
        elapsed = moment - previous
        if leaves:
            share = elapsed / len(leaves)
            for leaf in leaves:
                name = by_id[leaf].name
                per_name[name] = per_name.get(name, 0.0) + share
        else:
            other += elapsed
        previous = moment
        parent = by_id[span_id].parent
        if kind == 0:
            open_children[span_id] = 0
            leaves.add(span_id)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[span_id]
            leaves.discard(span_id)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    other += end - previous
    return per_name, other


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for lo, hi in sorted(intervals):
        if current_end is None or lo > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = lo, hi
        else:
            current_end = max(current_end, hi)
    if current_end is not None:
        total += current_end - current_start
    return total


def _pct(values: list[float], q: int) -> float:
    """q-th percentile (nearest rank); 0.0 when nothing was measured."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def pass_metrics(spans: list[Span], start: float, end: float, latency_s: float) -> dict:
    """Per-layer metrics of one traced pass whose stages span [start, end].

    Spans before `start` belong to the pass's `apec index` set-up; they
    give the index metrics and are left out of everything else.
    """
    setup = [s for s in spans if s.start < start]
    spans = [s for s in spans if s.start >= start]
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    per_name, other = self_times(spans, start, end)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in per_name.items():
        layer_self[name.split(".", 1)[0]] += seconds
    m: dict[str, float] = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m["other.self_s"] = other
    m["trace.wall_s"] = end - start

    for metric, name in (("cli.index_s", "cli.cmd_index"), ("retrieval.build_s", "retrieval.build_index"),
                         ("retrieval.save_s", "retrieval.save_index")):
        m[metric] = sum(s.duration for s in setup if s.name == name)
    m["cli.stats_s"] = total("cli.cmd_stats")
    m["cli.adapt_s"] = total("cli.cmd_adapt")
    m["cli.refine_s"] = total("cli.cmd_refine")
    m["cli.ensemble_s"] = total("cli.cmd_ensemble")
    m["cli.evaluate_s"] = total("cli.cmd_evaluate")

    m["corpus.load_s"] = total("corpus.load_corpus")
    m["corpus.stats_s"] = total("corpus.corpus_stats")
    m["corpus.evaluate_s"] = total("corpus.evaluate_run")

    m["retrieval.load_s"] = total("retrieval.load_index")
    for kind, name in (("bm25", "retrieval.bm25_top_k"), ("emb", "retrieval.embedding_top_k")):
        ms = [s.duration * 1e3 for s in named(name)]
        m[f"retrieval.{kind}_queries"] = len(ms)
        m[f"retrieval.{kind}_ms_p50"] = _pct(ms, 50)
        m[f"retrieval.{kind}_ms_p90"] = _pct(ms, 90)

    stats_spans = named("textstats.text_stats")
    words = sum(s.info for s in stats_spans if s.info is not None)
    stats_busy = sum(s.duration for s in stats_spans)
    m["textstats.calls"] = len(stats_spans)
    m["textstats.words"] = words
    m["textstats.words_per_s"] = words / stats_busy if stats_busy else 0.0

    cached = named("similarity.CachedEmbeddingProvider.embed")
    upstream = named("similarity.HashEmbeddingProvider.embed") + named(
        "similarity.HttpEmbeddingProvider.embed"
    )
    requested = sum(s.info or 0 for s in cached)
    computed = sum(s.info or 0 for s in upstream)
    m["similarity.embed_requested"] = requested
    m["similarity.embed_computed"] = computed
    m["similarity.cache_hit_ratio"] = 1.0 - computed / requested if requested else 0.0
    m["similarity.embed_self_s"] = sum(
        v for k, v in per_name.items() if k.startswith("similarity.") and k.endswith(".embed")
    )
    m["similarity.cosine_calls"] = len(named("similarity.cosine"))
    m["similarity.cosine_self_s"] = per_name.get("similarity.cosine", 0.0)

    renders = named("generation.render_initial_prompt") + named("generation.render_apec_prompt")
    parses = named("generation.parse_apec_response")
    calls = named("generation.HttpChatProvider.complete")
    m["generation.render_calls"] = len(renders)
    m["generation.render_us_p50"] = _pct([s.duration * 1e6 for s in renders], 50)
    m["generation.parse_calls"] = len(parses)
    m["generation.parse_us_p50"] = _pct([s.duration * 1e6 for s in parses], 50)
    m["generation.parse_fail_ratio"] = (
        sum(bool(s.error) for s in parses) / len(parses) if parses else 0.0
    )
    m["generation.provider_calls"] = len(calls)
    m["generation.provider_retries"] = max(0, len(calls) - len(named("generation.generate_text")))
    m["generation.provider_wait_s"] = _union_seconds([(s.start, s.end) for s in calls])
    overhead = [(s.duration - latency_s) * 1e3 for s in calls]
    m["generation.client_overhead_ms_p50"] = _pct(overhead, 50)
    m["generation.client_overhead_ms_p90"] = _pct(overhead, 90)

    runs = [s for s in named("refine.run_apec") if s.info is not None]
    wait_under: dict[int, float] = {}
    run_ids = {s.id for s in runs}
    by_id = {s.id: s for s in spans}
    for call in calls:
        ancestor = by_id.get(call.parent)
        while ancestor is not None and ancestor.id not in run_ids:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is not None:
            wait_under[ancestor.id] = wait_under.get(ancestor.id, 0.0) + call.duration
    cycles = sum(s.info[0] for s in runs)
    local_ms = [(s.duration - wait_under.get(s.id, 0.0)) * 1e3 for s in runs]
    m["refine.docs"] = len(named("refine.run_apec"))
    m["refine.cycles"] = cycles
    m["refine.accept_ratio"] = sum(s.info[1] for s in runs) / cycles if cycles else 0.0
    m["refine.incomplete_docs"] = sum(bool(s.info[2]) for s in runs)
    m["refine.local_ms_per_doc_p50"] = _pct(local_ms, 50)
    m["refine.local_ms_per_doc_p90"] = _pct(local_ms, 90)
    return m


def write_spans(spans: list[Span], origin: float, path: Path) -> None:
    """Spans as JSON lines, times in seconds from origin."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for s in sorted(spans, key=lambda s: s.start):
            record = {"id": s.id, "parent": s.parent, "name": s.name,
                      "start": s.start - origin, "end": s.end - origin}
            if s.error:
                record["error"] = s.error
            handle.write(json.dumps(record) + "\n")


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric across passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
