"""Operator command line for the adaptation pipeline.

Subcommands:

- stats:      corpus statistics report (counts, readability, similarity)
- index:      build and persist a BM25 demonstration index
- adapt:      produce initial adaptations (zs | fs-rdm | fs-bm25 | fs-emb)
- refine:     run revision cycles over an adaptations file
- evaluate:   score outputs against references
- ensemble:   pick the best-scoring stream per document
- tablecheck: recompute the built-in reported-results fixtures

Exit codes: 0 ok, 1 failed check, 2 usage, 3 config/data, 4 provider
unreachable, 5 some documents aborted. Artifacts are JSONL with a
schema_version field, written with sorted keys and ensure_ascii=False
so reruns with the same seed and scripted providers are byte-equal.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .corpus import (
    Document,
    corpus_stats,
    evaluate_run,
    load_corpus,
    render_evaluation_table,
    render_stats_table,
)
from .errors import (
    ApecError,
    ConfigError,
    ProviderUnavailableError,
)
from .generation import (
    DECODING_PROFILES,
    EchoChatProvider,
    HttpChatProvider,
    ScriptedChatProvider,
    generate_text,
    render_initial_prompt,
)
from .refine import (
    ApecConfig,
    ensemble_select,
    run_apec,
    trace_from_dict,
    trace_to_dict,
)
from .retrieval import (
    Bm25Params,
    bm25_top_k,
    build_embedding_index,
    build_index,
    derive_doc_seed,
    embedding_top_k,
    load_index,
    random_k,
    save_index,
)
from .similarity import (
    CachedEmbeddingProvider,
    HashEmbeddingProvider,
    HttpEmbeddingProvider,
)
from .tables import all_asserted_ok, render_check_report, run_table_checks

ARTIFACT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_PROVIDER = 4
EXIT_PARTIAL = 5


class UsageError(ApecError):
    """Bad flag combination caught after argparse."""


# ---------------------------------------------------------------- config

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _interpolate(value):
    if isinstance(value, str):
        def sub(match):
            name = match.group(1)
            if name not in os.environ:
                print(f"warning: env var {name} unset; using empty string", file=sys.stderr)
            return os.environ.get(name, "")

        return _ENV_REF.sub(sub, value)
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    return value


def load_config(path) -> dict:
    """Read a JSON config file, interpolating ${ENV_VAR} in strings."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return _interpolate(raw)


def _pick(flag, config_value, default):
    if flag is not None:
        return flag
    if config_value is not None:
        return config_value
    return default


# ------------------------------------------------------------- providers


def make_chat_provider(spec: str, config: dict):
    llm = config.get("llm", {})
    if spec == "echo":
        return EchoChatProvider()
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise UsageError("scripted provider needs a fixture path: scripted:PATH")
        return ScriptedChatProvider.from_path(path)
    if spec == "http":
        endpoint = llm.get("endpoint") or os.environ.get("LLM_ENDPOINT", "")
        api_key = llm.get("api_key") or os.environ.get("LLM_API_KEY", "")
        model = llm.get("model", "default")
        if not endpoint:
            raise ConfigError("http chat provider needs llm.endpoint or LLM_ENDPOINT")
        return HttpChatProvider(
            endpoint, model, api_key=api_key, timeout=float(llm.get("timeout", 120.0))
        )
    raise UsageError(f"unknown chat provider spec {spec!r} (echo | scripted:PATH | http)")


def make_embed_provider(spec: str, config: dict):
    emb = config.get("embeddings", {})
    if spec == "hash":
        return CachedEmbeddingProvider(HashEmbeddingProvider())
    if spec.startswith("hash:"):
        dim = spec[len("hash:"):]
        if not dim.isdecimal() or int(dim) < 1:
            raise UsageError(f"embedding spec {spec!r}: hash:DIM needs an integer DIM >= 1")
        return CachedEmbeddingProvider(HashEmbeddingProvider(int(dim)))
    if spec == "http":
        endpoint = emb.get("endpoint") or os.environ.get("EMB_ENDPOINT", "")
        api_key = emb.get("api_key") or os.environ.get("EMB_API_KEY", "")
        model = emb.get("model", "default")
        if not endpoint:
            raise ConfigError(
                "http embedding provider needs embeddings.endpoint or EMB_ENDPOINT"
            )
        return CachedEmbeddingProvider(
            HttpEmbeddingProvider(
                endpoint, model, api_key=api_key, timeout=float(emb.get("timeout", 120.0))
            )
        )
    raise UsageError(f"unknown embedding provider spec {spec!r} (hash[:DIM] | http)")


# -------------------------------------------------------------- file I/O


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
    return records


def read_adaptations(path) -> dict[str, str]:
    """doc id -> adaptation, accepting plain outputs or trace files."""
    outputs: dict[str, str] = {}
    for record in read_jsonl(path):
        doc_id = record.get("doc_id")
        text = record.get("adaptation", record.get("final"))
        if doc_id is None or text is None:
            raise ConfigError(f"{path}: record needs doc_id and adaptation/final")
        if doc_id in outputs:
            raise ConfigError(f"{path}: duplicate doc_id {doc_id!r}")
        outputs[str(doc_id)] = text
    return outputs


def _emit(text: str, output) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _training_pairs(docs: list[Document]) -> tuple[list, list]:
    """(ids, pairs) of docs usable as demonstrations."""
    usable = [doc for doc in docs if doc.reference]
    skipped = len(docs) - len(usable)
    if skipped:
        print(f"warning: {skipped} training docs without reference skipped", file=sys.stderr)
    if not usable:
        raise ConfigError("no training docs with references; cannot build demonstrations")
    return [doc.id for doc in usable], [(doc.source, doc.reference) for doc in usable]


def _run_pool(work, items, workers: int):
    """Apply work to items, preserving order; one worker means inline."""
    if workers <= 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items))


# ----------------------------------------------------------- subcommands


def cmd_stats(args) -> int:
    config = load_config(args.config)
    embed = make_embed_provider(args.embed, config) if args.embed else None
    docs = load_corpus(args.input, args.format)
    report = corpus_stats(docs, side=args.side, embed_provider=embed)
    if args.text:
        _emit(render_stats_table(report, title=f"{args.input} [{args.side}]"), args.output)
    else:
        payload = dict(vars(report))
        payload["schema_version"] = ARTIFACT_SCHEMA_VERSION
        _emit(json.dumps(payload, ensure_ascii=False, sort_keys=True), args.output)
    return EXIT_OK


def cmd_index(args) -> int:
    config = load_config(args.config)
    bm25_cfg = config.get("bm25", {})
    params = Bm25Params(
        k1=_pick(args.k1, bm25_cfg.get("k1"), 1.5),
        b=_pick(args.b, bm25_cfg.get("b"), 0.75),
        epsilon=_pick(args.epsilon, bm25_cfg.get("epsilon"), 0.25),
        min_token_len=int(_pick(args.min_token_len, bm25_cfg.get("min_token_len"), 4)),
    )
    docs = load_corpus(args.corpus, args.format)
    ids, pairs = _training_pairs(docs)
    index = build_index(pairs, params=params, ids=ids)
    save_index(index, args.output)
    print(f"indexed {len(index)} docs, {len(index.postings)} terms -> {args.output}")
    return EXIT_OK


def _parse_ratio(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--ratio expects LO,HI, got {text!r}") from exc
    if lo > hi:
        raise UsageError(f"--ratio bounds out of order: {text}")
    return lo, hi


def cmd_adapt(args) -> int:
    config = load_config(args.config)
    if args.ratio and args.mode != "fs-bm25":
        raise UsageError("--ratio only applies to fs-bm25")
    if args.mode != "zs" and not args.corpus:
        raise UsageError(f"mode {args.mode} needs --corpus for demonstrations")
    if args.mode == "fs-emb" and not args.embed:
        raise UsageError("fs-emb needs --embed")

    docs = load_corpus(args.input, args.format)
    provider = make_chat_provider(args.provider, config)
    decoding = DECODING_PROFILES[args.decoding]
    seed = int(_pick(args.seed, config.get("seed"), 0))
    workers = int(_pick(args.workers, config.get("workers"), 1))
    retries = int(_pick(args.retries, config.get("retries"), 3))
    k = args.k
    ratio = _parse_ratio(args.ratio) if args.ratio else None

    index = None
    pairs = []
    embed = None
    if args.mode != "zs":
        train = load_corpus(args.corpus)
        ids, pairs = _training_pairs(train)
        if args.mode == "fs-bm25":
            if args.index:
                index = load_index(args.index, dict(zip(ids, pairs)))
            else:
                index = build_index(pairs, ids=ids)
        if args.mode == "fs-emb":
            # built before the pool starts, so worker threads share it unlocked
            embed = make_embed_provider(args.embed, config)
            index = build_embedding_index(pairs, embed)

    def demos_for(doc: Document):
        if args.mode == "zs":
            return []
        if args.mode == "fs-rdm":
            return random_k(pairs, min(k, len(pairs)), derive_doc_seed(seed, doc.id))
        if args.mode == "fs-bm25":
            return bm25_top_k(index, doc.source, k=k, ratio_filter=ratio)
        return embedding_top_k(index, doc.source, k=k, provider=embed)

    failures: list[tuple[str, str]] = []

    def work(doc: Document):
        try:
            request = render_initial_prompt(
                doc.task, doc.source, demos_for(doc), decoding=decoding
            )
            text = generate_text(provider, request, retries=retries)
        except ApecError as exc:
            failures.append((doc.id, str(exc)))
            return None
        return {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "doc_id": doc.id,
            "task": doc.task,
            "mode": args.mode,
            "adaptation": text,
        }

    results = _run_pool(work, docs, workers)
    write_jsonl(args.output, (r for r in results if r is not None))
    return _partial_exit(len(docs), failures)


def cmd_refine(args) -> int:
    config = load_config(args.config)
    apec_cfg = config.get("apec", {})
    docs = load_corpus(args.docs, args.format)
    outputs = read_adaptations(args.input)
    docs_by_id = {doc.id: doc for doc in docs}
    unknown = [doc_id for doc_id in outputs if doc_id not in docs_by_id]
    if unknown:
        raise ConfigError(f"adaptations reference unknown doc ids: {unknown[:5]}")

    train = load_corpus(args.corpus)
    ids, pairs = _training_pairs(train)
    if args.index:
        index = load_index(args.index, dict(zip(ids, pairs)))
    else:
        index = build_index(pairs, ids=ids)

    provider = make_chat_provider(args.provider, config)
    embed = make_embed_provider(args.embed, config)
    run_config = ApecConfig(
        cycles=int(_pick(args.cycles, apec_cfg.get("cycles"), 5)),
        demo_count=int(_pick(args.demos, apec_cfg.get("demo_count"), 5)),
        retries=int(_pick(args.retries, apec_cfg.get("retries"), 3)),
        backoff=float(apec_cfg.get("backoff", 0.5)),
    )
    workers = int(_pick(args.workers, config.get("workers"), 1))
    target_docs = [doc for doc in docs if doc.id in outputs]

    failures: list[tuple[str, str]] = []

    def work(doc: Document):
        try:
            return run_apec(
                doc,
                outputs[doc.id],
                index,
                provider,
                embed,
                config=run_config,
                stream=args.stream,
            )
        except ApecError as exc:
            failures.append((doc.id, str(exc)))
            return None

    traces = _run_pool(work, target_docs, workers)
    write_jsonl(args.output, (trace_to_dict(t) for t in traces if t is not None))
    incomplete = [t.doc_id for t in traces if t is not None and t.incomplete]
    for doc_id in incomplete:
        failures.append((doc_id, "trace incomplete: provider gave out mid-run"))
    complete = sum(t is not None and not t.incomplete for t in traces)
    return _partial_exit(len(target_docs), failures, produced=complete)


def _partial_exit(total: int, failures: list, produced: int | None = None) -> int:
    if not failures:
        return EXIT_OK
    for doc_id, reason in failures:
        print(f"error: doc {doc_id}: {reason}", file=sys.stderr)
    print(f"{len(failures)} of {total} documents failed", file=sys.stderr)
    done = produced if produced is not None else total - len(failures)
    return EXIT_PROVIDER if done == 0 else EXIT_PARTIAL


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    embed = make_embed_provider(args.embed, config)
    docs = load_corpus(args.corpus, args.format)
    outputs = read_adaptations(args.input)
    report = evaluate_run(outputs, docs, embed)
    if args.text:
        _emit(render_evaluation_table(report), args.output)
    else:
        payload = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "doc_count": report.doc_count,
            "fh": report.fh,
            "fh_gain": report.fh_gain,
            "bow_sim": report.bow_sim,
            "emb_sim": report.emb_sim,
            "table_avg": report.table_avg,
            "rows": [vars(row) for row in report.rows],
        }
        _emit(json.dumps(payload, ensure_ascii=False, sort_keys=True), args.output)
    return _partial_exit(report.doc_count + len(report.skipped), list(report.skipped))


def cmd_ensemble(args) -> int:
    if len(args.inputs) < 2:
        raise UsageError("ensemble needs at least two trace files")
    priority = args.priority.split(",") if args.priority else None

    streams: list[dict[str, object]] = []
    labels: list[str] = []
    for path in args.inputs:
        label = Path(path).stem
        by_doc: dict[str, object] = {}
        for record in read_jsonl(path):
            trace = trace_from_dict(record)
            if not trace.stream:
                trace = trace_from_dict({**record, "stream": label})
            if trace.doc_id in by_doc:
                raise ConfigError(f"{path}: duplicate doc_id {trace.doc_id!r}")
            by_doc[trace.doc_id] = trace
        streams.append(by_doc)
        labels.append(label)

    common = set(streams[0])
    for by_doc in streams[1:]:
        common &= set(by_doc)
    for label, by_doc in zip(labels, streams):
        missing = sorted(set().union(*streams) - set(by_doc))
        if missing:
            print(
                f"warning: stream {label} missing {len(missing)} docs: {missing[:5]}",
                file=sys.stderr,
            )

    ordered = [doc_id for doc_id in streams[0] if doc_id in common]
    records = []
    for doc_id in ordered:
        choice = ensemble_select([by_doc[doc_id] for by_doc in streams], priority)
        records.append(
            {
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "doc_id": choice.doc_id,
                "stream": choice.stream,
                "adaptation": choice.adaptation,
                "final_score": choice.final_score,
            }
        )
    write_jsonl(args.output, records)
    return EXIT_OK


def cmd_tablecheck(args) -> int:
    results = run_table_checks(tolerance=args.tolerance)
    print(render_check_report(results))
    return EXIT_OK if all_asserted_ok(results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- parser


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file with ${ENV} interpolation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apec", description="Spanish text adaptation pipeline"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("stats", help="corpus statistics report")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--side", choices=["source", "reference"], default="source")
    p.add_argument("--embed", help="hash[:DIM] | http (enables similarity rows)")
    p.add_argument("--text", action="store_true", help="plain-text table output")
    p.add_argument("--output")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("index", help="build a BM25 demonstration index")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--k1", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--min-token-len", type=int, dest="min_token_len")
    p.set_defaults(func=cmd_index)

    p = subs.add_parser("adapt", help="produce initial adaptations")
    _add_common(p)
    p.add_argument("--input", required=True, help="documents to adapt")
    p.add_argument("--format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--corpus", help="training docs for demonstrations")
    p.add_argument("--index", help="prebuilt BM25 index (fs-bm25)")
    p.add_argument(
        "--mode", required=True, choices=["zs", "fs-rdm", "fs-bm25", "fs-emb"]
    )
    p.add_argument("--k", type=int, default=5, help="demonstration count")
    p.add_argument("--ratio", help="LO,HI length-ratio filter (fs-bm25)")
    p.add_argument("--provider", required=True, help="echo | scripted:PATH | http")
    p.add_argument("--embed", help="hash[:DIM] | http (fs-emb)")
    p.add_argument(
        "--decoding", choices=sorted(DECODING_PROFILES), default="greedy"
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--retries", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_adapt)

    p = subs.add_parser("refine", help="run revision cycles over adaptations")
    _add_common(p)
    p.add_argument("--input", required=True, help="initial adaptations JSONL")
    p.add_argument("--docs", required=True, help="documents being refined")
    p.add_argument("--format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--corpus", required=True, help="training docs for demonstrations")
    p.add_argument("--index", help="prebuilt BM25 index")
    p.add_argument("--provider", required=True, help="echo | scripted:PATH | http")
    p.add_argument("--embed", required=True, help="hash[:DIM] | http")
    p.add_argument("--cycles", type=int)
    p.add_argument("--demos", type=int)
    p.add_argument("--retries", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--stream", default="", help="stream tag recorded in traces")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_refine)

    p = subs.add_parser("evaluate", help="score outputs against references")
    _add_common(p)
    p.add_argument("--input", required=True, help="outputs or traces JSONL")
    p.add_argument("--corpus", required=True, help="docs with references")
    p.add_argument("--format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--embed", required=True, help="hash[:DIM] | http")
    p.add_argument("--text", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("ensemble", help="best-scoring stream per document")
    _add_common(p)
    p.add_argument("--inputs", nargs="+", required=True, help="two or more trace files")
    p.add_argument("--priority", help="comma-separated stream tie-break order")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = subs.add_parser("tablecheck", help="verify reported-results fixtures")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.set_defaults(func=cmd_tablecheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProviderUnavailableError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (ApecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
