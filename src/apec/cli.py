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
import contextlib
import dataclasses
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
    read_jsonl,
    render_evaluation_table,
    render_stats_table,
)
from .errors import DEFAULT_TIMEOUT, ApecError, ProviderUnavailableError
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
    read_traces,
    run_apec,
    trace_to_dict,
)
from .retrieval import (
    Bm25Params,
    CorpusPairs,
    bm25_top_k,
    build_index,
    derive_doc_seed,
    embedding_top_k,
    load_index,
    random_k,
    save_index,
)
from .similarity import HashEmbeddingProvider, HttpEmbeddingProvider
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

# Every config key with its default; a dict is a section. `apec` and
# `bm25` take their defaults from ApecConfig and Bm25Params, which also
# hold the range rules (_RULES). A flag overrides the key that its dest
# names.
_HTTP_DEFAULTS = {"endpoint": "", "api_key": "", "model": "default", "timeout": DEFAULT_TIMEOUT}
_CONFIG_DEFAULTS = {
    "seed": 0,
    "workers": 1,
    "retries": ApecConfig.retries,
    "apec": {key: getattr(ApecConfig, key) for key in ("cycles", "demo_count")},
    "bm25": vars(Bm25Params()),
    "llm": _HTTP_DEFAULTS,
    "embeddings": _HTTP_DEFAULTS,
}
_RULES = {"": ApecConfig, "apec": ApecConfig, "bm25": Bm25Params}


def load_config(path) -> dict:
    """The JSON object in a config file; `_options` reads its keys."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ApecError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ApecError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ApecError(f"config {path} must hold a JSON object")
    return raw


def _convert(name: str, value, default):
    """`value` with ${VAR} substituted, as the type of `default`, or
    ApecError naming the key. Numbers may be given as strings, but may
    not lose digits."""
    if isinstance(value, str):
        unset = [var for var in _ENV_REF.findall(value) if var not in os.environ]
        if unset:
            raise ApecError(
                f"config key {name} names unset environment variable {', '.join(unset)}"
            )
        value = _ENV_REF.sub(lambda match: os.environ[match.group(1)], value)
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            converted = type(default)(value)
        except (ValueError, OverflowError):
            pass
        else:
            if isinstance(value, str) or converted == value:
                return converted
    raise ApecError(f"config key {name} must be {type(default).__name__}, got {value!r}")


def _options(config: dict, section: str = "", args=None) -> dict:
    """Every option of a config section (the top level by default): the
    flag of that name if given, else its config value converted by
    `_convert`, else its default; a null value or section means the
    default. A value that breaks its rule in `_RULES` (or `workers` below
    1) is a UsageError from a flag and an ApecError from the config."""
    values = config.get(section) if section else config
    if values is None:
        values = {}
    elif not isinstance(values, dict):
        raise ApecError(f"config key {section} must be an object, got {values!r}")
    rules = _RULES.get(section)
    ruled = {field.name for field in dataclasses.fields(rules)} if rules else set()
    options = {}
    for key, default in (_CONFIG_DEFAULTS[section] if section else _CONFIG_DEFAULTS).items():
        if isinstance(default, dict):
            continue
        name = f"{section}.{key}" if section else key
        flag = getattr(args, key, None)
        if flag is not None:
            value = flag
        elif values.get(key) is not None:
            value = _convert(name, values[key], default)
        else:
            value = default
        options[key] = value
        try:
            if key in ruled:
                rules(**{key: value})
            elif key == "workers" and value < 1:  # the pool size, which no dataclass holds
                raise ValueError("workers must be >= 1")
        except ValueError as exc:
            if flag is not None:
                raise UsageError(f"{exc}, got {value}") from exc
            raise ApecError(f"config key {name}: {exc}, got {value!r}") from exc
    return options


# ------------------------------------------------------------- providers


def _http_provider(cls, config: dict, section: str, env: str):
    """`cls` built from a config section; ${env}_ENDPOINT and ${env}_API_KEY
    stand in for an unset endpoint and key."""
    settings = _options(config, section)
    endpoint = settings["endpoint"] or os.environ.get(f"{env}_ENDPOINT", "")
    if not endpoint:
        raise ApecError(f"http provider needs {section}.endpoint or {env}_ENDPOINT")
    api_key = settings["api_key"] or os.environ.get(f"{env}_API_KEY", "")
    return cls(endpoint, settings["model"], api_key=api_key, timeout=settings["timeout"])


def make_chat_provider(spec: str, config: dict):
    if spec == "echo":
        return EchoChatProvider()
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise UsageError("scripted provider needs a fixture path: scripted:PATH")
        return ScriptedChatProvider.from_path(path)
    if spec == "http":
        return _http_provider(HttpChatProvider, config, "llm", "LLM")
    raise UsageError(f"unknown chat provider spec {spec!r} (echo | scripted:PATH | http)")


def make_embed_provider(spec: str, config: dict):
    if spec == "http":
        return _http_provider(HttpEmbeddingProvider, config, "embeddings", "EMB")
    if spec == "hash":
        return HashEmbeddingProvider()
    if spec.startswith("hash:"):
        dim = spec[len("hash:"):]
        if not dim.isdecimal() or int(dim) < 1:
            raise UsageError(f"embedding spec {spec!r}: hash:DIM needs an integer DIM >= 1")
        return HashEmbeddingProvider(int(dim))
    raise UsageError(f"unknown embedding provider spec {spec!r} (hash[:DIM] | http)")


@contextlib.contextmanager
def _closing(*providers):
    """Close the connections of each HTTP provider when the block ends."""
    try:
        yield
    finally:
        for provider in providers:
            if hasattr(provider, "close"):
                provider.close()


# -------------------------------------------------------------- file I/O


def _json(value) -> str:
    """An artifact's JSON text; a NaN or an infinity, which is not JSON, is a ValueError."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, allow_nan=False)


def write_jsonl(path, records) -> None:
    lines = [_json(record) + "\n" for record in records]  # all first: a bad one writes no file
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_adaptations(path) -> dict[str, str]:
    """doc id -> adaptation, accepting plain outputs or trace files; a
    file with no record is an ApecError."""
    outputs: dict[str, str] = {}
    for line_no, record, *_ in read_jsonl(path):
        where = f"{path} line {line_no}"
        if not isinstance(record, dict):
            raise ApecError(f"{where}: expected a JSON object")
        doc_id = record.get("doc_id")
        text = record.get("adaptation", record.get("final"))
        if type(doc_id) not in (str, int) or not isinstance(text, str):
            raise ApecError(
                f"{where}: record needs a string or integer doc_id and a string adaptation/final"
            )
        if str(doc_id) in outputs:
            raise ApecError(f"{where}: duplicate doc_id {doc_id!r}")
        outputs[str(doc_id)] = text
    if not outputs:
        raise ApecError(f"no adaptations in {path}")
    return outputs


def _emit(text: str, output) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _skipped_warning(skipped: int) -> None:
    if skipped:
        print(f"warning: {skipped} training docs without reference skipped", file=sys.stderr)


def _training_index(path, params=None):
    """A BM25 index over the usable docs of the corpus at `path`, which
    reads their texts back from the file as rankings need them."""
    index = build_index(CorpusPairs(path), params)
    _skipped_warning(index.pairs.skipped)
    return index


def _bm25_index(index_path, corpus_path):
    """The index file at `index_path` over the corpus it was built from, or
    a new index over the corpus."""
    if index_path:
        return load_index(index_path, corpus_path)
    return _training_index(corpus_path)


def _run_docs(work, docs: list[Document], workers: int) -> tuple[list, list]:
    """Run `work(doc) -> (record, error or None)` over the documents.

    Returns the records and the (doc id, error) failures, both in input
    order; an ApecError fails only its document. One worker means inline.
    """

    def one(doc: Document):
        try:
            return work(doc)
        except ApecError as exc:
            return None, str(exc)

    if workers <= 1:
        outcomes = [one(doc) for doc in docs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, docs))
    records = [record for record, _ in outcomes if record is not None]
    failures = [(doc.id, error) for doc, (_, error) in zip(docs, outcomes) if error is not None]
    return records, failures


def _partial_exit(total: int, failures: list[tuple[str, str]]) -> int:
    """Report each (doc id, reason), in the order given: 0 when none
    failed, 4 when all did, else 5."""
    if not failures:
        return EXIT_OK
    for doc_id, reason in failures:
        print(f"error: doc {doc_id}: {reason}", file=sys.stderr)
    print(f"{len(failures)} of {total} documents failed", file=sys.stderr)
    return EXIT_PROVIDER if len(failures) == total else EXIT_PARTIAL


# ----------------------------------------------------------- subcommands


def cmd_stats(args, config: dict) -> int:
    embed = make_embed_provider(args.embed, config) if args.embed else None
    with _closing(embed):
        docs = load_corpus(args.input)
        report = corpus_stats(docs, side=args.side, embed_provider=embed)
    if args.text:
        _emit(render_stats_table(report, title=f"{args.input} [{args.side}]"), args.output)
    else:
        payload = dict(vars(report))
        payload["schema_version"] = ARTIFACT_SCHEMA_VERSION
        _emit(_json(payload), args.output)
    return EXIT_OK


def cmd_index(args, config: dict) -> int:
    index = _training_index(args.corpus, Bm25Params(**_options(config, "bm25", args)))
    save_index(index, args.output)
    print(f"indexed {len(index)} docs, {len(index.terms)} terms -> {args.output}")
    return EXIT_OK


def _parse_ratio(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--ratio expects LO,HI, got {text!r}") from exc
    if not lo <= hi:  # also false when either bound is NaN
        raise UsageError(f"--ratio bounds out of order: {text}")
    return lo, hi


def cmd_adapt(args, config: dict) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    if args.ratio and args.mode != "fs-bm25":
        raise UsageError("--ratio only applies to fs-bm25")
    if args.embed and args.mode != "fs-emb":
        raise UsageError("--embed only applies to fs-emb")
    if args.mode != "zs" and not args.corpus:
        raise UsageError(f"mode {args.mode} needs --corpus for demonstrations")
    if args.mode == "fs-emb" and not args.embed:
        raise UsageError("fs-emb needs --embed")
    options = _options(config, args=args)
    ratio = _parse_ratio(args.ratio) if args.ratio else None
    decoding = DECODING_PROFILES[args.decoding]
    provider = make_chat_provider(args.provider, config)
    embed = make_embed_provider(args.embed, config) if args.mode == "fs-emb" else None
    with _closing(provider, embed):
        docs = load_corpus(args.input)
        index = pairs = None
        if args.mode == "fs-bm25":
            index = _bm25_index(args.index, args.corpus)
        elif args.mode != "zs":
            # one pass over the training set before the pool starts; only the
            # demonstrations used are read back from the file
            pairs = CorpusPairs(args.corpus)
            if args.mode == "fs-emb":
                ranked = embedding_top_k(pairs, [doc.source for doc in docs], args.k, embed)
                emb_demos = {doc.id: demos for doc, demos in zip(docs, ranked)}
            else:
                for _ in pairs.read():  # the positions random_k samples
                    pass
            _skipped_warning(pairs.skipped)

        def demos_for(doc: Document):
            if args.mode == "zs":
                return []
            if args.mode == "fs-rdm":
                seed = derive_doc_seed(options["seed"], doc.id)
                return random_k(pairs, min(args.k, len(pairs)), seed)
            if args.mode == "fs-bm25":
                return bm25_top_k(index, doc.source, k=args.k, ratio_filter=ratio)
            return emb_demos[doc.id]

        def work(doc: Document):
            demos = demos_for(doc)
            request = render_initial_prompt(doc.task, doc.source, demos, decoding=decoding)
            record = {
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "doc_id": doc.id,
                "task": doc.task,
                "mode": args.mode,
                "adaptation": generate_text(provider, request, retries=options["retries"]),
            }
            return record, None

        records, failures = _run_docs(work, docs, options["workers"])
        write_jsonl(args.output, records)
        return _partial_exit(len(docs), failures)


def cmd_refine(args, config: dict) -> int:
    options = _options(config, args=args)
    run_config = ApecConfig(**_options(config, "apec", args), retries=options["retries"])
    provider = make_chat_provider(args.provider, config)
    embed = make_embed_provider(args.embed, config)
    with _closing(provider, embed):
        docs = load_corpus(args.docs)
        outputs = read_adaptations(args.input)
        docs_by_id = {doc.id: doc for doc in docs}
        unknown = [doc_id for doc_id in outputs if doc_id not in docs_by_id]
        if unknown:
            raise ApecError(f"adaptations reference unknown doc ids: {unknown[:5]}")

        index = _bm25_index(args.index, args.corpus)
        target_docs = [doc for doc in docs if doc.id in outputs]

        def work(doc: Document):
            trace = run_apec(
                doc, outputs[doc.id], index, provider, embed, config=run_config, stream=args.stream
            )
            error = "trace incomplete: provider gave out mid-run" if trace.incomplete else None
            return trace, error

        traces, failures = _run_docs(work, target_docs, options["workers"])
        write_jsonl(args.output, map(trace_to_dict, traces))
        return _partial_exit(len(target_docs), failures)


def cmd_evaluate(args, config: dict) -> int:
    embed = make_embed_provider(args.embed, config)
    with _closing(embed):
        docs = load_corpus(args.corpus)
        outputs = read_adaptations(args.input)
        report = evaluate_run(outputs, docs, embed)
    if args.text:
        _emit(render_evaluation_table(report), args.output)
    else:
        payload = dataclasses.asdict(report)
        del payload["skipped"]  # reported on stderr
        payload["schema_version"] = ARTIFACT_SCHEMA_VERSION
        _emit(_json(payload), args.output)
    return _partial_exit(report.doc_count + len(report.skipped), report.skipped)


def cmd_ensemble(args, config: dict) -> int:
    if len(args.inputs) < 2:
        raise UsageError("ensemble needs at least two trace files")
    priority = args.priority.split(",") if args.priority else None

    streams = [read_traces(path) for path in args.inputs]
    labels = [Path(path).stem for path in args.inputs]
    owners = {}  # stream name -> position of the first input holding it
    for position, by_doc in enumerate(streams):
        for name in sorted({trace.stream for trace in by_doc.values()}):
            first = owners.setdefault(name, position)
            if first != position:
                raise UsageError(
                    f"inputs {args.inputs[first]} and {args.inputs[position]} share the stream "
                    f"name {name!r}; tag them with `refine --stream` or rename the files"
                )

    for label, by_doc in zip(labels, streams):
        missing = sorted(set().union(*streams) - set(by_doc))
        if missing:
            print(
                f"warning: stream {label} missing {len(missing)} docs: {missing[:5]}",
                file=sys.stderr,
            )

    ordered = [doc_id for doc_id in streams[0] if all(doc_id in by_doc for by_doc in streams)]
    if not ordered:
        raise ApecError(f"no document is in every stream: {', '.join(args.inputs)}")
    records = []
    for doc_id in ordered:
        choice = ensemble_select([by_doc[doc_id] for by_doc in streams], priority)
        records.append(
            {
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "doc_id": choice.doc_id,
                "stream": choice.stream,
                "adaptation": choice.final,
                "final_score": choice.final_score,
            }
        )
    write_jsonl(args.output, records)
    return EXIT_OK


def cmd_tablecheck(args, config: dict) -> int:
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
    p.add_argument("--side", choices=["source", "reference"], default="source")
    p.add_argument("--embed", help="hash[:DIM] | http (enables similarity rows)")
    p.add_argument("--text", action="store_true", help="plain-text table output")
    p.add_argument("--output")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("index", help="build a BM25 demonstration index")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--k1", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--min-token-len", type=int, dest="min_token_len")
    p.set_defaults(func=cmd_index)

    p = subs.add_parser("adapt", help="produce initial adaptations")
    _add_common(p)
    p.add_argument("--input", required=True, help="documents to adapt")
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
    p.add_argument("--corpus", required=True, help="training docs for demonstrations")
    p.add_argument("--index", help="prebuilt BM25 index")
    p.add_argument("--provider", required=True, help="echo | scripted:PATH | http")
    p.add_argument("--embed", required=True, help="hash[:DIM] | http")
    p.add_argument("--cycles", type=int)
    p.add_argument("--demos", type=int, dest="demo_count", metavar="DEMOS")
    p.add_argument("--retries", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--stream", default="", help="stream tag recorded in traces")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_refine)

    p = subs.add_parser("evaluate", help="score outputs against references")
    _add_common(p)
    p.add_argument("--input", required=True, help="outputs or traces JSONL")
    p.add_argument("--corpus", required=True, help="docs with references")
    p.add_argument("--embed", required=True, help="hash[:DIM] | http")
    p.add_argument("--text", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("ensemble", help="best-scoring stream per document")
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
        return args.func(args, load_config(getattr(args, "config", None)))
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
