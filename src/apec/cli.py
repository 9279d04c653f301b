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
    _json,
    corpus_stats,
    docs_with_outputs,
    evaluate_run,
    load_corpus,
    read_jsonl,
    render_evaluation_table,
    render_stats_table,
    write_jsonl,
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
from .retrieval import columns_path, demonstrations, open_index, save_index
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

# Every config key, `section.key` or top-level, with its default. `apec`
# takes its defaults from ApecConfig, which also holds the range rules of
# its keys and of `retries`. A flag overrides the key that its dest names.
_HTTP_DEFAULTS = {"endpoint": "", "api_key": "", "model": "default", "timeout": DEFAULT_TIMEOUT}
_CONFIG_DEFAULTS = {
    "seed": 0,
    "workers": 1,
    "retries": ApecConfig.retries,
    "apec.cycles": ApecConfig.cycles,
    "apec.demo_count": ApecConfig.demo_count,
    **{f"{section}.{key}": value
       for section in ("llm", "embeddings") for key, value in _HTTP_DEFAULTS.items()},
}


def load_config(path) -> dict:
    """The JSON object in a config file; `_option` reads its keys."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a UTF-8 BOM is dropped
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


def _option(config: dict, name: str, args=None):
    """The option `name` of `_CONFIG_DEFAULTS`: the flag of its key if given,
    else its config value converted by `_convert`, else its default; a null
    value or section means the default. A value that breaks its rule in
    `ApecConfig` (or `workers` below 1) is a UsageError from a flag and an
    ApecError from the config."""
    section, _, key = name.rpartition(".")
    values = config.get(section) if section else config
    if values is None:
        values = {}
    elif not isinstance(values, dict):
        raise ApecError(f"config key {section} must be an object, got {values!r}")
    default, flag = _CONFIG_DEFAULTS[name], getattr(args, key, None)
    if flag is not None:
        value = flag
    elif values.get(key) is not None:
        value = _convert(name, values[key], default)
    else:
        value = default
    try:
        if key in {field.name for field in dataclasses.fields(ApecConfig)}:
            ApecConfig(**{key: value})
        elif key == "workers" and value < 1:  # the pool size, which no dataclass holds
            raise ValueError("workers must be >= 1")
    except ValueError as exc:
        if flag is not None:
            raise UsageError(f"{exc}, got {value}") from exc
        raise ApecError(f"config key {name}: {exc}, got {value!r}") from exc
    return value


# ------------------------------------------------------------- providers


def _http_provider(cls, config: dict, section: str, env: str):
    """`cls` built from a config section; ${env}_ENDPOINT and ${env}_API_KEY
    stand in for an unset endpoint and key."""
    settings = {key: _option(config, f"{section}.{key}") for key in _HTTP_DEFAULTS}
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


def read_adaptations(path) -> dict[str, str]:
    """doc id -> adaptation, accepting plain outputs or trace files; a
    file with no record is an ApecError."""
    outputs: dict[str, str] = {}
    for line_no, record, *_ in read_jsonl(path):
        where = f"{path} line {line_no}"
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


def _run_docs(work, docs: list[Document], workers: int, output) -> int:
    """Run `work(doc) -> (record, error or None)` over the documents, write the
    records to `output` and report the (doc id, error) failures, both in input
    order, and return `_partial_exit`'s code. An ApecError fails only its document."""

    def one(doc: Document):
        try:
            return work(doc)
        except ApecError as exc:
            return None, str(exc)

    if workers <= 1:  # inline: a pool of one thread raised the benchmark's peak RSS by about 5%
        outcomes = [one(doc) for doc in docs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, docs))
    write_jsonl(output, [record for record, _ in outcomes if record is not None])
    failures = [(doc.id, error) for doc, (_, error) in zip(docs, outcomes) if error is not None]
    return _partial_exit(len(docs), failures)


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
    index = open_index(None, args.corpus)
    _skipped_warning(index.pairs.skipped)
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
    seed, workers, retries = (_option(config, key, args) for key in ("seed", "workers", "retries"))
    ratio = _parse_ratio(args.ratio) if args.ratio else None
    decoding = DECODING_PROFILES[args.decoding]
    provider = make_chat_provider(args.provider, config)
    embed = make_embed_provider(args.embed, config) if args.mode == "fs-emb" else None
    with _closing(provider, embed):
        docs = load_corpus(args.input)
        demos_for, skipped = demonstrations(
            args.mode, docs, args.corpus, args.index, args.k, ratio, seed, embed
        )
        _skipped_warning(skipped)

        def work(doc: Document):
            demos = demos_for(doc)
            request = render_initial_prompt(doc.task, doc.source, demos, decoding=decoding)
            record = {
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "doc_id": doc.id,
                "task": doc.task,
                "mode": args.mode,
                "adaptation": generate_text(provider, request, retries=retries),
            }
            return record, None

        return _run_docs(work, docs, workers, args.output)


def cmd_refine(args, config: dict) -> int:
    workers, retries = (_option(config, key, args) for key in ("workers", "retries"))
    cycles, demo_count = (_option(config, f"apec.{key}", args) for key in ("cycles", "demo_count"))
    run_config = ApecConfig(cycles=cycles, demo_count=demo_count, retries=retries)
    provider = make_chat_provider(args.provider, config)
    embed = make_embed_provider(args.embed, config)
    with _closing(provider, embed):
        docs = load_corpus(args.docs)
        outputs = read_adaptations(args.input)
        docs = docs_with_outputs(outputs, docs)
        index = open_index(args.index, args.corpus)
        _skipped_warning(index.pairs.skipped)

        def work(doc: Document):
            trace = run_apec(
                doc, outputs[doc.id], index, provider, embed, config=run_config, stream=args.stream
            )
            error = "trace incomplete: provider gave out mid-run" if trace.incomplete else None
            return trace_to_dict(trace), error

        return _run_docs(work, docs, workers, args.output)


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
    names = [sorted({trace.stream for trace in by_doc.values()}) for by_doc in streams]
    owners = {}  # stream name -> position of the first input holding it
    for position, stream_names in enumerate(names):
        for name in stream_names:
            first = owners.setdefault(name, position)
            if first != position:
                raise UsageError(
                    f"inputs {args.inputs[first]} and {args.inputs[position]} share the stream "
                    f"name {name!r}; tag them with `refine --stream` or rename the files"
                )
    unknown = [name for name in priority or [] if name not in owners]
    if unknown:
        raise UsageError(f"--priority names streams that no input holds: {', '.join(unknown)}")

    for path, stream_names, by_doc in zip(args.inputs, names, streams):
        missing = sorted(set().union(*streams) - set(by_doc))
        if missing:
            print(
                f"warning: {path} (streams {stream_names}) missing {len(missing)} docs: {missing[:5]}",
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
    results = run_table_checks()
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
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
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
    p.set_defaults(func=cmd_tablecheck)

    return parser


def _check_output(args) -> None:
    """An ApecError when `--output`, or its sidecar for `index`, is a directory
    or its parent is not, and a UsageError when it is a file the command reads."""
    output = getattr(args, "output", None) or ""
    for out in [output, columns_path(output)] if args.command == "index" else [output]:
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
            raise ApecError(f"--output {output}: {out} is a directory, or its parent is not one")
        for dest in ("input", "inputs", "docs", "corpus", "index", "config", "provider"):
            paths = getattr(args, dest, None) or ""
            if dest == "index":
                paths = [paths, columns_path(paths)] if paths else []
            elif dest == "provider":
                paths = [paths.removeprefix("scripted:")] if paths.startswith("scripted:") else []
            for path in [paths] if isinstance(paths, str) else paths:
                if os.path.exists(out) and os.path.exists(path) and os.path.samefile(path, out):
                    raise UsageError(f"--output {output} would overwrite the --{dest} file {path}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_output(args)
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
