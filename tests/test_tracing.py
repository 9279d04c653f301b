"""The benchmark's span tracer still finds every function it wraps.

`perfbench/tracing.py` looks up apec's functions and methods by name. A
rename or deletion in `src/apec` would otherwise show only when the
benchmark's traced run loses its spans.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from apec.cli import EXIT_OK, main

from conftest import apec_response

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def write_files(tmp_path, files):
    """Write each name's rows as a JSON Lines file in `tmp_path`."""
    for name, rows in files.items():
        (tmp_path / name).write_text(
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
        )


def two_docs():
    return [
        {"id": doc_id, "source": f"Fuente {doc_id} con frases largas.", "reference": "Corta.",
         "task": "PL"}
        for doc_id in ("a", "b")
    ]


def test_traced_names_exist_and_cli_spans_are_recorded(tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    corpus = tmp_path / "docs.jsonl"
    corpus.write_text(
        json.dumps({"id": "a", "source": "Una frase corta.", "task": "PL"}) + "\n",
        encoding="utf-8",
    )
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        rc = main(["stats", "--input", str(corpus), "--output", str(tmp_path / "stats.json")])
    assert rc == EXIT_OK
    assert tracer.missing == []
    assert "cli.cmd_stats" in {span.name for span in tracer.spans}


def test_refine_embeds_through_the_traced_cache(tmp_path, monkeypatch):
    """`similarity.embed_requested` counts the texts of the
    `CachedEmbeddingProvider.embed` spans: they must be every text that
    `run_apec` asks for, two per scored candidate."""
    tracing = load_tracing(monkeypatch)
    docs = two_docs()
    write_files(tmp_path, {
        "docs.jsonl": docs,
        "initial.jsonl": [{"doc_id": d["id"], "adaptation": f"Inicial {d['id']}."} for d in docs],
        "script.jsonl": [{"match": d["source"], "response": apec_response(f"Revisión {n}.")}
                         for d in docs for n in range(2)],
    })
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        rc = main(["refine", "--input", str(tmp_path / "initial.jsonl"),
                   "--docs", str(tmp_path / "docs.jsonl"), "--corpus", str(tmp_path / "docs.jsonl"),
                   "--provider", f"scripted:{tmp_path / 'script.jsonl'}", "--embed", "hash",
                   "--cycles", "2", "--output", str(tmp_path / "traces.jsonl")])
    assert rc == EXIT_OK
    assert tracer.missing == []
    requested = [span.info for span in tracer.spans
                 if span.name == "similarity.CachedEmbeddingProvider.embed"]
    scored = [span for span in tracer.spans if span.name == "refine.score_candidate"]
    assert len(scored) == 2 * (2 + 1)  # two documents, each its initial and two candidates
    assert sum(requested) == 2 * len(scored)


@pytest.mark.parametrize(
    "mode_args, spans",
    [
        (["--mode", "fs-bm25", "--index", "index.json"],
         {"retrieval.load_index": 1, "retrieval.bm25_top_k": 2}),
        (["--mode", "fs-bm25"], {"retrieval.build_index": 1, "retrieval.bm25_top_k": 2}),
        (["--mode", "fs-emb", "--embed", "hash"], {"retrieval.embedding_top_k": 1}),
    ],
    ids=["fs-bm25-index", "fs-bm25-built", "fs-emb"],
)
def test_adapt_retrieval_calls_are_traced(tmp_path, monkeypatch, mode_args, spans):
    """perfbench's `retrieval.bm25_queries` and `emb_queries` count these
    spans: a ranking function bound where the tracer cannot patch it, such
    as a module-level dict filled at import, would read 0 with no error.
    fs-bm25 ranks once per document, and fs-emb once for all of them."""
    tracing = load_tracing(monkeypatch)
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, {"docs.jsonl": two_docs()})
    assert main(["index", "--corpus", "docs.jsonl", "--output", "index.json"]) == EXIT_OK
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        rc = main(["adapt", "--input", "docs.jsonl", "--corpus", "docs.jsonl", *mode_args,
                   "--k", "1", "--provider", "echo", "--output", "adapt.jsonl"])
    assert rc == EXIT_OK
    assert tracer.missing == []
    names = [span.name for span in tracer.spans if span.name.startswith("retrieval.")]
    assert {name: names.count(name) for name in names} == spans
