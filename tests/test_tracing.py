"""The benchmark's span tracer still finds every function it wraps.

`perfbench/tracing.py` looks up apec's functions and methods by name. A
rename or deletion in `src/apec` would otherwise show only when the
benchmark's traced run loses its spans.
"""

import importlib.util
import json
import sys
from pathlib import Path

from apec.cli import EXIT_OK, main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


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
