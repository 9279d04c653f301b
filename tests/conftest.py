import dataclasses
import hashlib
import itertools
import json
import math
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest


class PlantedEmbeddingProvider:
    """Fixed unit vector per exact text; raises on unknown text."""

    def __init__(self, vectors: dict):
        self._vectors = {text: list(vec) for text, vec in vectors.items()}
        self.provider_id = "planted"

    def embed(self, texts):
        return [list(self._vectors[text]) for text in texts]


class MiscountingEmbedder:
    """Hash vectors, but every reply is one vector short (`change` -1) or
    repeats its last vector once more (`change` +1)."""

    provider_id = "miscounting"

    def __init__(self, change: int):
        self.change = change

    def embed(self, texts):
        from apec.similarity import HashEmbeddingProvider

        vectors = HashEmbeddingProvider(8).embed(texts)
        return vectors[:-1] if self.change < 0 else vectors + vectors[-1:]


def planted_pair_provider(source: str, cosines: dict[str, float]):
    """Provider where cosine(source, text) equals the planted value.

    The source maps to (1, 0) and each text to (c, sqrt(1 - c^2)), both
    unit vectors, so their cosine is exactly c up to float error.
    """
    vectors = {source: [1.0, 0.0]}
    for text, c in cosines.items():
        vectors[text] = [c, math.sqrt(1.0 - c * c)]
    return PlantedEmbeddingProvider(vectors)


def apec_response(
    correction: str,
    analysis: str = "La adaptación tiene frases largas.",
    final: str = "Sin comentarios adicionales.",
) -> str:
    return (
        "# Análisis de la adaptación\n"
        f"{analysis}\n\n"
        "# Corrección\n"
        f"{correction}\n\n"
        "# Final\n"
        f"{final}"
    )


def corpus_lines(ids, pairs) -> list[bytes]:
    """JSONL records, one document with a reference per (source, adaptation)
    pair, under `ids`."""
    return [
        json.dumps({"id": doc_id, "source": source, "reference": adaptation, "task": "PL"})
        .encode("utf-8") + b"\n"
        for doc_id, (source, adaptation) in zip(ids, pairs)
    ]


def build_over_corpus(path, pairs, ids, params=None):
    """Write `pairs` under the doc ids `ids` as the JSONL corpus file `path`
    and build the index over it, through `CorpusPairs`."""
    from apec.retrieval import CorpusPairs, build_index

    path.write_bytes(b"".join(corpus_lines(ids, pairs)))
    return build_index(CorpusPairs(path), params)


def save_index_over_corpus(index, path):
    """Write the pairs of a built index as a JSONL corpus file, one
    document per doc id, and save the index at `path` over that file, with
    its sha256 and each record's byte span and 16-byte digest. Returns
    the corpus path: the index file's path with `.corpus.jsonl` in place of
    its suffix."""
    from apec.retrieval import CorpusPairs, save_index

    corpus = path.with_suffix(".corpus.jsonl")
    lines = corpus_lines(index.doc_ids, index.pairs)
    data = b"".join(lines)
    corpus.write_bytes(data)
    ends = list(itertools.accumulate(map(len, lines)))
    pairs = CorpusPairs(
        corpus,
        spans=[offset for span in zip([0, *ends], ends) for offset in span],
        digests=b"".join(hashlib.sha256(line).digest()[:16] for line in lines),
        sha256=hashlib.sha256(data).hexdigest(),
    )
    save_index(dataclasses.replace(index, pairs=pairs), path)
    return corpus


# the sidecar of an index file: these columns, then 16 bytes of digest per document
INDEX_COLUMNS = (("dfs", "I"), ("doc_token_counts", "I"), ("positions", "I"), ("tfs", "I"), ("spans", "Q"))


def read_index_file(path) -> dict:
    """An index file's header with its sidecar's columns added under their
    names: lists of ints, and `digests` as bytes."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    data = Path(f"{path}.columns").read_bytes()
    n_terms, n_docs = len(payload["terms"]), len(payload["doc_ids"])
    n_postings = sum(struct.unpack_from(f"<{n_terms}I", data))
    offset = 0
    for (name, code), n in zip(INDEX_COLUMNS, (n_terms, n_docs, n_postings, n_postings, 2 * n_docs)):
        payload[name] = list(struct.unpack_from(f"<{n}{code}", data, offset))
        offset += struct.calcsize(f"<{n}{code}")
    payload["digests"] = data[offset:]
    return payload


def write_index_file(path, payload) -> None:
    """Write a `read_index_file` payload back. With a `columns_sha256` key, the
    columns that it holds go to the sidecar in layout order, each a list of
    ints or raw bytes, and `columns_sha256` becomes the sidecar's sha256;
    without one, the payload is an earlier layout's single JSON object."""
    header = dict(payload)
    if "columns_sha256" in header:
        data = b"".join(
            column if isinstance(column, bytes) else struct.pack(f"<{len(column)}{code}", *column)
            for name, code in (*INDEX_COLUMNS, ("digests", None))
            if (column := header.pop(name, None)) is not None
        )
        Path(f"{path}.columns").write_bytes(data)
        header["columns_sha256"] = hashlib.sha256(data).hexdigest()
    Path(path).write_text(json.dumps(header) + "\n", encoding="utf-8")


@pytest.fixture
def hash_embedder():
    from apec.similarity import HashEmbeddingProvider

    return HashEmbeddingProvider(dim=32)


@dataclass
class Reply:
    """One scripted HTTP answer. `body` is sent as JSON unless it is bytes;
    `delay` is waited before answering; `cut` closes the connection
    halfway through the body it announced; `headers` are sent as well."""

    status: int = 200
    body: object = None
    delay: float = 0.0
    cut: bool = False
    headers: dict = field(default_factory=dict)


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        payload = json.loads(body)
        server = self.server
        with server.lock:
            request = SimpleNamespace(path=self.path, headers=self.headers, body=body, json=payload)
            server.received.append(request)
            reply = server.script.pop(0) if server.script else server.answer(payload)
        time.sleep(reply.delay)
        data = reply.body if isinstance(reply.body, bytes) else json.dumps(reply.body).encode()
        try:
            self.send_response(reply.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(2 * len(data) if reply.cut else len(data)))
            for name, value in reply.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except OSError:  # the client has already given up
            pass
        self.close_connection |= reply.cut

    def do_CONNECT(self):
        """Record a proxy tunnel request and refuse it."""
        with self.server.lock:
            self.server.received.append(SimpleNamespace(path=self.path, headers=self.headers))
        self.send_error(403)

    def log_message(self, format, *args):
        pass


class _KeepAliveHandler(_StubHandler):
    protocol_version = "HTTP/1.1"  # keeps each connection open for the next request


class StubServer(ThreadingHTTPServer):
    """Localhost HTTP server that answers each POST with the next Reply in
    `script`, or with `answer(request JSON)` once the script is spent,
    records each request's path, headers, body and JSON in `received`, and each
    connection it accepts in `connections`."""

    daemon_threads = False  # server_close waits for every handler

    def __init__(self, handler=_StubHandler):
        super().__init__(("127.0.0.1", 0), handler)
        self.lock = threading.Lock()
        self.script: list[Reply] = []
        self.answer = lambda payload: Reply(404, {"error": "no scripted reply"})
        self.received: list[SimpleNamespace] = []
        self.connections: list[socket.socket] = []
        self.url = f"http://127.0.0.1:{self.server_port}"

    def process_request(self, request, client_address):
        with self.lock:
            self.connections.append(request)
        super().process_request(request, client_address)

    def drop_connections(self):
        """Shut down every open connection, as a server that ends idle
        keep-alive connections does."""
        with self.lock:
            for conn in self.connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:  # already closed
                    pass


def _serve(monkeypatch, handler):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # never route the stub through a proxy
    server = StubServer(handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive()
    server.drop_connections()  # else a kept-alive handler waits for its client
    server.server_close()


@pytest.fixture
def stub_server(monkeypatch):
    """StubServer that answers over HTTP/1.0, one connection per request."""
    yield from _serve(monkeypatch, _StubHandler)


@pytest.fixture
def keepalive_server(monkeypatch):
    """StubServer that answers over HTTP/1.1 and keeps connections open."""
    yield from _serve(monkeypatch, _KeepAliveHandler)


@pytest.fixture
def waits(monkeypatch):
    """The backoff waits `with_retries` asks for, recorded instead of slept."""
    import apec.errors

    waits = []
    monkeypatch.setattr(apec.errors, "time", SimpleNamespace(sleep=waits.append))
    return waits
