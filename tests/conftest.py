import json
import math
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest


class PlantedEmbeddingProvider:
    """Fixed unit vector per exact text; raises on unknown text."""

    def __init__(self, vectors: dict):
        self._vectors = {text: list(vec) for text, vec in vectors.items()}
        self.provider_id = "planted"

    def embed(self, texts):
        return [list(self._vectors[text]) for text in texts]


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


@pytest.fixture
def hash_embedder():
    from apec.similarity import HashEmbeddingProvider

    return HashEmbeddingProvider(dim=32)


@dataclass
class Reply:
    """One scripted HTTP answer. `body` is sent as JSON unless it is bytes;
    `delay` is waited before answering; `cut` closes the connection
    halfway through the body it announced."""

    status: int = 200
    body: object = None
    delay: float = 0.0
    cut: bool = False


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server = self.server
        with server.lock:
            request = SimpleNamespace(path=self.path, headers=self.headers, json=payload)
            server.received.append(request)
            reply = server.script.pop(0) if server.script else server.answer(payload)
        time.sleep(reply.delay)
        data = reply.body if isinstance(reply.body, bytes) else json.dumps(reply.body).encode()
        try:
            self.send_response(reply.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(2 * len(data) if reply.cut else len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:  # the client has already given up
            pass

    def log_message(self, format, *args):
        pass


class StubServer(ThreadingHTTPServer):
    """Localhost HTTP server that answers each POST with the next Reply in
    `script`, or with `answer(request JSON)` once the script is spent, and
    records each request's path, headers and JSON in `received`."""

    daemon_threads = False  # server_close waits for every handler

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.lock = threading.Lock()
        self.script: list[Reply] = []
        self.answer = lambda payload: Reply(404, {"error": "no scripted reply"})
        self.received: list[SimpleNamespace] = []
        self.url = f"http://127.0.0.1:{self.server_port}"


@pytest.fixture
def stub_server(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # never route the stub through a proxy
    server = StubServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive()
    server.server_close()


@pytest.fixture
def waits(monkeypatch):
    """The backoff waits `with_retries` asks for, recorded instead of slept."""
    import apec.errors

    waits = []
    monkeypatch.setattr(apec.errors, "time", SimpleNamespace(sleep=waits.append))
    return waits
