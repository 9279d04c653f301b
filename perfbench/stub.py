"""Localhost OpenAI-compatible chat stub for the pipeline benchmark.

Answers POST requests carrying a chat-completions payload with
`{"choices": [{"message": {"content": ...}}]}`. The completion is a pure
function of the request body, so results do not depend on call order
and any number of client workers gets byte-identical artifacts.

Two request kinds:

- first-pass adaptation (the payload has a system prompt): the source
  split into sentences of at most 14 words;
- revision (no system prompt): the text under review is read back from
  the filled review template and answered with one of four responses,
  chosen by a hash of the body, which names the model: an improving
  correction (shorter sentences and words), a copy of the current text
  under an "ADAPTACIÓN CORRECTA" verdict (a score tie the gate rejects),
  a response with no "# Corrección" header, or a punctuation-only
  correction. Together they exercise every branch of the revision loop
  except a provider outage.

It never returns a blank completion: one blank first-pass completion
aborts the whole `apec adapt` run today, which would leave nothing to
time.

Each response waits out `--latency-ms` counted from the moment the
request was read, so the stub's own compute hides inside the simulated
latency, and is written as one send on a TCP_NODELAY socket. Writing
headers and body separately stalls on delayed ACKs for tens of
milliseconds per call.

Usage: python3 perfbench/stub.py --latency-ms 20
Prints "PORT <n>" once listening; exits when its stdin closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import socket
import sys
import threading
import time

REVIEW_MARKER = "\n# Adaptación\n"
_WORD = re.compile(r"\S+")
_LONG_WORD = re.compile(r"[^\W\d_]{8,}")


def sentences_of(text: str, max_words: int) -> str:
    """Re-split text into sentences of at most max_words words."""
    words = [w.strip(",.;:¿?¡!") for w in _WORD.findall(text)]
    words = [w for w in words if w]
    out = []
    for start in range(0, len(words), max_words):
        chunk = words[start : start + max_words]
        chunk[0] = chunk[0][:1].upper() + chunk[0][1:]
        out.append(" ".join(chunk) + ".")
    paragraphs = [" ".join(out[i : i + 3]) for i in range(0, len(out), 3)]
    return "\n\n".join(paragraphs)


def improve(text: str, digest: bytes) -> str:
    """Shorter sentences and shorter long words: a higher readability."""
    max_words = 5 + digest[1] % 6
    keep = 5 + digest[2] % 3
    shortened = _LONG_WORD.sub(lambda m: m.group(0)[:keep], text)
    return sentences_of(shortened, max_words)


def revision(model: str, review: str, digest: bytes) -> str:
    _, _, current = review.rpartition(REVIEW_MARKER)
    current = current.strip()
    branch = digest[0] % 8
    if branch < 4:
        verdict, correction = "ADAPTACIÓN A CORREGIR", improve(current, digest)
    elif branch < 6:
        verdict, correction = "ADAPTACIÓN CORRECTA", current
    elif branch == 6:
        return f"# Análisis de la adaptación\n{model}: sin cambios.\n\n{current}\n"
    else:
        verdict, correction = "ERRORES CRÍTICOS", "¡¿ ... ?!"
    return (
        "# Análisis de la adaptación\n"
        f"{verdict}. Revisado por {model}.\n\n"
        "# Corrección\n"
        f"{correction}\n\n"
        "# Final\n"
        "Sin comentarios adicionales."
    )


def complete(body: bytes) -> bytes:
    payload = json.loads(body)
    messages = payload["messages"]
    model = payload.get("model", "")
    digest = hashlib.sha256(body).digest()
    last = messages[-1]["content"]
    if messages[0]["role"] == "system":
        content = sentences_of(last, 14)
    else:
        content = revision(model, last, digest)
    reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
    return json.dumps(reply, ensure_ascii=False).encode("utf-8")


def _read_request(conn: socket.socket, buffer: bytearray):
    """(body, rest of buffer) of the next request, or None at EOF."""
    while b"\r\n\r\n" not in buffer:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        buffer += chunk
    head, _, rest = bytes(buffer).partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = bytearray(rest)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        body += chunk
    return bytes(body[:length]), bytearray(body[length:])


def serve_connection(conn: socket.socket, latency: float) -> None:
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buffer = bytearray()
    with conn:
        while True:
            try:
                request = _read_request(conn, buffer)
            except OSError:
                return
            if request is None:
                return
            received = time.perf_counter()
            body, buffer = request
            try:
                status, content = b"200 OK", complete(body)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                status, content = b"400 Bad Request", str(exc).encode("utf-8")
            remaining = latency - (time.perf_counter() - received)
            if remaining > 0:
                time.sleep(remaining)
            head = (
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(content)).encode() + b"\r\n"
                b"Connection: keep-alive\r\n\r\n"
            )
            try:
                conn.sendall(head + content)
            except OSError:
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency-ms", type=float, default=0.0)
    args = parser.parse_args(argv)
    latency = args.latency_ms / 1000.0

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(64)
    print(f"PORT {listener.getsockname()[1]}", flush=True)

    def accept_loop():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # listener closed at shutdown
                return
            threading.Thread(
                target=serve_connection, args=(conn, latency), daemon=True
            ).start()

    threading.Thread(target=accept_loop, daemon=True).start()
    sys.stdin.read()  # the benchmark closes our stdin when it is done
    listener.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
