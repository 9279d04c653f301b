"""Lexical and semantic similarity metrics and the combined scores.

BoW vectors are raw term counts over lowercased alphanumeric runs of
length >= 2 (no stopword removal). Embeddings come from a pluggable
provider; an HTTP client for OpenAI-style /embeddings endpoints and a
deterministic hash-based stub are provided. Both return `array("d")`
vectors, 8 bytes a value where a list of floats takes about 32.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import re
import struct
import sys
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from typing import Protocol

from .errors import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    ApecError,
    HttpTransport,
    ProviderUnavailableError,
    with_retries,
)

BowVector = dict[str, int]
EmbeddingVector = Sequence[float]  # the built-in embedders return array("d")
EMBED_BATCH_SIZE = 32  # texts per embeddings request: Hugging Face TEI's default limit

_BOW_TOKEN = re.compile(r"[^\W_]{2,}", re.UNICODE)


def bow_vector(text: str) -> BowVector:
    """Term-count vector: lowercased alphanumeric runs of length >= 2."""
    return dict(Counter(_BOW_TOKEN.findall(text.lower())))


def _doubles(values: list) -> array:
    """`array("d")` of a list of numbers. `struct` converts each number
    about three times faster than `array("d", values)`, to the same doubles."""
    return array("d", struct.pack(f"{len(values)}d", *values))


def dense_dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Builtin `sum` of the pairwise products, in order; lengths unchecked."""
    return sum(map(operator.mul, a, b))


def dense_norm(a: Sequence[float]) -> float:
    return math.sqrt(dense_dot(a, a))


def cosine(a, b) -> float:
    """Cosine similarity between two sparse (mapping) or dense vectors.

    Returns 0.0 when either vector has zero norm. Dense vectors must
    have equal length.
    """
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        dot = sum(value * b[term] for term, value in a.items() if term in b)
        norm_a = math.sqrt(sum(v * v for v in a.values()))
        norm_b = math.sqrt(sum(v * v for v in b.values()))
    elif isinstance(a, Sequence) and isinstance(b, Sequence):
        if len(a) != len(b):
            raise ApecError(f"dense vectors differ in length: {len(a)} vs {len(b)}")
        dot = dense_dot(a, b)
        norm_a = dense_norm(a)
        norm_b = dense_norm(b)
    else:
        raise TypeError("cosine expects two mappings or two sequences")
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def combined_score(fh: float, emb_sim: float) -> float:
    """In-loop gating score: mean of FH and cosine scaled to 0-100."""
    return (fh + 100.0 * emb_sim) / 2.0


def table_average(fh: float, bow_sim: float, emb_sim: float) -> float:
    """Reporting average over FH and both similarities scaled to 0-100."""
    return (fh + 100.0 * bow_sim + 100.0 * emb_sim) / 3.0


class EmbeddingProvider(Protocol):
    """Anything that maps a batch of texts to fixed-dimension vectors."""

    provider_id: str

    def embed(self, texts: list[str]) -> list[EmbeddingVector]: ...


class HashEmbeddingProvider:
    """Deterministic stand-in embedder (no model, no network).

    Each text hashes to a fixed unit vector, so identical texts always
    have similarity 1.0 and distinct texts are near-orthogonal for
    moderate dimensions. Suitable for dry runs and tests only.

    Construction: block b (b = 0, 1, ...) is the SHA-256 digest of
    ``text.encode("utf-8") + b"\\x00" + b.to_bytes(4, "big")``. The
    concatenated digests are read as big-endian unsigned 32-bit words;
    the first ``dim`` words w map to ``w / 2**31 - 1.0``, and the vector
    is divided by its norm (in-order builtin ``sum`` of squares, then
    ``math.sqrt``). An all-zero vector, which SHA-256 makes practically
    impossible, becomes the first basis vector. The reference test in
    ``tests/test_similarity.py`` pins these vectors bit for bit.
    """

    def __init__(self, dim: int = 32):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.provider_id = f"hash:{dim}"

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        return [self._one(text) for text in texts]

    def _one(self, text: str) -> EmbeddingVector:
        # hash the text once; each block only adds its counter to a copy
        prefix = hashlib.sha256(text.encode("utf-8") + b"\x00")
        digests = []
        for block in range(-(-self.dim // 8)):  # 8 words per digest
            state = prefix.copy()
            state.update(block.to_bytes(4, "big"))
            digests.append(state.digest())
        words = struct.unpack_from(f">{self.dim}I", b"".join(digests))
        values = [w / 2**31 - 1.0 for w in words]
        norm = dense_norm(values)
        if norm == 0.0:  # astronomically unlikely; keep the contract anyway
            values[0] = 1.0
            norm = 1.0
        return _doubles([v / norm for v in values])


class HttpEmbeddingProvider:
    """Client for an OpenAI-compatible embeddings endpoint.

    POSTs {"model": ..., "input": [...]} through its own `HttpTransport`,
    whose idle connections `close` closes, at most `EMBED_BATCH_SIZE`
    texts per request, each request retried by `with_retries`, and reads
    {"data": [{"embedding": [...]}, ...]}: one non-empty vector per text,
    all of one call's vectors of one length, whose values must be finite
    JSON numbers with a finite sum of squares, so that cosines are numbers.
    """

    def __init__(
        self, endpoint: str, model: str, api_key: str = "", timeout: float = DEFAULT_TIMEOUT
    ):
        self._transport = HttpTransport(endpoint, api_key, timeout)
        self.model = model
        self.provider_id = f"http:{endpoint}:{model}"

    def close(self) -> None:
        self._transport.close()

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        what = f"embedding provider {self.provider_id}"
        vectors: list[EmbeddingVector] = []
        for start in range(0, len(texts), EMBED_BATCH_SIZE):
            chunk = texts[start : start + EMBED_BATCH_SIZE]
            dim = len(vectors[0]) if vectors else None  # later chunks match the first
            attempt = functools.partial(self._post, chunk, dim)
            vectors += with_retries(attempt, DEFAULT_RETRIES, DEFAULT_BACKOFF, what)
        return vectors

    def _post(self, texts: list[str], dim: int | None) -> list[EmbeddingVector]:
        payload = {"model": self.model, "input": texts}
        body = self._transport.post_json(payload, "embedding endpoint")
        return self._parse(body, len(texts), dim)

    @staticmethod
    def _parse(body, expected: int, dim: int | None = None) -> list[EmbeddingVector]:
        """The reply's vectors in input order; each must hold `dim` values,
        or as many as the first vector when `dim` is None."""
        try:
            data = body["data"]
            vectors = [None] * len(data)
            for i, item in enumerate(data):
                slot = item.get("index", i)
                if type(slot) is not int or not 0 <= slot < len(data):
                    raise ValueError(f"index {slot!r} outside 0..{len(data) - 1}")
                if vectors[slot] is not None:
                    raise ValueError(f"index {slot} appears twice")
                values = item["embedding"]
                if not values:
                    raise ValueError(f"embedding {slot} is empty")
                finite = (type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values)
                if not all(finite):
                    raise ValueError(f"embedding {slot} holds a value that is not a finite number")
                dim = dim or len(values)
                if len(values) != dim:
                    raise ValueError(f"embedding {slot} has {len(values)} values, not {dim}")
                vectors[slot] = _doubles(values)
                if not math.isfinite(dense_dot(vectors[slot], vectors[slot])):
                    raise ValueError(f"embedding {slot}'s sum of squares is not a finite number")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ProviderUnavailableError(f"malformed embeddings response: {exc}") from exc
        if len(vectors) != expected:
            raise ProviderUnavailableError(
                f"embedding count mismatch: sent {expected}, got {len(vectors)}"
            )
        return vectors


def embed_checked(provider: EmbeddingProvider, texts: list[str]) -> list[EmbeddingVector]:
    """`provider.embed(texts)`, or ApecError unless it holds one vector per text."""
    vectors = provider.embed(texts)
    if len(vectors) != len(texts):
        raise ApecError(
            f"embedding provider returned {len(vectors)} vectors for {len(texts)} texts"
        )
    return vectors


class CachedEmbeddingProvider:
    """Caches another provider's vectors by exact text.

    `run_apec` wraps its embedder in a new one for each document, because
    every cycle embeds the source again: the source, and each distinct
    candidate, reach the upstream provider once. A document's cycles run
    in order on one thread, so the cache takes no lock.
    """

    def __init__(self, provider: EmbeddingProvider):
        self._provider = provider
        self.provider_id = provider.provider_id
        self._cache: dict[str, EmbeddingVector] = {}

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        missing = list(dict.fromkeys(t for t in texts if t not in self._cache))
        if missing:
            self._cache.update(zip(missing, embed_checked(self._provider, missing)))
        return [self._cache[t] for t in texts]
