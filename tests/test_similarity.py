import hashlib
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apec.errors import ApecError, NoWordsError, ProviderUnavailableError
from apec.retrieval import embedding_top_k
from apec.similarity import (
    EMBED_BATCH_SIZE,
    CachedEmbeddingProvider,
    HashEmbeddingProvider,
    HttpEmbeddingProvider,
    bow_vector,
    combined_score,
    cosine,
    dense_dot,
    dense_norm,
    table_average,
)

from conftest import Reply


class TestBowVector:
    def test_counts_and_lowercase(self):
        assert bow_vector("La casa. La CASA grande.") == {
            "la": 2,
            "casa": 2,
            "grande": 1,
        }

    def test_single_letters_dropped(self):
        assert bow_vector("y o a la") == {"la": 1}

    def test_digits_kept(self):
        assert bow_vector("año 2024") == {"año": 1, "2024": 1}

    def test_underscore_excluded(self):
        assert bow_vector("uno_dos") == {"uno": 1, "dos": 1}

    def test_empty_text(self):
        assert bow_vector("...") == {}


class TestCosine:
    def test_identical_sparse(self):
        v = bow_vector("la casa verde la casa")
        assert cosine(v, v) == pytest.approx(1.0)

    def test_disjoint_sparse(self):
        assert cosine({"casa": 1}, {"perro": 2}) == 0.0

    def test_zero_vector(self):
        assert cosine({}, {"casa": 1}) == 0.0
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_dense(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert cosine([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_dense_negative(self):
        assert cosine([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ApecError, match="dense vectors differ in length: 2 vs 1"):
            cosine([1.0, 2.0], [1.0])

    def test_mixed_types_rejected(self):
        with pytest.raises(TypeError):
            cosine({"a": 1}, [1.0])

    def test_known_value(self):
        # hand computed: dot=2, norms sqrt(2)*sqrt(4)
        assert cosine({"a": 1, "b": 1}, {"a": 2}) == pytest.approx(2 / (math.sqrt(2) * 2))

    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=2, max_size=4),
            st.integers(min_value=1, max_value=50),
            max_size=8,
        ),
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=2, max_size=4),
            st.integers(min_value=1, max_value=50),
            max_size=8,
        ),
    )
    @settings(max_examples=300)
    def test_symmetry_and_range_on_counts(self, a, b):
        assert cosine(a, b) == pytest.approx(cosine(b, a))
        assert -1e-12 <= cosine(a, b) <= 1.0 + 1e-12

    @given(
        st.dictionaries(
            st.text(alphabet="abcd", min_size=2, max_size=3),
            st.integers(min_value=1, max_value=20),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=1, max_value=9),
    )
    def test_positive_scaling_invariance(self, vec, factor):
        scaled = {term: count * factor for term, count in vec.items()}
        assert cosine(vec, scaled) == pytest.approx(1.0)
        other = {"zz": 3, **{k: v for k, v in list(vec.items())[:2]}}
        assert cosine(scaled, other) == pytest.approx(cosine(vec, other))


def old_dense_cosine(a, b):
    """The dense cosine expression before the dot/norm helpers, verbatim."""
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def random_dense(rng, dim):
    """Components spread over six decades, so summation order shows."""
    return [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-3, 3) for _ in range(dim)]


class TestDenseParity:
    @pytest.mark.parametrize("dim", [1, 3, 32, 768])
    def test_cosine_bit_identical_to_old_expression(self, dim):
        rng = random.Random(dim)
        vectors = [random_dense(rng, dim) for _ in range(12)] + [[0.0] * dim]
        for a in vectors:
            for b in vectors:
                assert cosine(a, b) == old_dense_cosine(a, b)

    @pytest.mark.parametrize("dim", [1, 3, 32, 768])
    def test_helpers_bit_identical(self, dim):
        rng = random.Random(1000 + dim)
        a, b = random_dense(rng, dim), random_dense(rng, dim)
        assert dense_dot(a, b) == sum(x * y for x, y in zip(a, b))
        assert dense_norm(a) == math.sqrt(sum(x * x for x in a))

    def test_zero_vectors(self):
        zero = [0.0] * 4
        assert cosine(zero, zero) == 0.0
        assert cosine(zero, [1.0, 2.0, 3.0, 4.0]) == 0.0
        assert dense_norm(zero) == 0.0


class TestScores:
    def test_combined_score_known_value(self):
        assert combined_score(61.05, 0.8711) == pytest.approx(74.08, abs=5e-3)

    def test_combined_score_formula(self):
        assert combined_score(50.0, 0.5) == pytest.approx(50.0)

    def test_table_average_known_row(self):
        assert table_average(64.31, 0.5478, 0.8804) == pytest.approx(69.04, abs=5e-3)
        assert table_average(61.05, 0.5293, 0.8711) == pytest.approx(67.03, abs=5e-3)


class TestHashEmbedder:
    def test_unit_norm_and_dim(self):
        provider = HashEmbeddingProvider(dim=16)
        (vec,) = provider.embed(["hola"])
        assert len(vec) == 16
        assert math.sqrt(sum(v * v for v in vec)) == pytest.approx(1.0)

    def test_deterministic(self):
        a = HashEmbeddingProvider(dim=32).embed(["texto de prueba"])
        b = HashEmbeddingProvider(dim=32).embed(["texto de prueba"])
        assert a == b

    def test_distinct_texts_distinct_vectors(self):
        provider = HashEmbeddingProvider(dim=32)
        u, v = provider.embed(["uno", "dos"])
        assert u != v
        assert abs(cosine(u, v)) < 0.9

    def test_self_similarity(self):
        provider = HashEmbeddingProvider()
        u, v = provider.embed(["misma frase", "misma frase"])
        assert cosine(u, v) == pytest.approx(1.0)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            HashEmbeddingProvider(dim=0)

    def test_embed_text_empty(self):
        """A blank query in a batch is refused before any query is embedded."""
        provider = CountingProvider()
        with pytest.raises(NoWordsError):
            embedding_top_k([("uno dos", "uno")], ["uno", "  "], k=1, provider=provider)
        assert provider.calls == []


def reference_hash_vector(text, dim):
    """The hash embedder's original per-block loop, verbatim: the reference."""
    raw = text.encode("utf-8")
    values = []
    block = 0
    while len(values) < dim:
        digest = hashlib.sha256(raw + b"\x00" + block.to_bytes(4, "big")).digest()
        for k in range(0, len(digest) - 3, 4):
            if len(values) >= dim:
                break
            word = int.from_bytes(digest[k : k + 4], "big")
            values.append(word / 2**31 - 1.0)
        block += 1
    norm = math.sqrt(sum(v * v for v in values))
    if norm == 0.0:
        values[0] = 1.0
        norm = 1.0
    return [v / norm for v in values]


REFERENCE_TEXTS = [
    "",
    "hola",
    "¿Dónde está el niño? Mañana, señor, ¡por favor!",
    "Vamos al mar 🌊 mañana",
    "La información útil del año se guarda aquí. " * 113,  # ~5 KB
]


class TestHashEmbedderReference:
    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 32, 33, 768])
    def test_bit_identical_to_reference_loop(self, dim):
        provider = HashEmbeddingProvider(dim)
        vectors = provider.embed(REFERENCE_TEXTS)
        assert all(vec.typecode == "d" for vec in vectors)
        assert list(map(list, vectors)) == [
            reference_hash_vector(text, dim) for text in REFERENCE_TEXTS
        ]


def retained_bytes_per_value(make_vectors, values: int) -> float:
    """Bytes still allocated after `make_vectors()` returns, per vector value."""
    tracemalloc.start()
    try:
        vectors = make_vectors()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, vectors)) == values
    return retained / values


class TestVectorMemory:
    """200 texts at dim 512: arrays of doubles hold 8 bytes a value (lists of
    floats about 32)."""

    TEXTS = [f"texto número {i}" for i in range(200)]

    def test_hash_embedder(self):
        provider = HashEmbeddingProvider(dim=512)
        provider.embed(["warm up"])  # struct's format cache is not a vector
        assert retained_bytes_per_value(lambda: provider.embed(self.TEXTS), 200 * 512) < 10

    def test_http_reply(self):
        rng = random.Random(512)
        vectors = [[rng.uniform(-1, 1) for _ in range(512)] for _ in self.TEXTS]
        text = json.dumps(_emb_payload(vectors))
        parse = HttpEmbeddingProvider._parse  # the decoded reply is freed, its vectors kept
        assert retained_bytes_per_value(lambda: parse(json.loads(text), 200), 200 * 512) < 10


class CountingProvider:
    provider_id = "counting"

    def __init__(self):
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return [[float(len(t)), 1.0] for t in texts]


class TestCachedProvider:
    def test_second_call_served_from_cache(self):
        upstream = CountingProvider()
        cached = CachedEmbeddingProvider(upstream)
        first = cached.embed(["uno", "dos"])
        second = cached.embed(["uno", "dos"])
        assert first == second
        assert upstream.calls == [["uno", "dos"]]

    def test_batch_dedupe_preserves_order(self):
        upstream = CountingProvider()
        cached = CachedEmbeddingProvider(upstream)
        vectors = cached.embed(["aa", "bb", "aa", "ccc"])
        assert upstream.calls == [["aa", "bb", "ccc"]]
        assert vectors[0] == vectors[2] == [2.0, 1.0]
        assert vectors[3] == [3.0, 1.0]

    def test_partial_cache_hit(self):
        upstream = CountingProvider()
        cached = CachedEmbeddingProvider(upstream)
        cached.embed(["uno"])
        cached.embed(["uno", "dos"])
        assert upstream.calls == [["uno"], ["dos"]]


def _emb_payload(vectors, with_index=False):
    data = []
    for i, vec in enumerate(vectors):
        item = {"embedding": vec}
        if with_index:
            item["index"] = i
        data.append(item)
    return {"data": data}


class TestHttpEmbeddingProvider:
    @pytest.fixture
    def serve(self, stub_server, waits):
        """A provider for the stub server, which will answer with `replies`."""

        def serve(*replies):
            stub_server.script += replies
            return HttpEmbeddingProvider(stub_server.url + "/v1/embeddings", "modelo")

        return serve

    def test_success(self, serve, stub_server):
        provider = serve(Reply(body=_emb_payload([[1.0, 0.0]])))
        assert list(map(list, provider.embed(["hola"]))) == [[1.0, 0.0]]
        assert stub_server.received[0].path == "/v1/embeddings"
        assert stub_server.received[0].json == {"model": "modelo", "input": ["hola"]}

    def test_index_field_reorders(self, serve):
        payload = {
            "data": [
                {"index": 1, "embedding": [2.0]},
                {"index": 0, "embedding": [1.0]},
            ]
        }
        provider = serve(Reply(body=payload))
        assert list(map(list, provider.embed(["a", "b"]))) == [[1.0], [2.0]]

    def test_retry_on_500_then_success(self, serve, stub_server):
        provider = serve(Reply(500), Reply(body=_emb_payload([[0.5]])))
        assert list(map(list, provider.embed(["x"]))) == [[0.5]]
        assert len(stub_server.received) == 2

    def test_retry_on_connection_error(self, serve, stub_server):
        payload = _emb_payload([[0.5]])
        provider = serve(Reply(body=payload, cut=True), Reply(body=payload))
        assert list(map(list, provider.embed(["x"]))) == [[0.5]]
        assert len(stub_server.received) == 2

    def test_client_error_no_retry(self, serve, stub_server):
        provider = serve(Reply(404))
        with pytest.raises(ProviderUnavailableError, match="embedding endpoint returned HTTP 404"):
            provider.embed(["x"])
        assert len(stub_server.received) == 1

    def test_exhausted_retries(self, serve, stub_server):
        provider = serve(*[Reply(503)] * 4)
        with pytest.raises(ProviderUnavailableError, match="failed after 4 attempts"):
            provider.embed(["x"])
        assert len(stub_server.received) == 4

    @pytest.mark.parametrize("index", [2, -1, "0", None])
    def test_bad_index_is_malformed(self, serve, index):
        payload = {
            "data": [
                {"index": 0, "embedding": [1.0]},
                {"index": index, "embedding": [2.0]},
            ]
        }
        provider = serve(Reply(body=payload))
        with pytest.raises(ProviderUnavailableError, match="malformed embeddings"):
            provider.embed(["a", "b"])

    @pytest.mark.parametrize("body", [[1.0], {"data": [1.0]}, {"data": {"a": 1}}, None])
    def test_malformed_body(self, serve, body):
        provider = serve(Reply(body=body))
        with pytest.raises(ProviderUnavailableError, match="malformed embeddings"):
            provider.embed(["a"])

    @pytest.mark.parametrize(
        "value",
        [b'"2"', b"true", b"null", b"NaN", b"Infinity", b"-Infinity", b"1e999",
         pytest.param(b"9" * 400, id="400-digit-integer"),
         pytest.param(b"1e200", id="finite-value-whose-square-overflows")],
    )
    def test_value_not_a_finite_number_is_malformed(self, serve, value):
        provider = serve(Reply(body=b'{"data": [{"embedding": [1.0, ' + value + b"]}]}"))
        with pytest.raises(ProviderUnavailableError, match="malformed embeddings.*finite number"):
            provider.embed(["a"])

    def test_count_mismatch(self, serve):
        provider = serve(Reply(body=_emb_payload([[1.0]])))
        with pytest.raises(ProviderUnavailableError, match="embedding count mismatch"):
            provider.embed(["a", "b"])

    @pytest.mark.parametrize(
        "vectors, dim, problem",
        [
            ([[], []], None, "embedding 0 is empty"),
            ([[1.0], []], None, "embedding 1 is empty"),
            ([[1.0], [2.0, 3.0]], None, "embedding 1 has 2 values, not 1"),
            ([[1.0, 2.0], [3.0]], None, "embedding 1 has 1 values, not 2"),
            ([[1.0], [2.0]], 2, "embedding 0 has 1 values, not 2"),
        ],
    )
    def test_empty_or_ragged_vectors_are_malformed(self, vectors, dim, problem):
        with pytest.raises(ProviderUnavailableError) as raised:
            HttpEmbeddingProvider._parse(_emb_payload(vectors), len(vectors), dim)
        assert str(raised.value) == f"malformed embeddings response: {problem}"

    def test_parse_keeps_the_doubles_in_arrays(self):
        body = {"data": [{"embedding": [1, 0.1, -2.5e-300]}, {"embedding": [3, 2**60, 0]}]}
        vectors = HttpEmbeddingProvider._parse(body, 2)
        assert [vec.typecode for vec in vectors] == ["d", "d"]
        assert list(map(list, vectors)) == [[1.0, 0.1, -2.5e-300], [3.0, float(2**60), 0.0]]

    @pytest.mark.parametrize(
        "slots, problem", [([0, 0], "index 0 appears twice"), ([1, 1], "index 1 appears twice")]
    )
    def test_repeated_index_is_named(self, slots, problem):
        body = {"data": [{"index": slot, "embedding": [1.0]} for slot in slots]}
        with pytest.raises(ProviderUnavailableError) as raised:
            HttpEmbeddingProvider._parse(body, 2)
        assert str(raised.value) == f"malformed embeddings response: {problem}"

    def test_chunks_of_one_call_share_a_dimension(self, chunked, stub_server):
        def longer(call, payload):
            if call == 2:
                return Reply(body=_emb_payload([[0.0, 1.0]] * len(payload["input"])))
            return None

        with pytest.raises(ProviderUnavailableError, match="embedding 0 has 2 values, not 1"):
            chunked(longer).embed([str(n) for n in range(70)])
        assert len(stub_server.received) == 3  # a malformed reply is not retried

    @pytest.fixture
    def chunked(self, stub_server, waits):
        """A provider whose stub embeds text "n" as [n]; `fail(call, payload)`
        may replace the reply to the call-th request (0-based)."""

        def chunked(fail=lambda call, payload: None):
            def answer(payload):
                call = len(stub_server.received) - 1
                vectors = [[float(text)] for text in payload["input"]]
                return fail(call, payload) or Reply(body=_emb_payload(vectors))

            stub_server.answer = answer
            return HttpEmbeddingProvider(stub_server.url, "modelo")

        return chunked

    def test_requests_hold_at_most_one_batch(self, chunked, stub_server):
        texts = [str(n) for n in range(70)]
        assert list(map(list, chunked().embed(texts))) == [[float(n)] for n in range(70)]
        sent = [request.json["input"] for request in stub_server.received]
        assert [len(chunk) for chunk in sent] == [EMBED_BATCH_SIZE, EMBED_BATCH_SIZE, 6]
        assert sum(sent, []) == texts

    def test_busy_chunk_is_retried(self, chunked, stub_server, waits):
        provider = chunked(lambda call, payload: Reply(503) if call == 1 else None)
        vectors = provider.embed([str(n) for n in range(70)])
        assert list(map(list, vectors)) == [[float(n)] for n in range(70)]
        sent = [request.json["input"][0] for request in stub_server.received]
        assert sent == ["0", "32", "32", "64"]
        assert len(waits) == 1

    @pytest.mark.parametrize("bad_call", [0, 1, 2])
    def test_count_mismatch_in_any_chunk(self, chunked, bad_call):
        def short(call, payload):
            if call == bad_call:
                return Reply(body=_emb_payload([[0.0]] * (len(payload["input"]) - 1)))
            return None

        with pytest.raises(ProviderUnavailableError, match="embedding count mismatch"):
            chunked(short).embed([str(n) for n in range(70)])
