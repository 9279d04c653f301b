import csv
import dataclasses
import hashlib
import json
import math
import operator
import random
import string
import struct
import sys
import tracemalloc
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import apec.retrieval
from apec.errors import ApecError, ProviderUnavailableError
from apec.retrieval import (
    Bm25Params,
    CorpusPairs,
    bm25_scores,
    bm25_tokens,
    bm25_top_k,
    build_index,
    derive_doc_seed,
    embedding_top_k,
    load_index,
    random_k,
    save_index,
)
from apec.similarity import (
    EMBED_BATCH_SIZE,
    CachedEmbeddingProvider,
    HashEmbeddingProvider,
    cosine,
    dense_dot,
    dense_norm,
)

from conftest import (
    MiscountingEmbedder,
    PlantedEmbeddingProvider,
    build_over_corpus,
    read_index_file,
    save_index_over_corpus,
    write_index_file,
)


def oracle_bm25(pairs, query, params=None):
    """Naive exhaustive scorer, straight from the ranking formula."""
    params = params or Bm25Params()
    docs = [
        [t for t in src.lower().split() if len(t) >= params.min_token_len]
        for src, _ in pairs
    ]
    n_docs = len(docs)
    df = {}
    for tokens in docs:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    raw = {t: math.log((n_docs - n + 0.5) / (n + 0.5)) for t, n in df.items()}
    positives = [v for v in raw.values() if v > 0]
    floor = params.epsilon * (sum(positives) / len(positives)) if positives else 0.0
    idf = {t: (v if v >= 0 else floor) for t, v in raw.items()}
    avgdl = sum(len(d) for d in docs) / n_docs
    query_tokens = [
        t for t in query.lower().split() if len(t) >= params.min_token_len
    ]
    scores = []
    for tokens in docs:
        dl = len(tokens)
        total = 0.0
        for term in query_tokens:
            tf = tokens.count(term)
            if tf == 0 or term not in idf or avgdl == 0:
                continue
            denom = tf + params.k1 * (1 - params.b + params.b * dl / avgdl)
            total += idf[term] * tf * (params.k1 + 1) / denom
        scores.append(total)
    return scores


def oracle_ranking(pairs, query, params=None):
    scores = oracle_bm25(pairs, query, params)
    return sorted(range(len(pairs)), key=lambda p: (-scores[p], p)), scores


def direct_scores(index, query):
    """Every posting scored by the formula, with no cached impacts: the
    arithmetic `bm25_scores` must reproduce bit for bit."""
    params, rows = index.params, {term: i for i, term in enumerate(index.terms)}
    scores = [0.0] * len(index)
    if index.avgdl == 0.0:
        return scores
    for token in bm25_tokens(query, params.min_token_len):
        if token not in rows:
            continue
        i = rows[token]
        token_idf, start, end = index.idf[i], index.starts[i], index.starts[i + 1]
        for pos, tf in zip(index.positions[start:end], index.tfs[start:end]):
            dl = index.doc_token_counts[pos]
            norm = params.k1 * (1.0 - params.b + params.b * dl / index.avgdl)
            scores[pos] += token_idf * tf * (params.k1 + 1.0) / (tf + norm)
    return scores


def reference_index_file(pairs, params, ids, corpus: bytes) -> tuple[str, bytes]:
    """The header line and the sidecar of the index file as a dict-of-dicts
    build writes them: a {pos: tf} map per term, flattened in sorted term
    order into little-endian uint32 columns, over `corpus`, the bytes of a
    JSONL file with one line per pair, each line's span and 16-byte digest
    (its sha256's first 16 bytes). The byte oracle `save_index` must
    reproduce."""
    postings, counts = {}, []
    for pos, (source, _) in enumerate(pairs):
        tokens = [t for t in source.lower().split() if len(t) >= params.min_token_len]
        counts.append(len(tokens))
        for token in tokens:
            docs = postings.setdefault(token, {})
            docs[pos] = docs.get(pos, 0) + 1
    terms = sorted(postings)

    def column(values, code="I"):
        return struct.pack(f"<{len(values)}{code}", *values)

    offsets, digests = [0], b""
    for line in corpus.splitlines(keepends=True):
        offsets += [offsets[-1], offsets[-1] + len(line)]
        digests += hashlib.sha256(line).digest()[:16]
    sidecar = b"".join([
        column([len(postings[term]) for term in terms]),
        column(counts),
        column([pos for term in terms for pos in postings[term]]),
        column([tf for term in terms for tf in postings[term].values()]),
        column(offsets[1:], "Q"),
        digests,
    ])
    header = {
        "schema_version": 1,
        "kind": "bm25-index-columns",
        "corpus_sha256": hashlib.sha256(corpus).hexdigest(),
        "columns_sha256": hashlib.sha256(sidecar).hexdigest(),
        "params": dataclasses.asdict(params),
        "doc_ids": list(ids),
        "avgdl": sum(counts) / len(counts),
        "terms": terms,
    }
    return json.dumps(header, ensure_ascii=False, sort_keys=True, allow_nan=False) + "\n", sidecar


def idf_hex(index) -> list[str]:
    """The idf column by `float.hex`, once it is checked to be one float64
    per term of the sorted term table."""
    assert type(index.idf) is array and index.idf.typecode == "d"
    assert len(index.idf) == len(index.terms)
    return list(map(float.hex, index.idf))


def term_idf(index, term: str) -> float:
    return index.idf[index.terms.index(term)]


VOCAB = [
    "casa", "perro", "gato", "tren", "sol", "luz", "mar", "pan",
    "grande", "verde", "azul", "rojo", "lento", "rápido", "nube",
    "el", "la", "un", "de", "y",
]


def random_params(rng):
    return Bm25Params(
        k1=rng.choice([0.5, 1.2, 1.5, 2.0]),
        b=rng.choice([0.0, 0.4, 0.75, 1.0]),
        epsilon=rng.choice([0.0, 0.25, 0.5]),
        min_token_len=rng.choice([1, 3, 4]),
    )


def random_case(rng):
    """Small-vocabulary corpus with varied adaptation lengths, so
    scores tie often and length ratios spread around 1."""
    params = random_params(rng)
    pairs = [
        (
            " ".join(rng.choices(VOCAB, k=rng.randint(1, 12))),
            " ".join(rng.choices(VOCAB, k=rng.randint(0, 12))),
        )
        for _ in range(rng.randint(1, 50))
    ]
    queries = [" ".join(rng.choices(VOCAB, k=rng.randint(1, 8))) for _ in range(3)]
    return params, pairs, queries


PAIRS = [
    ("la casa roja estaba vacía", "casa roja vacía"),
    ("el perro corre por el parque", "perro corre parque"),
    ("la casa verde tiene jardín grande", "casa verde jardín"),
    ("un tren cruza la ciudad dormida", "tren cruza ciudad"),
]


class TestParams:
    def test_defaults(self):
        params = Bm25Params()
        assert (params.k1, params.b, params.epsilon, params.min_token_len) == (
            1.5,
            0.75,
            0.25,
            4,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k1": -0.1},
            {"b": -0.01},
            {"b": 1.01},
            {"epsilon": -1.0},
            {"min_token_len": 0},
            {"k1": math.nan},
            {"k1": math.inf},
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"b": math.nan},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Bm25Params(**kwargs)


class TestBuildIndex:
    def test_empty_corpus(self):
        with pytest.raises(ApecError, match="cannot index an empty corpus"):
            build_index([])

    def test_short_tokens_not_indexed(self):
        index = build_index([("la el un casa", "x")])
        assert index.terms == ["casa"]
        assert index.doc_token_counts == (1,)

    def test_tokens_lowercased_with_punctuation_attached(self):
        assert bm25_tokens("La CASA, verde.", 4) == ["casa,", "verde."]

    def test_avgdl(self):
        index = build_index(PAIRS)
        counts = index.doc_token_counts
        assert index.avgdl == sum(counts) / len(counts)

    def test_posting_frequencies_positive(self):
        index = build_index(PAIRS)
        assert len(index.tfs) == len(index.positions) == index.starts[-1] > 0
        assert all(tf >= 1 for tf in index.tfs)
        assert all(len(t) >= 4 for t in index.terms)


class TestScoring:
    def test_matches_oracle_on_fixed_corpus(self):
        index = build_index(PAIRS)
        for query in ["la casa verde", "perro parque", "tren", "nada relevante aquí"]:
            assert bm25_scores(index, query) == pytest.approx(
                oracle_bm25(PAIRS, query), abs=1e-12
            )

    def test_common_term_gets_idf_floor(self):
        pairs = [
            ("casa roja grande", "a"),
            ("casa azul pequeña", "b"),
            ("casa verde mediana", "c"),
        ]
        index = build_index(pairs)
        positives = [math.log((3 - 1 + 0.5) / (1 + 0.5))] * 6
        floor = 0.25 * (sum(positives) / len(positives))
        assert term_idf(index, "casa") == pytest.approx(floor)
        # dl == avgdl so the length norm cancels and score == idf
        assert bm25_scores(index, "casa") == pytest.approx([floor] * 3)

    def test_no_positive_idf_floor_is_zero(self):
        pairs = [("casa sola", "a"), ("casa sola", "b")]
        index = build_index(pairs)
        assert term_idf(index, "casa") == 0.0
        assert bm25_scores(index, "casa") == [0.0, 0.0]

    def test_query_multiplicity_counts(self):
        index = build_index(PAIRS)
        single = bm25_scores(index, "casa")
        double = bm25_scores(index, "casa casa")
        assert double == pytest.approx([2 * s for s in single])

    def test_all_docs_token_free(self):
        index = build_index([("a el y", "x"), ("o un", "y")])
        assert index.avgdl == 0.0
        assert bm25_scores(index, "casa") == [0.0, 0.0]

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(20240817)
        for trial in range(40):
            params = random_params(rng)
            n_docs = rng.randint(1, 50)
            pairs = [
                (
                    " ".join(rng.choices(VOCAB, k=rng.randint(0, 12))),
                    "adaptación",
                )
                for _ in range(n_docs)
            ]
            query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 8)))
            index = build_index(pairs, params=params)
            got = bm25_scores(index, query)
            want = oracle_bm25(pairs, query, params)
            assert got == pytest.approx(want, abs=1e-9), (trial, query)
            expected_order, scores = oracle_ranking(pairs, query, params)
            demos = bm25_top_k(index, query, k=n_docs)
            assert [d.source for d in demos] == [pairs[p][0] for p in expected_order]
            assert [d.rank for d in demos] == list(range(1, n_docs + 1))


class TestTopK:
    def test_k_validation(self):
        index = build_index(PAIRS)
        with pytest.raises(ValueError):
            bm25_top_k(index, "casa", k=0)

    def test_k_larger_than_corpus(self):
        index = build_index(PAIRS)
        demos = bm25_top_k(index, "casa", k=99)
        assert len(demos) == len(PAIRS)

    def test_best_match_first(self):
        index = build_index(PAIRS)
        demos = bm25_top_k(index, "perro corre", k=2)
        assert demos[0].source == PAIRS[1][0]
        assert demos[0].adaptation == PAIRS[1][1]
        assert demos[0].retrieval_score > demos[1].retrieval_score

    def test_ties_broken_by_ascending_doc_id(self, tmp_path):
        pairs = [("casa perro", "a"), ("casa gato", "b"), ("casa pollo", "c")]
        index = build_over_corpus(tmp_path / "corpus.jsonl", pairs, [2, 0, 1])
        demos = bm25_top_k(index, "casa", k=3)
        assert [d.source for d in demos] == ["casa gato", "casa pollo", "casa perro"]

    def test_zero_score_docs_included(self):
        index = build_index(PAIRS)
        demos = bm25_top_k(index, "inexistente", k=4)
        assert len(demos) == 4
        assert all(d.retrieval_score == 0.0 for d in demos)
        assert [d.source for d in demos] == [src for src, _ in PAIRS]

    def test_ratio_filter_excludes_before_ranking(self):
        pairs = [
            ("uno dos tres cuatro", "uno dos tres cuatro"),  # ratio 1.0
            ("uno dos tres cuatro", "uno"),  # ratio 0.25
        ]
        index = build_index(pairs)
        demos = bm25_top_k(index, "cuatro", k=2, ratio_filter=(0.8, 1.2))
        assert len(demos) == 1
        assert demos[0].adaptation == "uno dos tres cuatro"
        assert demos[0].rank == 1


class TestCachedScoring:
    def test_ratio_filter_is_filter_then_oracle_rank(self):
        rng = random.Random(20240818)
        saw_tie = saw_k_below = saw_k_above = False
        for trial in range(60):
            params, pairs, queries = random_case(rng)
            lo, hi = sorted(rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]) for _ in "lh")
            index = build_index(pairs, params=params)
            admissible = {
                p for p, (source, adaptation) in enumerate(pairs)
                if lo <= len(adaptation.split()) / len(source.split()) <= hi
            }
            for query in queries:
                order, oracle = oracle_ranking(pairs, query, params)
                expected = [p for p in order if p in admissible]
                scores = bm25_scores(index, query)
                for k in (1, len(admissible) - 1, len(admissible) + 3):
                    if k < 1:
                        continue
                    demos = bm25_top_k(index, query, k=k, ratio_filter=(lo, hi))
                    want = expected[:k]
                    assert [(d.source, d.adaptation) for d in demos] == [
                        pairs[p] for p in want
                    ], (trial, query, k)
                    assert [d.retrieval_score for d in demos] == [scores[p] for p in want]
                    assert [d.rank for d in demos] == list(range(1, len(want) + 1))
                    saw_k_below |= k < len(admissible)
                    saw_k_above |= k > len(admissible)
                top = [oracle[p] for p in expected]
                saw_tie |= len(set(top)) < len(top)
        assert saw_tie and saw_k_below and saw_k_above

    def test_bad_ratio_range_through_top_k(self):
        index = build_index(PAIRS)
        for bounds in [(1.5, 0.5), (math.nan, 1.0)]:  # NaN fails every comparison
            with pytest.raises(ValueError, match="invalid ratio range"):
                bm25_top_k(index, "casa", k=2, ratio_filter=bounds)

    def test_blank_source_through_top_k(self):
        index = build_index([("casa verde", "casa"), ("   ", "algo")])
        for _ in range(2):  # a failed ratio pass leaves nothing cached
            with pytest.raises(ApecError, match="source has no tokens; length ratio undefined"):
                bm25_top_k(index, "casa", k=2, ratio_filter=(0.0, 9.0))
        assert len(bm25_top_k(index, "casa", k=2)) == 2

    def test_bad_range_checked_before_blank_source(self):
        index = build_index([("   ", "algo")])
        with pytest.raises(ValueError):
            bm25_top_k(index, "casa", k=1, ratio_filter=(2.0, 1.0))

    def test_warm_and_reloaded_scores_exact(self, tmp_path):
        rng = random.Random(20240819)
        for trial in range(30):
            params, pairs, queries = random_case(rng)
            warm = build_index(pairs, params=params)
            path = tmp_path / f"index{trial}.json"
            loaded = load_index(path, save_index_over_corpus(warm, path))
            for query in queries + queries:  # second round hits the warm cache
                fresh = build_index(pairs, params=params)
                want = direct_scores(fresh, query)
                assert bm25_scores(warm, query) == want, (trial, query)
                assert bm25_scores(loaded, query) == want, (trial, query)
                assert bm25_scores(fresh, query) == want, (trial, query)

    def test_repeated_query_tokens_accumulate_per_occurrence(self):
        index = build_index(PAIRS)
        query = "casa verde casa casa jardín verde"
        assert bm25_scores(index, query) == direct_scores(index, query)

    @pytest.mark.parametrize("persisted", [False, True], ids=["built", "loaded"])
    def test_shared_index_across_threads(self, tmp_path, persisted):
        rng = random.Random(20240820)
        pairs = [
            (" ".join(rng.choices(VOCAB, k=rng.randint(1, 30))), " ".join(VOCAB[: 1 + i % 9]))
            for i in range(300)
        ]
        queries = [" ".join(rng.choices(VOCAB, k=rng.randint(1, 20))) for _ in range(40)]
        window = (0.2, 0.8)
        reference = build_index(pairs)
        expected = [direct_scores(reference, q) for q in queries]
        expected_top = [bm25_top_k(reference, q, k=5, ratio_filter=window) for q in queries]
        shared = build_index(pairs)
        if persisted:  # pool threads then race to decode the same column slices and records
            path = tmp_path / "index.json"
            shared = load_index(path, save_index_over_corpus(shared, path))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(bm25_scores, shared, q) for q in queries * 4]
                top_futures = [
                    pool.submit(bm25_top_k, shared, q, 5, window) for q in queries * 4
                ]
                results = [future.result(timeout=60) for future in futures]
                top_results = [future.result(timeout=60) for future in top_futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 4
        assert top_results == expected_top * 4


class TestLengthRatio:
    def test_inclusive_bounds(self):
        source = "a b c d e"  # 5 tokens
        adaptations = ["a b c d", "a b c d e f", "a b c", "a b c d e f g"]  # 0.8 1.2 0.6 1.4
        index = build_index([(source, adaptation) for adaptation in adaptations])
        demos = bm25_top_k(index, source, k=4, ratio_filter=(0.8, 1.2))
        assert sorted(d.adaptation for d in demos) == adaptations[:2]

    def test_empty_source(self):
        index = build_index([("   ", "algo"), ("uno dos", "uno")])
        with pytest.raises(ApecError, match="source has no tokens; length ratio undefined"):
            bm25_top_k(index, "algo", ratio_filter=(0.5, 1.5))

    def test_bad_range(self):
        index = build_index([("uno", "dos")])
        with pytest.raises(ValueError):
            bm25_top_k(index, "uno", ratio_filter=(1.5, 0.5))


def emb_top_k(pairs, query, k, provider):
    """Rank the pairs for one query."""
    (demos,) = embedding_top_k(pairs, [query], k, provider)
    return demos


class TestEmbeddingTopK:
    def test_identical_text_ranks_first(self):
        pairs = [("rojo", "a"), ("verde", "b"), ("azul", "c")]
        demos = emb_top_k(pairs, "verde", k=2, provider=HashEmbeddingProvider())
        assert demos[0].source == "verde"
        assert demos[0].retrieval_score == pytest.approx(1.0)
        assert demos[0].rank == 1

    def test_ties_broken_by_position(self):
        provider = PlantedEmbeddingProvider(
            {"q": [1.0, 0.0], "x": [0.6, 0.8], "y": [0.6, 0.8]}
        )
        demos = emb_top_k([("x", "a"), ("y", "b")], "q", k=2, provider=provider)
        assert [d.source for d in demos] == ["x", "y"]

    def test_empty_pairs(self):
        with pytest.raises(ApecError, match="cannot index an empty corpus"):
            emb_top_k([], "q", k=1, provider=HashEmbeddingProvider())

    def test_k_validation(self):
        with pytest.raises(ValueError):
            emb_top_k([("a", "b")], "q", k=0, provider=HashEmbeddingProvider())


class CountingEmbedder:
    """Uncached 2-d embedder that records every text it is asked for."""

    provider_id = "counting"

    def __init__(self):
        self.requested = []

    def embed(self, texts):
        self.requested.extend(texts)
        return [[float(len(t)), 1.0] for t in texts]


class ByReferenceEmbedder:
    """Returns its planted vector objects themselves; records each call's texts."""

    provider_id = "by-reference"

    def __init__(self, vectors: dict):
        self.vectors = vectors
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return [self.vectors[text] for text in texts]


class ReadCountingVector(list):
    """A vector that counts how often it is read whole."""

    reads = 0

    def __iter__(self):
        ReadCountingVector.reads += 1
        return super().__iter__()


def oracle_emb_top_k(pairs, query, k, provider):
    """Rank by (-cosine, position) with `cosine()` on fresh vectors."""
    query_vec = provider.embed([query])[0]
    vecs = provider.embed([source for source, _ in pairs])
    scores = [cosine(query_vec, vec) for vec in vecs]
    order = sorted(range(len(pairs)), key=lambda p: (-scores[p], p))[:k]
    return [(pairs[p][0], pairs[p][1], scores[p], rank) for rank, p in enumerate(order, 1)]


def as_tuples(demos):
    return [(d.source, d.adaptation, d.retrieval_score, d.rank) for d in demos]


class ShortReplyEmbedder:
    """Planted vectors, but a reply for `short_of` drops its last vector."""

    provider_id = "short-reply"

    def __init__(self, vectors: dict, short_of: list):
        self.vectors = vectors
        self.short_of = short_of

    def embed(self, texts):
        vectors = [self.vectors[text] for text in texts]
        return vectors[:-1] if texts == self.short_of else vectors


def random_vectors(rng, names, dim):
    return {name: [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-3, 3) for _ in range(dim)]
            for name in names}


def finite_squares(vector):
    """`vector`, halved until its sum of squares is finite."""
    while not math.isfinite(dense_dot(vector, vector)):
        vector = [v / 2.0 for v in vector]
    return vector


@st.composite
def ranking_cases(draw):
    """Queries, rows and k for `embedding_top_k`: entries from 1e-160 up
    to a sum of squares just under overflow, with planted multiples of a
    query or an earlier row (exact ties and parallel vectors), zero rows
    and rows whose `dense_norm` underflows to 0 although their hypot does
    not; optionally every row points away from the first query, so that
    only zero rows score >= 0."""
    dim = draw(st.one_of(st.sampled_from([1, 2, 768]), st.integers(1, 768)))
    n = draw(st.integers(1, 2 * EMBED_BATCH_SIZE + 5))
    k = draw(st.integers(1, n + 2))
    center = draw(st.one_of(st.integers(-3, 3), st.integers(-160, 153)))
    spread = draw(st.sampled_from([0.0, 2.0, 2.0, 320.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def vector():
        exponent = min(max(center + rng.uniform(-spread, spread), -160.0), 153.0)
        return finite_squares([rng.gauss(0.0, 1.0) * 10.0**exponent for _ in range(dim)])

    queries = [vector() for _ in range(draw(st.integers(1, 3)))]
    rows = [vector() for _ in range(n)]
    for p in draw(st.lists(st.integers(0, n - 1), max_size=10)):
        kind = draw(st.sampled_from(["multiple"] * 4 + ["zero"] * 2 + ["underflow"]))
        if kind == "multiple":
            factor = rng.choice([1.0, 2.0, 0.5, 3.0, 0.1, 7e3])
            rows[p] = finite_squares([factor * v for v in rng.choice(queries + rows[:p])])
        elif kind == "zero":
            rows[p] = [0.0] * dim
        else:
            rows[p] = [rng.choice([-1e-170, 1e-170]) for _ in range(dim)]
    if draw(st.booleans()):
        rows = [[-v for v in row] if dense_dot(queries[0], row) > 0 else row for row in rows]
    return queries, rows, k


class TestEmbeddingIndex:
    @pytest.mark.parametrize("dim", [1, 3, 32, 768])
    def test_matches_cosine_oracle(self, dim):
        rng = random.Random(dim)
        n = 40
        vectors = random_vectors(rng, [f"s{i}" for i in range(n)], dim)
        # planted exact ties, a zero vector and the query itself
        vectors["s3"] = list(vectors["s7"])
        vectors["s11"] = [2.0 * v for v in vectors["s7"]]
        vectors["s5"] = [0.0] * dim
        vectors["q"] = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        vectors["s20"] = list(vectors["q"])
        provider = PlantedEmbeddingProvider(vectors)
        pairs = [(f"s{i}", f"a{i}") for i in range(n)]
        for k in (1, 5, n - 1, n, n + 10):
            got = [as_tuples(demos) for demos in embedding_top_k(pairs, ["q", "s7"], k, provider)]
            assert got == [oracle_emb_top_k(pairs, q, k, provider) for q in ("q", "s7")]
        (demos,) = embedding_top_k(pairs, ["s7"], n, provider)
        got = as_tuples(demos)
        assert got == oracle_emb_top_k(pairs, "s7", n, provider)
        scores = {source: score for source, _, score, _ in got}
        assert scores["s3"] == scores["s7"] == scores["s11"]
        assert scores["s5"] == 0.0
        ranked = [source for source, *_ in got]
        assert ranked.index("s3") < ranked.index("s7") < ranked.index("s11")

    @given(ranking_cases())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_cosine(self, case):
        """Every score, by `float.hex`, and every rank equal the oracle's."""
        queries, rows, k = case
        assume(not any(math.isnan(cosine(q, row)) for q in queries for row in rows))
        names = [f"q{i}" for i in range(len(queries))]
        vectors = dict(zip(names, queries)) | {f"s{i}": row for i, row in enumerate(rows)}
        provider = PlantedEmbeddingProvider(vectors)
        pairs = [(f"s{i}", f"a{i}") for i in range(len(rows))]

        def hexed(ranked):
            return [(source, score.hex(), rank) for source, _, score, rank in ranked]

        got = embedding_top_k(pairs, names, k, provider)
        assert [hexed(as_tuples(demos)) for demos in got] == [
            hexed(oracle_emb_top_k(pairs, name, k, provider)) for name in names
        ]

    def test_zero_rows_are_the_only_non_negative_scores(self):
        """Every other row points away from the query: the zero rows, in
        the first and the third slice, rank first with 0.0."""
        rng = random.Random(24)
        n = 2 * EMBED_BATCH_SIZE + 5
        vectors = random_vectors(rng, [f"s{i}" for i in range(n)] + ["q"], 12)
        for i in range(n):
            if dense_dot(vectors["q"], vectors[f"s{i}"]) > 0:
                vectors[f"s{i}"] = [-v for v in vectors[f"s{i}"]]
        zeros = [7, 2 * EMBED_BATCH_SIZE + 2]
        for p in zeros:
            vectors[f"s{p}"] = [0.0] * 12
        provider = PlantedEmbeddingProvider(vectors)
        pairs = [(f"s{i}", f"a{i}") for i in range(n)]
        for k in (1, 2, 3):
            (demos,) = embedding_top_k(pairs, ["q"], k, provider)
            assert as_tuples(demos) == oracle_emb_top_k(pairs, "q", k, provider)
            assert [(d.source, d.retrieval_score) for d in demos[:2]] == [
                (f"s{p}", 0.0) for p in zeros
            ][:k]

    def test_ties_across_slices_rank_by_position(self):
        """Exact ties in the first and the third slice of training sources
        keep position order, whichever slice the cut at k falls in."""
        rng = random.Random(69)
        n = 2 * EMBED_BATCH_SIZE + 5
        vectors = random_vectors(rng, [f"s{i}" for i in range(n)] + ["q"], 16)
        tied = [4, 9, 2 * EMBED_BATCH_SIZE + 1, 2 * EMBED_BATCH_SIZE + 3]  # slices 0, 0, 2, 2
        for i, p in enumerate(tied):
            vectors[f"s{p}"] = [2.0**i * v for v in vectors["q"]]  # exactly equal cosines
        vectors[f"s{EMBED_BATCH_SIZE + 2}"] = [0.0] * 16
        provider = PlantedEmbeddingProvider(vectors)
        pairs = [(f"s{i}", f"a{i}") for i in range(n)]
        for k in (1, 2, 3, 4, 5, n - 1, n, n + 10):
            (demos,) = embedding_top_k(pairs, ["q"], k, provider)
            assert as_tuples(demos) == oracle_emb_top_k(pairs, "q", k, provider)
            assert [d.source for d in demos[:4]] == [f"s{p}" for p in tied][:k]
        assert len({d.retrieval_score for d in demos[:4]}) == 1

    def test_zero_query_scores_zero(self):
        provider = PlantedEmbeddingProvider(
            {"q": [0.0, 0.0], "x": [0.6, 0.8], "y": [0.0, 0.0]}
        )
        (demos,) = embedding_top_k([("x", "a"), ("y", "b")], ["q"], 2, provider)
        assert [(d.source, d.retrieval_score) for d in demos] == [("x", 0.0), ("y", 0.0)]

    def test_training_set_embedded_once(self):
        """The queries in one call, then each training source once, in calls
        of `EMBED_BATCH_SIZE`."""
        provider = ByReferenceEmbedder(
            {f"fuente número {i}": [float(i), 1.0] for i in range(70)}
            | {"una consulta": [1.0, 0.0], "otra consulta más": [0.0, 1.0]}
        )
        pairs = [(f"fuente número {i}", f"a{i}") for i in range(70)]
        sources = [source for source, _ in pairs]
        queries = ["una consulta", "otra consulta más", "fuente número 3"]
        embedding_top_k(pairs, queries, 5, provider)
        assert provider.calls == [queries, sources[:32], sources[32:64], sources[64:]]

    def test_query_batch_is_one_embed_call_and_one_pass(self):
        rng = random.Random(18)
        queries = [f"q{i}" for i in range(5)]
        vectors = {text: [rng.gauss(0.0, 1.0) for _ in range(8)] for text in queries}
        vectors.update({f"s{i}": ReadCountingVector(rng.gauss(0.0, 1.0) for _ in range(8))
                        for i in range(30)})
        provider = ByReferenceEmbedder(vectors)
        pairs = [(f"s{i}", f"a{i}") for i in range(30)]
        ReadCountingVector.reads = 0
        batch = embedding_top_k(pairs, queries, 4, provider)
        assert provider.calls == [queries, [source for source, _ in pairs]]
        assert ReadCountingVector.reads == 30  # each training vector read once, not per query
        assert [as_tuples(demos) for demos in batch] == [
            oracle_emb_top_k(pairs, q, 4, provider) for q in queries
        ]

    def test_many_queries_read_each_vector_once(self):
        rng = random.Random(64)
        queries = [f"q{i}" for i in range(4 * EMBED_BATCH_SIZE + 3)]
        vectors = {text: [rng.gauss(0.0, 1.0) for _ in range(4)] for text in queries}
        vectors.update({f"s{i}": ReadCountingVector(rng.gauss(0.0, 1.0) for _ in range(4))
                        for i in range(EMBED_BATCH_SIZE + 10)})
        provider = ByReferenceEmbedder(vectors)
        pairs = [(f"s{i}", f"a{i}") for i in range(EMBED_BATCH_SIZE + 10)]
        ReadCountingVector.reads = 0
        batch = embedding_top_k(pairs, queries, 3, provider)
        assert provider.calls[0] == queries
        assert ReadCountingVector.reads == len(pairs)
        assert [as_tuples(demos) for demos in batch] == [
            oracle_emb_top_k(pairs, q, 3, provider) for q in queries
        ]

    def test_empty_batch(self):
        upstream = CountingEmbedder()
        assert embedding_top_k([("uno", "a")], [], 1, upstream) == []
        assert upstream.requested == []

    def test_one_string_is_not_a_batch(self):
        with pytest.raises(TypeError, match="a list of query texts"):
            embedding_top_k([("uno", "a")], "uno", 1, HashEmbeddingProvider())

    def test_cached_provider_serves_queries_from_cache(self):
        upstream = CountingEmbedder()
        cached = CachedEmbeddingProvider(upstream)
        pairs = [("uno", "a"), ("dos", "b"), ("tres", "c")]
        embedding_top_k(pairs, ["dos"], 2, cached)
        embedding_top_k(pairs, ["cuatro"], 2, cached)
        assert upstream.requested == ["dos", "uno", "tres", "cuatro"]

    @pytest.mark.parametrize("short_of", [["q1", "q2", "q3"], ["x", "y", "z"]])
    def test_short_embed_reply(self, short_of):
        """A reply with fewer vectors than texts, to the queries or to a
        slice of training sources, names both counts."""
        vectors = {text: [1.0, float(i)] for i, text in enumerate(["q1", "q2", "q3", "x", "y", "z"])}
        provider = ShortReplyEmbedder(vectors, short_of)
        pairs = [("x", "a"), ("y", "b"), ("z", "c")]
        with pytest.raises(ApecError, match="embedding provider returned 2 vectors for 3 texts"):
            embedding_top_k(pairs, ["q1", "q2", "q3"], 1, provider)

    def test_long_embed_reply(self):
        pairs = [("x", "a"), ("y", "b"), ("z", "c")]
        with pytest.raises(ApecError, match="embedding provider returned 4 vectors for 3 texts"):
            embedding_top_k(pairs, ["q1", "q2", "q3"], 1, MiscountingEmbedder(1))

    def test_mixed_training_dimensions(self):
        provider = PlantedEmbeddingProvider(
            {"q": [1.0, 0.0], "x": [1.0, 0.0], "y": [1.0, 0.0, 0.0]}
        )
        with pytest.raises(
            ProviderUnavailableError, match=r"embedding vectors differ in length: 3 vs the queries' 2"
        ):
            embedding_top_k([("x", "a"), ("y", "b")], ["q"], 1, provider)

    def test_query_dimension_mismatch(self):
        provider = PlantedEmbeddingProvider(
            {"q": [1.0, 0.0, 0.0], "x": [1.0, 0.0], "y": [0.0, 1.0]}
        )
        pairs = [("x", "a"), ("y", "b")]
        for queries in (["q"], ["q", "x"]):
            with pytest.raises(ApecError, match="differ in length: 2 vs the queries' 3"):
                embedding_top_k(pairs, queries, 1, provider)


class ArrayCopies:
    """Prebuilt vectors: `embed` returns a fresh `array("d")` copy of each text's."""

    provider_id = "array-copies"

    def __init__(self, vectors: dict):
        self._vectors = vectors

    def embed(self, texts):
        return [array("d", self._vectors[text]) for text in texts]


class TestEmbeddingMemory:
    """1,500 training pairs, 8 queries, 768-d hash vectors. All 1,500
    vectors held at once would take 9.2 MB (1,500 × 768 × 8 bytes); a
    slice of `EMBED_BATCH_SIZE`, read as tuples of floats, about 1 MB."""

    @staticmethod
    def corpus():
        rng = random.Random(5)
        words = [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(4, 9))) for _ in range(3000)
        ]
        pairs = [(" ".join(rng.choices(words, k=60)), "a") for _ in range(1500)]
        queries = [" ".join(rng.choices(words, k=80)) for _ in range(8)]
        return pairs, queries

    def test_slices_bound_the_heap(self):
        # the texts are hashed before tracing, and each embed call gets fresh
        # copies of their vectors, as from a provider's reply
        pairs, queries = self.corpus()
        texts = queries + [source for source, _ in pairs]
        provider = ArrayCopies(dict(zip(texts, HashEmbeddingProvider(768).embed(texts))))
        tracemalloc.start()
        try:
            ranked = embedding_top_k(pairs, queries, 5, provider)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(demos) for demos in ranked] == [5] * 8
        assert peak < 2_000_000

    def test_exact_scores_only_for_rows_that_can_rank(self, monkeypatch):
        """Of the 12,000 query-row pairs, at most 5% get an exact dot
        product or a row norm; the result is the one scoring every row."""
        pairs, queries = self.corpus()
        provider = CachedEmbeddingProvider(HashEmbeddingProvider(768))
        calls = Counter()

        def counted(function):
            def wrapper(*args):
                calls[function.__name__] += 1
                return function(*args)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(apec.retrieval, "dense_dot", counted(dense_dot))
            patch.setattr(apec.retrieval, "dense_norm", counted(dense_norm))
            ranked = embedding_top_k(pairs, queries, 5, provider)
        assert calls["dense_dot"] + calls["dense_norm"] - len(queries) <= 0.05 * 1500 * 8
        monkeypatch.setattr(apec.retrieval, "_HYPOTS", (math.inf, math.inf))  # no row is bounded
        assert embedding_top_k(pairs, queries, 5, provider) == ranked


class TestRandomK:
    def test_python_rng_golden(self):
        # guards the stdlib sampling this feature depends on
        assert random.Random(7).sample(range(100), 5) == [41, 19, 50, 83, 6]

    def test_deterministic_per_seed(self):
        pairs = [(f"texto {i}", f"adaptación {i}") for i in range(30)]
        first = random_k(pairs, 5, seed=42)
        second = random_k(pairs, 5, seed=42)
        assert first == second
        assert random_k(pairs, 5, seed=43) != first

    def test_ranks_and_scores(self):
        pairs = [(f"t{i}", f"a{i}") for i in range(10)]
        demos = random_k(pairs, 4, seed=1)
        assert [d.rank for d in demos] == [1, 2, 3, 4]
        assert all(d.retrieval_score == 0.0 for d in demos)
        assert len({d.source for d in demos}) == 4

    def test_k_too_large(self):
        with pytest.raises(ApecError, match="k=2 exceeds corpus size 1"):
            random_k([("a", "b")], 2, seed=0)

    def test_doc_seed_derivation(self):
        assert derive_doc_seed(7, "doc-1") == derive_doc_seed(7, "doc-1")
        assert derive_doc_seed(7, "doc-1") != derive_doc_seed(7, "doc-2")
        assert derive_doc_seed(8, "doc-1") != derive_doc_seed(7, "doc-1")


def count_parsed(monkeypatch):
    """The start of each record that a `CorpusPairs` parses from here on."""
    parsed = []
    real_read_record = apec.retrieval.read_record

    def read_record(corpus, record, start, header):
        parsed.append(start)
        return real_read_record(corpus, record, start, header)

    monkeypatch.setattr(apec.retrieval, "read_record", read_record)
    return parsed


class TestCorpusPairs:
    """A training corpus file of 75 documents, every fifth without a
    reference (the key left out or empty), as JSONL or as CSV with \\r\\n
    line ends and each source a quoted field over two lines. Its 60 usable
    pairs span two `EMBED_BATCH_SIZE` slices; read through `CorpusPairs`,
    they rank and sample as the same pairs in a list do."""

    @staticmethod
    def corpus(tmp_path, corpus_format):
        rng = random.Random(9)
        words = ["".join(rng.choices("aeioulmnprst", k=rng.randint(4, 8))) for _ in range(40)]
        docs = [
            {"id": f"t{i}", "source": " ".join(rng.choices(words, k=6)).replace(" ", "\n", 1),
             "reference": " ".join(rng.choices(words, k=3)), "task": "PL"}
            for i in range(75)
        ]
        for i, doc in enumerate(docs[::5]):
            if i % 2:
                doc["reference"] = ""
            else:
                del doc["reference"]
        path = tmp_path / f"train.{corpus_format}"
        if corpus_format == "csv":
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.DictWriter(handle, ["id", "source", "reference", "task"])
                writer.writeheader()
                writer.writerows(docs)
        else:
            path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        pairs = [(doc["source"], doc["reference"]) for doc in docs if doc.get("reference")]
        assert len(pairs) == 60 > EMBED_BATCH_SIZE
        return path, pairs

    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    def test_read_then_indexed_by_position(self, tmp_path, corpus_format):
        path, pairs = self.corpus(tmp_path, corpus_format)
        corpus = CorpusPairs(path)
        assert len(corpus) == 0 and not corpus
        for _ in range(2):  # a second pass starts afresh
            assert list(corpus.read()) == [source for source, _ in pairs]
            assert (len(corpus), corpus.skipped) == (60, 15)
            assert list(corpus) == [corpus[p] for p in range(60)] == pairs
        with pytest.raises(IndexError):
            corpus[60]

    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    def test_embedding_top_k_reads_back_only_ranked_pairs(self, tmp_path, monkeypatch, corpus_format):
        path, pairs = self.corpus(tmp_path, corpus_format)
        queries = [pairs[3][0], pairs[40][0].upper(), "sin palabras comunes", pairs[59][1]]
        provider = HashEmbeddingProvider(16)
        expected = embedding_top_k(pairs, queries, 4, provider)
        parsed = count_parsed(monkeypatch)
        corpus = CorpusPairs(path)
        assert embedding_top_k(corpus, queries, 4, provider) == expected
        assert corpus.skipped == 15
        ranked = {demo.source for demos in expected for demo in demos}
        assert len(parsed) == len(set(parsed)) == len(ranked)

    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    def test_random_k_reads_back_only_sampled_pairs(self, tmp_path, monkeypatch, corpus_format):
        path, pairs = self.corpus(tmp_path, corpus_format)
        corpus = CorpusPairs(path)
        for _ in corpus.read():
            pass
        parsed = count_parsed(monkeypatch)
        sampled = set()
        for seed in range(3):
            demos = random_k(corpus, 5, seed)
            assert demos == random_k(pairs, 5, seed)
            sampled.update(demo.source for demo in demos)
        assert len(parsed) == len(set(parsed)) == len(sampled)
        with pytest.raises(ApecError, match="k=61 exceeds corpus size 60"):
            random_k(corpus, 61, 0)

    def test_random_k_shared_by_threads(self, tmp_path):
        # fs-rdm's pool threads share one CorpusPairs and fill its cache
        path, pairs = self.corpus(tmp_path, "csv")
        corpus = CorpusPairs(path)
        for _ in corpus.read():
            pass
        seeds = range(40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(random_k, corpus, 5, seed) for seed in seeds]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [random_k(pairs, 5, seed) for seed in seeds]

    def test_no_reference_is_an_error_once_read(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text('{"id": 1, "source": "Texto.", "task": "PL"}\n', encoding="utf-8")
        with pytest.raises(ApecError, match="no training docs with references"):
            embedding_top_k(CorpusPairs(path), ["texto"], 1, HashEmbeddingProvider(8))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        index = build_over_corpus(tmp_path / "corpus.jsonl", PAIRS, ["d1", "d2", "d3", "d4"])
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path, tmp_path / "corpus.jsonl")
        assert loaded.doc_ids == index.doc_ids == ("d1", "d2", "d3", "d4")
        assert [loaded.pairs[p] for p in range(len(PAIRS))] == PAIRS
        assert [index.pairs[p] for p in range(len(PAIRS))] == PAIRS
        assert loaded.avgdl == index.avgdl
        columns = operator.attrgetter("terms", "starts", "positions", "tfs")
        assert columns(loaded) == columns(index)
        assert idf_hex(loaded) == idf_hex(index)
        for query in ["casa verde", "tren ciudad"]:
            assert bm25_scores(loaded, query) == bm25_scores(index, query)

    def test_golden_file(self, tmp_path):
        pairs = [
            ("casa casa verde", "casa verde"),
            ("perro verde", "perro"),
            ("casa perro perro perro", "casa"),
        ]
        path = tmp_path / "index.json"
        index = build_over_corpus(tmp_path / "corpus.jsonl", pairs, ["a", "b", "c"])
        corpus = CorpusPairs(
            tmp_path / "corpus.jsonl",
            spans=[0, 12, 12, 30, 30, 2**40 + 1],
            digests=bytes(range(48)),
            sha256="0123456789abcdef" * 4,
        )
        save_index(dataclasses.replace(index, pairs=corpus), path)
        # dfs 2 2 2 and token counts 3 2 4; positions 0 2 | 1 2 | 0 1 and tfs
        # 2 1 | 1 3 | 1 1 for casa, perro, verde; all little-endian uint32.
        # spans 0 12 | 12 30 | 30 2**40+1, little-endian uint64; digests the bytes 0, 1, ..., 47
        sidecar = bytes.fromhex(
            "02000000" "02000000" "02000000" "03000000" "02000000" "04000000"
            "00000000" "02000000" "01000000" "02000000" "00000000" "01000000"
            "02000000" "01000000" "01000000" "03000000" "01000000" "01000000"
            "0000000000000000" "0c00000000000000" "0c00000000000000" "1e00000000000000"
            "1e00000000000000" "0100000000010000"
        ) + bytes(range(48))
        assert (tmp_path / "index.json.columns").read_bytes() == sidecar
        assert path.read_text(encoding="utf-8") == (
            '{"avgdl": 3.0, "columns_sha256": "' + hashlib.sha256(sidecar).hexdigest() + '", '
            '"corpus_sha256": "' + "0123456789abcdef" * 4 + '", '
            '"doc_ids": ["a", "b", "c"], "kind": "bm25-index-columns", '
            '"params": {"b": 0.75, "epsilon": 0.25, "k1": 1.5, "min_token_len": 4}, '
            '"schema_version": 1, "terms": ["casa", "perro", "verde"]}\n'
        )

    def test_column_postings_decoded_on_query(self, tmp_path):
        path = tmp_path / "index.json"
        corpus = save_index_over_corpus(build_index(PAIRS), path)
        payload = read_index_file(path)
        assert payload["schema_version"] == 1
        assert payload["kind"] == "bm25-index-columns"
        perro = sum(payload["dfs"][: payload["terms"].index("perro")])
        payload["positions"][perro] = 9  # past the last document
        write_index_file(path, payload)
        loaded = load_index(path, corpus)
        assert term_idf(loaded, "perro") == term_idf(build_index(PAIRS), "perro")
        assert bm25_top_k(loaded, "casa verde", k=1)[0].source == PAIRS[2][0]
        with pytest.raises(ValueError, match="rebuild it with `apec index`"):
            bm25_scores(loaded, "perro")

    def test_column_length_mismatch_fails_at_load(self, tmp_path):
        path = tmp_path / "index.json"
        corpus = save_index_over_corpus(build_index(PAIRS), path)
        payload = read_index_file(path)
        payload["dfs"][payload["terms"].index("perro")] += 1
        write_index_file(path, payload)
        with pytest.raises(ValueError, match=r"holds \d+ bytes, not the \d+ that its terms, doc_ids and dfs"):
            load_index(path, corpus)

    def test_built_and_loaded_idf_agree_exactly(self, tmp_path):
        # the idf floor is a mean over terms; a built index and its saved
        # copy must sum it in the same order. The last trials index tokens
        # shorter than min_token_len only: no terms, and avgdl 0.0
        rng = random.Random(20241018)
        words = [f"{stem}{end}" for stem in ("casa", "perro", "libro", "lento") for end in "aeiou"]
        for trial in range(34):
            params = Bm25Params(min_token_len=4 if trial < 30 else 7)
            pairs = [
                (" ".join(rng.choices(words, k=rng.randint(1, 12))), "a")
                for _ in range(rng.randint(3, 12))
            ]
            built = build_index(pairs, params=params)
            path = tmp_path / f"index{trial}.json"
            corpus = save_index_over_corpus(built, path)
            written = path.read_text(encoding="utf-8"), (tmp_path / f"index{trial}.json.columns").read_bytes()
            assert written == reference_index_file(
                pairs, params, range(len(pairs)), corpus.read_bytes()
            ), trial
            loaded = load_index(path, corpus)
            assert (len(built.terms) == 0) == (trial >= 30) == (built.avgdl == 0.0), trial
            assert idf_hex(loaded) == idf_hex(built), trial
            for query in (pairs[0][0], " ".join(words)):
                assert bm25_scores(loaded, query) == bm25_scores(built, query), trial

    def test_records_parsed_only_when_ranked(self, tmp_path, monkeypatch):
        # d4's span cut to half its line, with the digest of that half, so the
        # record passes its digest check and fails to parse: only a ranking
        # that reaches d4 reads it. Each record is parsed once, when first read
        path, corpus = tmp_path / "index.json", tmp_path / "corpus.jsonl"
        save_index(build_over_corpus(corpus, PAIRS, ["d1", "d2", "d3", "d4"]), path)
        payload = read_index_file(path)
        spans = payload["spans"]
        spans[7] = (spans[6] + spans[7]) // 2
        half = corpus.read_bytes()[spans[6] : spans[7]]
        payload["digests"] = payload["digests"][:48] + hashlib.sha256(half).digest()[:16]
        write_index_file(path, payload)
        loaded = load_index(path, corpus)
        parsed = count_parsed(monkeypatch)
        assert [d.source for d in bm25_top_k(loaded, "casa verde", k=2)] == [PAIRS[2][0], PAIRS[0][0]]
        assert bm25_top_k(loaded, "perro", k=1, ratio_filter=(0.0, 1.0))[0].source == PAIRS[1][0]
        assert bm25_top_k(loaded, "casa verde", k=2)[0].source == PAIRS[2][0]
        assert sorted(parsed) == spans[0:6:2]
        for query, k, window in [("tren ciudad", 1, None), ("casa", 3, (0.9, 1.0))]:
            with pytest.raises(ValueError, match=r"doc 'd4': .* bytes \d+:\d+ line 1: invalid JSON"):
                bm25_top_k(loaded, query, k=k, ratio_filter=window)

    def test_schema_version_guard(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"schema_version": 99}', encoding="utf-8")
        with pytest.raises(ValueError, match="rebuild it with `apec index`") as exc_info:
            load_index(path, tmp_path / "corpus.jsonl")
        assert f"index file {path}: " in str(exc_info.value)


class TestPostingsMemory:
    """1,500 pairs of 60 words drawn from 3,000 random words, and ten 80-word
    queries. Postings are two uint32 columns, where a dict per term would
    hold about 44 bytes a posting; cached impacts share one int object per
    position, where a new int per cached posting would cost about 72."""

    @staticmethod
    def corpus():
        rng = random.Random(5)
        words = [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(4, 9))) for _ in range(3000)
        ]
        pairs = [(" ".join(rng.choices(words, k=60)), "a") for _ in range(1500)]
        queries = [" ".join(rng.choices(words, k=80)) for _ in range(10)]
        return pairs, queries

    def test_build_retains_columns(self):
        pairs, _ = self.corpus()
        tracemalloc.start()
        try:
            index = build_index(pairs)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / len(index.positions) < 20

    def test_cached_impacts_share_position_ints(self, tmp_path):
        pairs, queries = self.corpus()
        path = tmp_path / "index.json"
        index = load_index(path, save_index_over_corpus(build_index(pairs), path))
        tracemalloc.start()
        try:
            for query in queries:
                bm25_scores(index, query)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        terms = {token for query in queries for token in bm25_tokens(query, 4)} & set(index.terms)
        cached = [index._impacts(term)[0] for term in terms]
        assert retained / sum(map(len, cached)) < 60
        first_seen = {}
        for positions in cached:
            for pos in positions:
                assert first_seen.setdefault(pos, pos) is pos
        # positions above the interpreter's small-int cache, in two terms' impacts
        repeats = Counter(pos for positions in cached for pos in positions if pos > 256)
        assert sum(n > 1 for n in repeats.values()) > 1000


class TestCorpusMemory:
    """400 training pairs whose 30-word sources are indexed and whose
    800-word references are not, so the corpus file (about 2.5 MB) dwarfs
    the postings. No demonstration mode holds the training text: an index
    build parses one record at a time, and a loaded index, fs-rdm and
    fs-emb read back only the records that they use."""

    @staticmethod
    def corpus(tmp_path):
        rng = random.Random(6)
        words = [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(4, 9))) for _ in range(500)
        ]
        records = [
            {"id": f"t{i}", "source": " ".join(rng.choices(words, k=30)),
             "reference": " ".join(rng.choices(words, k=800)), "task": "PL"}
            for i in range(400)
        ]
        path = tmp_path / "train.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        queries = [" ".join(rng.choices(words, k=30)) for _ in range(4)]
        texts = sum(len(r["source"]) + len(r["reference"]) for r in records)
        return path, queries, texts

    @pytest.mark.parametrize("mode_args", [["--mode", "fs-rdm"], ["--mode", "fs-emb", "--embed", "hash"]])
    def test_adapt_peak_below_reference_text(self, tmp_path, mode_args):
        from apec.cli import main

        path, queries, _ = self.corpus(tmp_path)
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(
            json.dumps({"id": f"d{i}", "source": query, "task": "PL"}) + "\n"
            for i, query in enumerate(queries)
        ), encoding="utf-8")
        lines = path.read_text(encoding="utf-8").splitlines()
        references = sum(len(json.loads(line)["reference"]) for line in lines)
        del lines
        argv = ["adapt", "--input", str(docs), "--corpus", str(path), *mode_args,
                "--k", "3", "--provider", "echo", "--output", str(tmp_path / "out.jsonl")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < references / 2

    def test_index_build_peak_below_corpus_text(self, tmp_path):
        from apec.cli import main

        path, _, texts = self.corpus(tmp_path)
        tracemalloc.start()
        try:
            assert main(["index", "--corpus", str(path), "--output", str(tmp_path / "i.json")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < texts / 2

    def test_loaded_index_retains_only_ranked_records(self, tmp_path):
        from apec.cli import main

        path, queries, _ = self.corpus(tmp_path)
        index_path = tmp_path / "i.json"
        assert main(["index", "--corpus", str(path), "--output", str(index_path)]) == 0
        tracemalloc.start()
        try:
            index = load_index(index_path, path)
            ranked = [bm25_top_k(index, query, k=2) for query in queries]
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(demos) == 2 for demos in ranked)
        assert retained < path.stat().st_size / 4
