"""Few-shot demonstration selection over (source, adaptation) pairs.

BM25 ranking follows the Okapi form with an idf floor for very common
terms: tokens are whitespace-split, lowercased and dropped when shorter
than `min_token_len`. Alternatives: embedding-similarity ranking and
seeded random sampling. A length-ratio filter can exclude training
pairs whose adaptation is much shorter/longer than its source.

Query-independent work is cached on the index: length norms on first
use, and a term's impact vector (positions and `idf·tf·(k1+1)/(tf+norm)`
weights) when a query first holds it. Weights use the direct
formula's exact expression and are summed once per query-token
occurrence, in query order, so scores are bit-identical to applying the
formula to every posting on every query.

The index file stores each term's document frequency and two columns,
`positions` and `tfs`: every term's postings concatenated in sorted term
order as base64 little-endian uint32. `load_index` decodes each column
once; a term's slice becomes `{pos: tf}` only when a query first holds
it, so a load never builds the postings of unqueried terms.

`build_embedding_index` embeds the training sources once, in one `embed`
call, and keeps each vector's norm; a query is then embedded once and
scored with one dot product per pair, bit-identical to `cosine()`.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import json
import math
import operator
import random
import sys
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import accumulate, chain

from .errors import ApecError, NoWordsError
from .similarity import EmbeddingProvider, EmbeddingVector, dense_dot, dense_norm

INDEX_SCHEMA_VERSION = 1
INDEX_KIND = "bm25-index-columns"
INDEX_LAYOUT = (INDEX_SCHEMA_VERSION, INDEX_KIND)


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75
    epsilon: float = 0.25
    min_token_len: int = 4

    def __post_init__(self):
        for name, low in (("k1", 0), ("epsilon", 0), ("min_token_len", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
            if not getattr(self, name) < math.inf:  # NaN or inf
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass(frozen=True)
class Demonstration:
    source: str
    adaptation: str
    retrieval_score: float
    rank: int


@dataclass(frozen=True)
class Bm25Index:
    doc_ids: tuple
    sources: tuple[str, ...]
    adaptations: tuple[str, ...]
    doc_token_counts: tuple[int, ...]
    avgdl: float
    postings: Mapping[str, dict[int, int]] = field(repr=False)  # term -> pos -> tf, pos ascending
    idf: dict[str, float] = field(repr=False)
    params: Bm25Params = Bm25Params()
    # term -> (positions, weights), filled as queries need them. Pool threads
    # share it and the cached property below without a lock: every writer
    # stores an equal value for its key, so a racing write is harmless and a
    # reader sees either no entry or a whole one.
    _impact_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def _norms(self) -> tuple[float, ...]:
        """Per-document `k1·(1 - b + b·dl/avgdl)`; needs avgdl > 0."""
        k1, b = self.params.k1, self.params.b
        return tuple(
            k1 * (1.0 - b + b * dl / self.avgdl) for dl in self.doc_token_counts
        )

    def _impacts(self, term: str) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Positions holding an indexed term and its BM25 weight in each."""
        impacts = self._impact_cache.get(term)
        if impacts is None:
            token_idf = self.idf[term]
            k1 = self.params.k1
            norms = self._norms
            docs = self.postings[term]
            impacts = (
                tuple(docs),
                tuple(
                    token_idf * tf * (k1 + 1.0) / (tf + norms[pos])
                    for pos, tf in docs.items()
                ),
            )
            self._impact_cache[term] = impacts
        return impacts


def bm25_tokens(text: str, min_token_len: int) -> list[str]:
    """Whitespace tokens, lowercased, shorter ones dropped."""
    return [t for t in text.lower().split() if len(t) >= min_token_len]


def _compute_idf(terms: list[str], dfs: list[int], n_docs: int, epsilon: float) -> dict[str, float]:
    """idf of each of the sorted `terms` from its df, one log per distinct df. Sorted
    terms sum the floor's mean in one order, so an index and its saved copy agree."""
    by_df = {n_t: math.log((n_docs - n_t + 0.5) / (n_t + 0.5)) for n_t in set(dfs)}
    positive = [v for v in map(by_df.get, dfs) if v > 0]
    floor = epsilon * (sum(positive) / len(positive)) if positive else 0.0
    by_df = {n_t: floor if value < 0 else value for n_t, value in by_df.items()}
    return dict(zip(terms, map(by_df.get, dfs)))


def build_index(
    pairs: list[tuple[str, str]],
    params: Bm25Params | None = None,
    ids: list | None = None,
) -> Bm25Index:
    """Build an immutable BM25 index over the given training pairs.

    `ids` defaults to positions 0..n-1; they identify documents in
    persisted indexes and break ranking ties.
    """
    if not pairs:
        raise ApecError("cannot index an empty corpus")
    if ids is None:
        ids = list(range(len(pairs)))
    elif len(ids) != len(pairs):
        raise ValueError("ids and pairs must have equal length")
    sources = tuple(source for source, _ in pairs)
    adaptations = tuple(adaptation for _, adaptation in pairs)
    params = params or Bm25Params()

    postings: dict[str, dict[int, int]] = {}
    token_counts = []
    for pos, source in enumerate(sources):
        tokens = bm25_tokens(source, params.min_token_len)
        token_counts.append(len(tokens))
        for token in tokens:
            docs = postings.setdefault(token, {})
            docs[pos] = docs.get(pos, 0) + 1
    avgdl = sum(token_counts) / len(token_counts)
    terms = sorted(postings)
    idf = _compute_idf(terms, [len(postings[term]) for term in terms], len(pairs), params.epsilon)
    return Bm25Index(
        doc_ids=tuple(ids),
        sources=sources,
        adaptations=adaptations,
        doc_token_counts=tuple(token_counts),
        avgdl=avgdl,
        postings=postings,
        idf=idf,
        params=params,
    )


def bm25_scores(index: Bm25Index, query: str) -> list[float]:
    """Okapi score of every indexed document against the query."""
    scores = [0.0] * len(index)
    if index.avgdl == 0.0:
        return scores
    for token in bm25_tokens(query, index.params.min_token_len):
        if token in index.idf:
            positions, weights = index._impacts(token)
            for pos, weight in zip(positions, weights):
                scores[pos] += weight
    return scores


def _ranked(positions, scores, index_ids, sources, adaptations, k: int):
    # descending score, ties by ascending doc id; nsmallest is stable
    top = heapq.nsmallest(k, positions, key=lambda p: (-scores[p], index_ids[p]))
    return [
        Demonstration(
            source=sources[p],
            adaptation=adaptations[p],
            retrieval_score=scores[p],
            rank=rank,
        )
        for rank, p in enumerate(top, start=1)
    ]


def bm25_top_k(
    index: Bm25Index,
    query: str,
    k: int = 5,
    ratio_filter: tuple[float, float] | None = None,
) -> list[Demonstration]:
    """Rank the indexed pairs against a query and return the top k.

    With a ratio filter, pairs whose adaptation/source length ratio
    falls outside [lo, hi] are skipped: the pairs are walked in rank
    order until k pass, so only their ratios are computed. May return
    fewer than k demonstrations.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = bm25_scores(index, query)
    positions = range(len(index))
    if ratio_filter is not None:
        lo, hi = ratio_filter
        if not lo <= hi:  # also false when either bound is NaN
            raise ValueError(f"invalid ratio range [{lo}, {hi}]")
        if not all(map(str.strip, index.sources)):  # a blank source has no ratio
            raise ApecError("source has no tokens; length ratio undefined")
        # (-score, doc id, pos) is _ranked's order; pop until k pairs pass
        heap = list(zip(map(operator.neg, scores), index.doc_ids, positions))
        heapq.heapify(heap)
        positions = []
        while heap and len(positions) < k:
            p = heapq.heappop(heap)[2]
            if lo <= len(index.adaptations[p].split()) / len(index.sources[p].split()) <= hi:
                positions.append(p)
    return _ranked(
        positions, scores, index.doc_ids, index.sources, index.adaptations, k
    )


@dataclass(frozen=True)
class EmbeddingIndex:
    sources: tuple[str, ...]
    adaptations: tuple[str, ...]
    # the provider's vectors by reference: normalized copies would double their memory
    vectors: tuple[EmbeddingVector, ...] = field(repr=False)
    norms: tuple[float, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.sources)


def build_embedding_index(
    pairs: list[tuple[str, str]], provider: EmbeddingProvider
) -> EmbeddingIndex:
    """Embed every pair source in one `embed` call and cache the vector norms."""
    if not pairs:
        raise ApecError("cannot index an empty corpus")
    sources = tuple(source for source, _ in pairs)
    vectors = tuple(provider.embed(list(sources)))
    dims = {len(vec) for vec in vectors}
    if len(dims) > 1:
        raise ApecError(f"training vectors differ in length: {sorted(dims)}")
    return EmbeddingIndex(
        sources=sources,
        adaptations=tuple(adaptation for _, adaptation in pairs),
        vectors=vectors,
        norms=tuple(map(dense_norm, vectors)),
    )


def embedding_top_k(
    index: EmbeddingIndex,
    query: str,
    k: int,
    provider: EmbeddingProvider,
) -> list[Demonstration]:
    """Rank indexed pairs by the cosine of query and pair-source vectors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not query.strip():
        raise NoWordsError("cannot embed empty text")
    query_vec = provider.embed([query])[0]
    if len(query_vec) != len(index.vectors[0]):
        raise ApecError(f"query {len(query_vec)} vs index {len(index.vectors[0])} dims")
    q_norm = dense_norm(query_vec)
    scores = [
        dense_dot(query_vec, vec) / (q_norm * norm) if q_norm and norm else 0.0
        for vec, norm in zip(index.vectors, index.norms)
    ]
    positions = range(len(index))
    return _ranked(positions, scores, positions, index.sources, index.adaptations, k)


def derive_doc_seed(seed: int, doc_id) -> int:
    """Stable per-document seed so random sampling is reproducible
    document by document, independent of processing order."""
    digest = hashlib.sha256(f"{seed}:{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def random_k(pairs: list[tuple[str, str]], k: int, seed: int) -> list[Demonstration]:
    """Sample k pairs uniformly without replacement, reproducibly."""
    if k > len(pairs):
        raise ApecError(f"k={k} exceeds corpus size {len(pairs)}")
    rng = random.Random(seed)
    chosen = rng.sample(range(len(pairs)), k)
    return [
        Demonstration(
            source=pairs[p][0],
            adaptation=pairs[p][1],
            retrieval_score=0.0,
            rank=rank,
        )
        for rank, p in enumerate(chosen, start=1)
    ]


def _u32_column(values) -> str:
    column = array("I", values)
    if sys.byteorder == "big":
        column.byteswap()
    return base64.b64encode(column.tobytes()).decode("ascii")


def save_index(index: Bm25Index, path) -> None:
    """Persist postings and doc references as versioned JSON.

    `doc_freqs` maps terms to document frequencies; the `positions` and `tfs`
    columns are every term's postings in sorted term order, as base64
    little-endian uint32. Pair texts are not stored; loads join ids to a corpus.
    """
    terms = sorted(index.postings)
    postings = [index.postings[term] for term in terms]
    payload = {
        "schema_version": INDEX_SCHEMA_VERSION,
        "kind": INDEX_KIND,
        "params": asdict(index.params),
        "doc_ids": list(index.doc_ids),
        "doc_token_counts": list(index.doc_token_counts),
        "avgdl": index.avgdl,
        "doc_freqs": dict(zip(terms, map(len, postings))),
        "positions": _u32_column(chain.from_iterable(postings)),
        "tfs": _u32_column(chain.from_iterable(docs.values() for docs in postings)),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, allow_nan=False)
        handle.write("\n")


def _index_error(path, problem: str) -> ValueError:
    return ValueError(f"index file {path}: {problem}; rebuild it with `apec index`")


def _u32_array(path, name: str, text) -> array:
    try:
        column = array("I", base64.b64decode(text, validate=True))
    except (TypeError, ValueError):  # not a base64 string, or not whole uint32s
        raise _index_error(path, f"{name} is not base64 of little-endian uint32s") from None
    if sys.byteorder == "big":
        column.byteswap()
    return column


class _ColumnPostings(Mapping):
    """Read-only term -> {pos: tf} over the decoded columns of an index file.

    A term's slice is decoded and checked on each access; `Bm25Index._impacts`
    caches the result, so a query decodes each of its terms once.
    """

    def __init__(self, terms: list[str], dfs: list[int], positions, tfs, n_docs: int, path):
        self._terms = terms  # sorted
        self._starts = list(accumulate(dfs, initial=0))
        self._positions = positions
        self._tfs = tfs
        self._n_docs = n_docs
        self._path = path

    def __getitem__(self, term: str) -> dict[int, int]:
        i = bisect_left(self._terms, term)
        if self._terms[i : i + 1] != [term]:
            raise KeyError(term)
        start, end = self._starts[i], self._starts[i + 1]
        positions = self._positions[start:end]
        tfs = self._tfs[start:end]
        if not (
            positions[-1] < self._n_docs
            and all(map(operator.lt, positions, positions[1:]))
            and min(tfs) >= 1
        ):
            raise _index_error(
                self._path,
                f"postings of {term!r} must be ascending positions in "
                f"[0, {self._n_docs}), each with a count >= 1",
            )
        return dict(zip(positions, tfs))

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)


def load_index(path, pairs_by_id) -> Bm25Index:
    """Load a persisted index, joining texts from `pairs_by_id`.

    `pairs_by_id` maps doc id -> (source, adaptation) and must cover
    every id stored in the file. Each column is decoded once, and each
    term's document frequency comes from `doc_freqs`; a term's positions
    and counts are sliced out of the columns and checked the first time a
    query holds it. Any malformed content raises `ValueError`, as does a
    file in an older layout, which `apec index` must rebuild.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise _index_error(path, f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _index_error(path, "not a JSON object")
    layout = (payload.get("schema_version"), payload.get("kind"))
    if layout != INDEX_LAYOUT:
        raise _index_error(path, f"(schema_version, kind) is {layout}, not {INDEX_LAYOUT}")
    keys = ("params", "doc_ids", "doc_token_counts", "avgdl", "doc_freqs", "positions", "tfs")
    missing_keys = [key for key in keys if key not in payload]
    if missing_keys:
        raise _index_error(path, f"missing {', '.join(missing_keys)}")
    raw_params, doc_ids, counts, avgdl, doc_freqs = (payload[key] for key in keys[:5])
    if not isinstance(raw_params, dict) or raw_params.keys() != asdict(Bm25Params()).keys():
        raise _index_error(path, "params must hold exactly k1, b, epsilon, min_token_len")
    try:
        params = Bm25Params(**raw_params)
    except (TypeError, ValueError) as exc:
        raise _index_error(path, f"bad params: {exc}") from None
    if not (isinstance(doc_ids, list) and all(isinstance(d, (str, int)) for d in doc_ids)):
        raise _index_error(path, "doc_ids is not a list of strings and integers")
    if not (isinstance(counts, list) and all(type(n) is int and n >= 0 for n in counts)):
        raise _index_error(path, "doc_token_counts is not a list of token counts")
    if len(counts) != len(doc_ids):
        raise _index_error(path, f"{len(counts)} doc_token_counts for {len(doc_ids)} doc_ids")
    if type(avgdl) not in (int, float) or not 0 <= avgdl <= sys.float_info.max:
        raise _index_error(path, "avgdl is not a finite number >= 0")
    if not (
        isinstance(doc_freqs, dict) and all(type(n) is int and n >= 1 for n in doc_freqs.values())
    ):
        raise _index_error(path, "doc_freqs is not a map of terms to counts >= 1")
    positions, tfs = (_u32_array(path, key, payload[key]) for key in ("positions", "tfs"))
    terms = sorted(doc_freqs)
    dfs = list(map(doc_freqs.get, terms))
    if not len(positions) == len(tfs) == sum(dfs):
        raise _index_error(path, "positions and tfs must hold one entry per doc_freqs count")
    missing = [doc_id for doc_id in doc_ids if doc_id not in pairs_by_id]
    if missing:
        raise ApecError(f"index references unknown doc ids: {missing[:5]}")
    idf = _compute_idf(terms, dfs, len(doc_ids), params.epsilon)
    return Bm25Index(
        doc_ids=tuple(doc_ids),
        sources=tuple(pairs_by_id[doc_id][0] for doc_id in doc_ids),
        adaptations=tuple(pairs_by_id[doc_id][1] for doc_id in doc_ids),
        doc_token_counts=tuple(counts),
        avgdl=float(avgdl),
        postings=_ColumnPostings(terms, dfs, positions, tfs, len(doc_ids), path),
        idf=idf,
        params=params,
    )
