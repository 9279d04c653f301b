"""Few-shot demonstration selection over (source, adaptation) pairs.

BM25 ranking follows the Okapi form with an idf floor for very common
terms, under one configuration, `Bm25Params`: tokens are whitespace-split,
lowercased and dropped when shorter than its `min_token_len`.
Alternatives: embedding-similarity ranking and seeded random sampling. A
length-ratio filter can exclude training pairs whose adaptation is much
shorter/longer than its source.

Query-independent work is cached on the index: length norms on first
use, and a term's impact vector (positions and `idf·tf·(k1+1)/(tf+norm)`
weights) when a query first holds it. Weights use the direct
formula's exact expression and are summed once per query-token
occurrence, in query order, so scores are bit-identical to applying the
formula to every posting on every query.

Built and loaded indexes share one layout, a term table: the sorted
`terms`, and parallel to them the `starts` of each term's postings and a
float64 `idf` column. The postings are two uint32 columns, `positions` and
`tfs`, in sorted term order. An index file is a one-line JSON header and a
sidecar of raw little-endian columns, `columns_path` of it, which
`load_index` reads straight into arrays. It holds no params, as every
index ranks with `Bm25Params`, and no avgdl: its avgdl is the mean of its
documents' token counts, which must sum to the total of its `tfs`. A
term's slice is read only when a query first holds it; cached impacts
hold the index's shared position ints.

`demonstrations` is the one entry point to a document's demonstrations,
in every adapt mode, and `open_index` opens the BM25 index of fs-bm25 and
`refine`. Every demonstration mode reads a training corpus file through
one type, `CorpusPairs`. It streams the file once, a record at a time,
and keeps each usable document's id, byte span and a 16-byte digest of
its record; a BM25 index adds its token count and postings, and the index
file stores these with the sha256 of the whole file. `load_index` refuses
a changed corpus. A record is read back by its span, checked against its
digest and parsed only when a ranking or a sample first needs its texts,
so memory grows with the number of documents (and postings), not with the
corpus text.

`embedding_top_k` takes a batch of queries and embeds them in one `embed`
call. It then streams the training sources through the provider,
`EMBED_BATCH_SIZE` texts a call (one request of the `http` embedder),
reads each vector of a slice once as a tuple, and keeps only each query's
best k. No training vector outlives its slice, so memory does not grow
with the training set. A row is scored exactly only where bounds from
`math.dist` and `math.hypot`, run in C and within δ = 16·(n + 4)·2**-53 of
the cosine of n-d unit vectors, let it enter a query's top k. Scores stay
bit-identical to `cosine()`, and ties rank by position.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import operator
import os
import random
import sys
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import accumulate, chain, islice, repeat

from .corpus import is_csv, read_corpus, read_jsonl, read_record, write_jsonl
from .errors import ApecError, NoWordsError, ProviderUnavailableError
from .similarity import (
    EMBED_BATCH_SIZE,
    EmbeddingProvider,
    EmbeddingVector,
    dense_dot,
    dense_norm,
    embed_checked,
)

INDEX_LAYOUT = {"schema_version": 1, "kind": "bm25-index-defaults"}


class Bm25Params:
    """The one BM25 configuration: every index, built or loaded, ranks with it."""

    k1 = 1.5
    b = 0.75
    epsilon = 0.25
    min_token_len = 4


@dataclass(frozen=True)
class Demonstration:
    source: str
    adaptation: str
    retrieval_score: float
    rank: int


@dataclass(frozen=True)
class Bm25Index:
    """Term i of the sorted `terms` has idf `idf[i]` and its postings, (pos,
    tf) pos ascending, at `starts[i]:starts[i + 1]` of the `positions` and
    `tfs` columns. Errors in a loaded index name its file, `pairs.path`."""

    doc_ids: tuple
    pairs: tuple | CorpusPairs = field(repr=False)  # position -> (source, adaptation)
    doc_token_counts: tuple[int, ...]
    avgdl: float
    terms: list[str] = field(repr=False)
    starts: array = field(repr=False)  # uint64, len(terms) + 1
    idf: array = field(repr=False)  # float64
    positions: array = field(repr=False)  # uint32
    tfs: array = field(repr=False)  # uint32
    # term -> (positions, weights), filled as queries need them. Pool threads
    # share it and the cached properties below without a lock: every writer
    # stores an equal value for its key, so a racing write is harmless and a
    # reader sees either no entry or a whole one.
    _impact_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def _position_ints(self) -> tuple[int, ...]:  # one int object per position
        return tuple(range(len(self.doc_ids)))

    @cached_property
    def _norms(self) -> tuple[float, ...]:
        """Per-document `k1·(1 - b + b·dl/avgdl)`; needs avgdl > 0."""
        k1, b = Bm25Params.k1, Bm25Params.b
        return tuple(
            k1 * (1.0 - b + b * dl / self.avgdl) for dl in self.doc_token_counts
        )

    def _impacts(self, term: str) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Positions holding a term and its BM25 weight in each; none if it is
        not indexed. A term's postings are checked, which guards file input,
        when a query first holds it."""
        impacts = self._impact_cache.get(term)
        if impacts is None:
            i = bisect_left(self.terms, term)
            if self.terms[i : i + 1] != [term]:
                return (), ()
            start, end, n_docs = self.starts[i], self.starts[i + 1], len(self.doc_ids)
            positions, tfs = self.positions[start:end], self.tfs[start:end]
            if not (
                positions[-1] < n_docs
                and all(map(operator.lt, positions, positions[1:]))
                and min(tfs) >= 1
            ):
                raise _index_error(
                    getattr(self.pairs, "path", None),
                    f"postings of {term!r} must be ascending positions in "
                    f"[0, {n_docs}), each with a count >= 1",
                )
            token_idf, k1, norms = self.idf[i], Bm25Params.k1, self._norms
            impacts = (
                tuple(map(self._position_ints.__getitem__, positions)),
                tuple(
                    token_idf * tf * (k1 + 1.0) / (tf + norms[pos])
                    for pos, tf in zip(positions, tfs)
                ),
            )
            self._impact_cache[term] = impacts
        return impacts


def bm25_tokens(text: str) -> list[str]:
    """Whitespace tokens, lowercased, those shorter than `Bm25Params.min_token_len` dropped."""
    min_token_len = Bm25Params.min_token_len
    return [t for t in text.lower().split() if len(t) >= min_token_len]


def _compute_idf(dfs: list[int], n_docs: int) -> array:
    """The idf column of the sorted terms from their dfs, one log per distinct df.
    Sorted terms sum the floor's mean in one order, so an index and its saved copy agree."""
    by_df = {n_t: math.log((n_docs - n_t + 0.5) / (n_t + 0.5)) for n_t in set(dfs)}
    positive = [v for v in map(by_df.get, dfs) if v > 0]
    floor = Bm25Params.epsilon * (sum(positive) / len(positive)) if positive else 0.0
    by_df = {n_t: floor if value < 0 else value for n_t, value in by_df.items()}
    return array("d", map(by_df.get, dfs))


def build_index(pairs: list[tuple[str, str]] | CorpusPairs, params: Bm25Params | None = None) -> Bm25Index:
    """Build an immutable BM25 index over training pairs: a list of
    (source, adaptation), whose doc ids are its positions 0..n-1, or a new
    `CorpusPairs`, whose corpus file this reads once, a record at a time,
    keeping no text, and which brings its doc ids. Doc ids break ranking
    ties and identify documents in a saved index.

    The index is one term table, the sorted terms with their idf and the
    start of their postings, over two postings columns; avgdl is the mean
    of the documents' token counts. Every index ranks with `Bm25Params`:
    `params` is read by nothing, kept for callers passing `Bm25Params()`.
    """
    sources = _sources(pairs)
    if not isinstance(pairs, CorpusPairs):
        pairs = tuple(pairs)
    by_term = defaultdict(partial(array, "I"))  # term -> its (pos, tf) pairs, interleaved
    token_counts = []
    for pos, source in enumerate(sources):
        tokens = bm25_tokens(source)
        token_counts.append(len(tokens))
        for token, tf in Counter(tokens).items():
            by_term[token].fromlist([pos, tf])
    terms = sorted(by_term)
    dfs = [len(by_term[term]) // 2 for term in terms]
    joined = array("I")
    for term in terms:
        joined += by_term.pop(term)
    return _column_index(pairs, token_counts, terms, dfs, joined[0::2], joined[1::2])


def _sources(pairs):
    """The sources of training `pairs` in position order: those a new
    `CorpusPairs` streams from its file, or those of a non-empty list."""
    if isinstance(pairs, CorpusPairs):
        return pairs.read()
    if not pairs:
        raise ApecError("cannot index an empty corpus")
    return (source for source, _ in pairs)


def _column_index(pairs, counts, terms, dfs, positions, tfs):
    """The index over its postings columns of a tuple of pairs or a read `CorpusPairs`."""
    return Bm25Index(
        doc_ids=tuple(pairs.doc_ids if isinstance(pairs, CorpusPairs) else range(len(pairs))),
        pairs=pairs,
        doc_token_counts=tuple(counts),
        avgdl=sum(counts) / len(counts),
        terms=terms,
        starts=array("Q", accumulate(dfs, initial=0)),
        idf=_compute_idf(dfs, len(counts)),
        positions=positions,
        tfs=tfs,
    )


def bm25_scores(index: Bm25Index, query: str) -> list[float]:
    """Okapi score of every indexed document against the query."""
    scores = [0.0] * len(index)
    for token in bm25_tokens(query):
        positions, weights = index._impacts(token)
        for pos, weight in zip(positions, weights):
            scores[pos] += weight
    return scores


def bm25_top_k(
    index: Bm25Index,
    query: str,
    k: int = 5,
    ratio_filter: tuple[float, float] | None = None,
) -> list[Demonstration]:
    """Rank the indexed pairs against a query and return the top k.

    With a ratio filter, pairs whose adaptation/source length ratio
    falls outside [lo, hi] are skipped: the pairs are walked in rank
    order until k pass, so only their ratios are computed (a blank
    source raises when the walk reaches it). May return fewer than k
    demonstrations.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = bm25_scores(index, query)
    positions = range(len(index))
    if ratio_filter is not None:
        lo, hi = ratio_filter
        if not lo <= hi:  # also false when either bound is NaN
            raise ValueError(f"invalid ratio range [{lo}, {hi}]")
        # (-score, doc id, pos) is the ranking order below; pop until k pairs pass
        heap = list(zip(map(operator.neg, scores), index.doc_ids, positions))
        heapq.heapify(heap)
        positions = []
        while heap and len(positions) < k:
            p = heapq.heappop(heap)[2]
            source, adaptation = index.pairs[p]
            if not source.strip():  # a blank source has no ratio
                raise ApecError("source has no tokens; length ratio undefined")
            if lo <= len(adaptation.split()) / len(source.split()) <= hi:
                positions.append(p)
    # descending score, ties by ascending doc id; nsmallest is stable
    top = heapq.nsmallest(k, positions, key=lambda p: (-scores[p], index.doc_ids[p]))
    return [
        Demonstration(*index.pairs[p], retrieval_score=scores[p], rank=rank)
        for rank, p in enumerate(top, start=1)
    ]


_HYPOTS = (2.0**-400, 2.0**400)  # where no square or product over- or underflows


def _values(vec: EmbeddingVector, dim: int) -> tuple[float, ...]:
    values = tuple(vec)
    if len(values) != dim:
        raise ProviderUnavailableError(
            f"embedding vectors differ in length: {len(values)} vs the queries' {dim}"
        )
    return values


def _cosine_bounds(query, q_hypot, rows, hypots, delta):
    """Lower and upper bounds on `cosine(query, row)` for each row, from the
    law of cosines over `math.dist`; see `embedding_top_k` for `delta`."""
    lows, highs = [], []
    q_square, q_double = q_hypot * q_hypot, 2.0 * q_hypot
    for d, h in zip(map(math.dist, repeat(query), rows), hypots):
        squares, product = q_square + h * h, q_double * h
        approx, error = ((squares - d * d) / product, delta * squares / product) if h else (0.0, 0.0)
        lows.append(approx - error)
        highs.append(approx + error)
    return lows, highs


def embedding_top_k(
    pairs: list[tuple[str, str]] | CorpusPairs,
    queries: list[str],
    k: int,
    provider: EmbeddingProvider,
) -> list[list[Demonstration]]:
    """Each query's top k pairs by the cosine of query and pair-source vectors.

    The queries are embedded in one `embed` call, then the pair sources
    in one call per `EMBED_BATCH_SIZE` of them: a new `CorpusPairs` streams
    them from its file, and then reads back only the pairs that rank. Each
    slice's vectors are read once, as tuples, ranked against every query
    and dropped: only each query's best k outlive the slice.

    A row v is scored exactly only if it can still enter q's top k. With
    n = dim, u = 2**-53, hypots h_q, h_v and d = `math.dist(q, v)`, the law
    of cosines gives c = (h_q² + h_v² - d²) / (2·h_q·h_v); let m be
    (h_q² + h_v²) / (2·h_q·h_v) >= 1. Hypot and dist are within (n + 4)·u of
    exact (a plain scaled sum of squares is; Python's are to 1 ulp), which
    moves c by at most 9(n + 4)·u·m; rounding c adds at most 12·u·m, and
    `cosine()` is within 2(n + 4)·u of the true cosine, so it lies within
    δ = 16·(n + 4)·u·m of c. A row whose c + δ is below the k-th largest of
    the slice's c - δ and q's kept scores scores below k other rows. This
    needs hypots in `_HYPOTS`; a zero row scores exactly 0.0. A query outside
    it scores every row exactly, and so does every query from the first
    slice holding a nonzero row outside it on, as NaN scores order arbitrarily.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(queries, str):
        raise TypeError("queries must be a list of query texts, not one str")
    sources = _sources(pairs)
    if not all(map(str.strip, queries)):
        raise NoWordsError("cannot embed empty text")
    if not queries:
        return []
    query_vecs = embed_checked(provider, list(queries))
    dim = len(query_vecs[0])
    query_vecs = [_values(vec, dim) for vec in query_vecs]
    query_hypots = [math.hypot(*vec) for vec in query_vecs]
    query_norms = list(map(dense_norm, query_vecs))
    delta = 16 * (dim + 4) * 2.0**-53
    bounded = True  # every row so far is zero or has a hypot in _HYPOTS
    best = [[] for _ in query_vecs]  # per query: its k smallest (-score, position, score)
    start = 0
    while batch := list(islice(sources, EMBED_BATCH_SIZE)):
        rows = [_values(vec, dim) for vec in embed_checked(provider, batch)]
        hypots = [math.hypot(*row) for row in rows]
        bounded = bounded and all(h == 0.0 or _HYPOTS[0] <= h <= _HYPOTS[1] for h in hypots)
        row_norm = cache(lambda i: dense_norm(rows[i]))
        for q, (query, q_hypot, q_norm) in enumerate(zip(query_vecs, query_hypots, query_norms)):
            keys = best[q]
            candidates = range(len(rows))
            if bounded and _HYPOTS[0] <= q_hypot <= _HYPOTS[1]:
                lows, highs = _cosine_bounds(query, q_hypot, rows, hypots, delta)
                cut = heapq.nlargest(k, chain(lows, [score for _, _, score in keys]))
                cut = cut[-1] if len(cut) == k else -math.inf
                candidates = [i for i, high in enumerate(highs) if high >= cut]
            for i in candidates:
                norm = row_norm(i)
                score = dense_dot(query, rows[i]) / (q_norm * norm) if q_norm and norm else 0.0
                keys.append((-score, start + i, score))
            best[q] = heapq.nsmallest(k, keys)  # equal scores: the lower position first
        del rows  # else this slice's tuples live on while the next slice's are built
        start += EMBED_BATCH_SIZE
    return [
        [
            Demonstration(*pairs[p], retrieval_score=score, rank=rank)
            for rank, (_, p, score) in enumerate(top, start=1)
        ]
        for top in best
    ]


def derive_doc_seed(seed: int, doc_id) -> int:
    """Stable per-document seed so random sampling is reproducible
    document by document, independent of processing order."""
    digest = hashlib.sha256(f"{seed}:{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def random_k(pairs: list[tuple[str, str]] | CorpusPairs, k: int, seed: int) -> list[Demonstration]:
    """Sample k pairs uniformly without replacement, reproducibly; of a
    read `CorpusPairs`, only the sampled pairs are read back."""
    if k > len(pairs):
        raise ApecError(f"k={k} exceeds corpus size {len(pairs)}")
    chosen = random.Random(seed).sample(range(len(pairs)), k)
    return [
        Demonstration(*pairs[p], retrieval_score=0.0, rank=rank)
        for rank, p in enumerate(chosen, start=1)
    ]


def columns_path(path) -> str:
    """The sidecar of the index file `path`, which holds its columns."""
    return f"{os.fspath(path)}.columns"


def save_index(index: Bm25Index, path) -> None:
    """Persist an index over a corpus file: its columns, raw little-endian,
    in the sidecar `columns_path(path)`, then a one-line JSON header at `path`.

    The sidecar holds, in order: `dfs` (uint32 per term, the gaps between
    `starts`), `doc_token_counts` (uint32 per doc id), the index's own
    `positions` and `tfs` (uint32), `spans` (uint64, each document's start
    and end byte in the corpus) and `digests` (16 bytes per document, of its
    record). The header holds `doc_ids`, the sorted `terms`, and the hex
    sha256 of the corpus file as `corpus_sha256` and of the sidecar as
    `columns_sha256`. Pair texts are not stored, and no params: every index
    ranks with `Bm25Params`.
    """
    starts, pairs, sha256 = index.starts, index.pairs, hashlib.sha256()
    with open(columns_path(path), "wb") as handle:
        for column in (array("I", map(operator.sub, starts[1:], starts)), array("I", index.doc_token_counts),
                       index.positions, index.tfs, array("Q", pairs.spans), array("B", pairs.digests)):
            if sys.byteorder == "big":
                column = array(column.typecode, column)
                column.byteswap()
            sha256.update(column)
            column.tofile(handle)
    header = dict(INDEX_LAYOUT, doc_ids=list(index.doc_ids), corpus_sha256=pairs.sha256, terms=index.terms,
                  columns_sha256=sha256.hexdigest())
    write_jsonl(path, [header])


def _index_error(path, problem: str) -> ValueError:
    return ValueError(f"index file {path}: {problem}; rebuild it with `apec index`")


def _read_column(handle, sha256, typecode: str, n: int) -> array:
    """n little-endian items from `handle`, hashed into `sha256` as read."""
    column = array(typecode)
    column.fromfile(handle, n)
    sha256.update(column)
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _record_digest(record: bytes) -> bytes:
    return hashlib.sha256(record).digest()[:16]


class CorpusPairs:
    """The training set of every demonstration mode: position -> (source,
    reference) of the documents with a reference in the corpus file
    `corpus`, in file order; `len()` is their count. A new one learns them
    in one streaming pass, `read`, which `build_index` and `embedding_top_k`
    run and `demonstrations` runs for fs-rdm before `random_k`; `load_index`
    fills one from the index file `path`, which errors name. A pair is read back by byte span
    when first looked up, checked against the digest its record had in
    that pass, parsed and cached. Pool threads share the cache without a
    lock, as `Bm25Index._impact_cache`: a racing write stores an equal
    pair."""

    def __init__(self, corpus, doc_ids=(), spans=(), digests=b"", sha256="", header=b"", path=None):
        self.corpus, self.doc_ids, self.spans, self.digests = corpus, doc_ids, spans, digests
        self.sha256, self.header, self.path = sha256, header, path
        self.skipped = 0  # documents without a reference
        self._read_back = {}  # position -> pair

    def __len__(self) -> int:
        return len(self.doc_ids)

    def read(self):
        """Yield the source of each document with a reference, reading the
        corpus file once, a record at a time, and keep its id, span and
        record digest, the file's sha256 and a CSV file's header row."""
        sha256, header = hashlib.sha256(), bytearray()
        self.doc_ids, self.spans, self.digests = [], array("Q"), bytearray()
        self.skipped, self._read_back = 0, {}  # as of this pass
        for doc, span, record in read_corpus(self.corpus, sha256, header):
            if not doc.reference:
                self.skipped += 1
                continue
            self.doc_ids.append(doc.id)
            self.spans.extend(span)
            self.digests += _record_digest(record)
            yield doc.source
        if not self.doc_ids:
            raise ApecError("no training docs with references; cannot build demonstrations")
        self.sha256, self.header = sha256.hexdigest(), bytes(header)

    def __getitem__(self, pos: int) -> tuple[str, str]:
        if pos in self._read_back:
            return self._read_back[pos]
        doc_id, corpus = self.doc_ids[pos], self.corpus
        start, end = self.spans[2 * pos : 2 * pos + 2]
        try:
            with open(corpus, "rb") as handle:
                handle.seek(start)
                record = handle.read(end - start)
            if _record_digest(record) != self.digests[16 * pos : 16 * pos + 16]:
                raise ApecError(f"{corpus} bytes {start}:{end} changed since they were indexed")
            doc = read_record(corpus, record, start, self.header)
            if doc.id != doc_id or doc.reference is None:
                raise ApecError(f"{corpus} bytes {start}:{end} hold doc {doc.id!r}, "
                                f"reference {doc.reference!r}")
        except (ApecError, OSError, ValueError) as exc:  # ValueError: a CSV header not UTF-8
            problem = f"doc {doc_id!r}: {exc}"
            raise (_index_error(self.path, problem) if self.path else ValueError(problem)) from None
        pair = self._read_back[pos] = doc.source, doc.reference
        return pair


def load_index(path, corpus) -> Bm25Index:
    """Load a persisted index over `corpus`, the corpus file it was built from.

    The header's `terms` must be strings in ascending order. Each column is
    read from the sidecar straight into an array and hashed as it is read;
    the sidecar must have the header's `columns_sha256` and the size that
    the header's lengths and `dfs` give, each df in [1, number of docs]. A
    term's postings are checked the first time a query holds it. The total
    of `doc_token_counts`, whose mean is its avgdl, must be that of `tfs`.
    The corpus, hashed in chunks, must have the recorded sha256, and a
    document's record is read back and parsed the first time a ranking
    needs its texts. Malformed content, a
    missing sidecar, a changed corpus and an older layout raise
    `ValueError`: `apec index` must rebuild.
    """
    try:
        [(_, header, *_)] = read_jsonl(path)
    except ApecError as exc:  # a line that is not UTF-8, not JSON or not a JSON object
        raise ValueError(f"index file {exc}; rebuild it with `apec index`") from None
    except ValueError:  # no line, or more than one
        raise _index_error(path, "the header must be one JSON line") from None
    layout = (header.get("schema_version"), header.get("kind"))
    if layout != tuple(INDEX_LAYOUT.values()):
        raise _index_error(path, f"(schema_version, kind) is {layout}, not {tuple(INDEX_LAYOUT.values())}")
    # a missing key reads as None, which fails that key's own check below
    doc_ids, corpus_sha256, terms, columns_sha256 = map(
        header.get, ("doc_ids", "corpus_sha256", "terms", "columns_sha256"))
    if not (isinstance(doc_ids, list) and set(map(type, doc_ids)) <= {str}):  # a corpus's ids are strings
        raise _index_error(path, "doc_ids is not a list of strings")
    if not doc_ids:
        raise _index_error(path, "doc_ids is empty")
    if len(set(doc_ids)) != len(doc_ids):
        raise _index_error(path, "doc_ids repeat an id")
    if not (
        isinstance(terms, list) and set(map(type, terms)) <= {str}
        and all(map(operator.lt, terms, terms[1:]))  # bisect_left finds a term's row
    ):
        raise _index_error(path, "terms is not a list of strings in strictly ascending order")
    n_docs, sidecar, sha256 = len(doc_ids), columns_path(path), hashlib.sha256()
    try:
        with open(sidecar, "rb") as handle:
            read = partial(_read_column, handle, sha256)
            size = os.fstat(handle.fileno()).st_size
            dfs = read("I", min(len(terms), size // 4))  # of a shorter file, the size check fails
            if dfs and not (min(dfs) >= 1 and max(dfs) <= n_docs):
                raise _index_error(path, f"dfs must be document frequencies in [1, {n_docs}]")
            n_postings = sum(dfs)
            expected = 4 * (len(terms) + n_docs + 2 * n_postings) + 32 * n_docs
            if size != expected:
                raise _index_error(path, f"{sidecar} holds {size} bytes, not the {expected} "
                                         f"that its terms, doc_ids and dfs give")
            counts, positions, tfs, spans = (read(typecode, n) for typecode, n in (
                ("I", n_docs), ("I", n_postings), ("I", n_postings), ("Q", 2 * n_docs)))
            digests = read("B", 16 * n_docs).tobytes()
    except (OSError, EOFError) as exc:  # EOFError: the file shrank while it was read
        raise _index_error(path, f"cannot read its columns: {exc}") from None
    if sha256.hexdigest() != columns_sha256:
        raise _index_error(path, f"{sidecar} has sha256 {sha256.hexdigest()!r}, not columns_sha256 "
                                 f"{columns_sha256!r}: it changed or belongs to another index")
    if sum(counts) != sum(tfs):
        raise _index_error(path, "doc_token_counts do not sum to the total of tfs")
    sha256 = hashlib.sha256()
    with open(corpus, "rb") as handle:
        # the bytes before the first indexed record: a CSV file's header row, and skipped rows
        head = handle.read(min(spans[0], os.fstat(handle.fileno()).st_size))
        for chunk in chain([head], iter(partial(handle.read, 1 << 16), b"")):
            sha256.update(chunk)
        size = handle.tell()
    if corpus_sha256 != sha256.hexdigest():
        raise _index_error(path, f"built from a corpus with sha256 {corpus_sha256!r}, not {corpus} "
                                 f"as it is now (sha256 {sha256.hexdigest()!r})")
    if not (
        all(map(operator.lt, spans[0::2], spans[1::2]))
        and all(map(operator.le, spans[1::2], spans[2::2]))
        and spans[-1] <= size
    ):
        raise _index_error(path, f"spans must be a start and an end per doc id, ascending, "
                                 f"disjoint byte ranges of {corpus}")
    pairs = CorpusPairs(corpus, doc_ids, spans, digests, corpus_sha256, head if is_csv(corpus) else b"", path)
    return _column_index(pairs, counts, terms, dfs, positions, tfs)


def open_index(path, corpus) -> Bm25Index:
    """`load_index(path, corpus)`, or with no `path` a new index over the corpus
    file, whose `pairs.skipped` counts its documents without a reference."""
    return load_index(path, corpus) if path else build_index(CorpusPairs(corpus))


def demonstrations(mode: str, docs, corpus, index, k: int, ratio, seed: int, embed):
    """`(demos_for, skipped)`: `demos_for(doc)` gives a document of `docs` its
    k demonstrations in `mode` from the training corpus file, or every pair
    when k exceeds their count, and `skipped` counts the training documents
    without a reference. Only fs-bm25 reads `index` and `ratio`, fs-rdm
    `seed` and fs-emb `embed`. fs-rdm and fs-emb stream the corpus here, and
    fs-emb ranks every document here too."""
    if mode == "zs":
        return (lambda doc: []), 0
    if mode == "fs-bm25":
        bm25 = open_index(index, corpus)
        return (lambda doc: bm25_top_k(bm25, doc.source, k=k, ratio_filter=ratio)), bm25.pairs.skipped
    pairs = CorpusPairs(corpus)
    if mode == "fs-rdm":
        k = min(k, sum(1 for _ in pairs.read()))  # one pass learns what random_k samples
        return (lambda doc: random_k(pairs, k, derive_doc_seed(seed, doc.id))), pairs.skipped
    ranked = embedding_top_k(pairs, [doc.source for doc in docs], k, embed)
    return dict(zip(docs, ranked)).__getitem__, pairs.skipped
