"""The JSON Lines reader and writer, corpus loading, stats and evaluation.

Documents carry an id, a source text, an optional reference adaptation
and a task tag (PL or ER). Corpora load from JSONL, or from CSV when the
file name ends in `.csv`. `read_corpus` reads a file once, a record at
a time, and yields each record's byte span and bytes, which `read_record`
parses alone. Statistics
report both aggregation conventions for the readability index: micro
(over pooled corpus counts) and macro (mean of per-document values),
because the two differ and published tables mix them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Mapping, Optional

from .errors import ApecError, NoWordsError
from .prompts import TASKS
from .similarity import EmbeddingProvider, bow_vector, cosine, embed_checked, table_average
from .textstats import fh_from_counts, fh_index, text_stats


@dataclass(frozen=True)
class Document:
    id: str
    source: str
    reference: Optional[str] = None
    task: str = "PL"

    def __post_init__(self):
        if not str(self.id):
            raise ValueError("document id must be non-empty")
        if not self.source or not self.source.strip():
            raise ValueError("document source must be non-empty")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")


def _document_from_fields(fields: dict, path, line: int) -> Document:
    for key in ("id", "source", "task"):
        if fields.get(key) in (None, ""):
            raise ApecError(f"{path} line {line}: missing field {key!r}")
    if type(fields["id"]) not in (str, int):  # floats too: 1 and 1.0 would be two ids
        raise ApecError(
            f"{path} line {line}: field 'id' must be a string or an integer, "
            f"got {type(fields['id']).__name__}"
        )
    for key in ("source", "reference", "task"):
        value = fields.get(key)
        if value is not None and not isinstance(value, str):
            raise ApecError(
                f"{path} line {line}: field {key!r} must be a string, "
                f"got {type(value).__name__}"
            )
    reference = fields.get("reference")
    if reference == "":
        reference = None
    try:
        return Document(
            id=str(fields["id"]),
            source=fields["source"],
            reference=reference,
            task=fields["task"],
        )
    except ValueError as exc:
        raise ApecError(f"{path} line {line}: {exc}") from exc


def read_jsonl(path, lines=None):
    """Yield (line number, JSON object as a dict, (start, end) byte span, raw
    line) for each non-blank line of a JSON Lines file, read one line at a
    time, or of `lines`, its raw lines. A UTF-8 BOM opening line 1 is
    dropped; a line that is not UTF-8, not JSON or not a JSON object raises
    ApecError naming the file and the line."""
    with open(path, "rb") if lines is None else contextlib.nullcontext(lines) as handle:
        end = 0
        for line_no, raw in enumerate(handle, start=1):
            start, end = end, end + len(raw)
            try:
                line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8")
                if line.strip():
                    if not isinstance(value := json.loads(line), dict):
                        raise ApecError(f"{path} line {line_no}: expected a JSON object")
                    yield line_no, value, (start, end), raw
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ApecError(f"{path} line {line_no}: invalid JSON: {exc}") from exc


def _json(value) -> str:
    """An artifact's JSON text; a NaN or an infinity, which is not JSON, is a ValueError."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, allow_nan=False)


def write_jsonl(path, records) -> None:
    lines = [_json(record) + "\n" for record in records]  # all first: a bad one writes no file
    Path(path).write_text("".join(lines), encoding="utf-8")


def is_csv(path) -> bool:
    """Whether a corpus file is read as CSV: its name ends in `.csv`, in any case."""
    return str(path).lower().endswith(".csv")


def _csv_lines(lines, held: list, first: str = "utf-8-sig"):
    """Raw `lines` decoded, also split at a lone \\r, as `newline=""` splits
    them, the first one as `first` (by default, without a UTF-8 BOM); each
    raw piece is appended to `held` as it is yielded."""
    for line in lines:
        for raw in line.splitlines(keepends=True):
            held.append(raw)
            yield raw.decode(first)
            first = "utf-8"


def _read_csv(path, lines, fieldnames=None, header=None):
    """Yield (line number, row dict, byte span, record bytes) for each data
    row of a CSV file's raw `lines`, under its header row or `fieldnames`;
    a record takes in blank lines before its row. The header row's bytes
    are added to `header`, a bytearray, if given. A file that is not UTF-8
    raises ApecError naming it, and a row that the csv module rejects (such
    as a field over its size limit) one naming the file and the line."""
    held = []  # the raw lines read since the last row
    reader = csv.DictReader(_csv_lines(lines, held, "utf-8" if fieldnames else "utf-8-sig"), fieldnames)
    try:
        reader.fieldnames  # reads the header row unless it is given
        start = sum(map(len, held))
        if header is not None:
            header += b"".join(held)
        held.clear()
        for row in reader:
            record = b"".join(held)
            held.clear()
            yield reader.line_num, row, (start, start + len(record)), record
            start += len(record)
    except UnicodeDecodeError as exc:
        raise ApecError(f"{path}: not UTF-8: {exc}") from exc
    except csv.Error as exc:
        line = reader.reader.line_num  # DictReader's own count lags a row that failed
        raise ApecError(f"{path} line {line}: {exc}") from exc


def read_corpus(path, sha256=None, header=None):
    """Yield (document, (start, end) byte span, record bytes) for each record
    of the corpus file at `path`, CSV if `is_csv(path)`, else JSONL, reading
    the file once, one line at a time. Each line goes to `sha256` (a hashlib
    object) if given, and a CSV file's header row to `header` (a bytearray)
    if given. Duplicate ids, malformed lines and a file with no record raise
    ApecError naming the file and the offending line number."""
    seen: dict[str, int] = {}
    with open(path, "rb") as handle:
        lines = handle if sha256 is None else (sha256.update(line) or line for line in handle)
        rows = _read_csv(path, lines, header=header) if is_csv(path) else read_jsonl(path, lines)
        for line_no, fields, span, record in rows:
            doc = _document_from_fields(fields, path, line_no)
            if doc.id in seen:
                raise ApecError(
                    f"{path} line {line_no}: duplicate id {doc.id!r} "
                    f"(first seen on line {seen[doc.id]})"
                )
            seen[doc.id] = line_no
            yield doc, span, record
    if not seen:
        raise ApecError(f"no documents in {path}")


def load_corpus(path) -> list[Document]:
    """The documents of the corpus file at `path`, as `read_corpus` reads them."""
    return [doc for doc, *_ in read_corpus(path)]


def read_record(path, record: bytes, start: int, header: bytes = b"") -> Document:
    """The document whose record is `record`, the bytes at offset `start` of
    the corpus file `path`, read under the header row that `header`, the
    start of a CSV file, opens with, and checked as `read_corpus` checks
    it; ApecError naming the span unless those bytes are exactly one record."""
    where = f"{path} bytes {start}:{start + len(record)}"
    if is_csv(path):
        fieldnames = csv.DictReader(_csv_lines([header], [])).fieldnames
        records = list(_read_csv(where, [record], fieldnames))
    else:
        records = list(read_jsonl(where, io.BytesIO(record)))
    if len(records) != 1:
        raise ApecError(f"{where}: {len(records)} records, not one")
    line_no, fields, *_ = records[0]
    return _document_from_fields(fields, where, line_no)


@dataclass(frozen=True)
class CorpusStatsReport:
    doc_count: int
    sentence_count: int
    word_count: int
    sentences_per_doc: float
    words_per_sentence: float
    syllables_per_word: float
    fh_micro: float
    fh_macro: float
    bow_sim: Optional[float] = None
    emb_sim: Optional[float] = None
    avg_sim: Optional[float] = None


def _similarities(
    pairs: list[tuple[str, str]], embed_provider: EmbeddingProvider
) -> list[tuple[float, float]]:
    """(BoW cosine, embedding cosine) of each (text, reference) pair. One
    `embed` call takes every text, then every reference."""
    vectors = embed_checked(embed_provider, [text for text, _ in pairs] + [ref for _, ref in pairs])
    return [
        (
            cosine(bow_vector(text), bow_vector(ref)),
            cosine(vectors[pos], vectors[pos + len(pairs)]),
        )
        for pos, (text, ref) in enumerate(pairs)
    ]


def corpus_stats(
    docs: list[Document],
    side: str = "source",
    embed_provider: EmbeddingProvider | None = None,
) -> CorpusStatsReport:
    """Counts and readability over one side of the corpus.

    Micro readability pools sentence/word/syllable counts across the
    corpus; macro averages per-document index values. Similarity rows
    (source vs reference, mean per doc) are filled in only when an
    embedding provider is given; they require every reference. A text
    without word tokens raises NoWordsError naming its document.
    """
    if not docs:
        raise ApecError("cannot compute stats of an empty corpus")
    if side not in ("source", "reference"):
        raise ValueError(f"side must be source or reference, got {side!r}")
    if side == "reference" and any(doc.reference is None for doc in docs):
        raise ApecError("side=reference requires every reference")

    total_sentences = total_words = total_syllables = 0
    per_doc_fh: list[float] = []
    for doc in docs:
        stats = text_stats(doc.source if side == "source" else doc.reference)
        if stats.word_count == 0:
            raise NoWordsError(f"doc {doc.id}: {side} has no word tokens")
        total_sentences += stats.sentence_count
        total_words += stats.word_count
        total_syllables += stats.syllable_count
        per_doc_fh.append(
            fh_from_counts(
                stats.sentence_count, stats.word_count, stats.syllable_count
            ).fh
        )

    bow_sim = emb_sim = avg_sim = None
    if embed_provider is not None:
        if any(doc.reference is None for doc in docs):
            raise ApecError("similarity rows require every reference")
        sims = _similarities([(doc.source, doc.reference) for doc in docs], embed_provider)
        bow_sim = fmean(bow for bow, _ in sims)
        emb_sim = fmean(emb for _, emb in sims)
        avg_sim = (bow_sim + emb_sim) / 2.0

    return CorpusStatsReport(
        doc_count=len(docs),
        sentence_count=total_sentences,
        word_count=total_words,
        sentences_per_doc=total_sentences / len(docs),
        words_per_sentence=total_words / total_sentences,
        syllables_per_word=total_syllables / total_words,
        fh_micro=fh_from_counts(total_sentences, total_words, total_syllables).fh,
        fh_macro=fmean(per_doc_fh),
        bow_sim=bow_sim,
        emb_sim=emb_sim,
        avg_sim=avg_sim,
    )


def render_stats_table(report: CorpusStatsReport, title: str = "corpus") -> str:
    rows = [
        ("Documents", f"{report.doc_count}"),
        ("Sentences per doc", f"{report.sentences_per_doc:.2f}"),
        ("Words per sentence", f"{report.words_per_sentence:.2f}"),
        ("Syllables per word", f"{report.syllables_per_word:.2f}"),
        ("FH readability (micro)", f"{report.fh_micro:.2f}"),
        ("FH readability (macro)", f"{report.fh_macro:.2f}"),
    ]
    if report.bow_sim is not None:
        rows.append(("BoW similarity", f"{report.bow_sim:.4f}"))
        rows.append(("Embedding similarity", f"{report.emb_sim:.4f}"))
        rows.append(("Average similarity", f"{report.avg_sim:.4f}"))
    width = max(len(name) for name, _ in rows)
    lines = [title] + [f"{name.ljust(width)}  {value}" for name, value in rows]
    return "\n".join(lines)


@dataclass(frozen=True)
class DocEvaluation:
    doc_id: str
    fh: float
    fh_gain: float
    bow_sim: float
    emb_sim: float


@dataclass(frozen=True)
class EvaluationReport:
    doc_count: int
    fh: float
    fh_gain: float
    bow_sim: float
    emb_sim: float
    table_avg: float
    rows: tuple[DocEvaluation, ...]
    skipped: tuple[tuple[str, str], ...] = ()  # (doc id, reason), not in the means


def docs_with_outputs(outputs: Mapping[str, str], docs: list[Document]) -> list[Document]:
    """The documents that have an output, in `docs` order; ApecError for an unknown doc id."""
    known = {doc.id for doc in docs}
    unknown = [doc_id for doc_id in outputs if doc_id not in known]
    if unknown:
        raise ApecError(f"outputs reference unknown doc ids: {unknown[:5]}")
    return [doc for doc in docs if doc.id in outputs]


def evaluate_run(
    outputs: Mapping[str, str],
    docs: list[Document],
    embed_provider: EmbeddingProvider,
) -> EvaluationReport:
    """Score run outputs against references, plus the aggregate row.

    Per document: readability of the adaptation, its gain over the
    source, and BoW/embedding cosine against the reference. The
    aggregate averages each column over documents; the three-way table
    average is computed from those means. A document whose adaptation
    or source has no word tokens has no readability score: it is left
    out of the rows and means and listed in `skipped`. If no document
    can be scored, NoWordsError names them all.
    """
    if not outputs:
        raise ApecError("no outputs to evaluate")
    ordered = docs_with_outputs(outputs, docs)
    missing_refs = [doc.id for doc in ordered if doc.reference is None]
    if missing_refs:
        raise ApecError(f"docs without references cannot be evaluated: {missing_refs[:5]}")

    scored: list[tuple[Document, str, float, float]] = []
    skipped: list[tuple[str, str]] = []
    for doc in ordered:
        adaptation = outputs[doc.id]
        side = "adaptation"
        try:
            fh_val = fh_index(adaptation).fh
            side = "source"
            fh_source = fh_index(doc.source).fh
        except NoWordsError as exc:
            skipped.append((doc.id, f"{side}: {exc}"))
            continue
        scored.append((doc, adaptation, fh_val, fh_source))
    if not scored:
        raise NoWordsError(
            "no document can be scored: "
            + "; ".join(f"doc {doc_id}: {reason}" for doc_id, reason in skipped)
        )

    sims = _similarities(
        [(adaptation, doc.reference) for doc, adaptation, _, _ in scored], embed_provider
    )
    rows = [
        DocEvaluation(
            doc_id=doc.id,
            fh=fh_val,
            fh_gain=fh_val - fh_source,
            bow_sim=bow_sim,
            emb_sim=emb_sim,
        )
        for (doc, _, fh_val, fh_source), (bow_sim, emb_sim) in zip(scored, sims)
    ]

    mean_fh = fmean(row.fh for row in rows)
    mean_gain = fmean(row.fh_gain for row in rows)
    mean_bow = fmean(row.bow_sim for row in rows)
    mean_emb = fmean(row.emb_sim for row in rows)
    return EvaluationReport(
        doc_count=len(rows),
        fh=mean_fh,
        fh_gain=mean_gain,
        bow_sim=mean_bow,
        emb_sim=mean_emb,
        table_avg=table_average(mean_fh, mean_bow, mean_emb),
        rows=tuple(rows),
        skipped=tuple(skipped),
    )


def render_evaluation_table(report: EvaluationReport) -> str:
    header = f"{'doc':<16}{'FH gain':>10}{'FH':>10}{'BoW':>9}{'Emb':>9}"
    lines = [header]
    for row in report.rows:
        lines.append(
            f"{row.doc_id:<16}{row.fh_gain:>10.2f}{row.fh:>10.2f}"
            f"{row.bow_sim:>9.4f}{row.emb_sim:>9.4f}"
        )
    lines.append(
        f"{'MEAN':<16}{report.fh_gain:>10.2f}{report.fh:>10.2f}"
        f"{report.bow_sim:>9.4f}{report.emb_sim:>9.4f}"
        f"   avg {report.table_avg:.2f}"
    )
    return "\n".join(lines)
