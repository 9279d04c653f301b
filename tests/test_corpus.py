import dataclasses
import json
import re
from statistics import fmean

import pytest

from apec.corpus import (
    CorpusStatsReport,
    Document,
    corpus_stats,
    evaluate_run,
    load_corpus,
    read_corpus,
    read_record,
    render_evaluation_table,
    render_stats_table,
)
from apec.errors import ApecError
from apec.similarity import table_average
from apec.textstats import fh_index

from conftest import MiscountingEmbedder

BOM = "\ufeff".encode()


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


class TestDocument:
    def test_defaults(self):
        doc = Document(id="d1", source="Texto.")
        assert doc.reference is None
        assert doc.task == "PL"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"id": "", "source": "Texto."},
            {"id": "d", "source": "   "},
            {"id": "d", "source": "Texto.", "task": "XX"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Document(**kwargs)


class TestLoadJsonl:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "source": "Uno.", "reference": "Uno corto.", "task": "PL"},
                {"id": "b", "source": "Dos.", "reference": "", "task": "ER"},
            ],
        )
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].reference == "Uno corto."
        assert docs[1].reference is None
        assert docs[1].task == "ER"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "source": "Uno.", "task": "PL"}\n\n'
            '{"id": "b", "source": "Dos.", "task": "PL"}\n',
            encoding="utf-8",
        )
        assert len(load_corpus(path)) == 2

    def test_integer_id_loads_as_its_decimal_string(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": 7, "source": "Uno.", "task": "PL"}])
        assert load_corpus(path)[0].id == "7"

    @pytest.mark.parametrize(
        "bad_id, type_name",
        [(["a"], "list"), ({"x": 1}, "dict"), (True, "bool"), (1.5, "float"), (1.0, "float")],
    )
    def test_id_of_another_json_type_reports_line(self, tmp_path, bad_id, type_name):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [{"id": "a", "source": "Uno.", "task": "PL"}, {"id": bad_id, "source": "Dos.", "task": "PL"}],
        )
        message = f"line 2: field 'id' must be a string or an integer, got {type_name}$"
        with pytest.raises(ApecError, match=message):
            load_corpus(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "source": "Uno.", "task": "PL"}\n{broken\n', encoding="utf-8"
        )
        with pytest.raises(ApecError, match=f"^{re.escape(str(path))} line 2: invalid JSON"):
            load_corpus(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('["lista"]\n', encoding="utf-8")
        with pytest.raises(ApecError, match="line 1: expected a JSON object"):
            load_corpus(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "a", "task": "PL"}])
        with pytest.raises(ApecError, match="line 1: missing field 'source'"):
            load_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "source": "Uno.", "task": "PL"},
                {"id": "a", "source": "Dos.", "task": "PL"},
            ],
        )
        with pytest.raises(ApecError, match=r"line 2: duplicate id 'a' \(first seen on line 1\)"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ApecError, match="no documents in"):
            load_corpus(path)

    def test_non_utf8_line_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "source": "Uno.", "task": "PL"}\n{"id": "\xff"}\n')
        with pytest.raises(ApecError, match=f"^{re.escape(str(path))} line 2: invalid JSON"):
            load_corpus(path)

    def test_bom_dropped_from_line_one_only(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        first = BOM + b'{"id": "a", "source": "Uno.", "task": "PL"}\n'
        path.write_bytes(first)
        [(doc, span, record)] = read_corpus(path)
        assert (doc.id, span, record) == ("a", (0, len(first)), first)
        path.write_bytes(first + BOM + b'{"id": "b", "source": "Dos.", "task": "PL"}\n')
        with pytest.raises(ApecError, match="line 2: invalid JSON"):
            load_corpus(path)


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "id,source,reference,task\n"
            "a,Uno.,Uno corto.,PL\n"
            "b,Dos.,,ER\n",
            encoding="utf-8",
        )
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].reference == "Uno corto."
        assert docs[1].reference is None

    def test_suffix_detection(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,source,task\na,Uno.,PL\n", encoding="utf-8")
        assert load_corpus(path)[0].source == "Uno."

    def test_suffix_decides_format_in_any_case(self, tmp_path):
        upper = tmp_path / "CORPUS.CSV"
        upper.write_text("id,source,task\na,Uno.,PL\n", encoding="utf-8")
        assert load_corpus(upper)[0].source == "Uno."
        other = tmp_path / "corpus.txt"
        write_jsonl(other, [{"id": "a", "source": "Dos.", "task": "PL"}])
        assert load_corpus(other)[0].source == "Dos."

    def test_missing_value_reports_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,source,task\na,,PL\n", encoding="utf-8")
        with pytest.raises(ApecError, match="line 2: missing field 'source'"):
            load_corpus(path)

    def test_bom_dropped_from_header_row_only(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes(BOM + "id,source,task\na,Uno.,PL\n\ufeffb,Dos.,PL\n".encode())
        header = bytearray()
        records = list(read_corpus(path, header=header))
        assert [doc.id for doc, *_ in records] == ["a", "\ufeffb"]
        assert header == BOM + b"id,source,task\n"
        for doc, (start, _), record in records:  # a record read back under the header row
            assert read_record(path, record, start, bytes(header)) == doc

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "id,source,task\na,Uno.,PL\na,Dos.,PL\n", encoding="utf-8"
        )
        with pytest.raises(ApecError, match="line 3: duplicate id 'a'"):
            load_corpus(path)


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        docs = [
            Document(id="a", source="Uno.", reference="Corto.", task="PL"),
            Document(id="b", source="Dos.", task="ER"),
        ]
        path = tmp_path / "out.jsonl"
        write_jsonl(path, [dataclasses.asdict(doc) for doc in docs])
        assert load_corpus(path) == docs


class TestCorpusStats:
    def test_counts_and_ratios(self):
        docs = [
            Document(id="a", source="El sol brilla. La casa es verde."),
            Document(id="b", source="Juan come pan. María lee un libro."),
        ]
        report = corpus_stats(docs)
        assert report.doc_count == 2
        assert report.sentence_count == 4
        assert report.sentences_per_doc == 2.0
        assert report.word_count == 14

    def test_micro_and_macro_hand_check(self):
        # "El sol brilla.": 1 sentence, 3 words, 4 syllables
        # "La casa es verde.": 1 sentence, 4 words, 6 syllables
        docs = [
            Document(id="a", source="El sol brilla."),
            Document(id="b", source="La casa es verde."),
        ]
        report = corpus_stats(docs)
        assert report.words_per_sentence == pytest.approx(3.5)
        assert report.syllables_per_word == pytest.approx(10 / 7)
        micro = 206.84 - 0.60 * (100 * 10 / 7) - 1.02 * (7 / 2)
        fh_a = 206.84 - 0.60 * (100 * 4 / 3) - 1.02 * 3
        fh_b = 206.84 - 0.60 * (100 * 6 / 4) - 1.02 * 4
        assert report.fh_micro == pytest.approx(micro)
        assert report.fh_macro == pytest.approx((fh_a + fh_b) / 2)

    def test_singleton_micro_equals_macro(self):
        docs = [Document(id="a", source="La casa es verde. Juan come pan.")]
        report = corpus_stats(docs)
        assert report.fh_micro == pytest.approx(report.fh_macro)
        assert report.fh_micro == pytest.approx(fh_index(docs[0].source).fh)

    def test_macro_is_mean_of_per_doc_index(self):
        docs = [
            Document(id=f"d{i}", source=src)
            for i, src in enumerate(
                [
                    "El sol brilla mucho.",
                    "La casa verde tiene jardín. Juan come.",
                    "María lee un libro largo.",
                    "Hoy es un buen día.",
                    "El tren cruza la ciudad dormida.",
                ]
            )
        ]
        report = corpus_stats(docs)
        assert report.fh_macro == pytest.approx(
            fmean(fh_index(d.source).fh for d in docs)
        )

    def test_identical_sides_give_unit_similarity(self, hash_embedder):
        docs = [
            Document(id="a", source="El sol brilla.", reference="El sol brilla."),
            Document(id="b", source="Juan come pan.", reference="Juan come pan."),
        ]
        report = corpus_stats(docs, embed_provider=hash_embedder)
        assert report.bow_sim == pytest.approx(1.0)
        assert report.emb_sim == pytest.approx(1.0)
        assert report.avg_sim == pytest.approx(1.0)

    def test_avg_sim_is_mean_of_two(self, hash_embedder):
        docs = [
            Document(id="a", source="El sol brilla mucho.", reference="Brilla el sol."),
            Document(id="b", source="Juan come pan.", reference="Juan come."),
        ]
        report = corpus_stats(docs, embed_provider=hash_embedder)
        assert report.avg_sim == pytest.approx((report.bow_sim + report.emb_sim) / 2)

    @pytest.mark.parametrize("change, count", [(-1, 3), (1, 5)])
    def test_wrong_vector_count(self, change, count):
        """Two sources and two references: a reply of any other length."""
        docs = [
            Document(id="a", source="El sol brilla mucho.", reference="Brilla el sol."),
            Document(id="b", source="Juan come pan.", reference="Juan come."),
        ]
        with pytest.raises(ApecError, match=f"embedding provider returned {count} vectors for 4 texts"):
            corpus_stats(docs, embed_provider=MiscountingEmbedder(change))

    def test_reference_side(self):
        docs = [Document(id="a", source="Largo original.", reference="Corto.")]
        report = corpus_stats(docs, side="reference")
        assert report.fh_micro == pytest.approx(fh_index("Corto.").fh)

    def test_reference_side_requires_references(self):
        docs = [Document(id="a", source="Texto.")]
        with pytest.raises(ApecError, match="side=reference requires every reference"):
            corpus_stats(docs, side="reference")

    def test_similarity_requires_references(self, hash_embedder):
        docs = [Document(id="a", source="Texto.")]
        with pytest.raises(ApecError, match="similarity rows require every reference"):
            corpus_stats(docs, embed_provider=hash_embedder)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            corpus_stats([Document(id="a", source="Texto.")], side="output")

    def test_empty_corpus(self):
        with pytest.raises(ApecError, match="cannot compute stats of an empty corpus"):
            corpus_stats([])

    def test_render_table_smoke(self):
        report = CorpusStatsReport(
            doc_count=2,
            sentence_count=4,
            word_count=14,
            sentences_per_doc=2.0,
            words_per_sentence=3.5,
            syllables_per_word=1.43,
            fh_micro=117.56,
            fh_macro=118.27,
            bow_sim=0.52,
            emb_sim=0.87,
            avg_sim=0.695,
        )
        text = render_stats_table(report, title="dev")
        assert text.startswith("dev")
        assert "117.56" in text
        assert "0.5200" in text


DOCS = [
    Document(id="a", source="El sol brilla mucho hoy.", reference="Brilla el sol."),
    Document(id="b", source="La casa verde tiene jardín.", reference="La casa tiene jardín."),
    Document(id="c", source="Un tren cruza la ciudad.", reference="El tren pasa."),
]


class TestEvaluateRun:
    def test_perfect_outputs(self, hash_embedder):
        outputs = {doc.id: doc.reference for doc in DOCS}
        report = evaluate_run(outputs, DOCS, hash_embedder)
        assert report.doc_count == 3
        assert report.bow_sim == pytest.approx(1.0)
        assert report.emb_sim == pytest.approx(1.0)
        assert report.fh == pytest.approx(
            fmean(fh_index(doc.reference).fh for doc in DOCS)
        )
        assert report.fh_gain == pytest.approx(
            fmean(
                fh_index(doc.reference).fh - fh_index(doc.source).fh for doc in DOCS
            )
        )
        assert report.table_avg == pytest.approx(
            table_average(report.fh, 1.0, 1.0)
        )

    def test_aggregate_is_mean_of_rows(self, hash_embedder):
        outputs = {
            "a": "El sol brilla.",
            "b": "La casa es verde.",
            "c": "El tren pasa por la ciudad.",
        }
        report = evaluate_run(outputs, DOCS, hash_embedder)
        assert report.fh == pytest.approx(fmean(r.fh for r in report.rows))
        assert report.bow_sim == pytest.approx(fmean(r.bow_sim for r in report.rows))
        assert report.emb_sim == pytest.approx(fmean(r.emb_sim for r in report.rows))

    def test_rows_follow_corpus_order(self, hash_embedder):
        outputs = {"c": "El tren pasa.", "a": "Brilla el sol."}
        report = evaluate_run(outputs, DOCS, hash_embedder)
        assert [row.doc_id for row in report.rows] == ["a", "c"]

    def test_unknown_doc_id(self, hash_embedder):
        with pytest.raises(ApecError, match=r"outputs reference unknown doc ids: \['zz'\]"):
            evaluate_run({"zz": "Texto."}, DOCS, hash_embedder)

    def test_missing_reference(self, hash_embedder):
        docs = [Document(id="a", source="Texto original.")]
        with pytest.raises(ApecError, match="docs without references cannot be evaluated"):
            evaluate_run({"a": "Texto."}, docs, hash_embedder)

    @pytest.mark.parametrize("change, count", [(-1, 5), (1, 7)])
    def test_wrong_vector_count(self, change, count):
        """Three adaptations and three references: a reply of any other length."""
        outputs = {doc.id: doc.reference for doc in DOCS}
        with pytest.raises(ApecError, match=f"embedding provider returned {count} vectors for 6 texts"):
            evaluate_run(outputs, DOCS, MiscountingEmbedder(change))

    def test_empty_outputs(self, hash_embedder):
        with pytest.raises(ApecError, match="no outputs to evaluate"):
            evaluate_run({}, DOCS, hash_embedder)

    def test_render_table_smoke(self, hash_embedder):
        outputs = {doc.id: doc.reference for doc in DOCS}
        report = evaluate_run(outputs, DOCS, hash_embedder)
        text = render_evaluation_table(report)
        assert text.splitlines()[0].startswith("doc")
        assert "MEAN" in text
        assert "1.0000" in text
