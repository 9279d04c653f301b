import argparse
import base64
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import struct
import time
from pathlib import Path

import pytest

import apec.cli
import apec.retrieval

from apec.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_PROVIDER,
    EXIT_USAGE,
    build_parser,
    load_config,
    main,
    read_adaptations,
    write_jsonl,
)
from apec.errors import ApecError
from apec.prompts import PLAIN_LANGUAGE_REVIEW_TEMPLATE
from apec.refine import ApecTrace, trace_from_dict, trace_to_dict
from apec.similarity import HashEmbeddingProvider
from apec.tables import all_asserted_ok, run_table_checks

from conftest import Reply, apec_response, read_index_file, write_index_file


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


@pytest.fixture
def workdir(tmp_path):
    docs = [
        {
            "id": "a",
            "source": "Fuente A con frases largas y difíciles.",
            "reference": "Fuente A corta.",
            "task": "PL",
        },
        {
            "id": "b",
            "source": "Fuente B describe un proceso complejo.",
            "reference": "Fuente B simple.",
            "task": "PL",
        },
        {
            "id": "c",
            "source": "Fuente C explica la norma vigente.",
            "reference": "Fuente C clara.",
            "task": "PL",
        },
    ]
    train = [
        {
            "id": f"t{i}",
            "source": f"Texto de entrenamiento número {i} con palabras variadas.",
            "reference": f"Texto simple {i}.",
            "task": "PL",
        }
        for i in range(4)
    ]
    docs_path = tmp_path / "docs.jsonl"
    train_path = tmp_path / "train.jsonl"
    write_lines(docs_path, docs)
    write_lines(train_path, train)
    return tmp_path, docs_path, train_path


class TestTablecheck:
    def test_exit_ok_and_report(self, capsys):
        assert main(["tablecheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "38/38 asserted rows pass; 1 known-inconsistent" in out
        assert "KNOWN-DIFF" in out
        assert out.count("PASS") == 38

    def test_tight_tolerance_fails(self, monkeypatch, capsys):
        results = run_table_checks(tolerance=0.0001)
        assert not all_asserted_ok(results)
        assert "FAIL" in {r.status for r in results}
        monkeypatch.setattr(apec.cli, "run_table_checks", functools.partial(run_table_checks, tolerance=0.0001))
        assert main(["tablecheck"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out


class TestStats:
    def test_json_report(self, workdir, capsys):
        _, docs_path, _ = workdir
        assert main(["stats", "--input", str(docs_path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["doc_count"] == 3
        assert payload["fh_micro"] == pytest.approx(payload["fh_macro"], abs=30)
        assert payload["avg_sim"] is None

    def test_similarity_rows_with_embedder(self, workdir, capsys):
        _, docs_path, _ = workdir
        assert (
            main(["stats", "--input", str(docs_path), "--embed", "hash"]) == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["avg_sim"] == pytest.approx(
            (payload["bow_sim"] + payload["emb_sim"]) / 2
        )

    def test_text_table_to_file(self, workdir):
        tmp_path, docs_path, _ = workdir
        out_path = tmp_path / "stats.txt"
        rc = main(
            ["stats", "--input", str(docs_path), "--text", "--output", str(out_path)]
        )
        assert rc == EXIT_OK
        assert "FH readability (micro)" in out_path.read_text(encoding="utf-8")

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["stats", "--input", str(tmp_path / "no.jsonl")]) == EXIT_CONFIG

    def test_reference_side_without_refs(self, tmp_path, capsys):
        path = tmp_path / "norefs.jsonl"
        write_lines(path, [{"id": "a", "source": "Texto.", "task": "PL"}])
        rc = main(["stats", "--input", str(path), "--side", "reference"])
        assert rc == EXIT_CONFIG

    def test_punctuation_only_source_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "punct.jsonl"
        write_lines(
            path,
            [
                {"id": "ok", "source": "Texto con palabras.", "task": "PL"},
                {"id": "signos", "source": "¡¿...?!", "task": "PL"},
            ],
        )
        rc = main(["stats", "--input", str(path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "doc signos" in err
        assert "Traceback" not in err

    def test_csv_field_over_limit_is_data_error(self, tmp_path, capsys):
        rows = [
            {"id": "a", "source": "Texto corto.", "task": "PL"},
            {"id": "b", "source": "palabra " * 20_000, "task": "PL"},  # 160,000 characters
        ]
        csv_path = tmp_path / "big.csv"
        csv_path.write_text(
            "id,source,task\n" + "".join(f"{r['id']},{r['source']},{r['task']}\n" for r in rows),
            encoding="utf-8",
        )
        assert main(["stats", "--input", str(csv_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {csv_path} line 3: field larger than field limit" in err
        assert "Traceback" not in err
        jsonl_path = tmp_path / "big.jsonl"
        write_lines(jsonl_path, rows)
        assert main(["stats", "--input", str(jsonl_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["doc_count"] == 2


def u32_column(values) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}I", *values)).decode("ascii")


def parent_layout(payload, kind="bm25-index-digests"):
    """Turn a payload into the layout before the sidecar, one JSON object of
    `kind`: `doc_freqs` maps terms to dfs, the token counts are a list, and
    the other columns are base64 of little-endian uint32, uint64 or bytes."""
    terms, dfs, spans = payload.pop("terms"), payload.pop("dfs"), payload.pop("spans")
    del payload["columns_sha256"]
    payload.update(
        kind=kind, doc_freqs=dict(zip(terms, dfs)),
        positions=u32_column(payload["positions"]), tfs=u32_column(payload["tfs"]),
        spans=base64.b64encode(struct.pack(f"<{len(spans)}Q", *spans)).decode("ascii"),
        digests=base64.b64encode(payload["digests"]).decode("ascii"),
    )


def term_postings(payload) -> dict:
    """term -> [(pos, tf), ...] of an index file's columns."""
    postings, start, positions, tfs = {}, 0, payload["positions"], payload["tfs"]
    for term, df in zip(payload["terms"], payload["dfs"]):
        postings[term] = list(zip(positions[start : start + df], tfs[start : start + df]))
        start += df
    return postings


def set_postings(pairs):
    """Give every term the same postings, `pairs` of (pos, tf). The first
    document's token count becomes the total of the new tfs and the others'
    0, so that the file loads and the postings check is what fails, when a
    query first holds a term."""

    def corrupt(payload):
        n_terms, n_docs = len(payload["terms"]), len(payload["doc_ids"])
        payload["dfs"] = [len(pairs)] * n_terms
        payload["positions"] = [pos for pos, _ in pairs] * n_terms
        payload["tfs"] = [tf for _, tf in pairs] * n_terms
        total = sum(payload["tfs"])
        payload["doc_token_counts"] = [total] + [0] * (n_docs - 1)

    corrupt.message = "postings of "
    return corrupt


def set_spans(change):
    """Replace the spans column, a flat [start, end, ...] list, with change(list)."""

    def corrupt(payload):
        payload["spans"] = change(payload["spans"])

    return corrupt


def halve_spans(spans):
    """Each record's span cut to the first half of its line."""
    return [x for start, end in zip(spans[::2], spans[1::2]) for x in (start, (start + end) // 2)]


def columns_layout(payload):
    """The layout before spans: no corpus digest, no spans, kind bm25-index-columns."""
    parent_layout(payload, "bm25-index-columns")
    del payload["corpus_sha256"], payload["spans"], payload["digests"]


def spans_layout(payload):
    """The layout before record digests: kind bm25-index-spans, no digests."""
    parent_layout(payload, "bm25-index-spans")
    del payload["digests"]


def set_digests(change):
    """Replace the digests column's bytes with change(bytes)."""

    def corrupt(payload):
        payload["digests"] = change(payload["digests"])

    return corrupt


def first_df(change):
    """Replace the first term's document frequency n with change(n)."""

    def corrupt(payload):
        payload["dfs"][0] = change(payload["dfs"][0])

    return corrupt


def first_df_same_total(df):
    """The first term's document frequency set to `df`, and the difference
    taken from the terms after it (each keeps a df >= 1), or given to the
    second, so that Σdfs and the sidecar's size stay as they were."""

    def corrupt(payload):
        dfs = payload["dfs"]
        excess, dfs[0] = df - dfs[0], df
        if excess < 0:
            dfs[1] -= excess
        for i in range(1, len(dfs)):
            taken = min(excess, dfs[i] - 1) if excess > 0 else 0
            dfs[i], excess = dfs[i] - taken, excess - taken
        assert excess <= 0

    corrupt.message = "dfs must be document frequencies in [1, 40]"
    return corrupt


def older_format(kind, encode):
    """An earlier layout: `kind`, and `postings` of term -> encode([(pos, tf), ...])."""

    def corrupt(payload):
        postings = {term: encode(docs) for term, docs in term_postings(payload).items()}
        parent_layout(payload, kind)
        for key in ("doc_freqs", "positions", "tfs"):
            del payload[key]
        payload["postings"] = postings

    return corrupt


def packed_tail(name, code, cut):
    """The column `name` as raw bytes, short of `cut` bytes of its last item."""

    def corrupt(payload):
        column = payload[name]
        payload[name] = struct.pack(f"<{len(column)}{code}", *column)[:-cut]

    return corrupt


def drop_last_tf(payload):
    """A position without a count."""
    payload["tfs"].pop()


def no_docs(payload):
    """An index of no document over the same corpus, which `apec index` never writes."""
    payload.update(doc_ids=[], doc_token_counts=[], terms=[], dfs=[], positions=[], tfs=[], spans=[],
                   digests=b"")


def swap_first_terms(payload):
    terms = payload["terms"]
    terms[0], terms[1] = terms[1], terms[0]


def mixed_doc_id_types(payload):
    """The first doc id an integer among strings, which rank ties could not order."""
    payload["doc_ids"][0] = 0


mixed_doc_id_types.message = "doc_ids is not a list of strings"


def int_doc_ids(payload):
    """Every doc id an integer: `apec index` writes a corpus's ids, which are strings."""
    payload["doc_ids"] = list(range(len(payload["doc_ids"])))


int_doc_ids.message = "doc_ids is not a list of strings"


def drop_key(key, message):
    """The header without `key`, which reads as None and fails that key's own check."""

    def corrupt(payload):
        del payload[key]

    corrupt.message = message
    return corrupt


def set_token_counts(count):
    """Every document's token count `count`."""

    def corrupt(payload):
        payload["doc_token_counts"] = [count] * len(payload["doc_ids"])

    corrupt.message = "doc_token_counts do not sum to the total of tfs"
    return corrupt


class TestIndex:
    def test_build_and_reuse(self, workdir, capsys):
        tmp_path, docs_path, train_path = workdir
        index_path = tmp_path / "index.json"
        rc = main(
            ["index", "--corpus", str(train_path), "--output", str(index_path)]
        )
        assert rc == EXIT_OK
        assert "indexed 4 docs" in capsys.readouterr().out
        out_path = tmp_path / "adapt.jsonl"
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--corpus", str(train_path),
                "--index", str(index_path),
                "--mode", "fs-bm25",
                "--provider", "echo",
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_OK

    def test_corpus_without_references(self, tmp_path):
        path = tmp_path / "norefs.jsonl"
        write_lines(path, [{"id": "a", "source": "Texto.", "task": "PL"}])
        rc = main(
            ["index", "--corpus", str(path), "--output", str(tmp_path / "i.json")]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda p: p.pop("kind"), id="no-kind"),
            pytest.param(lambda p: p.update(kind="bm25-index-v9"), id="wrong-kind"),
            pytest.param(lambda p: p.update(schema_version=2), id="wrong-schema-version"),
            pytest.param(
                older_format("bm25-index", lambda docs: [list(d) for d in docs]), id="old-format"
            ),
            pytest.param(
                older_format(
                    "bm25-index-packed", lambda docs: ",".join(f"{p},{tf}" for p, tf in docs)
                ),
                id="packed-format",
            ),
            pytest.param(lambda p: (p.pop("positions"), p.pop("tfs")), id="no-postings"),
            pytest.param(lambda p: p.pop("dfs"), id="no-doc-freqs"),
            pytest.param(no_docs, id="no-docs"),
            pytest.param(drop_key("doc_ids", "doc_ids is not a list of strings"), id="no-doc-ids"),
            pytest.param(drop_key("terms", "terms is not a list of strings"), id="no-terms"),
            pytest.param(lambda p: p["doc_ids"].insert(0, ["t0"]), id="list-doc-id"),
            pytest.param(lambda p: p["doc_ids"].__setitem__(1, p["doc_ids"][0]), id="repeated-doc-id"),
            pytest.param(mixed_doc_id_types, id="mixed-doc-id-types"),
            pytest.param(int_doc_ids, id="int-doc-ids"),
            pytest.param(lambda p: p["doc_token_counts"].pop(), id="short-token-counts"),
            # counts whose total is not that of the tfs
            pytest.param(set_token_counts(0), id="token-counts-all-zero"),
            pytest.param(set_token_counts(1), id="token-counts-all-one"),
            pytest.param(packed_tail("tfs", "I", 1), id="partial-uint32"),
            pytest.param(drop_last_tf, id="odd-field-count"),
            pytest.param(first_df(lambda n: n + 1), id="columns-short-of-doc-freqs"),
            pytest.param(first_df_same_total(0), id="empty-posting"),
            pytest.param(first_df_same_total(41), id="df-past-doc-count"),
            pytest.param(set_postings([(40, 1)]), id="position-past-last-doc"),
            # -1 written as a 32-bit two's complement reads as 2**32 - 1
            pytest.param(set_postings([(2**32 - 1, 1)]), id="negative-position"),
            pytest.param(set_postings([(5, 1), (2, 1)]), id="descending-positions"),
            pytest.param(set_postings([(3, 1), (3, 1)]), id="repeated-position"),
            pytest.param(set_postings([(0, 0)]), id="zero-tf"),
            pytest.param(columns_layout, id="columns-layout"),
            pytest.param(drop_key("corpus_sha256", "built from a corpus with sha256 None"), id="no-corpus-sha256"),
            pytest.param(lambda p: p.update(corpus_sha256="abc123"), id="short-corpus-sha256"),
            pytest.param(lambda p: p.update(corpus_sha256=None), id="null-corpus-sha256"),
            pytest.param(
                lambda p: p.update(corpus_sha256=hashlib.sha256(b"other\n").hexdigest()),
                id="corpus-sha256-of-another-file",
            ),
            pytest.param(lambda p: p.pop("spans"), id="no-spans"),
            pytest.param(packed_tail("spans", "Q", 4), id="spans-partial-uint64"),
            pytest.param(set_spans(lambda s: s[:-2]), id="spans-one-doc-short"),
            pytest.param(set_spans(lambda s: [*s, s[-1], s[-1] + 1]), id="spans-one-doc-over"),
            pytest.param(set_spans(lambda s: [s[1], s[0], *s[2:]]), id="span-end-before-start"),
            pytest.param(set_spans(lambda s: [s[0], s[0], *s[2:]]), id="empty-span"),
            pytest.param(set_spans(lambda s: [*s[2:4], *s[:2], *s[4:]]), id="descending-spans"),
            pytest.param(set_spans(lambda s: [s[0], s[3], *s[2:]]), id="overlapping-spans"),
            pytest.param(set_spans(lambda s: [*s[:-1], s[-1] + 1]), id="span-past-end-of-file"),
            # every position's span then holds another document's record
            pytest.param(
                lambda p: p.update(doc_ids=p["doc_ids"][1:] + p["doc_ids"][:1]),
                id="span-of-another-record",
            ),
            pytest.param(set_spans(halve_spans), id="spans-of-half-lines"),
            pytest.param(spans_layout, id="spans-layout"),
            pytest.param(lambda p: p.pop("digests"), id="no-digests"),
            pytest.param(set_digests(lambda d: d[:-16]), id="digests-one-doc-short"),
            pytest.param(set_digests(lambda d: d + d[:16]), id="digests-one-doc-over"),
            pytest.param(set_digests(lambda d: d[16:] + d[:16]), id="digest-of-another-record"),
            pytest.param(set_digests(lambda d: d[:-1]), id="sidecar-one-byte-short"),
            pytest.param(set_digests(lambda d: d + b"\0"), id="sidecar-one-byte-over"),
            pytest.param(lambda p: p["terms"].__setitem__(1, p["terms"][0]), id="repeated-term"),
            pytest.param(swap_first_terms, id="swapped-terms"),
            pytest.param(lambda p: p["terms"].__setitem__(0, 1), id="non-string-term"),
        ],
    )
    def test_malformed_index_is_data_error(self, tmp_path, capsys, corrupt):
        # a case that edits a column writes the sidecar's new sha256 into the
        # header, so that it reaches the check it targets
        _, docs_path, train_path = write_workers_corpus(tmp_path)  # 40 training docs
        index_path = tmp_path / "index.json"
        rc = main(["index", "--corpus", str(train_path), "--output", str(index_path)])
        assert rc == EXIT_OK
        payload = read_index_file(index_path)
        corrupt(payload)
        write_index_file(index_path, payload)
        err = self.assert_refused(capsys, docs_path, train_path, index_path)
        assert getattr(corrupt, "message", "") in err

    @pytest.mark.parametrize("other", [False, True], ids=["no-sidecar", "sidecar-of-another-index"])
    def test_sidecar_not_its_headers_is_data_error(self, tmp_path, capsys, other):
        _, docs_path, train_path = write_workers_corpus(tmp_path)
        index_path, sidecar = tmp_path / "index.json", tmp_path / "index.json.columns"
        assert main(["index", "--corpus", str(train_path), "--output", str(index_path)]) == EXIT_OK
        if other:
            # the records in reverse order: the same terms, dfs and sizes, other bytes
            lines = train_path.read_bytes().splitlines(keepends=True)
            reversed_path, other_path = tmp_path / "reversed.jsonl", tmp_path / "other.json"
            reversed_path.write_bytes(b"".join(reversed(lines)))
            assert main(["index", "--corpus", str(reversed_path), "--output", str(other_path)]) == EXIT_OK
            other_sidecar = (tmp_path / "other.json.columns").read_bytes()
            assert len(other_sidecar) == sidecar.stat().st_size
            sidecar.write_bytes(other_sidecar)
        else:
            sidecar.unlink()
        err = self.assert_refused(capsys, docs_path, train_path, index_path)
        assert ("belongs to another index" if other else "cannot read its columns: ") in err

    def assert_refused(self, capsys, docs_path, train_path, index_path):
        capsys.readouterr()
        out_path = index_path.parent / "adapt.jsonl"
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--corpus", str(train_path),
                "--index", str(index_path),
                "--mode", "fs-bm25",
                "--provider", "echo",
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "rebuild it with `apec index`" in err
        assert not out_path.exists()
        return err


class TestAdapt:
    def test_zero_shot_echo(self, workdir):
        tmp_path, docs_path, _ = workdir
        out_path = tmp_path / "zs.jsonl"
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "zs",
                "--provider", "echo",
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_OK
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["doc_id"] for r in records] == ["a", "b", "c"]
        assert all(r["mode"] == "zs" for r in records)
        # echo returns the final user turn, which is the source itself
        assert records[0]["adaptation"] == "Fuente A con frases largas y difíciles."

    def test_scripted_fs_bm25(self, workdir):
        tmp_path, docs_path, train_path = workdir
        script = tmp_path / "script.jsonl"
        write_lines(
            script,
            [
                {"match": "Fuente A", "response": "Adaptación A."},
                {"match": "Fuente B", "response": "Adaptación B."},
                {"match": "Fuente C", "response": "Adaptación C."},
            ],
        )
        out_path = tmp_path / "fs.jsonl"
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--corpus", str(train_path),
                "--mode", "fs-bm25",
                "--k", "2",
                "--provider", f"scripted:{script}",
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_OK
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["adaptation"] for r in records] == [
            "Adaptación A.",
            "Adaptación B.",
            "Adaptación C.",
        ]

    def test_fs_rdm_seed_determinism(self, workdir):
        tmp_path, docs_path, train_path = workdir
        out_a = tmp_path / "rdm_a.jsonl"
        out_b = tmp_path / "rdm_b.jsonl"
        for out_path in (out_a, out_b):
            rc = main(
                [
                    "adapt",
                    "--input", str(docs_path),
                    "--corpus", str(train_path),
                    "--mode", "fs-rdm",
                    "--k", "2",
                    "--seed", "7",
                    "--provider", "echo",
                    "--output", str(out_path),
                ]
            )
            assert rc == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_fs_emb_mode(self, workdir):
        tmp_path, docs_path, train_path = workdir
        out_path = tmp_path / "emb.jsonl"
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--corpus", str(train_path),
                "--mode", "fs-emb",
                "--embed", "hash",
                "--provider", "echo",
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_OK
        assert len(out_path.read_text().splitlines()) == 3

    def test_ratio_requires_bm25(self, workdir):
        tmp_path, docs_path, _ = workdir
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "zs",
                "--ratio", "0.8,1.2",
                "--provider", "echo",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("ratio", ["1.2,0.8", "nan,0.9", "0.3,nan"])
    def test_ratio_out_of_order_or_nan_is_usage_error(self, workdir, capsys, ratio):
        tmp_path, docs_path, train_path = workdir
        out_path = tmp_path / "x.jsonl"
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--corpus", str(train_path),
                "--mode", "fs-bm25",
                "--ratio", ratio,
                "--provider", "echo",
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_USAGE
        assert f"usage error: --ratio bounds out of order: {ratio}" in capsys.readouterr().err
        assert not out_path.exists()

    def test_fs_needs_corpus(self, workdir):
        tmp_path, docs_path, _ = workdir
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "fs-rdm",
                "--provider", "echo",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_USAGE

    def test_unknown_provider(self, workdir):
        tmp_path, docs_path, _ = workdir
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "zs",
                "--provider", "oracle",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize(
        "mode_args",
        [["--mode", "fs-rdm"], ["--mode", "fs-bm25"], ["--mode", "fs-emb", "--embed", "hash"]],
    )
    def test_k_below_one_is_usage_error(self, workdir, capsys, mode_args, k):
        tmp_path, docs_path, train_path = workdir
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--corpus", str(train_path),
                *mode_args,
                "--k", k,
                "--provider", "echo",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_USAGE
        assert f"usage error: --k must be >= 1, got {k}" in capsys.readouterr().err

    def test_non_object_fixture_line_is_data_error(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        script = tmp_path / "script.jsonl"
        script.write_text('{"match": "Fuente", "response": "x"}\n\n5\n', encoding="utf-8")
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "zs",
                "--provider", f"scripted:{script}",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {script} line 3: expected a JSON object\n"

    @pytest.mark.parametrize(
        "line, problem",
        [
            ({"id": "t9", "task": "PL"}, "missing field 'source'"),
            (["t9"], "expected a JSON object"),
            ({"id": "t0", "source": "Otra vez.", "task": "PL"}, "duplicate id 't0'"),
        ],
    )
    def test_bad_corpus_line_names_file(self, workdir, capsys, line, problem):
        tmp_path, docs_path, train_path = workdir
        with open(train_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--corpus", str(train_path),
                "--mode", "fs-bm25",
                "--provider", "echo",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{train_path} line 5: {problem}" in err
        assert "Traceback" not in err

    def test_partial_failure(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        script = tmp_path / "script.jsonl"
        write_lines(script, [{"match": "Fuente A", "response": "Sólo A."}])
        out_path = tmp_path / "partial.jsonl"
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "zs",
                "--provider", f"scripted:{script}",
                "--retries", "0",
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_PARTIAL
        assert len(out_path.read_text().splitlines()) == 1
        assert "2 of 3 documents failed" in capsys.readouterr().err

    def test_total_failure(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        script = tmp_path / "script.jsonl"
        script.write_text("", encoding="utf-8")
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "zs",
                "--provider", f"scripted:{script}",
                "--retries", "0",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_PROVIDER

    @pytest.mark.parametrize(
        "blank, want_rc, want_ids",
        [("A", EXIT_PARTIAL, ["b", "c"]), ("ABC", EXIT_PROVIDER, [])],
    )
    def test_blank_completion_fails_only_its_document(
        self, workdir, capsys, blank, want_rc, want_ids
    ):
        tmp_path, docs_path, _ = workdir
        script = tmp_path / "script.jsonl"
        write_lines(
            script,
            [
                {"match": f"Fuente {x}", "response": "   " if x in blank else f"Texto {x}."}
                for x in "ABC"
            ],
        )
        out_path = tmp_path / "blank.jsonl"
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "zs",
                "--provider", f"scripted:{script}",
                "--output", str(out_path),
            ]
        )
        assert rc == want_rc
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["doc_id"] for r in records] == want_ids
        err = capsys.readouterr().err
        assert "error: doc a: provider returned an empty completion" in err
        assert f"{len(blank)} of 3 documents failed" in err
        assert "Traceback" not in err


def write_workers_corpus(tmp_path):
    """8 docs over 40 overlapping training pairs, so retrieval picks vary."""
    words = [
        "norma", "proceso", "trámite", "solicitud", "plazo", "documento",
        "persona", "servicio", "ayuda", "derecho", "oficina", "registro",
    ]
    docs = [
        {
            "id": f"d{i}",
            "source": f"Documento {i}: " + " ".join(words[i:] + words[:i]) + ".",
            "reference": f"Texto claro {i}.",
            "task": "PL",
        }
        for i in range(8)
    ]
    train = [
        {
            "id": f"t{i}",
            "source": " ".join(words[(i * 5) % 12 :] + words[: i % 7]) + ".",
            "reference": " ".join(words[: 2 + i % 4]) + ".",
            "task": "PL",
        }
        for i in range(40)
    ]
    docs_path = tmp_path / "docs.jsonl"
    train_path = tmp_path / "train.jsonl"
    write_lines(docs_path, docs)
    write_lines(train_path, train)
    return docs, docs_path, train_path


class DemoEchoProvider:
    """Answers with every turn of the request, demonstrations included, so
    a wrong or reordered demonstration changes the output bytes. The
    short sleep lets pool threads interleave."""

    provider_id = "demo-echo"

    def complete(self, request):
        time.sleep(0.002)
        return " | ".join(content for _, content in request.messages)


class DemoTurnsEchoProvider(DemoEchoProvider):
    """Answers with the demonstration turns alone. The answer holds no
    revision template, so every refine cycle fails to parse and its trace
    record keeps the echoed demonstrations."""

    def complete(self, request):
        return super().complete(dataclasses.replace(request, messages=request.messages[:-1]))


class TestAdaptWorkers:
    @pytest.mark.parametrize(
        "mode_args", [["--mode", "fs-emb", "--embed", "hash:64"], ["--mode", "fs-bm25"]]
    )
    def test_workers_byte_identical(self, tmp_path, monkeypatch, mode_args):
        monkeypatch.setattr(
            apec.cli, "make_chat_provider", lambda spec, config: DemoEchoProvider()
        )
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        outputs = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"adapt{workers}.jsonl"
            rc = main(
                [
                    "adapt",
                    "--input", str(docs_path),
                    "--corpus", str(train_path),
                    *mode_args,
                    "--k", "3",
                    "--provider", "echo",
                    "--workers", workers,
                    "--output", str(out_path),
                ]
            )
            assert rc == EXIT_OK
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        records = [json.loads(line) for line in outputs[0].decode().splitlines()]
        assert [r["doc_id"] for r in records] == [d["id"] for d in docs]
        # three demonstration pairs ahead of the source, varying by document
        turns = [r["adaptation"].split(" | ") for r in records]
        assert all(len(t) == 7 for t in turns)
        assert len({tuple(t[:6]) for t in turns}) > 1


def swap_first_lines(data: bytes) -> bytes:
    first, second, rest = data.split(b"\n", 2)
    return b"\n".join([second, first, rest])


def write_csv_copy(train_path):
    """The JSONL corpus as CSV: \\r\\n line ends, and each source's first space
    a newline, so every record is a quoted field over two lines. BM25
    splits on any whitespace, so the rankings do not change. A first row
    without a reference is left out of the index."""
    csv_path = train_path.with_suffix(".csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, ["id", "source", "reference", "task"])
        writer.writeheader()
        writer.writerow({"id": "sin", "source": "Norma\nsin referencia.", "task": "PL"})
        for line in train_path.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            writer.writerow({**row, "source": row["source"].replace(" ", "\n", 1)})
    return csv_path


class TestIndexOverCorpus:
    """An index file pins its corpus by sha256 and reads only the records
    it ranks: a loaded index gives an in-memory build's demonstrations, and
    a changed corpus is refused until `apec index` runs again."""

    def commands(self, tmp_path, docs, docs_path, train_path):
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": d["id"], "adaptation": f"Inicial {d['id']}."} for d in docs])
        return {
            "adapt": ["adapt", "--input", str(docs_path), "--corpus", str(train_path),
                      "--mode", "fs-bm25", "--k", "3", "--provider", "echo"],
            "refine": ["refine", "--input", str(initial), "--docs", str(docs_path),
                       "--corpus", str(train_path), "--provider", "echo", "--embed", "hash",
                       "--cycles", "2", "--demos", "3"],
        }

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda data: data.replace(b"norma", b"normo", 1), id="one-character"),
            pytest.param(
                lambda data: data + b'{"id": "t40", "source": "Otra norma.", '
                b'"reference": "Norma.", "task": "PL"}\n',
                id="appended-document",
            ),
            pytest.param(swap_first_lines, id="two-lines-swapped"),
            pytest.param(lambda data: data.replace(b"\n", b"\r\n"), id="crlf-line-ends"),
        ],
    )
    def test_changed_corpus_is_refused_until_reindexed(self, tmp_path, capsys, change):
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        index_path = tmp_path / "index.json"
        index_argv = ["index", "--corpus", str(train_path), "--output", str(index_path)]
        assert main(index_argv) == EXIT_OK
        train_path.write_bytes(change(train_path.read_bytes()))
        commands = self.commands(tmp_path, docs, docs_path, train_path)
        for name, argv in commands.items():
            out_path = tmp_path / f"{name}.jsonl"
            capsys.readouterr()
            assert main([*argv, "--index", str(index_path), "--output", str(out_path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"index file {index_path}: " in err
            assert f"not {train_path} as it is now" in err
            assert "rebuild it with `apec index`" in err
            assert "Traceback" not in err
            assert not out_path.exists()
        assert main(index_argv) == EXIT_OK
        for name, argv in commands.items():
            out_path = tmp_path / f"{name}.jsonl"
            assert main([*argv, "--index", str(index_path), "--output", str(out_path)]) == EXIT_OK

    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    @pytest.mark.parametrize("source", ["loaded", "built"])
    def test_record_rewritten_before_it_is_read(self, tmp_path, monkeypatch, capsys, corpus_format, source):
        # every record's text changes after the index is made, keeping its
        # length and its id: the first ranking that reads one fails the run
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        if corpus_format == "csv":
            train_path = write_csv_copy(train_path)
        index_path = tmp_path / "index.json"
        assert main(["index", "--corpus", str(train_path), "--output", str(index_path)]) == EXIT_OK
        make = "load_index" if source == "loaded" else "build_index"
        real = getattr(apec.retrieval, make)

        def make_then_rewrite(*args, **kwargs):
            index = real(*args, **kwargs)
            data = train_path.read_bytes()
            train_path.write_bytes(data.replace(b"norma", b"normo"))
            assert train_path.read_bytes() != data
            return index

        monkeypatch.setattr(apec.retrieval, make, make_then_rewrite)
        argv = self.commands(tmp_path, docs, docs_path, train_path)["adapt"]
        if source == "loaded":
            argv += ["--index", str(index_path)]
        out_path = tmp_path / "adapt.jsonl"
        capsys.readouterr()
        assert main([*argv, "--output", str(out_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{train_path} bytes " in err and "changed since they were indexed" in err
        if source == "loaded":
            assert f"index file {index_path}: doc " in err
            assert "rebuild it with `apec index`" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    @pytest.mark.parametrize("ratio", [[], ["--ratio", "0.25,0.45"]], ids=["top-k", "ratio"])
    def test_adapt_loaded_equals_built(self, tmp_path, monkeypatch, capsys, corpus_format, ratio):
        monkeypatch.setattr(
            apec.cli, "make_chat_provider", lambda spec, config: DemoEchoProvider()
        )
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        if corpus_format == "csv":
            train_path = write_csv_copy(train_path)
            assert b"\r\n" in train_path.read_bytes() and "trámite" in train_path.read_text()
        index_path = tmp_path / "index.json"
        assert main(["index", "--corpus", str(train_path), "--output", str(index_path)]) == EXIT_OK
        argv = self.commands(tmp_path, docs, docs_path, train_path)["adapt"] + ratio
        built, loaded = tmp_path / "built.jsonl", tmp_path / "loaded.jsonl"
        assert main([*argv, "--output", str(built)]) == EXIT_OK
        capsys.readouterr()
        assert main([*argv, "--index", str(index_path), "--output", str(loaded)]) == EXIT_OK
        assert capsys.readouterr().err == ""  # the skipped-reference warning is `index`'s alone
        assert loaded.read_bytes() == built.read_bytes()
        turns = [json.loads(line)["adaptation"].split(" | ") for line in built.read_text().splitlines()]
        assert len({tuple(t[:-1]) for t in turns}) > 1  # demonstrations vary by document
        if corpus_format == "csv":  # the demonstrations hold the two-line sources
            assert all("\n" in t[0] for t in turns)

    def test_index_of_the_layout_before_its_sidecar_is_refused(self, tmp_path, capsys):
        # one JSON object with base64 columns, over the corpus's first record
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        line = train_path.read_bytes().splitlines(keepends=True)[0]
        index_path = tmp_path / "index.json"
        index_path.write_text(json.dumps({
            "schema_version": 1, "kind": "bm25-index-digests",
            "params": {"b": 0.75, "epsilon": 0.25, "k1": 1.5, "min_token_len": 4},
            "doc_ids": ["t0"], "doc_token_counts": [2], "avgdl": 2.0,
            "doc_freqs": {"norma": 1, "proceso": 1},
            "positions": u32_column([0, 0]), "tfs": u32_column([1, 1]),
            "corpus_sha256": hashlib.sha256(train_path.read_bytes()).hexdigest(),
            "spans": base64.b64encode(struct.pack("<2Q", 0, len(line))).decode("ascii"),
            "digests": base64.b64encode(hashlib.sha256(line).digest()[:16]).decode("ascii"),
        }) + "\n", encoding="utf-8")
        for name, argv in self.commands(tmp_path, docs, docs_path, train_path).items():
            out_path = tmp_path / f"{name}.jsonl"
            rc = main([*argv, "--index", str(index_path), "--output", str(out_path)])
            err = capsys.readouterr().err
            assert rc == EXIT_CONFIG, name
            assert "(schema_version, kind) is (1, 'bm25-index-digests')" in err
            assert err.endswith("; rebuild it with `apec index`\n")
            assert "Traceback" not in err
            assert not out_path.exists()

    def test_refine_loaded_equals_built(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            apec.cli, "make_chat_provider", lambda spec, config: DemoTurnsEchoProvider()
        )
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        index_path = tmp_path / "index.json"
        assert main(["index", "--corpus", str(train_path), "--output", str(index_path)]) == EXIT_OK
        argv = self.commands(tmp_path, docs, docs_path, train_path)["refine"]
        built, loaded = tmp_path / "built.jsonl", tmp_path / "loaded.jsonl"
        assert main([*argv, "--output", str(built)]) == EXIT_OK
        assert main([*argv, "--index", str(index_path), "--output", str(loaded)]) == EXIT_OK
        assert loaded.read_bytes() == built.read_bytes()
        train_sources = [json.loads(line)["source"] for line in train_path.read_text().splitlines()]
        records = [r for line in built.read_text().splitlines() for r in json.loads(line)["records"]]
        assert len(records) == 2 * len(docs)
        assert all(r["parse_failed"] for r in records)
        assert all(any(source in r["candidate"] for source in train_sources) for r in records)


def write_topic_corpus(tmp_path):
    """Ten documents over six training pairs, as in scripts/dry_run.py: each
    source shares topic words with two training sources, and each training
    reference is unique, so a reply can name the demonstration it follows."""
    topics = ["beca", "impuesto", "vivienda", "empleo", "salud", "transporte"]
    docs = [
        {
            "id": f"dev{i}",
            "source": f"El documento número {i} trata de la {topics[i % 6]} y de "
            f"{topics[(2 * i + 1) % 6]} en su caso; la {topics[i % 6]} tiene frases "
            "largas y términos difíciles.",
            "reference": f"El documento {i} trata de {topics[i % 6]}.",
            "task": "PL",
        }
        for i in range(10)
    ]
    train = [
        {
            "id": f"train{i}",
            "source": f"Texto de entrenamiento {i} sobre {topic} y trámites complejos.",
            "reference": f"Texto fácil {i} sobre {topic}.",
            "task": "PL",
        }
        for i, topic in enumerate(topics)
    ]
    docs_path, train_path = tmp_path / "dev.jsonl", tmp_path / "train.jsonl"
    write_lines(docs_path, docs)
    write_lines(train_path, train)
    return docs, train, docs_path, train_path


class TestOneBm25Configuration:
    """Every index ranks with `Bm25Params`, no config key changes it, and an
    index file holds no params, so `--index` and an in-memory build pick the
    same demonstrations under any config."""

    def test_index_file_and_build_agree_under_a_bm25_config(self, tmp_path, capsys):
        docs, train, docs_path, train_path = write_topic_corpus(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bm25": {"k1": 0.1, "min_token_len": 9}}), encoding="utf-8")
        index_path = tmp_path / "index.json"
        index_argv = ["index", "--corpus", str(train_path), "--output", str(index_path)]
        assert main([*index_argv, "--config", str(config_path)]) == EXIT_USAGE
        assert main(index_argv) == EXIT_OK
        # each reply names the rank-2 demonstration, the turn before the document's own
        review = PLAIN_LANGUAGE_REVIEW_TEMPLATE.splitlines()[0]
        script = tmp_path / "script.jsonl"
        write_lines(script, [
            {"match": f"[assistant]\n{demo['reference']}\n\n[user]\n{doc['source']}",
             "response": f"Adaptación de {doc['id']} junto a {demo['id']}."}
            for doc in docs for demo in train
        ] + [
            {"match": f"[assistant]\n{demo['reference']}\n\n[user]\n{review}",
             "response": apec_response(f"Versión junto a {demo['id']}.")}
            for _ in docs for demo in train
        ])
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": d["id"], "adaptation": f"Inicial {d['id']}."} for d in docs])
        common = ["--corpus", str(train_path), "--provider", f"scripted:{script}",
                  "--config", str(config_path)]
        commands = {
            "adapt": ["adapt", "--input", str(docs_path), "--mode", "fs-bm25", "--k", "2", *common],
            "refine": ["refine", "--input", str(initial), "--docs", str(docs_path), "--embed",
                       "hash", "--cycles", "1", "--demos", "2", *common],
        }
        for name, argv in commands.items():
            built, loaded = tmp_path / f"{name}_built.jsonl", tmp_path / f"{name}_loaded.jsonl"
            assert main([*argv, "--output", str(built)]) == EXIT_OK
            assert main([*argv, "--index", str(index_path), "--output", str(loaded)]) == EXIT_OK
            assert loaded.read_bytes() == built.read_bytes(), name
        assert "Traceback" not in capsys.readouterr().err
        adapted = (tmp_path / "adapt_built.jsonl").read_text(encoding="utf-8").splitlines()
        assert len({json.loads(line)["adaptation"].split(" junto a ")[1] for line in adapted}) > 1

    @pytest.mark.parametrize(
        "params",
        [{"b": 0.75, "epsilon": 0.25, "k1": 1.5, "min_token_len": 4},
         {"b": 0.75, "epsilon": 0.25, "k1": 0.1, "min_token_len": 9}],
        ids=["default", "tuned"],
    )
    def test_index_file_holding_params_is_refused(self, tmp_path, capsys, params):
        """A header of the earlier layout, which held `params` and `avgdl`
        beside today's keys, is refused by its kind, whatever params it holds."""
        docs, _, docs_path, train_path = write_topic_corpus(tmp_path)
        index_path = tmp_path / "index.json"
        assert main(["index", "--corpus", str(train_path), "--output", str(index_path)]) == EXIT_OK
        counts = read_index_file(index_path)["doc_token_counts"]
        header = json.loads(index_path.read_text(encoding="utf-8"))
        header.update(kind="bm25-index-columns", params=params,
                      avgdl=sum(counts) / len(counts))
        index_path.write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8")
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": d["id"], "adaptation": f"Inicial {d['id']}."} for d in docs])
        commands = {
            "adapt": ["adapt", "--input", str(docs_path), "--mode", "fs-bm25"],
            "refine": ["refine", "--input", str(initial), "--docs", str(docs_path), "--embed", "hash"],
        }
        capsys.readouterr()
        for name, argv in commands.items():
            out_path = tmp_path / f"{name}.jsonl"
            rc = main([*argv, "--corpus", str(train_path), "--index", str(index_path),
                       "--provider", "echo", "--output", str(out_path)])
            err = capsys.readouterr().err
            assert rc == EXIT_CONFIG, name
            assert "(schema_version, kind) is (1, 'bm25-index-columns')" in err
            assert err.endswith("; rebuild it with `apec index`\n")
            assert "Traceback" not in err
            assert not out_path.exists()


class TestOutputIsAnInput:
    """An `--output` that names an input file of its command, however
    spelled, is a usage error found before any file is read, so the input
    keeps its bytes."""

    def commands(self, tmp_path):
        _, docs_path, train_path = write_workers_corpus(tmp_path)
        index_path, config_path = tmp_path / "index.json", tmp_path / "config.json"
        assert main(["index", "--corpus", str(train_path), "--output", str(index_path)]) == EXIT_OK
        config_path.write_text("{}", encoding="utf-8")
        initial, one, two = tmp_path / "initial.jsonl", tmp_path / "uno.jsonl", tmp_path / "dos.jsonl"
        write_lines(initial, [{"doc_id": "d0", "adaptation": "Inicial d0."}])
        write_lines(one, [make_trace_record("d0", "uno", "U", 1.0)])
        write_lines(two, [make_trace_record("d0", "dos", "D", 2.0)])
        docs, train, index, config = map(str, (docs_path, train_path, index_path, config_path))
        return {
            "stats": ["stats", "--input", docs, "--config", config],
            "index": ["index", "--corpus", train],
            "adapt": ["adapt", "--input", docs, "--corpus", train, "--index", index,
                      "--mode", "fs-bm25", "--provider", "echo", "--config", config],
            "refine": ["refine", "--input", str(initial), "--docs", docs, "--corpus", train,
                       "--index", index, "--provider", "echo", "--embed", "hash", "--config", config],
            "evaluate": ["evaluate", "--input", str(initial), "--corpus", docs, "--embed", "hash",
                         "--config", config],
            "ensemble": ["ensemble", "--inputs", str(one), str(two)],
        }

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("stats", "--input"), ("stats", "--config"),
            ("index", "--corpus"),
            ("adapt", "--input"), ("adapt", "--corpus"), ("adapt", "--index"), ("adapt", "--config"),
            ("refine", "--input"), ("refine", "--docs"), ("refine", "--corpus"),
            ("refine", "--index"), ("refine", "--config"),
            ("evaluate", "--input"), ("evaluate", "--corpus"), ("evaluate", "--config"),
            ("ensemble", "--inputs"),
        ],
    )
    def test_usage_error_and_input_unchanged(self, tmp_path, monkeypatch, capsys, command, flag):
        argv = self.commands(tmp_path)[command]
        target = argv[argv.index(flag) + 1]
        before = Path(target).read_bytes()
        monkeypatch.chdir(tmp_path)  # the output spelled relative, the inputs absolute
        capsys.readouterr()
        output = os.path.basename(target)
        assert main([*argv, "--output", output]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: --output {output} would overwrite the {flag} file {target}" in err
        assert "Traceback" not in err
        assert Path(target).read_bytes() == before

    @pytest.mark.parametrize("command", ["adapt", "refine"])
    def test_sidecar_of_index_flag_is_an_input(self, tmp_path, capsys, command):
        # the sidecar is read through --index; overwritten, the next run fails
        argv = self.commands(tmp_path)[command]
        sidecar = f"{argv[argv.index('--index') + 1]}.columns"
        before = Path(sidecar).read_bytes()
        capsys.readouterr()
        assert main([*argv, "--output", sidecar]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: --output {sidecar} would overwrite the --index file {sidecar}" in err
        assert "Traceback" not in err
        assert Path(sidecar).read_bytes() == before

    @pytest.mark.parametrize("command", ["adapt", "refine"])
    def test_scripted_fixture_is_an_input(self, tmp_path, monkeypatch, capsys, command):
        argv = self.commands(tmp_path)[command]
        fixture = tmp_path / "script.jsonl"
        write_lines(fixture, [{"match": "", "response": "Respuesta."}])
        before = fixture.read_bytes()
        argv[argv.index("--provider") + 1] = f"scripted:{fixture}"
        monkeypatch.chdir(tmp_path)  # the output spelled relative, the fixture absolute
        capsys.readouterr()
        assert main([*argv, "--output", "script.jsonl"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: --output script.jsonl would overwrite the --provider file {fixture}" in err
        assert "Traceback" not in err
        assert fixture.read_bytes() == before

    def test_index_sidecar_is_an_input(self, tmp_path, capsys):
        _, _, train_path = write_workers_corpus(tmp_path)
        corpus = tmp_path / "index.json.columns"
        corpus.write_bytes(train_path.read_bytes())
        argv = ["index", "--corpus", str(corpus), "--output", str(tmp_path / "index.json")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"would overwrite the --corpus file {corpus}" in err
        assert "Traceback" not in err
        assert corpus.read_bytes() == train_path.read_bytes()
        assert not (tmp_path / "index.json").exists()


class TestUnwritableOutput:
    """An `--output` that is a directory, or whose parent is not one, is a
    config error found before any file is read, so no provider is called
    and no file is written."""

    commands = TestOutputIsAnInput.commands

    @pytest.mark.parametrize("output", ["missing/out.jsonl", "existing", "file.txt/out.jsonl"])
    @pytest.mark.parametrize("command", ["adapt", "refine", "index", "ensemble"])
    def test_config_error_before_any_work(
        self, tmp_path, monkeypatch, capsys, stub_server, command, output
    ):
        stub_server.answer = turns_answer
        monkeypatch.setenv("LLM_ENDPOINT", stub_server.url + "/v1")
        argv = self.commands(tmp_path)[command]
        if "--provider" in argv:
            argv[argv.index("--provider") + 1] = "http"
        (tmp_path / "existing").mkdir()
        (tmp_path / "file.txt").write_text("x", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main([*argv, "--output", output]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: --output {output}: ")
        assert "Traceback" not in err
        assert stub_server.received == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_index_sidecar_is_a_directory(self, tmp_path, capsys):
        _, _, train_path = write_workers_corpus(tmp_path)
        output = tmp_path / "index.json"
        (tmp_path / "index.json.columns").mkdir()
        assert main(["index", "--corpus", str(train_path), "--output", str(output)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: --output {output}: {output}.columns is a directory, or its parent is not one\n"
        assert not output.exists()


class TestTrainingSet:
    """fs-rdm and fs-emb read their demonstrations through `CorpusPairs`:
    one streaming pass over the training corpus, then a read-back of each
    record they use, checked against that pass."""

    def argv(self, tmp_path, docs_path, train_path, mode, workers="1"):
        mode_args = ["--seed", "7"] if mode == "fs-rdm" else ["--embed", "hash:64"]
        return ["adapt", "--input", str(docs_path), "--corpus", str(train_path), "--mode", mode,
                *mode_args, "--k", "3", "--provider", "echo", "--workers", workers,
                "--output", str(tmp_path / f"adapt{workers}.jsonl")]

    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    @pytest.mark.parametrize("mode", ["fs-rdm", "fs-emb"])
    def test_output_matches_golden(self, tmp_path, monkeypatch, capsys, mode, corpus_format):
        """The demonstrations echoed ahead of each source are those of the
        golden file, at one and two workers, and the CSV copy's row without
        a reference is skipped with a warning."""
        monkeypatch.setattr(
            apec.cli, "make_chat_provider", lambda spec, config: DemoEchoProvider()
        )
        _, docs_path, train_path = write_workers_corpus(tmp_path)
        if corpus_format == "csv":
            train_path = write_csv_copy(train_path)
        golden = Path(__file__).parent / "data" / f"adapt_{mode}_{corpus_format}.jsonl"
        for workers in ("1", "2"):
            assert main(self.argv(tmp_path, docs_path, train_path, mode, workers)) == EXIT_OK
            assert (tmp_path / f"adapt{workers}.jsonl").read_bytes() == golden.read_bytes()
        warning = "warning: 1 training docs without reference skipped\n" if corpus_format == "csv" else ""
        assert capsys.readouterr().err == warning * 2

    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    @pytest.mark.parametrize("mode", ["fs-rdm", "fs-emb"])
    def test_record_rewritten_after_the_pass(self, tmp_path, monkeypatch, capsys, mode, corpus_format):
        """Every record's text changes, keeping its length and its id, once
        the streaming pass ends: the first read-back fails the run."""
        _, docs_path, train_path = write_workers_corpus(tmp_path)
        if corpus_format == "csv":
            train_path = write_csv_copy(train_path)

        class RewrittenAfterRead(apec.retrieval.CorpusPairs):
            def read(self):
                yield from super().read()
                data = train_path.read_bytes()
                train_path.write_bytes(data.replace(b"norma", b"normo"))
                assert train_path.read_bytes() != data

        monkeypatch.setattr(apec.retrieval, "CorpusPairs", RewrittenAfterRead)
        argv = self.argv(tmp_path, docs_path, train_path, mode)
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(rf"error: doc 't\d+': {re.escape(str(train_path))} bytes \d+:\d+ changed", err)
        assert "Traceback" not in err
        assert not (tmp_path / "adapt1.jsonl").exists()

    @pytest.mark.parametrize("mode", ["fs-rdm", "fs-bm25", "fs-emb"])
    def test_k_above_usable_pairs_gives_every_pair(self, tmp_path, monkeypatch, mode):
        """A --k above the number of training docs with a reference gives
        every document each of those docs once, in every few-shot mode."""
        requests = []

        class RecordingProvider(DemoEchoProvider):
            def complete(self, request):
                requests.append(request)
                return "Adaptación."

        monkeypatch.setattr(apec.cli, "make_chat_provider", lambda spec, config: RecordingProvider())
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        train_path = write_csv_copy(train_path)  # 40 docs with a reference and one without
        mode_args = {"fs-rdm": ["--seed", "7"], "fs-bm25": [], "fs-emb": ["--embed", "hash:64"]}[mode]
        argv = ["adapt", "--input", str(docs_path), "--corpus", str(train_path), "--mode", mode,
                *mode_args, "--k", "42", "--provider", "echo", "--output", str(tmp_path / "adapt.jsonl")]
        assert main(argv) == EXIT_OK
        assert len(requests) == len(docs)
        for request in requests:
            demo_sources = [content for role, content in request.messages[:-1] if role == "user"]
            assert len(request.messages) == 2 * 40 + 1
            assert len(set(demo_sources)) == 40


class TestByteOrderMark:
    """A corpus file that starts with a UTF-8 BOM reads as the same file
    without it. An index over it reads back its first record, and a CSV
    file's header row, with the BOM: spans and digests stay over the bytes
    on disk."""

    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    def test_output_same_as_without_bom(self, tmp_path, monkeypatch, corpus_format):
        monkeypatch.setattr(
            apec.cli, "make_chat_provider", lambda spec, config: DemoEchoProvider()
        )
        _, docs_path, train_path = write_workers_corpus(tmp_path)
        rows = [json.loads(line) for line in train_path.read_text(encoding="utf-8").splitlines()]
        outputs = {}
        for encoding in ("utf-8", "utf-8-sig"):
            root = tmp_path / encoding
            root.mkdir()
            corpus = root / f"train.{corpus_format}"
            with open(corpus, "w", encoding=encoding, newline="") as handle:
                if corpus_format == "csv":
                    writer = csv.DictWriter(handle, ["id", "source", "reference", "task"])
                    writer.writeheader()
                    writer.writerows(rows)
                else:
                    handle.writelines(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
            assert corpus.read_bytes().startswith(b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
            # k is every training document, so each record is read back
            adapt = ["adapt", "--input", str(docs_path), "--corpus", str(corpus),
                     "--k", str(len(rows)), "--provider", "echo"]
            steps = {
                "stats.json": ["stats", "--input", str(corpus), "--embed", "hash"],
                "index.json": ["index", "--corpus", str(corpus)],
                "fs-bm25.jsonl": [*adapt, "--mode", "fs-bm25", "--index", str(root / "index.json")],
                "fs-rdm.jsonl": [*adapt, "--mode", "fs-rdm", "--seed", "7"],
            }
            for name, argv in steps.items():
                assert main([*argv, "--output", str(root / name)]) == EXIT_OK, (encoding, name)
            outputs[encoding] = {name: (root / name).read_bytes() for name in steps if name != "index.json"}
        assert outputs["utf-8-sig"] == outputs["utf-8"]
        first_demo = f"{rows[0]['source']} | {rows[0]['reference']} | "
        for name in ("fs-bm25.jsonl", "fs-rdm.jsonl"):
            records = [json.loads(line) for line in outputs["utf-8"][name].splitlines()]
            assert all(first_demo in record["adaptation"] for record in records), name


class SlowFirstBlankProvider:
    """Blank completions for every document; the first document's comes last."""

    provider_id = "slow-first-blank"

    def complete(self, request):
        if request.last_user_content().startswith("Documento 0:"):
            time.sleep(0.3)
        return "  "


class TestFailureOrder:
    def test_adapt_failures_in_input_order(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            apec.cli, "make_chat_provider", lambda spec, config: SlowFirstBlankProvider()
        )
        docs, docs_path, _ = write_workers_corpus(tmp_path)
        rc = main(
            [
                "adapt",
                "--input", str(docs_path),
                "--mode", "zs",
                "--provider", "echo",
                "--workers", "2",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_PROVIDER
        err_lines = capsys.readouterr().err.splitlines()
        assert [line for line in err_lines if line.startswith("error: doc ")] == [
            f"error: doc {doc['id']}: provider returned an empty completion" for doc in docs
        ]

    def test_refine_incomplete_and_raised_in_input_order(self, workdir, capsys):
        tmp_path, docs_path, train_path = workdir
        initial = tmp_path / "initial.jsonl"
        # a: no script entry, so its trace is incomplete; b: empty initial, so
        # run_apec raises; c: refines fine
        write_lines(
            initial,
            [
                {"doc_id": "a", "adaptation": "Inicial a."},
                {"doc_id": "b", "adaptation": ""},
                {"doc_id": "c", "adaptation": "Inicial c."},
            ],
        )
        script = tmp_path / "script.jsonl"
        refine_script(script, [{"id": "c", "source": "Fuente C explica"}], cycles=1)
        rc = main(
            [
                "refine",
                "--input", str(initial),
                "--docs", str(docs_path),
                "--corpus", str(train_path),
                "--provider", f"scripted:{script}",
                "--embed", "hash",
                "--cycles", "1",
                "--retries", "0",
                "--output", str(tmp_path / "traces.jsonl"),
            ]
        )
        assert rc == EXIT_PARTIAL
        errors = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("error: doc ")
        ]
        assert errors == [
            "error: doc a: trace incomplete: provider gave out mid-run",
            "error: doc b: initial adaptation is empty",
        ]


def refine_script(path, docs, cycles):
    """One parseable revision per doc per cycle, matched on the source."""
    entries = []
    for doc in docs:
        for cycle in range(cycles):
            entries.append(
                {
                    "match": doc["source"],
                    "response": apec_response(f"Revisión {cycle} de {doc['id']}."),
                }
            )
    write_lines(path, entries)


class TestRefine:
    def run_refine(
        self, workdir, cycles=2, script_docs=None, out_name="traces.jsonl", extra=()
    ):
        tmp_path, docs_path, train_path = workdir
        docs = [json.loads(line) for line in docs_path.read_text().splitlines()]
        initial = tmp_path / "initial.jsonl"
        write_lines(
            initial,
            [{"doc_id": d["id"], "adaptation": f"Inicial {d['id']}."} for d in docs],
        )
        script = tmp_path / "refine_script.jsonl"
        refine_script(script, script_docs if script_docs is not None else docs, cycles)
        out_path = tmp_path / out_name
        rc = main(
            [
                "refine",
                "--input", str(initial),
                "--docs", str(docs_path),
                "--corpus", str(train_path),
                "--provider", f"scripted:{script}",
                "--embed", "hash",
                "--cycles", str(cycles),
                "--demos", "2",
                "--retries", "0",
                "--stream", "greedy",
                "--output", str(out_path),
                *extra,
            ]
        )
        return rc, out_path

    def test_end_to_end(self, workdir):
        rc, out_path = self.run_refine(workdir)
        assert rc == EXIT_OK
        traces = [
            trace_from_dict(json.loads(line))
            for line in out_path.read_text().splitlines()
        ]
        assert [t.doc_id for t in traces] == ["a", "b", "c"]
        assert all(len(t.records) == 2 for t in traces)
        assert all(t.stream == "greedy" for t in traces)
        assert all(not t.incomplete for t in traces)

    def test_byte_identical_reruns(self, workdir):
        rc1, out1 = self.run_refine(workdir, out_name="run1.jsonl")
        rc2, out2 = self.run_refine(workdir, out_name="run2.jsonl")
        assert rc1 == rc2 == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_share_index_byte_identical(self, tmp_path):
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        index_path = tmp_path / "index.json"
        rc = main(["index", "--corpus", str(train_path), "--output", str(index_path)])
        assert rc == EXIT_OK
        workdir = (tmp_path, docs_path, train_path)
        outputs = []
        for workers in ("1", "2"):
            rc, out_path = self.run_refine(
                workdir,
                cycles=3,
                out_name=f"workers{workers}.jsonl",
                extra=["--index", str(index_path), "--workers", workers],
            )
            assert rc == EXIT_OK
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == len(docs)

    def test_incomplete_traces_partial_exit(self, workdir, capsys):
        tmp_path, docs_path, train_path = workdir
        docs = [json.loads(line) for line in docs_path.read_text().splitlines()]
        rc, out_path = self.run_refine(workdir, script_docs=docs[:1])
        assert rc == EXIT_PARTIAL
        traces = [
            trace_from_dict(json.loads(line))
            for line in out_path.read_text().splitlines()
        ]
        assert [t.incomplete for t in traces] == [False, True, True]
        assert "trace incomplete" in capsys.readouterr().err

    def test_all_incomplete_is_provider_exit(self, workdir):
        rc, _ = self.run_refine(workdir, script_docs=[])
        assert rc == EXIT_PROVIDER

    @pytest.mark.parametrize("command", ["refine", "evaluate"])
    def test_empty_adaptations_file(self, workdir, capsys, command):
        tmp_path, docs_path, train_path = workdir
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        out_path = tmp_path / "out.jsonl"
        argv = {
            "refine": ["refine", "--docs", str(docs_path), "--corpus", str(train_path),
                       "--provider", "echo"],
            "evaluate": ["evaluate", "--corpus", str(docs_path)],
        }[command]
        rc = main([*argv, "--input", str(empty), "--embed", "hash", "--output", str(out_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: no adaptations in {empty}\n"
        assert not out_path.exists()

    def test_unknown_adaptation_ids(self, workdir, capsys):
        tmp_path, docs_path, train_path = workdir
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": "zz", "adaptation": "Texto."}])
        script = tmp_path / "script.jsonl"
        script.write_text("", encoding="utf-8")
        rc = main(
            [
                "refine",
                "--input", str(initial),
                "--docs", str(docs_path),
                "--corpus", str(train_path),
                "--provider", f"scripted:{script}",
                "--embed", "hash",
                "--output", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == EXIT_CONFIG
        # the message evaluate_run gives, from the one join both share
        assert capsys.readouterr().err == "error: outputs reference unknown doc ids: ['zz']\n"


class TestEvaluate:
    def test_perfect_outputs(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        docs = [json.loads(line) for line in docs_path.read_text().splitlines()]
        outputs = tmp_path / "outputs.jsonl"
        write_lines(
            outputs,
            [{"doc_id": d["id"], "adaptation": d["reference"]} for d in docs],
        )
        rc = main(
            [
                "evaluate",
                "--input", str(outputs),
                "--corpus", str(docs_path),
                "--embed", "hash",
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["doc_count"] == 3
        assert payload["bow_sim"] == pytest.approx(1.0)
        assert payload["emb_sim"] == pytest.approx(1.0)
        assert len(payload["rows"]) == 3

    def test_accepts_trace_files(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        traces = tmp_path / "traces.jsonl"
        write_lines(
            traces,
            [
                {"doc_id": "a", "final": "Fuente A corta."},
                {"doc_id": "b", "final": "Fuente B simple."},
            ],
        )
        rc = main(
            [
                "evaluate",
                "--input", str(traces),
                "--corpus", str(docs_path),
                "--embed", "hash",
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["doc_count"] == 2

    def test_text_output(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        outputs = tmp_path / "outputs.jsonl"
        write_lines(outputs, [{"doc_id": "a", "adaptation": "Fuente A corta."}])
        rc = main(
            [
                "evaluate",
                "--input", str(outputs),
                "--corpus", str(docs_path),
                "--embed", "hash",
                "--text",
            ]
        )
        assert rc == EXIT_OK
        assert "MEAN" in capsys.readouterr().out

    def test_wordless_adaptation_is_skipped(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        outputs = tmp_path / "outputs.jsonl"
        write_lines(
            outputs,
            [
                {"doc_id": "a", "adaptation": "Fuente A corta."},
                {"doc_id": "b", "adaptation": "¡¿ ... ?!"},
                {"doc_id": "c", "adaptation": "Fuente C clara."},
            ],
        )
        argv = ["evaluate", "--input", str(outputs), "--corpus", str(docs_path), "--embed", "hash"]
        assert main(argv) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "doc b: adaptation: text has no word tokens" in captured.err
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out)
        assert [row["doc_id"] for row in payload["rows"]] == ["a", "c"]

        # the report over the other documents is the one they get alone
        write_lines(
            outputs,
            [
                {"doc_id": "a", "adaptation": "Fuente A corta."},
                {"doc_id": "c", "adaptation": "Fuente C clara."},
            ],
        )
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == payload

    def test_no_scorable_adaptation_is_data_error(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        outputs = tmp_path / "outputs.jsonl"
        write_lines(
            outputs,
            [
                {"doc_id": "a", "adaptation": "¡¿ ... ?!"},
                {"doc_id": "c", "adaptation": "   "},
            ],
        )
        rc = main(
            [
                "evaluate",
                "--input", str(outputs),
                "--corpus", str(docs_path),
                "--embed", "hash",
            ]
        )
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "doc a: adaptation" in captured.err
        assert "doc c: adaptation" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("spec", ["hash:", "hash:x", "hash:0", "hash:-3"])
    def test_malformed_hash_spec_is_usage_error(self, workdir, capsys, spec):
        tmp_path, docs_path, _ = workdir
        outputs = tmp_path / "outputs.jsonl"
        write_lines(outputs, [{"doc_id": "a", "adaptation": "Fuente A corta."}])
        rc = main(
            [
                "evaluate",
                "--input", str(outputs),
                "--corpus", str(docs_path),
                "--embed", spec,
            ]
        )
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"'{spec}'" in err
        assert "Traceback" not in err


def make_trace_record(doc_id, stream, final, final_score):
    return trace_to_dict(
        ApecTrace(
            doc_id=doc_id,
            source="fuente",
            initial="inicial",
            initial_score=0.0,
            records=(),
            final=final,
            final_score=final_score,
            stream=stream,
        )
    )


class TestEnsemble:
    def test_argmax_selection(self, tmp_path, capsys):
        greedy = tmp_path / "greedy.jsonl"
        sampled = tmp_path / "sampled.jsonl"
        write_lines(
            greedy,
            [
                make_trace_record("a", "greedy", "G-a", 60.0),
                make_trace_record("b", "greedy", "G-b", 70.0),
            ],
        )
        write_lines(
            sampled,
            [
                make_trace_record("a", "sampled", "S-a", 65.0),
                make_trace_record("b", "sampled", "S-b", 50.0),
            ],
        )
        out_path = tmp_path / "best.jsonl"
        rc = main(
            [
                "ensemble",
                "--inputs", str(greedy), str(sampled),
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_OK
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [(r["doc_id"], r["stream"], r["adaptation"]) for r in records] == [
            ("a", "sampled", "S-a"),
            ("b", "greedy", "G-b"),
        ]

    def test_stream_defaults_to_file_stem(self, tmp_path):
        one = tmp_path / "uno.jsonl"
        two = tmp_path / "dos.jsonl"
        write_lines(one, [make_trace_record("a", "", "U-a", 10.0)])
        write_lines(two, [make_trace_record("a", "", "D-a", 20.0)])
        out_path = tmp_path / "best.jsonl"
        assert (
            main(["ensemble", "--inputs", str(one), str(two), "--output", str(out_path)])
            == EXIT_OK
        )
        record = json.loads(out_path.read_text())
        assert record["stream"] == "dos"

    def test_intersection_with_warning(self, tmp_path, capsys):
        one = tmp_path / "uno.jsonl"
        two = tmp_path / "dos.jsonl"
        write_lines(
            one,
            [
                make_trace_record("a", "u", "U-a", 10.0),
                make_trace_record("b", "u", "U-b", 10.0),
            ],
        )
        write_lines(two, [make_trace_record("a", "d", "D-a", 20.0)])
        out_path = tmp_path / "best.jsonl"
        assert (
            main(["ensemble", "--inputs", str(one), str(two), "--output", str(out_path)])
            == EXIT_OK
        )
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["doc_id"] for r in records] == ["a"]
        # the file and the stream names its traces carry, not the file's stem
        assert f"warning: {two} (streams ['d']) missing 1 docs: ['b']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "first, second",
        [([], []), ([make_trace_record("a", "u", "U-a", 10.0)], [make_trace_record("b", "d", "D-b", 20.0)])],
        ids=["empty", "disjoint"],
    )
    def test_no_shared_document(self, tmp_path, capsys, first, second):
        one = tmp_path / "uno.jsonl"
        two = tmp_path / "dos.jsonl"
        write_lines(one, first)
        write_lines(two, second)
        out_path = tmp_path / "best.jsonl"
        rc = main(["ensemble", "--inputs", str(one), str(two), "--output", str(out_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: no document is in every stream: {one}, {two}\n" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "first, second",
        [(("uno", ""), ("dos", "")), (("uno", "u"), ("dos", "u")), (("uno", ""), ("uno", ""))],
        ids=["untagged-same-stem", "same-tag", "same-file"],
    )
    def test_shared_stream_name_is_usage_error(self, tmp_path, capsys, first, second):
        # the winner's stream must name one input; two labelled alike cannot
        paths = []
        for (folder, stream), score in zip((first, second), (10.0, 20.0)):
            path = tmp_path / folder / "traces.jsonl"
            path.parent.mkdir(exist_ok=True)
            if not path.exists():
                write_lines(path, [make_trace_record("a", stream, f"{folder}-a", score)])
            paths.append(path)
        out_path = tmp_path / "best.jsonl"
        rc = main(["ensemble", "--inputs", *map(str, paths), "--output", str(out_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        name = first[1] or "traces"
        assert f"usage error: inputs {paths[0]} and {paths[1]} share the stream name {name!r}" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    def test_priority_breaks_ties(self, tmp_path):
        one = tmp_path / "uno.jsonl"
        two = tmp_path / "dos.jsonl"
        write_lines(one, [make_trace_record("a", "uno", "U-a", 30.0)])
        write_lines(two, [make_trace_record("a", "dos", "D-a", 30.0)])
        out_path = tmp_path / "best.jsonl"
        rc = main(
            [
                "ensemble",
                "--inputs", str(one), str(two),
                "--priority", "dos,uno",
                "--output", str(out_path),
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(out_path.read_text())["stream"] == "dos"

    def test_unknown_priority_stream_is_usage_error(self, tmp_path, capsys):
        # a typo would otherwise leave ties to input order, silently
        one, two = tmp_path / "uno.jsonl", tmp_path / "dos.jsonl"
        write_lines(one, [make_trace_record("a", "uno", "U-a", 30.0)])
        write_lines(two, [make_trace_record("a", "dos", "D-a", 30.0)])
        out_path = tmp_path / "best.jsonl"
        argv = ["ensemble", "--inputs", str(one), str(two), "--priority", "dos,unos,tres",
                "--output", str(out_path)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error: --priority names streams that no input holds: unos, tres" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    def test_single_input_is_usage_error(self, tmp_path):
        one = tmp_path / "uno.jsonl"
        write_lines(one, [make_trace_record("a", "u", "U-a", 10.0)])
        rc = main(
            ["ensemble", "--inputs", str(one), "--output", str(tmp_path / "x.jsonl")]
        )
        assert rc == EXIT_USAGE

    def test_duplicate_doc_in_stream(self, tmp_path):
        one = tmp_path / "uno.jsonl"
        two = tmp_path / "dos.jsonl"
        write_lines(
            one,
            [
                make_trace_record("a", "u", "U-a", 10.0),
                make_trace_record("a", "u", "U-a2", 20.0),
            ],
        )
        write_lines(two, [make_trace_record("a", "d", "D-a", 20.0)])
        rc = main(
            ["ensemble", "--inputs", str(one), str(two), "--output", str(tmp_path / "x.jsonl")]
        )
        assert rc == EXIT_CONFIG


def malformed_trace(**changes):
    """A trace line for doc b, with `changes` applied; a None value drops the key."""
    record = {**make_trace_record("b", "", "D-b", 5.0), **changes}
    return json.dumps({key: value for key, value in record.items() if value is not None})


_CYCLE = {"cycle": 1, "candidate": "C-b", "fh": 70.0, "emb_sim": 0.5, "score": 60.0,
          "accepted": True, "parse_failed": False}


class TestMalformedLine:
    """A bad line in any JSONL input is a data error naming the file and line."""

    @pytest.mark.parametrize(
        "command, bad_line",
        [
            ("refine", "5"),
            ("evaluate", "5"),
            ("refine", '{"doc_id": "b", "adaptation": 5}'),
            ("evaluate", '{"doc_id": "b", "adaptation": 5}'),
            ("ensemble", "5"),
            ("ensemble", malformed_trace(records=None)),
            ("ensemble", malformed_trace(records=[{"cycle": 1}])),
            ("ensemble", malformed_trace(final_score="x")),
            ("ensemble", malformed_trace(final_score=float("nan"))),
            ("ensemble", malformed_trace(records=[{**_CYCLE, "emb_sim": float("inf")}])),
            ("adapt", '{"match": "Fuente", '),
        ],
        ids=[
            "refine-not-object", "evaluate-not-object", "refine-text-not-string",
            "evaluate-text-not-string", "ensemble-not-object", "ensemble-no-records",
            "ensemble-bad-cycle-record", "ensemble-score-not-number", "ensemble-score-nan",
            "ensemble-cycle-score-inf", "adapt-fixture-not-json",
        ],
    )
    def test_data_error_names_file_and_line(self, workdir, capsys, command, bad_line):
        tmp_path, docs_path, train_path = workdir
        bad = tmp_path / "bad.jsonl"
        out_path = tmp_path / "out.jsonl"
        if command == "adapt":
            good = {"match": "Fuente", "response": "Texto."}
            argv = ["adapt", "--input", str(docs_path), "--mode", "zs",
                    "--provider", f"scripted:{bad}"]
        elif command == "ensemble":
            good = make_trace_record("a", "", "D-a", 5.0)
            first = tmp_path / "uno.jsonl"
            write_lines(first, [make_trace_record("a", "", "U-a", 1.0)])
            argv = ["ensemble", "--inputs", str(first), str(bad)]
        else:
            good = {"doc_id": "a", "adaptation": "Inicial a."}
            argv = [command, "--input", str(bad), "--embed", "hash"]
            if command == "refine":
                argv += ["--docs", str(docs_path), "--corpus", str(train_path),
                         "--provider", "echo"]
            else:
                argv += ["--corpus", str(docs_path)]
        bad.write_text(json.dumps(good) + "\n" + bad_line + "\n", encoding="utf-8")
        rc = main(argv + ["--output", str(out_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "Traceback" not in err
        assert f"{bad} line 2" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("value", [[1, 2], "text", 3, None], ids=["array", "string", "number", "null"])
    @pytest.mark.parametrize(
        "bad_input",
        ["corpus", "training-corpus", "evaluate-adaptations", "refine-adaptations", "traces",
         "fixture", "index"],
    )
    def test_non_object_line_is_one_message(self, workdir, capsys, bad_input, value):
        """A line that is JSON but not an object gets the same message in
        every JSON Lines input; for the index header, the rebuild hint follows."""
        tmp_path, docs_path, train_path = workdir
        bad = tmp_path / "bad.jsonl"
        good = {
            "corpus": [{"id": "a", "source": "Texto a.", "reference": "A.", "task": "PL"}],
            "traces": [make_trace_record("a", "", "D-a", 5.0)],
            "fixture": [{"match": "Fuente", "response": "Texto."}],
            "index": [],
        }.get(bad_input.split("-")[-1], [{"doc_id": "a", "adaptation": "Inicial a."}])
        write_lines(bad, [*good, value])
        first = tmp_path / "uno.jsonl"
        write_lines(first, [make_trace_record("a", "", "U-a", 1.0)])
        argv = {
            "corpus": ["stats", "--input", str(bad)],
            "training-corpus": ["adapt", "--input", str(docs_path), "--corpus", str(bad),
                                "--mode", "fs-rdm", "--provider", "echo"],
            "evaluate-adaptations": ["evaluate", "--input", str(bad), "--corpus", str(docs_path),
                                     "--embed", "hash"],
            "refine-adaptations": ["refine", "--input", str(bad), "--docs", str(docs_path),
                                   "--corpus", str(train_path), "--provider", "echo",
                                   "--embed", "hash"],
            "traces": ["ensemble", "--inputs", str(first), str(bad)],
            "fixture": ["adapt", "--input", str(docs_path), "--mode", "zs",
                        "--provider", f"scripted:{bad}"],
            "index": ["adapt", "--input", str(docs_path), "--corpus", str(train_path),
                      "--index", str(bad), "--mode", "fs-bm25", "--provider", "echo"],
        }[bad_input]
        out_path = tmp_path / "out.jsonl"
        rc = main(argv + ["--output", str(out_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        if bad_input == "index":
            assert err == (f"error: index file {bad} line 1: expected a JSON object; "
                           "rebuild it with `apec index`\n")
        else:
            assert err == f"error: {bad} line 2: expected a JSON object\n"
        assert not out_path.exists()


class TestCorpusFieldTypes:
    """A corpus text field of the wrong JSON type is a data error naming the
    file and line, in every command that reads a corpus."""

    @pytest.mark.parametrize("value", [5, ["Texto."], {"texto": "Texto."}, True],
                             ids=["number", "list", "object", "bool"])
    @pytest.mark.parametrize("field", ["source", "reference", "task"])
    @pytest.mark.parametrize("command", ["stats", "index", "adapt", "refine", "evaluate"])
    def test_data_error_names_file_and_line(self, workdir, capsys, command, field, value):
        tmp_path, docs_path, train_path = workdir
        bad = tmp_path / "bad.jsonl"
        good = {"id": "a", "source": "Texto a.", "reference": "A.", "task": "PL"}
        write_lines(bad, [good, {**good, "id": "b", field: value}])
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": "a", "adaptation": "Inicial a."}])
        out_path = tmp_path / "out.jsonl"
        argv = {
            "stats": ["stats", "--input", str(bad)],
            "index": ["index", "--corpus", str(bad)],
            "adapt": ["adapt", "--input", str(bad), "--mode", "zs", "--provider", "echo"],
            "refine": ["refine", "--input", str(initial), "--docs", str(bad),
                       "--corpus", str(train_path), "--provider", "echo", "--embed", "hash"],
            "evaluate": ["evaluate", "--input", str(initial), "--corpus", str(bad),
                         "--embed", "hash"],
        }[command]
        rc = main(argv + ["--output", str(out_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "Traceback" not in err
        assert f"{bad} line 2: field {field!r} must be a string" in err
        assert not out_path.exists()


class TestIdTypes:
    """A corpus id or adaptation doc_id that is neither a JSON string nor an
    integer is a data error naming the file and line, not an id spelled by
    str(): `1.0` and `1` would otherwise name different documents."""

    @pytest.mark.parametrize("value", [["a"], {"x": 1}, True, 1.5],
                             ids=["list", "object", "bool", "float"])
    @pytest.mark.parametrize(
        "command",
        ["stats", "adapt", "refine-docs", "evaluate-corpus", "refine-input", "evaluate-input"],
    )
    def test_data_error_names_file_and_line(self, workdir, capsys, command, value):
        tmp_path, docs_path, train_path = workdir
        bad = tmp_path / "bad.jsonl"
        initial = tmp_path / "initial.jsonl"
        if command.endswith("-input"):
            write_lines(bad, [{"doc_id": "a", "adaptation": "Inicial a."},
                              {"doc_id": value, "adaptation": "Inicial b."}])
            corpus, adaptations = docs_path, bad
            message = "record needs a string or integer doc_id"
        else:
            good = {"id": "a", "source": "Texto a.", "reference": "A.", "task": "PL"}
            write_lines(bad, [good, {**good, "id": value}])
            write_lines(initial, [{"doc_id": "a", "adaptation": "Inicial a."}])
            corpus, adaptations = bad, initial
            message = "field 'id' must be a string or an integer"
        argv = {
            "stats": ["stats", "--input", str(corpus)],
            "adapt": ["adapt", "--input", str(corpus), "--mode", "zs", "--provider", "echo"],
            "refine": ["refine", "--input", str(adaptations), "--docs", str(corpus),
                       "--corpus", str(train_path), "--provider", "echo", "--embed", "hash"],
            "evaluate": ["evaluate", "--input", str(adaptations), "--corpus", str(corpus),
                         "--embed", "hash"],
        }[command.split("-")[0]]
        out_path = tmp_path / "out.jsonl"
        rc = main(argv + ["--output", str(out_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "Traceback" not in err
        assert f"{bad} line 2: {message}" in err
        assert not out_path.exists()


class TestUnreadableInput:
    """An input that is not UTF-8, or an index that is not JSON, is a data
    error naming the file."""

    @pytest.mark.parametrize(
        "bad_input",
        ["corpus-jsonl", "corpus-csv", "adaptations", "traces", "fixture", "config", "index"],
    )
    def test_data_error_names_file(self, workdir, capsys, bad_input):
        tmp_path, docs_path, train_path = workdir
        bad = tmp_path / ("bad.csv" if bad_input == "corpus-csv" else "bad.jsonl")
        content = {"corpus-csv": b"id,source,task\na,\xff,PL\n", "index": b"not json\n"}
        bad.write_bytes(content.get(bad_input, b'{"id": "\xff"}\n'))
        argv = {
            "corpus-jsonl": ["stats", "--input", str(bad)],
            "corpus-csv": ["stats", "--input", str(bad)],
            "adaptations": ["evaluate", "--input", str(bad), "--corpus", str(docs_path),
                            "--embed", "hash"],
            "traces": ["ensemble", "--inputs", str(bad), str(bad)],
            "fixture": ["adapt", "--input", str(docs_path), "--mode", "zs",
                        "--provider", f"scripted:{bad}"],
            "config": ["stats", "--config", str(bad), "--input", str(docs_path)],
            "index": ["adapt", "--input", str(docs_path), "--corpus", str(train_path),
                      "--index", str(bad), "--mode", "fs-bm25", "--provider", "echo"],
        }[bad_input]
        out_path = tmp_path / "out.jsonl"
        rc = main(argv + ["--output", str(out_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "Traceback" not in err
        assert str(bad) in err
        assert not out_path.exists()


class TestErrorExits:
    """Error exits that no other test reaches: each prints its message and
    no traceback, and writes no output file."""

    def run(self, capsys, argv, out_path):
        rc = main(argv + ["--output", str(out_path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not out_path.exists()
        return rc, err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["adapt", "--mode", "zs", "--provider", "scripted:"],
             "scripted provider needs a fixture path: scripted:PATH"),
            (["adapt", "--mode", "fs-emb", "--provider", "echo", "--embed", "word2vec"],
             "unknown embedding provider spec 'word2vec' (hash[:DIM] | http)"),
            (["adapt", "--mode", "fs-bm25", "--provider", "echo", "--ratio", "1"],
             "--ratio expects LO,HI, got '1'"),
            (["adapt", "--mode", "fs-emb", "--provider", "echo"], "fs-emb needs --embed"),
            (["adapt", "--mode", "zs", "--provider", "echo", "--embed", "hash"],
             "--embed only applies to fs-emb"),
            (["adapt", "--mode", "fs-rdm", "--provider", "echo", "--embed", "hash:8"],
             "--embed only applies to fs-emb"),
            (["adapt", "--mode", "fs-bm25", "--provider", "echo", "--embed", "word2vec"],
             "--embed only applies to fs-emb"),
        ],
        ids=["scripted-without-path", "unknown-embed-spec", "ratio-one-number", "fs-emb-without-embed",
             "embed-in-zs", "embed-in-fs-rdm", "embed-in-fs-bm25"],
    )
    def test_usage_error(self, workdir, capsys, argv, message):
        tmp_path, docs_path, train_path = workdir
        argv = argv + ["--input", str(docs_path), "--corpus", str(train_path)]
        rc, err = self.run(capsys, argv, tmp_path / "out.jsonl")
        assert rc == EXIT_USAGE
        assert f"usage error: {message}\n" in err

    def test_unreadable_config(self, workdir, capsys):
        tmp_path, docs_path, _ = workdir
        config = tmp_path / "missing.json"
        argv = ["stats", "--config", str(config), "--input", str(docs_path)]
        rc, err = self.run(capsys, argv, tmp_path / "out.json")
        assert rc == EXIT_CONFIG
        assert f"error: cannot read config {config}: " in err

    @pytest.mark.parametrize(
        "field, value, message",
        [("source", "   ", "document source must be non-empty"),
         ("task", "XX", "unknown task 'XX'; expected one of ('PL', 'ER')")],
        ids=["whitespace-source", "unknown-task"],
    )
    @pytest.mark.parametrize("corpus_format", ["jsonl", "csv"])
    def test_invalid_document(self, tmp_path, capsys, corpus_format, field, value, message):
        rows = [{"id": "a", "source": "Texto a.", "task": "PL"}]
        rows.append({**rows[0], "id": "b", field: value})
        path = tmp_path / f"bad.{corpus_format}"
        if corpus_format == "csv":
            path.write_text("id,source,task\n" + "".join(
                f"{r['id']},{r['source']},{r['task']}\n" for r in rows), encoding="utf-8")
        else:
            write_lines(path, rows)
        rc, err = self.run(capsys, ["stats", "--input", str(path)], tmp_path / "out.json")
        assert rc == EXIT_CONFIG
        line = 3 if corpus_format == "csv" else 2  # the CSV header is line 1
        assert f"error: {path} line {line}: {message}\n" in err

    def adapt_over_index(self, capsys, workdir, index_path):
        tmp_path, docs_path, train_path = workdir
        argv = ["adapt", "--input", str(docs_path), "--corpus", str(train_path),
                "--index", str(index_path), "--mode", "fs-bm25", "--provider", "echo"]
        rc, err = self.run(capsys, argv, tmp_path / "out.jsonl")
        assert rc == EXIT_CONFIG
        assert err.startswith(f"error: index file {index_path}: ")
        assert err.endswith("; rebuild it with `apec index`\n")
        return err

    def test_index_json_array(self, workdir, capsys):
        tmp_path, docs_path, train_path = workdir
        index_path = tmp_path / "index.json"
        index_path.write_text("[]\n", encoding="utf-8")
        argv = ["adapt", "--input", str(docs_path), "--corpus", str(train_path),
                "--index", str(index_path), "--mode", "fs-bm25", "--provider", "echo"]
        rc, err = self.run(capsys, argv, tmp_path / "out.jsonl")
        assert rc == EXIT_CONFIG
        assert err == (f"error: index file {index_path} line 1: expected a JSON object; "
                       "rebuild it with `apec index`\n")

    @pytest.mark.parametrize("content", ["", "\n", '{"schema_version": 1}\n{"kind": "x"}\n'],
                             ids=["empty", "blank", "two-lines"])
    def test_index_header_not_one_line(self, workdir, capsys, content):
        index_path = workdir[0] / "index.json"
        index_path.write_text(content, encoding="utf-8")
        assert ": the header must be one JSON line;" in self.adapt_over_index(capsys, workdir, index_path)

    def test_columns_file_of_wrong_size(self, workdir, capsys):
        # 4 docs and 5 terms: 4·(5 + 4 + 2·Σdfs) + 32·4 bytes, less one token count
        tmp_path, _, train_path = workdir
        index_path = tmp_path / "index.json"
        assert main(["index", "--corpus", str(train_path), "--output", str(index_path)]) == EXIT_OK
        payload = read_index_file(index_path)
        assert (len(payload["doc_ids"]), len(payload["terms"])) == (4, 5)
        expected = 4 * (5 + 4 + 2 * sum(payload["dfs"])) + 32 * 4
        payload["doc_token_counts"].pop()
        write_index_file(index_path, payload)
        capsys.readouterr()
        err = self.adapt_over_index(capsys, workdir, index_path)
        assert (f": {index_path}.columns holds {expected - 4} bytes, not the {expected} "
                f"that its terms, doc_ids and dfs give;") in err

    def test_span_over_two_records(self, workdir, capsys):
        # t0's span widened over t1, which has no reference and so no span of
        # its own: the spans stay disjoint, and the digest is that of both lines
        tmp_path, _, train_path = workdir
        rows = [json.loads(line) for line in train_path.read_text(encoding="utf-8").splitlines()]
        del rows[1]["reference"]
        write_lines(train_path, rows)
        index_path = tmp_path / "index.json"
        assert main(["index", "--corpus", str(train_path), "--output", str(index_path)]) == EXIT_OK
        capsys.readouterr()
        payload = read_index_file(index_path)
        assert payload["doc_ids"][:2] == ["t0", "t2"]
        lines = train_path.read_bytes().splitlines(keepends=True)
        both = lines[0] + lines[1]
        set_spans(lambda s: [0, len(both), *s[2:]])(payload)
        set_digests(lambda d: hashlib.sha256(both).digest()[:16] + d[16:])(payload)
        write_index_file(index_path, payload)
        err = self.adapt_over_index(capsys, workdir, index_path)
        assert f"doc 't0': {train_path} bytes 0:{len(both)}: 2 records, not one;" in err


class TestConfig:
    def test_env_interpolation(self, workdir, monkeypatch):
        # substituted and converted where the run reads the key
        monkeypatch.setenv("APEC_TEST_SEED", "7")
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text('{"seed": "${APEC_TEST_SEED}"}', encoding="utf-8")
        assert load_config(config_path) == {"seed": "${APEC_TEST_SEED}"}
        base = ["adapt", "--input", str(docs_path), "--corpus", str(train_path),
                "--mode", "fs-rdm", "--k", "2", "--provider", "echo"]
        flag_out, cfg_out = tmp_path / "flag.jsonl", tmp_path / "cfg.jsonl"
        assert main(base + ["--seed", "7", "--output", str(flag_out)]) == EXIT_OK
        assert main(base + ["--config", str(config_path), "--output", str(cfg_out)]) == EXIT_OK
        assert flag_out.read_bytes() == cfg_out.read_bytes()

    def test_env_interpolation_in_strings(self, workdir, monkeypatch, stub_server):
        monkeypatch.setenv("APEC_TEST_URL", stub_server.url)
        monkeypatch.setenv("APEC_TEST_KEY", "secreto")
        stub_server.answer = turns_answer
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config = {"llm": {"endpoint": "${APEC_TEST_URL}/v1", "api_key": "${APEC_TEST_KEY}"}}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = config_argv("adapt", tmp_path, docs_path, train_path)
        assert main(argv + ["--config", str(config_path)]) == EXIT_OK
        assert {r.path for r in stub_server.received} == {"/v1"}
        assert {r.headers["Authorization"] for r in stub_server.received} == {"Bearer secreto"}

    def test_missing_env_var_is_config_error(self, workdir, monkeypatch, capsys):
        # an error where a run reads the key, not where it only loads the file
        monkeypatch.delenv("APEC_UNSET_VAR", raising=False)
        tmp_path, docs_path, train_path = workdir
        path = tmp_path / "config.json"
        config = {
            "llm": {"endpoint": "http://127.0.0.1:9/v1", "api_key": "${APEC_UNSET_VAR}"},
            "embeddings": {"timeout": "${APEC_UNSET_VAR}"},
        }
        path.write_text(json.dumps(config), encoding="utf-8")
        assert load_config(path)["llm"]["api_key"] == "${APEC_UNSET_VAR}"
        out_path = tmp_path / "out.jsonl"
        tail = ["--config", str(path), "--output", str(out_path)]
        adapt = ["adapt", "--input", str(docs_path), "--mode", "zs", "--provider"]
        assert main(adapt + ["echo"] + tail) == EXIT_OK
        assert main(["stats", "--input", str(docs_path)] + tail) == EXIT_OK
        out_path.unlink()
        assert main(adapt + ["http"] + tail) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: config key llm.api_key names unset environment variable APEC_UNSET_VAR" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("adapt", {"seed": "${APEC_UNSET_VAR}"}, "seed"),
            ("stats", {"embeddings": {"endpoint": "${APEC_UNSET_VAR}/v1"}}, "embeddings.endpoint"),
            ("refine", {"retries": "${APEC_UNSET_VAR}"}, "retries"),
            ("refine", {"apec": {"cycles": "${APEC_UNSET_VAR}"}}, "apec.cycles"),
        ],
    )
    def test_unset_env_var_fails_where_read(
        self, workdir, monkeypatch, capsys, command, config, key
    ):
        monkeypatch.delenv("APEC_UNSET_VAR", raising=False)
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = config_argv(command, tmp_path, docs_path, train_path, "echo")
        assert main(argv + ["--config", str(config_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: config key {key} names unset environment variable APEC_UNSET_VAR" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_top_level_retries_reach_refine(self, workdir, stub_server, waits):
        stub_server.answer = lambda payload: Reply(503, {"error": "busy"})
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config = {"retries": 0, "llm": {"endpoint": stub_server.url + "/v1"}}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = config_argv("refine", tmp_path, docs_path, train_path)
        argv[argv.index("echo")] = "http"
        assert main(argv + ["--config", str(config_path)]) == EXIT_PROVIDER
        assert len(stub_server.received) == 1
        assert waits == []

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ApecError, match="is not valid JSON"):
            load_config(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ApecError, match="must hold a JSON object"):
            load_config(path)

    def test_none_path_is_empty(self):
        assert load_config(None) == {}

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | type | read by |\n", 1)[1].split("\n\n", 1)[0]
        listed = re.findall(r"`([\w.]+)`", "".join(row.split("|")[1] for row in table.splitlines()))
        assert sorted(listed) == sorted(apec.cli._CONFIG_DEFAULTS)

    @pytest.mark.parametrize("key", ["seed", "workers", "retries", "apec.cycles", "apec.demo_count"])
    def test_commands_read_the_keys_readme_lists(self, workdir, monkeypatch, capsys, key):
        # a key's row names every command that reads it, and only those
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | type | read by |\n", 1)[1].split("\n\n", 1)[0]
        readers = {
            name: set(re.findall(r"`(\w+)`", row.split("|")[3]))
            for row in table.splitlines()
            for name in re.findall(r"`([\w.]+)`", row.split("|")[1])
        }
        monkeypatch.delenv("APEC_UNSET_VAR", raising=False)
        tmp_path, docs_path, train_path = workdir
        section, _, name = key.rpartition(".")
        config = {section: {name: "${APEC_UNSET_VAR}"}} if section else {key: "${APEC_UNSET_VAR}"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": "a", "adaptation": "Inicial a."}])
        docs, train = str(docs_path), str(train_path)
        runs = {
            "adapt": ["adapt", "--input", docs, "--mode", "zs", "--provider", "echo"],
            "refine": ["refine", "--input", str(initial), "--docs", docs, "--corpus", train,
                       "--provider", "echo", "--embed", "hash"],
            "stats": ["stats", "--input", docs],
            "evaluate": ["evaluate", "--input", str(initial), "--corpus", docs, "--embed", "hash"],
        }
        assert readers[key] and readers[key] <= set(runs)
        for command, argv in runs.items():
            out = tmp_path / f"{command}.out"
            rc = main(argv + ["--config", str(config_path), "--output", str(out)])
            err = capsys.readouterr().err
            if command in readers[key]:
                assert rc == EXIT_CONFIG, command
                assert f"error: config key {key} names unset environment variable" in err
                assert not out.exists()
            else:
                assert (rc, err) == (EXIT_OK, ""), command

    @pytest.mark.parametrize("seed", ["abc", "${APEC_UNSET_VAR}"])
    def test_refine_never_reads_seed(self, workdir, monkeypatch, seed):
        monkeypatch.delenv("APEC_UNSET_VAR", raising=False)
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": seed}), encoding="utf-8")
        argv = config_argv("refine", tmp_path, docs_path, train_path, "echo")
        assert main(argv) == EXIT_OK
        plain = (tmp_path / "out.jsonl").read_bytes()
        assert main(argv + ["--config", str(config_path)]) == EXIT_OK
        assert (tmp_path / "out.jsonl").read_bytes() == plain

    def test_config_supplies_seed(self, workdir):
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text('{"seed": 7}', encoding="utf-8")
        flag_out = tmp_path / "flag.jsonl"
        cfg_out = tmp_path / "cfg.jsonl"
        base = [
            "adapt",
            "--input", str(docs_path),
            "--corpus", str(train_path),
            "--mode", "fs-rdm",
            "--k", "2",
            "--provider", "echo",
        ]
        assert main(base + ["--seed", "7", "--output", str(flag_out)]) == EXIT_OK
        rc = main(base + ["--config", str(config_path), "--output", str(cfg_out)])
        assert rc == EXIT_OK
        assert flag_out.read_bytes() == cfg_out.read_bytes()


def config_argv(command, tmp_path, docs_path, train_path, provider="http"):
    """A run of `command` that reads its config before anything else fails."""
    out = str(tmp_path / "out.jsonl")
    if command == "adapt":
        return ["adapt", "--input", str(docs_path), "--mode", "zs", "--provider", provider,
                "--output", out]
    if command == "refine":
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": "a", "adaptation": "Inicial a."}])
        return ["refine", "--input", str(initial), "--docs", str(docs_path),
                "--corpus", str(train_path), "--provider", "echo", "--embed", "hash",
                "--output", out]
    return ["stats", "--input", str(docs_path), "--embed", "http", "--output", out]


class TestConfigValues:
    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("adapt", {"llm": {"timeout": "abc"}}, "config key llm.timeout must be float, got 'abc'"),
            ("refine", {"apec": {"cycles": 2.5}}, "config key apec.cycles must be int, got 2.5"),
            ("adapt", {"llm": []}, "config key llm must be an object, got []"),
            ("adapt", {"llm": None}, "http provider needs llm.endpoint or LLM_ENDPOINT"),
            ("adapt", {"llm": {"timeout": [1]}}, "config key llm.timeout must be float"),
            ("adapt", {"workers": True}, "config key workers must be int, got True"),
            ("refine", {"apec": []}, "config key apec must be an object, got []"),
            ("refine", {"apec": {"cycles": "dos"}}, "config key apec.cycles must be int"),
            ("stats", {"embeddings": "x"}, "config key embeddings must be an object, got 'x'"),
            ("adapt", {"llm": {"timeout": 0, "endpoint": "http://h/v1"}}, "timeout must be > 0"),
            ("stats", {"embeddings": {"timeout": -1, "endpoint": "http://h/v1"}}, "got -1.0"),
            ("adapt", {"llm": {"timeout": "inf", "endpoint": "http://h/v1"}}, "got inf"),
            ("stats", {"embeddings": {"timeout": 1e10, "endpoint": "http://h/v1"}}, "timeout must"),
        ],
    )
    def test_bad_value_is_config_error(
        self, workdir, capsys, monkeypatch, command, config, message
    ):
        monkeypatch.delenv("LLM_ENDPOINT", raising=False)
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = config_argv(command, tmp_path, docs_path, train_path)
        rc = main(argv + ["--config", str(config_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_numbers_as_strings_and_nulls(self, workdir):
        # "2" reads as 2; null, for a key or a whole section, as the default;
        # a config that starts with a UTF-8 BOM reads as one without it
        tmp_path, docs_path, train_path = workdir
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": "a", "adaptation": "Inicial a."}])
        base = ["refine", "--input", str(initial), "--docs", str(docs_path),
                "--corpus", str(train_path), "--provider", "echo", "--embed", "hash"]
        outputs = {}
        for name, config, flags in (
            ("flags", None, ["--cycles", "2", "--demos", "1", "--workers", "2"]),
            ("strings", {"apec": {"cycles": "2", "demo_count": "1"}, "workers": "2"}, []),
            ("defaults", None, []),
            ("nulls", {"apec": None, "workers": None, "retries": None}, []),
            ("bom", {"apec": {"cycles": "2", "demo_count": "1"}, "workers": "2"}, []),
        ):
            out_path = tmp_path / f"{name}.jsonl"
            argv = [*base, *flags, "--output", str(out_path)]
            if config is not None:
                config_path = tmp_path / f"{name}.config.json"
                config_path.write_text(json.dumps(config), encoding="utf-8-sig" if name == "bom" else "utf-8")
                assert load_config(config_path) == config
                argv += ["--config", str(config_path)]
            assert main(argv) == EXIT_OK
            outputs[name] = out_path.read_bytes()
        assert outputs["flags"] == outputs["strings"] == outputs["bom"]
        assert outputs["defaults"] == outputs["nulls"]
        assert outputs["flags"] != outputs["defaults"]  # 2 cycles, not 5

    def test_unread_bad_value_is_ignored(self, workdir):
        # adapt with `echo` reads neither the llm nor the apec section
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text('{"llm": {"timeout": "abc"}, "apec": {"cycles": 0}}', encoding="utf-8")
        argv = config_argv("adapt", tmp_path, docs_path, train_path, "echo")
        assert main(argv + ["--config", str(config_path)]) == EXIT_OK


BAD_FLAGS = [
    ("adapt", ["--retries", "-1"], "retries must be >= 0, got -1"),
    ("adapt", ["--workers", "0"], "workers must be >= 1, got 0"),
    ("adapt", ["--workers", "-3"], "workers must be >= 1, got -3"),
    ("refine", ["--cycles", "0"], "cycles must be >= 1, got 0"),
    ("refine", ["--demos", "-1"], "demo_count must be >= 0, got -1"),
    ("refine", ["--retries", "-1"], "retries must be >= 0, got -1"),
    ("refine", ["--workers", "0"], "workers must be >= 1, got 0"),
]
BAD_CONFIG = [
    ("adapt", {"retries": -1}, "config key retries: retries must be >= 0, got -1"),
    ("adapt", {"workers": 0}, "config key workers: workers must be >= 1, got 0"),
    ("refine", {"workers": -3}, "config key workers: workers must be >= 1, got -3"),
    ("refine", {"apec": {"cycles": 0}}, "config key apec.cycles: cycles must be >= 1, got 0"),
    ("refine", {"apec": {"demo_count": -1}}, "config key apec.demo_count: demo_count must be"),
    ("refine", {"retries": -1}, "config key retries: retries must be >= 0, got -1"),
]


class TestOptionRanges:
    """A value outside its range is a usage error as a flag and a config
    error in the config file; either way no document runs."""

    @pytest.mark.parametrize(
        "command, flags, message",
        BAD_FLAGS,
        ids=[" ".join([command, *flags]) for command, flags, _ in BAD_FLAGS],
    )
    def test_bad_flag_is_usage_error(self, workdir, capsys, command, flags, message):
        tmp_path, docs_path, train_path = workdir
        rc = main(config_argv(command, tmp_path, docs_path, train_path, "echo") + flags)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "command, config, message",
        BAD_CONFIG,
        ids=[f"{command} {json.dumps(config)}" for command, config, _ in BAD_CONFIG],
    )
    def test_bad_config_value_is_config_error(self, workdir, capsys, command, config, message):
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = config_argv(command, tmp_path, docs_path, train_path, "echo")
        rc = main(argv + ["--config", str(config_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_flag_overrides_bad_config_value(self, workdir):
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text('{"workers": 0, "retries": -1}', encoding="utf-8")
        argv = config_argv("adapt", tmp_path, docs_path, train_path, "echo")
        argv += ["--config", str(config_path), "--workers", "2", "--retries", "0"]
        assert main(argv) == EXIT_OK


def turns_answer(payload):
    """Every turn of a chat request, so a wrong demonstration changes the bytes."""
    content = " | ".join(message["content"] for message in payload["messages"])
    return Reply(body={"choices": [{"message": {"content": content}}]}, delay=0.005)


class TestHttpProviders:
    @pytest.mark.parametrize("endpoint", ["llm/v1", "ftp://x/y", "file:///etc/hostname", "http://"])
    @pytest.mark.parametrize("flag", ["--provider", "--embed"])
    def test_bad_endpoint_is_config_error(self, workdir, monkeypatch, capsys, flag, endpoint):
        tmp_path, docs_path, train_path = workdir
        out_path = tmp_path / "out.jsonl"
        if flag == "--provider":
            monkeypatch.setenv("LLM_ENDPOINT", endpoint)
            argv = ["adapt", "--input", str(docs_path), "--mode", "zs", "--provider", "http"]
        else:
            monkeypatch.setenv("EMB_ENDPOINT", endpoint)
            argv = ["adapt", "--input", str(docs_path), "--corpus", str(train_path),
                    "--mode", "fs-emb", "--embed", "http", "--provider", "echo"]
        started = time.monotonic()
        rc = main(argv + ["--output", str(out_path)])
        assert rc == EXIT_CONFIG
        assert time.monotonic() - started < 1.0  # no attempt was retried
        err = capsys.readouterr().err
        assert f"error: endpoint {endpoint!r}" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    def test_overflowing_embedding_fails_refine_without_writing(
        self, workdir, monkeypatch, capsys, stub_server
    ):
        """Finite vector values whose squares overflow would make the cosine
        NaN; the reply is malformed, so the document fails as a provider error
        and no trace is written."""
        stub_server.answer = lambda payload: Reply(
            body={"data": [{"embedding": [1e200, 1e200]} for _ in payload["input"]]}
        )
        monkeypatch.setenv("EMB_ENDPOINT", stub_server.url + "/v1/embeddings")
        tmp_path, docs_path, train_path = workdir
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": "a", "adaptation": "Inicial a."}])
        out_path = tmp_path / "traces.jsonl"
        rc = main(["refine", "--input", str(initial), "--docs", str(docs_path),
                   "--corpus", str(train_path), "--provider", "echo", "--embed", "http",
                   "--cycles", "1", "--output", str(out_path)])
        assert rc == EXIT_PROVIDER
        err = capsys.readouterr().err
        assert "error: doc a: malformed embeddings response: embedding 0's sum of squares" in err
        assert "Traceback" not in err
        assert out_path.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize(
        "vectors, problem",
        [
            ([[], []], "embedding 0 is empty"),
            ([[1.0, 0.0], [1.0, 0.0, 0.0]], "embedding 1 has 3 values, not 2"),
        ],
    )
    def test_empty_or_ragged_embeddings_fail_refine(
        self, workdir, monkeypatch, capsys, stub_server, vectors, problem
    ):
        """An empty vector would make every cosine 0.0, and vectors of
        different lengths cannot be compared: both replies are malformed."""
        stub_server.answer = lambda payload: Reply(
            body={"data": [{"embedding": vector} for vector in vectors]}
        )
        monkeypatch.setenv("EMB_ENDPOINT", stub_server.url + "/v1/embeddings")
        tmp_path, docs_path, train_path = workdir
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": "a", "adaptation": "Inicial a."}])
        out_path = tmp_path / "traces.jsonl"
        rc = main(["refine", "--input", str(initial), "--docs", str(docs_path),
                   "--corpus", str(train_path), "--provider", "echo", "--embed", "http",
                   "--cycles", "1", "--output", str(out_path)])
        assert rc == EXIT_PROVIDER
        err = capsys.readouterr().err
        assert f"error: doc a: malformed embeddings response: {problem}\n" in err
        assert "Traceback" not in err
        assert out_path.read_text(encoding="utf-8") == ""

    @staticmethod
    def write_emb_corpus(tmp_path, n_docs=40):
        """`n_docs` documents and 70 training pairs, all sources distinct."""
        docs = [
            {"id": f"d{i}", "source": f"Documento {i} sobre el trámite número {i % 7}.",
             "reference": f"Texto claro {i}.", "task": "PL"}
            for i in range(n_docs)
        ]
        train = [
            {"id": f"t{i}", "source": f"Entrenamiento {i} con el plazo {i % 5}.",
             "reference": f"Plazo {i % 5}.", "task": "PL"}
            for i in range(70)
        ]
        write_lines(tmp_path / "docs.jsonl", docs)
        write_lines(tmp_path / "train.jsonl", train)
        return docs, train

    def adapt_emb_argv(self, tmp_path, out_path, workers="1"):
        return ["adapt", "--input", str(tmp_path / "docs.jsonl"),
                "--corpus", str(tmp_path / "train.jsonl"), "--mode", "fs-emb", "--k", "3",
                "--embed", "http", "--provider", "http", "--workers", workers,
                "--output", str(out_path)]

    @staticmethod
    def hash_embeddings(payload):
        vectors = HashEmbeddingProvider(16).embed(payload["input"])
        return Reply(body={"data": [{"embedding": list(vector)} for vector in vectors]})

    def test_fs_emb_embeds_queries_in_batches(self, tmp_path, monkeypatch, stub_server):
        """Every document's source, then the training sources, 32 texts a
        request, all before the first chat request; the output does not
        depend on the worker count."""
        stub_server.answer = lambda payload: (
            self.hash_embeddings(payload) if "input" in payload else turns_answer(payload)
        )
        monkeypatch.setenv("EMB_ENDPOINT", stub_server.url + "/v1/embeddings")
        monkeypatch.setenv("LLM_ENDPOINT", stub_server.url + "/v1/chat/completions")
        docs, train = self.write_emb_corpus(tmp_path)
        outputs = []
        for workers in ("1", "4"):
            stub_server.received.clear()
            out_path = tmp_path / f"adapt{workers}.jsonl"
            assert main(self.adapt_emb_argv(tmp_path, out_path, workers)) == EXIT_OK
            outputs.append(out_path.read_bytes())
            kinds = ["input" in request.json for request in stub_server.received]
            assert kinds == [True] * 5 + [False] * len(docs)
            sent = [request.json["input"] for request in stub_server.received[:5]]
            assert [len(texts) for texts in sent] == [32, 8, 32, 32, 6]
            assert sum(sent[:2], []) == [doc["source"] for doc in docs]
            assert sum(sent[2:], []) == [pair["source"] for pair in train]
        assert outputs[0] == outputs[1]
        records = [json.loads(line) for line in outputs[0].decode().splitlines()]
        assert [r["doc_id"] for r in records] == [d["id"] for d in docs]
        turns = [r["adaptation"].split(" | ") for r in records]
        assert all(len(t) == 8 for t in turns)  # system prompt, 3 demo pairs, source
        assert len({tuple(t[1:7]) for t in turns}) > 1

    def test_fs_emb_streams_training_sources(self, tmp_path, monkeypatch, stub_server):
        """Three documents: their sources in one request, then each training
        source exactly once, in requests of 32, 32 and 6."""
        stub_server.answer = lambda payload: (
            self.hash_embeddings(payload) if "input" in payload else turns_answer(payload)
        )
        monkeypatch.setenv("EMB_ENDPOINT", stub_server.url + "/v1/embeddings")
        monkeypatch.setenv("LLM_ENDPOINT", stub_server.url + "/v1/chat/completions")
        docs, train = self.write_emb_corpus(tmp_path, n_docs=3)
        out_path = tmp_path / "adapt.jsonl"
        assert main(self.adapt_emb_argv(tmp_path, out_path)) == EXIT_OK
        sent = [request.json["input"] for request in stub_server.received[:4]]
        assert sent[0] == [doc["source"] for doc in docs]
        assert [len(texts) for texts in sent[1:]] == [32, 32, 6]
        assert sum(sent[1:], []) == [pair["source"] for pair in train]
        assert ["input" in request.json for request in stub_server.received[4:]] == [False] * 3

    def test_fs_emb_query_outage_fails_adapt(
        self, tmp_path, monkeypatch, capsys, stub_server, waits
    ):
        """Every query request fails: no training text or chat request is
        sent and no output is written."""
        docs, train = self.write_emb_corpus(tmp_path)
        training = {pair["source"] for pair in train}

        def answer(payload):
            if "input" not in payload:
                return turns_answer(payload)
            if set(payload["input"]) <= training:
                return self.hash_embeddings(payload)
            return Reply(503, {"error": "busy"})

        stub_server.answer = answer
        monkeypatch.setenv("EMB_ENDPOINT", stub_server.url + "/v1/embeddings")
        monkeypatch.setenv("LLM_ENDPOINT", stub_server.url + "/v1/chat/completions")
        out_path = tmp_path / "adapt.jsonl"
        assert main(self.adapt_emb_argv(tmp_path, out_path)) == EXIT_PROVIDER
        err = capsys.readouterr().err
        assert "provider error: embedding provider" in err
        assert "failed after 4 attempts" in err
        assert "Traceback" not in err
        assert not out_path.exists()
        assert [request.json["input"] for request in stub_server.received] == (
            [[doc["source"] for doc in docs[:32]]] * 4  # the first query chunk, retried
        )

    def test_fs_emb_training_outage_fails_adapt(
        self, tmp_path, monkeypatch, capsys, stub_server, waits
    ):
        """The third request of training sources fails on every retry after
        two have been scored: exit 4, no chat request and no output."""
        docs, train = self.write_emb_corpus(tmp_path, n_docs=3)
        third = [pair["source"] for pair in train[64:]]

        def answer(payload):
            if "input" not in payload:
                return turns_answer(payload)
            if payload["input"] == third:
                return Reply(503, {"error": "busy"})
            return self.hash_embeddings(payload)

        stub_server.answer = answer
        monkeypatch.setenv("EMB_ENDPOINT", stub_server.url + "/v1/embeddings")
        monkeypatch.setenv("LLM_ENDPOINT", stub_server.url + "/v1/chat/completions")
        out_path = tmp_path / "adapt.jsonl"
        assert main(self.adapt_emb_argv(tmp_path, out_path)) == EXIT_PROVIDER
        err = capsys.readouterr().err
        assert "provider error: embedding provider" in err
        assert "failed after 4 attempts" in err
        assert "Traceback" not in err
        assert not out_path.exists()
        assert all("input" in request.json for request in stub_server.received)
        assert [len(request.json["input"]) for request in stub_server.received] == (
            [3, 32, 32] + [6] * 4
        )

    def test_fs_emb_vector_length_change_fails_adapt(
        self, tmp_path, monkeypatch, capsys, stub_server
    ):
        """The queries come back 4-d and the training sources 3-d: a ragged
        reply across the calls of one ranking is a provider error."""
        docs, train = self.write_emb_corpus(tmp_path, n_docs=3)
        queries = [doc["source"] for doc in docs]

        def answer(payload):
            if "input" not in payload:
                return turns_answer(payload)
            dim = 4 if payload["input"] == queries else 3
            return Reply(body={"data": [{"embedding": [1.0] * dim} for _ in payload["input"]]})

        stub_server.answer = answer
        monkeypatch.setenv("EMB_ENDPOINT", stub_server.url + "/v1/embeddings")
        monkeypatch.setenv("LLM_ENDPOINT", stub_server.url + "/v1/chat/completions")
        out_path = tmp_path / "adapt.jsonl"
        assert main(self.adapt_emb_argv(tmp_path, out_path)) == EXIT_PROVIDER
        err = capsys.readouterr().err
        assert "provider error: embedding vectors differ in length: 3 vs the queries' 4" in err
        assert "Traceback" not in err
        assert not out_path.exists()
        assert all("input" in request.json for request in stub_server.received)

    def test_refine_embeds_per_document(self, workdir, monkeypatch, stub_server):
        """Docs a and b both get "Versión común." as a candidate. Each sends
        it, and its own source, once; no document sends more than its source,
        its initial adaptation and one text per distinct candidate."""
        cycles = 3
        corrections = {
            "a": ["Versión común.", "Solo de a.", "Versión común."],
            "b": ["Versión común.", "Versión común.", "Solo de b."],
            "c": ["Versión de c.", "Otra de c.", "Última de c."],
        }
        stub_server.answer = self.hash_embeddings
        monkeypatch.setenv("EMB_ENDPOINT", stub_server.url + "/v1/embeddings")
        tmp_path, docs_path, train_path = workdir
        docs = [json.loads(line) for line in docs_path.read_text().splitlines()]
        initial = tmp_path / "initial.jsonl"
        write_lines(initial, [{"doc_id": d["id"], "adaptation": f"Inicial {d['id']}."} for d in docs])
        script = tmp_path / "script.jsonl"
        write_lines(script, [{"match": d["source"], "response": apec_response(text)}
                             for d in docs for text in corrections[d["id"]]])
        rc = main(["refine", "--input", str(initial), "--docs", str(docs_path),
                   "--corpus", str(train_path), "--provider", f"scripted:{script}",
                   "--embed", "http", "--workers", "1", "--cycles", str(cycles),
                   "--output", str(tmp_path / "traces.jsonl")])
        assert rc == EXIT_OK
        sources = [d["source"] for d in docs]
        per_doc = []  # the texts each document sent, split where a source opens a request
        for request in stub_server.received:
            texts = request.json["input"]
            if texts[0] in sources:
                per_doc.append([])
            per_doc[-1] += texts
        assert [texts[0] for texts in per_doc] == sources
        sent = sum(per_doc, [])
        assert [sent.count(source) for source in sources] == [1, 1, 1]
        assert sent.count("Versión común.") == 2
        assert all(len(texts) <= cycles + 2 for texts in per_doc)
        assert all(len(texts) == len(set(texts)) for texts in per_doc)

    def test_workers_byte_identical(self, tmp_path, monkeypatch, stub_server):
        stub_server.answer = turns_answer
        monkeypatch.setenv("LLM_ENDPOINT", stub_server.url + "/v1/chat/completions")
        monkeypatch.setenv("LLM_API_KEY", "secreto")
        docs, docs_path, train_path = write_workers_corpus(tmp_path)
        outputs = []
        for workers in ("1", "4"):
            out_path = tmp_path / f"adapt{workers}.jsonl"
            rc = main(
                [
                    "adapt",
                    "--input", str(docs_path),
                    "--corpus", str(train_path),
                    "--mode", "fs-bm25",
                    "--k", "3",
                    "--provider", "http",
                    "--workers", workers,
                    "--output", str(out_path),
                ]
            )
            assert rc == EXIT_OK
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(stub_server.received) == 2 * len(docs)
        assert {r.headers["Authorization"] for r in stub_server.received} == {"Bearer secreto"}
        records = [json.loads(line) for line in outputs[0].decode().splitlines()]
        assert [r["doc_id"] for r in records] == [d["id"] for d in docs]
        turns = [r["adaptation"].split(" | ") for r in records]
        assert all(len(t) == 8 for t in turns)  # system prompt, 3 demo pairs, source
        assert len({tuple(t[1:7]) for t in turns}) > 1


class TestHelpers:
    def test_read_adaptations_duplicate(self, tmp_path):
        path = tmp_path / "outputs.jsonl"
        write_lines(
            path,
            [
                {"doc_id": "a", "adaptation": "x"},
                {"doc_id": "a", "adaptation": "y"},
            ],
        )
        with pytest.raises(ApecError, match="line 2: duplicate doc_id 'a'"):
            read_adaptations(path)

    def test_read_adaptations_numeric_duplicate(self, tmp_path):
        path = tmp_path / "outputs.jsonl"
        write_lines(path, [{"doc_id": 1, "adaptation": "x"}, {"doc_id": 1, "adaptation": "y"}])
        with pytest.raises(ApecError, match="line 2: duplicate doc_id 1"):
            read_adaptations(path)

    def test_read_adaptations_needs_text(self, tmp_path):
        path = tmp_path / "outputs.jsonl"
        write_lines(path, [{"doc_id": "a"}])
        with pytest.raises(ApecError, match="line 1: record needs .* a string adaptation/final"):
            read_adaptations(path)

    def test_write_jsonl_sorts_keys(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [{"b": 1, "a": 2}])
        assert path.read_text(encoding="utf-8") == '{"a": 2, "b": 1}\n'

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_jsonl_refuses_non_finite_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "x.jsonl"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_jsonl(path, [{"a": 1.0}, {"a": value}])
        assert not path.exists()

    def test_unknown_subcommand(self):
        assert main(["inventado"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--input", "d.jsonl", "--format", "csv"],
            ["index", "--corpus", "d.jsonl", "--output", "i.json", "--format", "csv"],
            ["adapt", "--input", "d.jsonl", "--mode", "zs", "--provider", "echo",
             "--output", "o.jsonl", "--format", "csv"],
            ["refine", "--input", "o.jsonl", "--docs", "d.jsonl", "--corpus", "d.jsonl",
             "--provider", "echo", "--embed", "hash", "--output", "t.jsonl", "--format", "csv"],
            ["evaluate", "--input", "o.jsonl", "--corpus", "d.jsonl", "--embed", "hash",
             "--format", "csv"],
            ["ensemble", "--inputs", "a.jsonl", "b.jsonl", "--output", "e.jsonl",
             "--config", "c.json"],
            ["tablecheck", "--tolerance", "0.01"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--k1", "1.5"], ["--b", "0.75"], ["--epsilon", "0.25"],
                   ["--min-token-len", "4"], ["--config", "c.json"]],
        ids=lambda option: option[0],
    )
    def test_index_takes_no_bm25_settings(self, option, capsys):
        # every index ranks with Bm25Params
        assert main(["index", "--corpus", "d.jsonl", "--output", "i.json", *option]) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_no_arguments(self):
        assert main([]) == EXIT_USAGE

    def test_readme_usage_shows_only_parser_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = readme.split("## CLI\n", 1)[1].split("```\n", 2)[1].splitlines()
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        assert [line.split()[1] for line in lines] == list(subparsers)
        for line in lines:
            shown = re.findall(r"--[\w-]+", line.split("#")[0])
            options = subparsers[line.split()[1]]._option_string_actions
            assert [flag for flag in shown if flag not in options] == [], line
            assert shown or set(options) == {"-h", "--help"}, line  # a line without flags: a command without options
