import base64
import json
import math
import re
import struct
import time
from pathlib import Path

import pytest

import apec.cli

from apec.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_PROVIDER,
    EXIT_USAGE,
    load_config,
    main,
    read_adaptations,
    write_jsonl,
)
from apec.errors import ApecError
from apec.refine import ApecTrace, trace_from_dict, trace_to_dict

from conftest import Reply, apec_response


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

    def test_tight_tolerance_fails(self, capsys):
        assert main(["tablecheck", "--tolerance", "0.0001"]) == EXIT_CHECK_FAILED
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


def term_postings(payload) -> dict:
    """term -> [(pos, tf), ...] read back from the columns of an index file."""
    positions, tfs = (
        struct.unpack(f"<{len(raw) // 4}I", raw)
        for raw in (base64.b64decode(payload[key]) for key in ("positions", "tfs"))
    )
    postings, start = {}, 0
    for term in sorted(payload["doc_freqs"]):
        end = start + payload["doc_freqs"][term]
        postings[term] = list(zip(positions[start:end], tfs[start:end]))
        start = end
    return postings


def set_postings(pairs):
    """Give every term the same postings, `pairs` of (pos, tf)."""

    def corrupt(payload):
        terms = payload["doc_freqs"]
        payload["doc_freqs"] = {term: len(pairs) for term in terms}
        payload["positions"] = u32_column([pos for pos, _ in pairs] * len(terms))
        payload["tfs"] = u32_column([tf for _, tf in pairs] * len(terms))

    return corrupt


def first_df(change):
    """Replace the first term's document frequency n with change(n)."""

    def corrupt(payload):
        term = min(payload["doc_freqs"])
        payload["doc_freqs"][term] = change(payload["doc_freqs"][term])

    return corrupt


def older_format(kind, encode):
    """An earlier layout: `kind`, and `postings` of term -> encode([(pos, tf), ...])."""

    def corrupt(payload):
        payload["postings"] = {term: encode(docs) for term, docs in term_postings(payload).items()}
        for key in ("doc_freqs", "positions", "tfs"):
            del payload[key]
        payload["kind"] = kind

    return corrupt


def drop_last_tf(payload):
    """A position without a count."""
    payload["tfs"] = base64.b64encode(base64.b64decode(payload["tfs"])[:-4]).decode("ascii")


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
            pytest.param(lambda p: p.pop("params"), id="no-params"),
            pytest.param(lambda p: (p.pop("positions"), p.pop("tfs")), id="no-postings"),
            pytest.param(lambda p: p.pop("doc_freqs"), id="no-doc-freqs"),
            pytest.param(lambda p: p["params"].pop("k1"), id="params-missing-k1"),
            pytest.param(lambda p: p.update(avgdl="4.0"), id="avgdl-string"),
            pytest.param(lambda p: p["params"].update(k1=float("nan")), id="params-k1-nan"),
            pytest.param(lambda p: p["params"].update(epsilon=float("inf")), id="params-epsilon-inf"),
            pytest.param(lambda p: p.update(avgdl=float("nan")), id="avgdl-nan"),
            pytest.param(lambda p: p.update(avgdl=float("inf")), id="avgdl-inf"),
            pytest.param(lambda p: p.update(avgdl=10**400), id="avgdl-past-float-range"),
            pytest.param(lambda p: p.update(avgdl=-1.0), id="avgdl-negative"),
            pytest.param(lambda p: p["doc_ids"].insert(0, ["t0"]), id="list-doc-id"),
            pytest.param(lambda p: p["doc_token_counts"].pop(), id="short-token-counts"),
            pytest.param(lambda p: p.update(positions=[0, 1]), id="posting-list"),
            pytest.param(lambda p: p.update(positions="AAAA!AAA"), id="bad-base64"),
            pytest.param(lambda p: p.update(tfs="AQAAAAEA"), id="partial-uint32"),
            pytest.param(drop_last_tf, id="odd-field-count"),
            pytest.param(first_df(lambda n: n + 1), id="columns-short-of-doc-freqs"),
            pytest.param(first_df(lambda n: 0), id="empty-posting"),
            pytest.param(first_df(str), id="non-integer-field"),
            pytest.param(first_df(lambda n: n + 0.5), id="fractional-df"),
            pytest.param(set_postings([(40, 1)]), id="position-past-last-doc"),
            # -1 written as a 32-bit two's complement reads as 2**32 - 1
            pytest.param(set_postings([(2**32 - 1, 1)]), id="negative-position"),
            pytest.param(set_postings([(5, 1), (2, 1)]), id="descending-positions"),
            pytest.param(set_postings([(3, 1), (3, 1)]), id="repeated-position"),
            pytest.param(set_postings([(0, 0)]), id="zero-tf"),
        ],
    )
    def test_malformed_index_is_data_error(self, tmp_path, capsys, corrupt):
        _, docs_path, train_path = write_workers_corpus(tmp_path)  # 40 training docs
        index_path = tmp_path / "index.json"
        rc = main(["index", "--corpus", str(train_path), "--output", str(index_path)])
        assert rc == EXIT_OK
        payload = json.loads(index_path.read_text(encoding="utf-8"))
        corrupt(payload)
        index_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
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
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "rebuild it with `apec index`" in err
        assert not out_path.exists()


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
        err = capsys.readouterr().err
        assert f"{script} line 3: fixture entry must be an object" in err and "got 5" in err

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

    def test_unknown_adaptation_ids(self, workdir):
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
        assert "missing 1 docs" in capsys.readouterr().err

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
        assert main(["index", "--corpus", str(train_path)] + tail) == EXIT_OK
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
            ("index", {"bm25": {"k1": "${APEC_UNSET_VAR}"}}, "bm25.k1"),
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
        keys = [
            f"{name}.{key}" if isinstance(default, dict) else name
            for name, default in apec.cli._CONFIG_DEFAULTS.items()
            for key in (default if isinstance(default, dict) else [None])
        ]
        assert sorted(listed) == sorted(keys)

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
    if command == "index":
        return ["index", "--corpus", str(train_path), "--output", out]
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
            ("index", {"bm25": {"k1": "abc"}}, "config key bm25.k1 must be float, got 'abc'"),
            ("index", {"bm25": {"min_token_len": 2.5}}, "config key bm25.min_token_len"),
            ("index", {"bm25": []}, "config key bm25 must be an object"),
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
        tmp_path, _, train_path = workdir
        outputs = []
        for name, config in (
            ("flags", None),
            ("strings", {"bm25": {"k1": "1.5", "b": "0.75", "min_token_len": "4"}}),
            ("nulls", {"bm25": {"k1": None, "epsilon": None}, "llm": None, "seed": None}),
        ):
            out_path = tmp_path / f"{name}.json"
            argv = ["index", "--corpus", str(train_path), "--output", str(out_path)]
            if config is not None:
                config_path = tmp_path / f"{name}.config.json"
                config_path.write_text(json.dumps(config), encoding="utf-8")
                argv += ["--config", str(config_path)]
            else:
                argv += ["--k1", "1.5", "--b", "0.75"]
            assert main(argv) == EXIT_OK
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unread_bad_value_is_ignored(self, workdir):
        tmp_path, docs_path, train_path = workdir
        config_path = tmp_path / "config.json"
        config_path.write_text('{"bm25": {"k1": "abc"}}', encoding="utf-8")
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
    ("index", ["--b", "2"], "b must be in [0, 1], got 2.0"),
    ("index", ["--k1", "-1"], "k1 must be >= 0, got -1.0"),
    ("index", ["--epsilon", "-0.5"], "epsilon must be >= 0, got -0.5"),
    ("index", ["--min-token-len", "0"], "min_token_len must be >= 1, got 0"),
    ("index", ["--k1", "nan"], "k1 must be finite, got nan"),
    ("index", ["--k1", "inf"], "k1 must be finite, got inf"),
    ("index", ["--epsilon", "inf"], "epsilon must be finite, got inf"),
]
BAD_CONFIG = [
    ("adapt", {"retries": -1}, "config key retries: retries must be >= 0, got -1"),
    ("adapt", {"workers": 0}, "config key workers: workers must be >= 1, got 0"),
    ("refine", {"workers": -3}, "config key workers: workers must be >= 1, got -3"),
    ("refine", {"apec": {"cycles": 0}}, "config key apec.cycles: cycles must be >= 1, got 0"),
    ("refine", {"apec": {"demo_count": -1}}, "config key apec.demo_count: demo_count must be"),
    ("refine", {"retries": -1}, "config key retries: retries must be >= 0, got -1"),
    ("index", {"bm25": {"b": 2}}, "config key bm25.b: b must be in [0, 1], got 2.0"),
    ("index", {"bm25": {"min_token_len": 0}}, "config key bm25.min_token_len: min_token_len"),
    ("index", {"bm25": {"k1": "1e999"}}, "config key bm25.k1: k1 must be finite, got inf"),
    ("index", {"bm25": {"k1": float("inf")}}, "config key bm25.k1: k1 must be finite, got inf"),
    ("index", {"bm25": {"epsilon": "nan"}}, "config key bm25.epsilon: epsilon must be finite"),
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
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_no_arguments(self):
        assert main([]) == EXIT_USAGE
