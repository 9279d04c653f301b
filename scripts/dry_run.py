"""End-to-end pipeline demo on a synthetic corpus, no model server needed.

Builds a ten-document Spanish corpus plus scripted provider fixtures,
then drives the CLI through stats, index, adapt (BM25 few-shot from the
index file, BM25 few-shot from an index built in memory, BM25 few-shot
from the index files of two CSV copies of the training corpus, the second
starting with a UTF-8 BOM, then random few-shot and embedding few-shot,
all with the same scripted replies; the CSV copies, their indexes, the
second copy's adaptations and the random few-shot adaptations live in a
temporary directory, so that every artifact is JSON or JSONL, apart from
the index's raw sidecar `index.json.columns`), two
refinement streams over the BM25 adaptations (the first again with three
workers), ensembling, and evaluation. Artifacts land in --workdir (default: a
fresh temp directory) and are printed at the end.

Each dev source shares topic words with two training sources, so BM25
ranks differ by document. A scripted adapt reply names the document and
the training document whose demonstration sits next to the source in the
request (the last, rank k), so a wrong demonstration changes the reply.
The script exits non-zero if a step fails, if the four BM25 adaptation
files differ in any byte, if their demonstrations are the same for every
document, if a random few-shot reply does not name the rank-k training
document of an independent derivation of the per-document sample, if an
embedding few-shot reply does not name the rank-k training document of a
brute-force cosine ranking, or if the
three-worker traces differ in any byte from the one-worker traces of the
same stream.

Usage:
    python3 scripts/dry_run.py [--workdir DIR] [--cycles N]
"""

import argparse
import csv
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from apec.cli import main as cli_main
from apec.similarity import HashEmbeddingProvider, cosine

ANALYSIS = "La adaptación tiene frases largas."
FINAL = "Sin comentarios adicionales."
TOPICS = ["beca", "impuesto", "vivienda", "empleo", "salud", "transporte"]
K = 2  # demonstrations per adapt request
SEED = 7  # adapt --seed of the fs-rdm stage
EMBED = 64  # hash embedding dimension of the fs-emb stage


def revision_response(correction: str) -> str:
    return (
        "# Análisis de la adaptación\n"
        f"{ANALYSIS}\n\n"
        "# Corrección\n"
        f"{correction}\n\n"
        "# Final\n"
        f"{FINAL}"
    )


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def adapt_reply(doc: dict, demo: dict) -> str:
    """The scripted adapt reply for `doc` when `demo` is its rank-K demonstration."""
    return f"Adaptación inicial de {doc['id']} junto a {demo['id']}."


def build_fixtures(root: Path, cycles: int) -> dict:
    dev = []
    for i in range(10):
        first, second = TOPICS[i % 6], TOPICS[(2 * i + 1) % 6]
        dev.append(
            {
                "id": f"dev{i}",
                "source": (
                    f"El documento número {i} trata de la {first} y de {second} en "
                    f"su caso; la {first} tiene frases largas y términos difíciles."
                ),
                "reference": f"El documento {i} trata de {first}.",
                "task": "PL",
            }
        )
    train = [
        {
            "id": f"train{i}",
            "source": f"Texto de entrenamiento {i} sobre {topic} y trámites complejos.",
            "reference": f"Texto fácil {i} sobre {topic}.",
            "task": "PL",
        }
        for i, topic in enumerate(TOPICS)
    ]
    docs_path = root / "dev.jsonl"
    train_path = root / "train.jsonl"
    write_jsonl(docs_path, dev)
    write_jsonl(train_path, train)

    # one entry per (document, training document next to its source), as
    # GenerationRequest.as_flat_text renders the end of a request
    adapt_script = root / "adapt_script.jsonl"
    write_jsonl(
        adapt_script,
        [
            {
                "match": f"[assistant]\n{demo['reference']}\n\n[user]\n{doc['source']}",
                "response": adapt_reply(doc, demo),
            }
            for doc in dev
            for demo in train
        ],
    )

    scripts = {}
    for stream, phrase in (("greedy", "clara"), ("sampled", "sencilla")):
        entries = []
        for doc in dev:
            for cycle in range(cycles):
                entries.append(
                    {
                        "match": doc["source"],
                        "response": revision_response(
                            f"Versión {phrase} {cycle} de {doc['id']}."
                        ),
                    }
                )
        path = root / f"refine_{stream}.jsonl"
        write_jsonl(path, entries)
        scripts[stream] = path

    return {
        "dev": dev,
        "train_docs": train,
        "docs": docs_path,
        "train": train_path,
        "adapt_script": adapt_script,
        **scripts,
    }


def rdm_replies(dev: list[dict], train: list[dict]) -> list[str]:
    """Each document's reply when its rank-K demonstration is the K-th of
    K training positions sampled by a generator seeded with the first 8
    bytes, big-endian, of the sha256 of "SEED:doc id": fs-rdm's sample,
    derived here without apec."""
    replies = []
    for doc in dev:
        digest = hashlib.sha256(f"{SEED}:{doc['id']}".encode("utf-8")).digest()
        sample = random.Random(int.from_bytes(digest[:8], "big")).sample(range(len(train)), K)
        replies.append(adapt_reply(doc, train[sample[K - 1]]))
    return replies


def emb_replies(dev: list[dict], train: list[dict]) -> list[str]:
    """Each document's reply when its rank-K demonstration is the K-th
    nearest training source by the cosine of hash vectors, ties by
    training position: the fs-emb ranking, computed by brute force."""
    embedder = HashEmbeddingProvider(EMBED)
    train_vecs = embedder.embed([demo["source"] for demo in train])
    replies = []
    for doc, vec in zip(dev, embedder.embed([doc["source"] for doc in dev])):
        ranked = sorted(range(len(train)), key=lambda p: (-cosine(vec, train_vecs[p]), p))
        replies.append(adapt_reply(doc, train[ranked[K - 1]]))
    return replies


def fail(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(1)


def adaptations(path: Path) -> list[str]:
    return [json.loads(line)["adaptation"] for line in path.read_text(encoding="utf-8").splitlines()]


def run_step(argv: list[str]) -> None:
    print(f"$ apec {' '.join(argv)}")
    rc = cli_main(argv)
    if rc != 0:
        print(f"step failed with exit code {rc}", file=sys.stderr)
        sys.exit(rc)


def run(workdir: Path, cycles: int) -> None:
    fixtures = build_fixtures(workdir, cycles)
    stats_path = workdir / "stats.json"
    index_path = workdir / "index.json"
    adapt_path = workdir / "adapt.jsonl"
    adapt_built_path = workdir / "adapt_built.jsonl"
    adapt_csv_path = workdir / "adapt_csv.jsonl"
    adapt_emb_path = workdir / "adapt_emb.jsonl"
    best_path = workdir / "best.jsonl"
    eval_path = workdir / "eval.json"

    run_step(
        [
            "stats",
            "--input", str(fixtures["docs"]),
            "--embed", "hash",
            "--output", str(stats_path),
        ]
    )
    run_step(["index", "--corpus", str(fixtures["train"]), "--output", str(index_path)])
    fs_bm25 = [
        "adapt",
        "--input", str(fixtures["docs"]),
        "--mode", "fs-bm25",
        "--k", str(K),
        "--provider", f"scripted:{fixtures['adapt_script']}",
        "--seed", "7",
    ]
    train = ["--corpus", str(fixtures["train"])]
    run_step([*fs_bm25, *train, "--index", str(index_path), "--output", str(adapt_path)])
    run_step([*fs_bm25, *train, "--output", str(adapt_built_path)])  # no --index: built in memory
    rows = [json.loads(line) for line in fixtures["train"].read_text(encoding="utf-8").splitlines()]
    with tempfile.TemporaryDirectory() as tmp_dir:
        adapt_bom_path = Path(tmp_dir) / "adapt_bom.jsonl"
        for stem, encoding, output in (("train", "utf-8", adapt_csv_path),
                                       ("train_bom", "utf-8-sig", adapt_bom_path)):
            train_csv_path = Path(tmp_dir) / f"{stem}.csv"
            index_csv_path = Path(tmp_dir) / f"index_{stem}.json"
            with open(train_csv_path, "w", encoding=encoding, newline="") as handle:
                writer = csv.DictWriter(handle, ["id", "source", "reference", "task"])  # \r\n line ends
                writer.writeheader()
                writer.writerows(rows)
            run_step(["index", "--corpus", str(train_csv_path), "--output", str(index_csv_path)])
            run_step(
                [*fs_bm25, "--corpus", str(train_csv_path), "--index", str(index_csv_path),
                 "--output", str(output)]
            )
        for other in (adapt_built_path, adapt_csv_path, adapt_bom_path):
            if other.read_bytes() != adapt_path.read_bytes():
                fail(f"{other} differs from {adapt_path}")
        adapt_rdm_path = Path(tmp_dir) / "adapt_rdm.jsonl"
        run_step(
            ["adapt", "--input", str(fixtures["docs"]), *train, "--mode", "fs-rdm",
             "--seed", str(SEED), "--k", str(K), "--provider", f"scripted:{fixtures['adapt_script']}",
             "--output", str(adapt_rdm_path)]
        )
        if adaptations(adapt_rdm_path) != rdm_replies(fixtures["dev"], fixtures["train_docs"]):
            fail(f"{adapt_rdm_path}: demonstrations differ from the derived per-document samples")
    if len({reply.split(" junto a ")[1] for reply in adaptations(adapt_path)}) < 2:
        fail(f"{adapt_path}: every document has the same rank-{K} BM25 demonstration")
    run_step(
        [
            "adapt",
            "--input", str(fixtures["docs"]),
            "--corpus", str(fixtures["train"]),
            "--mode", "fs-emb",
            "--embed", f"hash:{EMBED}",
            "--k", str(K),
            "--provider", f"scripted:{fixtures['adapt_script']}",
            "--output", str(adapt_emb_path),
        ]
    )
    if adaptations(adapt_emb_path) != emb_replies(fixtures["dev"], fixtures["train_docs"]):
        fail(f"{adapt_emb_path}: demonstrations differ from the brute-force cosine ranking")

    def refine(stream: str, output: Path, *extra: str) -> None:
        run_step(
            [
                "refine",
                "--input", str(adapt_path),
                "--docs", str(fixtures["docs"]),
                "--corpus", str(fixtures["train"]),
                "--index", str(index_path),
                "--provider", f"scripted:{fixtures[stream]}",
                "--embed", "hash",
                "--cycles", str(cycles),
                "--demos", "2",
                "--stream", stream,
                "--output", str(output),
                *extra,
            ]
        )

    trace_paths = {}
    for stream in ("greedy", "sampled"):
        trace_paths[stream] = workdir / f"traces_{stream}.jsonl"
        refine(stream, trace_paths[stream])
    traces_w3_path = workdir / "traces_greedy_w3.jsonl"
    refine("greedy", traces_w3_path, "--workers", "3")
    if traces_w3_path.read_bytes() != trace_paths["greedy"].read_bytes():
        fail(f"{traces_w3_path} differs from {trace_paths['greedy']}")
    run_step(
        [
            "ensemble",
            "--inputs", str(trace_paths["greedy"]), str(trace_paths["sampled"]),
            "--priority", "greedy,sampled",
            "--output", str(best_path),
        ]
    )
    run_step(
        [
            "evaluate",
            "--input", str(best_path),
            "--corpus", str(fixtures["docs"]),
            "--embed", "hash",
            "--output", str(eval_path),
        ]
    )

    evaluation = json.loads(eval_path.read_text(encoding="utf-8"))
    print()
    print(f"artifacts in {workdir}")
    for path in sorted(workdir.iterdir()):
        print(f"  {path.name}")
    print()
    print(
        f"evaluated {evaluation['doc_count']} docs: "
        f"FH {evaluation['fh']:.2f} (gain {evaluation['fh_gain']:+.2f}), "
        f"BoW {evaluation['bow_sim']:.4f}, Emb {evaluation['emb_sim']:.4f}, "
        f"table avg {evaluation['table_avg']:.2f}"
    )


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="artifact directory (default: temp dir)")
    parser.add_argument("--cycles", type=int, default=2, help="revision cycles per doc")
    return parser.parse_args()


if __name__ == "__main__":
    args = parse_args()
    if args.workdir:
        target = Path(args.workdir)
        target.mkdir(parents=True, exist_ok=True)
    else:
        target = Path(tempfile.mkdtemp(prefix="apec-dry-run-"))
    run(target, args.cycles)
