"""Seeded synthetic Spanish-like corpora for the pipeline benchmark.

The benchmark seed goes in; `train.jsonl` and `dev.jsonl` come out, and
the pipeline only ever sees those files. The text is built from a
Zipfian vocabulary of invented words whose syllables carry what the
Spanish text statistics react to: accented vowels, diphthongs, hiatus,
silent u in que/qui/gue/gui, abbreviations such as "Sr.", digits,
"¿?" and "¡!" sentences and blank-line paragraphs.

Document lengths and reference/source length ratios are drawn from a
fixed grid of quantiles and shuffled by the seed. Every seed therefore
gives corpora of the same size and length spread, so runs on different
seeds do comparable work; only which document gets which length, and
the words themselves, change. Some ratios fall outside the benchmark's
`--ratio` window so the length-ratio filter has pairs to drop.

Run as a script:

    python3 perfbench/corpus_gen.py --seed 1 --out DIR --train 4000 --dev 12
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import random
from pathlib import Path
from statistics import NormalDist

FUNCTION_WORDS = (
    "de la que el en y a los se del las un por con no una su para es al "
    "lo como más pero sus le ya o este sí porque esta entre cuando muy "
    "sin sobre también me hasta hay donde quien desde todo nos durante "
    "todos uno les ni contra otros ese eso ante ellos esto antes algunos"
).split()
ONSETS = (
    "", "b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
    "b", "c", "d", "l", "m", "n", "p", "r", "s", "t", "ch", "ll", "tr",
    "pl", "br", "ñ", "j", "z",
)
SOFT_ONSETS = ("qu", "gu")  # silent u: only before e/i
NUCLEI = (
    "a", "e", "i", "o", "u", "a", "e", "o", "a", "e", "o", "i",
    "á", "é", "í", "ó", "ú", "ie", "ue", "ai", "au", "ia", "io",
    "ío", "ía", "úa", "eo",
)
FRONT_NUCLEI = ("e", "i", "é", "í", "ie")
CODAS = ("", "", "", "", "n", "s", "r", "l")
ABBREVIATIONS = ("Sr.", "Sra.", "Dr.", "Dra.", "núm.", "art.")
ZIPF_SHIFT = 2.7  # Zipf-Mandelbrot offset keeps the head from being too steep
FUNCTION_SHARE = 0.4  # share of running words that are function words
VOCABULARY = 30000  # content words
TRAIN_WORDS, DEV_WORDS = 90, 150  # median source length of training and dev documents


def _syllable(rng: random.Random) -> str:
    if rng.random() < 0.08:
        return rng.choice(SOFT_ONSETS) + rng.choice(FRONT_NUCLEI) + rng.choice(CODAS)
    return rng.choice(ONSETS) + rng.choice(NUCLEI) + rng.choice(CODAS)


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    """Distinct invented content words of four letters or more."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        word = "".join(_syllable(rng) for _ in range(rng.choice((2, 2, 3, 3, 3, 4))))
        if len(word) >= 4 and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def quantile_grid(n: int, median: float, sigma: float, lo: float, hi: float) -> list[float]:
    """n log-normal quantiles, clipped to [lo, hi]: a fixed spread of sizes."""
    normal = NormalDist()
    return [
        min(hi, max(lo, median * math.exp(sigma * normal.inv_cdf((i + 0.5) / n))))
        for i in range(n)
    ]


def _zipf_cum_weights(size: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + ZIPF_SHIFT) for rank in range(size)))


class TextMaker:
    """Function words and content words, each with its own Zipf law.

    Function words are mostly shorter than the BM25 minimum token
    length, so keeping them out of the content ranking is what gives
    the indexed terms a realistic heavy head.

    Words are drawn by systematic sampling: one random offset, then
    evenly spaced points on the cumulative distribution. A text of n
    words then holds each word about n times its probability, give or
    take one, where independent draws would scatter the counts of the
    frequent words, and with them the BM25 cost of the text, from seed
    to seed.
    """

    def __init__(self, rng: random.Random, vocabulary: list[str]):
        self.rng = rng
        self.vocabulary = vocabulary
        self.cum_weights = _zipf_cum_weights(len(vocabulary))
        self.function_cum_weights = _zipf_cum_weights(len(FUNCTION_WORDS))

    def _systematic(self, population, cum_weights, count: int) -> list[str]:
        total = cum_weights[-1]
        offset = self.rng.random()
        return [
            population[bisect.bisect_right(cum_weights, (i + offset) / count * total)]
            for i in range(count)
        ]

    def words(self, count: int) -> list[str]:
        """count words in random order, a FUNCTION_SHARE of them function words."""
        n_function = round(count * FUNCTION_SHARE)
        words = self._systematic(FUNCTION_WORDS, self.function_cum_weights, n_function)
        words += self._systematic(self.vocabulary, self.cum_weights, count - n_function)
        self.rng.shuffle(words)
        return words

    def sentence(self, words: list[str]) -> str:
        rng = self.rng
        if rng.random() < 0.12:
            pos = rng.randrange(len(words))
            name = self.vocabulary[rng.randrange(1000)].capitalize()
            words[pos : pos + 1] = [rng.choice(ABBREVIATIONS), name]
        if rng.random() < 0.15:
            words.insert(rng.randrange(len(words) + 1), str(rng.choice((3, 12, 25, 40, 1990, 2024))))
        for pos in range(2, len(words) - 1, 7):
            if rng.random() < 0.5:
                words[pos] += ","
        words[0] = words[0].capitalize()
        body = " ".join(words)
        kind = rng.random()
        if kind < 0.08:
            return f"¿{body}?"
        if kind < 0.13:
            return f"¡{body}!"
        return body + "."

    def text(self, target_words: int) -> str:
        """Paragraphs of 2-5 sentences of 6-22 words, target_words words in all."""
        rng = self.rng
        lengths: list[int] = []
        while sum(lengths) < target_words:
            lengths.append(max(3, min(target_words - sum(lengths), rng.randint(6, 22))))
        words = self.words(sum(lengths))
        sentences = []
        for length in lengths:
            sentences.append(self.sentence(words[:length]))
            del words[:length]
        paragraphs = []
        while sentences:
            size = rng.randint(2, 5)
            paragraphs.append(" ".join(sentences[:size]))
            del sentences[:size]
        return "\n\n".join(paragraphs)


def simplify(source: str, ratio: float, maker: TextMaker) -> str:
    """Reference adaptation: short sentences, about ratio × source words."""
    words = [w.strip(",.¿?¡!") for w in source.split()]
    words = [w for w in words if w]
    target = max(3, round(len(words) * ratio))
    kept = words[:target]
    if len(kept) < target:  # a reference longer than its source explains words
        kept += ["Palabras", "difíciles:"] + maker.words(target - len(kept))
    sentences = []
    for start in range(0, len(kept), 8):
        chunk = kept[start : start + 8]
        chunk[0] = chunk[0].capitalize()
        sentences.append(" ".join(chunk) + ".")
    paragraphs = [" ".join(sentences[i : i + 3]) for i in range(0, len(sentences), 3)]
    return "\n\n".join(paragraphs)


def make_docs(maker: TextMaker, prefix: str, count: int, median_words: float) -> list[dict]:
    lengths = quantile_grid(count, median_words, 0.45, 12, 6 * median_words)
    # about 3/4 of the ratios inside the 0.3-0.9 window, the rest on both sides of it
    ratios = quantile_grid(count, 0.6, 0.45, 0.15, 1.3)
    maker.rng.shuffle(lengths)
    maker.rng.shuffle(ratios)
    docs = []
    for pos, (length, ratio) in enumerate(zip(lengths, ratios)):
        source = maker.text(round(length))
        docs.append(
            {
                "id": f"{prefix}{pos:05d}",
                "source": source,
                "reference": simplify(source, ratio, maker),
                "task": "PL" if pos % 2 == 0 else "ER",
            }
        )
    return docs


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def generate(seed: int, out_dir: Path, train: int, dev: int) -> None:
    # one vocabulary for every seed, as a language has; the seed picks the texts
    words = make_vocabulary(random.Random("apec-perfbench-vocabulary"), VOCABULARY)
    maker = TextMaker(random.Random(f"apec-perfbench:{seed}"), words)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(out_dir / "train.jsonl", make_docs(maker, "tr", train, TRAIN_WORDS))
    write_jsonl(out_dir / "dev.jsonl", make_docs(maker, "dev", dev, DEV_WORDS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--train", type=int, required=True, help="training pairs")
    parser.add_argument("--dev", type=int, required=True, help="dev documents")
    args = parser.parse_args(argv)
    generate(args.seed, Path(args.out), args.train, args.dev)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
