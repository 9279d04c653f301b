"""Spanish text statistics: sentences, words, syllables, readability.

Sentence splitting and syllabification are deterministic rule-based
approximations (no NLP models). The readability index is the Spanish
Flesch adaptation over syllables per 100 words and words per sentence.
Syllable counts are memoized per word token in a bounded, thread-safe
cache, so each distinct word is syllabified once per process.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import NoWordsError

FH_INTERCEPT = 206.84
FH_SYLLABLE_WEIGHT = 0.60  # per syllables-per-100-words
FH_SENTENCE_WEIGHT = 1.02  # per words-per-sentence

_TERMINALS = ".!?…"
_CLOSERS = "»”’\")]"
# A terminal run, then any closers, then whitespace or the end of the block.
_SENTENCE_END = re.compile(
    rf"([{re.escape(_TERMINALS)}]+)[{re.escape(_CLOSERS)}]*(?=\s|\Z)"
)

# Abbreviations whose trailing period never ends a sentence (lowercased).
_ABBREVIATIONS = {
    "sr.", "sra.", "srta.", "dr.", "dra.", "núm.", "art.", "etc.",
    "pág.", "tel.", "ud.", "uds.", "avda.",
}
_ABBREVIATION_WINDOW = max(map(len, _ABBREVIATIONS))
_TRAILING_LETTERS = re.compile(r"[^\W\d_]+$")

_PARAGRAPH_SPLIT = re.compile(r"\n\s*\n")
# Word tokens: runs of Unicode letters, or runs of digits (kept separate).
_WORD_TOKEN = re.compile(r"[^\W\d_]+|\d+", re.UNICODE)
_DIGIT_OR_LETTER_RUN = re.compile(r"\d+|\D+")
# 'u' after q/g is silent before e/i (accented or not); 'ü' never is.
_SILENT_U = re.compile(r"([qg])u([eéií])")

_STRONG_VOWELS = frozenset("aeoáéó")
_WEAK_VOWELS = frozenset("iuü")
_ACCENTED_WEAK = frozenset("íú")
_VOWELS = _STRONG_VOWELS | _WEAK_VOWELS | _ACCENTED_WEAK
# Distinct word tokens whose syllable counts stay memoized (~5 MB when full).
_SYLLABLE_CACHE_SIZE = 2**15


@dataclass(frozen=True)
class TextStats:
    sentence_count: int
    word_count: int
    syllable_count: int


@dataclass(frozen=True)
class FhBreakdown:
    p_syllables_per_100_words: float
    f_words_per_sentence: float
    fh: float


def tokenize_words(sentence: str) -> list[str]:
    """Split a sentence into word tokens.

    Tokens are maximal runs of Unicode letters or of digits; punctuation
    is discarded and case preserved. May return an empty list.
    """
    return _WORD_TOKEN.findall(sentence)


def segment_sentences(text: str) -> list[str]:
    """Split text into sentences.

    Splits after '.', '!', '?' or '…' followed by whitespace (closing
    quotes/brackets may intervene) and at blank lines. A period ending a
    known abbreviation does not split. Fragments without any word token
    are merged into the neighbouring sentence so that no returned
    sentence is bare punctuation, except when the whole text is. Blank
    text has no sentences.
    """
    fragments: list[str] = []
    for block in _PARAGRAPH_SPLIT.split(text):
        block = block.strip()
        if block:
            fragments.extend(_scan_block(block))
    return _merge_wordless(fragments)


def _scan_block(block: str) -> list[str]:
    out = []
    start = 0
    for match in _SENTENCE_END.finditer(block):
        # only a lone period can end an abbreviation
        if match.group(1) == "." and _ends_with_abbreviation(block, match.start()):
            continue
        out.append(block[start:match.end()].strip())
        start = match.end()
    tail = block[start:].strip()
    if tail:
        out.append(tail)
    return out


def _ends_with_abbreviation(block: str, period_idx: int) -> bool:
    # a run of letters longer than any abbreviation never matches, so only
    # that many characters are searched: the whole prefix is quadratic
    start = max(0, period_idx - _ABBREVIATION_WINDOW)
    match = _TRAILING_LETTERS.search(block, start, period_idx)
    if not match:
        return False
    return (match.group(0) + ".").lower() in _ABBREVIATIONS


def _merge_wordless(fragments: list[str]) -> list[str]:
    sentences: list[str] = []
    carry = ""
    for fragment in fragments:
        if not _WORD_TOKEN.search(fragment):
            if sentences:
                sentences[-1] = sentences[-1] + " " + fragment
            else:
                carry = (carry + " " + fragment).strip()
        elif carry:
            sentences.append(carry + " " + fragment)
            carry = ""
        else:
            sentences.append(fragment)
    if carry:  # punctuation-only input
        sentences.append(carry)
    return sentences


@functools.lru_cache(maxsize=_SYLLABLE_CACHE_SIZE)
def count_syllables(word: str) -> int:
    """Count syllables of one word token, never returning less than 1.

    Vowel nuclei are counted with Spanish rules: strong vowels (a, e, o)
    are always nuclei; unaccented weak vowels (i, u, ü) attach to an
    adjacent vowel as diphthong/triphthong; accented í/ú force hiatus;
    'u' in que/qui/gue/gui is silent; a word-final 'y' acts as a vowel.
    Digits count one syllable each.
    """
    w = word.lower()
    if w.endswith("y"):
        w = w[:-1] + "i"
    total = 0
    for run in _DIGIT_OR_LETTER_RUN.findall(w):
        if run[0].isdigit():
            total += len(run)
        else:
            total += _vowel_nuclei(run)
    return max(total, 1)


def _vowel_nuclei(letters: str) -> int:
    letters = _SILENT_U.sub(r"\1\2", letters)
    nuclei = 0
    prev = None  # previous vowel within the current vowel run
    for ch in letters:
        if ch not in _VOWELS:
            prev = None
            continue
        if prev is None:
            nuclei += 1
        elif (
            (prev in _STRONG_VOWELS and ch in _STRONG_VOWELS)
            or ch in _ACCENTED_WEAK
            or prev in _ACCENTED_WEAK
        ):
            nuclei += 1  # hiatus splits the vowel run
        prev = ch
    return nuclei


def text_stats(text: str) -> TextStats:
    """Count sentences, words and syllables; zeros for empty input.

    Only sentences containing at least one word token are counted, so
    word_count >= sentence_count and syllable_count >= word_count.
    """
    if not text.strip():
        return TextStats(0, 0, 0)
    sentence_count = 0
    word_count = 0
    syllable_count = 0
    for sentence in segment_sentences(text):
        words = tokenize_words(sentence)
        if not words:
            continue
        sentence_count += 1
        word_count += len(words)
        syllable_count += sum(map(count_syllables, words))
    return TextStats(sentence_count, word_count, syllable_count)


def fh_from_counts(sentences: int, words: int, syllables: int) -> FhBreakdown:
    """Readability breakdown from raw counts (words and sentences > 0)."""
    p = 100.0 * syllables / words
    f = words / sentences
    fh = FH_INTERCEPT - FH_SYLLABLE_WEIGHT * p - FH_SENTENCE_WEIGHT * f
    return FhBreakdown(p, f, fh)


def fh_index(text: str) -> FhBreakdown:
    """Readability index of a text; higher means easier to read.

    Raises NoWordsError when the text has no word tokens, blank text
    included. The value is not clamped; very short texts can
    legitimately exceed 100.
    """
    stats = text_stats(text)
    if stats.word_count == 0:
        raise NoWordsError("text has no word tokens")
    return fh_from_counts(
        stats.sentence_count, stats.word_count, stats.syllable_count
    )
