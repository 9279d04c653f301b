import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apec.errors import NoWordsError
from apec.textstats import (
    FH_INTERCEPT,
    FH_SENTENCE_WEIGHT,
    FH_SYLLABLE_WEIGHT,
    _ABBREVIATIONS,
    _CLOSERS,
    _TERMINALS,
    _ends_with_abbreviation,
    _scan_block,
    count_syllables,
    fh_from_counts,
    fh_index,
    segment_sentences,
    text_stats,
    tokenize_words,
)

# Hand-counted syllables; the implementation must match these, not the
# other way around.
SYLLABLE_ORACLE = {
    "sol": 1,
    "casa": 2,
    "país": 2,
    "ciudad": 2,
    "aéreo": 4,
    "hola": 2,
    "adiós": 2,
    "guerra": 2,
    "pingüino": 3,
    "quién": 1,
    "búho": 2,
    "rey": 1,
    "leíais": 3,
    "paella": 3,
    "canción": 2,
    "agua": 2,
    "buen": 1,
    "día": 2,
    "fría": 2,
    "vergüenza": 3,
    "y": 1,
    "cristal": 2,
    "Mariano": 3,
}


class TestTokenize:
    def test_basic_words(self):
        assert tokenize_words("La casa es verde.") == ["La", "casa", "es", "verde"]

    def test_digits_are_separate_tokens(self):
        assert tokenize_words("año 2024, capítulo 3") == ["año", "2024", "capítulo", "3"]

    def test_mixed_alphanumeric_splits(self):
        assert tokenize_words("covid19") == ["covid", "19"]

    def test_accents_kept(self):
        assert tokenize_words("¡Águila veloz!") == ["Águila", "veloz"]

    def test_punctuation_only(self):
        assert tokenize_words("... ¡¿?!") == []

    def test_underscore_not_a_word_char(self):
        assert tokenize_words("uno_dos") == ["uno", "dos"]


class TestSegmentation:
    def test_two_sentences(self):
        assert segment_sentences("Hola mundo. Adiós mundo.") == [
            "Hola mundo.",
            "Adiós mundo.",
        ]

    def test_exclamation_and_question(self):
        text = "¡Qué bien! ¿Vienes mañana? Claro que sí."
        assert segment_sentences(text) == [
            "¡Qué bien!",
            "¿Vienes mañana?",
            "Claro que sí.",
        ]

    def test_abbreviation_does_not_split(self):
        text = "El Sr. Pérez llegó tarde. Nadie dijo nada."
        assert segment_sentences(text) == [
            "El Sr. Pérez llegó tarde.",
            "Nadie dijo nada.",
        ]

    def test_more_abbreviations(self):
        text = "Véase el art. 12 de la ley. La Dra. Ruiz firmó."
        assert segment_sentences(text) == [
            "Véase el art. 12 de la ley.",
            "La Dra. Ruiz firmó.",
        ]

    def test_closing_quote_after_terminal(self):
        text = "Dijo «hola.» Luego se fue."
        assert segment_sentences(text) == ["Dijo «hola.»", "Luego se fue."]

    def test_ellipsis_character(self):
        assert segment_sentences("Espera… Ya llegó.") == ["Espera…", "Ya llegó."]

    def test_split_after_last_terminal_of_run(self):
        # the run '...' is never split internally; the break comes after it
        assert segment_sentences("No sé... quizás. Vale.") == [
            "No sé...",
            "quizás.",
            "Vale.",
        ]

    def test_blank_line_splits(self):
        assert segment_sentences("Primera línea\n\nSegunda línea") == [
            "Primera línea",
            "Segunda línea",
        ]

    def test_trailing_fragment_without_terminal(self):
        assert segment_sentences("Una frase. Y un resto") == [
            "Una frase.",
            "Y un resto",
        ]

    def test_wordless_fragment_merged(self):
        sentences = segment_sentences("Hola. !!! Adiós.")
        assert sentences == ["Hola. !!!", "Adiós."]

    def test_punctuation_only_text_survives(self):
        assert segment_sentences("...") == ["..."]

    def test_blank_text_has_no_sentences(self):
        assert segment_sentences("   \n\n ") == []

    @given(
        st.text(
            alphabet="abcdeíóúñ .!?…¡¿\n«»\"",
            min_size=1,
        ).filter(lambda t: t.strip())
    )
    @settings(max_examples=200)
    def test_non_whitespace_preserved(self, text):
        sentences = segment_sentences(text)
        flat = "".join("".join(s.split()) for s in sentences)
        assert flat == "".join(text.split())


def whole_prefix_ends_with_abbreviation(block: str, period_idx: int) -> bool:
    """The original abbreviation check, which searches the whole prefix
    before the period: the reference for the windowed search."""
    match = re.search(r"[^\W\d_]+$", block[:period_idx], re.UNICODE)
    if not match:
        return False
    return (match.group(0) + ".").lower() in _ABBREVIATIONS


class TestAbbreviationWindow:
    def test_agrees_with_whole_prefix_search(self):
        rng = random.Random(20261018)
        stems = [abbreviation[:-1] for abbreviation in sorted(_ABBREVIATIONS)]
        letters = "asrtdumvxñİß"
        outcomes = []
        for _ in range(300):
            text = "".join(
                "".join(rng.choices(letters, k=rng.choice([0, 0, 1, 2, 5, 9])))
                + rng.choice([str.lower, str.upper, str.title])(rng.choice(stems))
                + "."
                + rng.choice(["", " ", "\n", "7", "..", "» "])
                for _ in range(rng.randint(1, 12))
            )
            for i, ch in enumerate(text):
                if ch == ".":
                    expected = whole_prefix_ends_with_abbreviation(text, i)
                    assert _ends_with_abbreviation(text, i) == expected, (text, i)
                    outcomes.append(expected)
        assert True in outcomes and False in outcomes

    def test_long_paragraph_segments_in_linear_time(self):
        paragraph = " ".join(f"El Sr. Pérez firmó el documento {i}." for i in range(20_000))
        start = time.perf_counter()
        sentences = segment_sentences(paragraph)
        elapsed = time.perf_counter() - start
        assert len(sentences) == 20_000
        assert elapsed < 1.0, f"{elapsed:.2f} s"


def reference_scan_block(block: str) -> list[str]:
    """The original per-character sentence scanner: the reference for the
    regex scanner in `_scan_block`."""
    out = []
    start = 0
    n = len(block)
    for i, ch in enumerate(block):
        if ch not in _TERMINALS:
            continue
        if i + 1 < n and block[i + 1] in _TERMINALS:
            continue  # not the last terminal of its run
        j = i + 1
        while j < n and block[j] in _CLOSERS:
            j += 1
        if j < n and not block[j].isspace():
            continue
        single_period = ch == "." and (i == 0 or block[i - 1] not in _TERMINALS)
        if single_period and _ends_with_abbreviation(block, i):
            continue
        piece = block[start:j].strip()
        if piece:
            out.append(piece)
        start = j
    tail = block[start:].strip()
    if tail:
        out.append(tail)
    return out


# each kind of piece is drawn equally often, however many it has
SCANNER_PIECES = st.one_of(
    st.sampled_from(_TERMINALS),
    st.sampled_from(_CLOSERS),
    st.sampled_from(sorted(_ABBREVIATIONS) + [a[:-1] for a in sorted(_ABBREVIATIONS)]),
    st.sampled_from(["SR", "Etc", "casa", "x", "ñu", "Él", "aéreo", "7", "2024"]),
    st.sampled_from([" ", "  ", "\t", "\n", "\n\n", "\n \n"]),
)


class TestRegexScanner:
    @given(st.lists(SCANNER_PIECES, min_size=1, max_size=40).map("".join))
    @settings(max_examples=500)
    def test_same_splits_as_reference(self, text):
        block = text.strip()
        assert _scan_block(block) == reference_scan_block(block)

    @pytest.mark.parametrize(
        "block",
        ["Dijo «hola.» Luego se fue.", "¿Sí?) Vale", "No sé... quizás.", "El Sr. Pérez. Bien.",
         "Fin.\t¡Ya!", "etc.. Otro", "Hola.\n\nAdiós", "3. Paso"],
    )
    def test_examples_match_reference(self, block):
        assert _scan_block(block) == reference_scan_block(block)


class TestSyllables:
    @pytest.mark.parametrize("word,expected", sorted(SYLLABLE_ORACLE.items()))
    def test_oracle_words(self, word, expected):
        assert count_syllables(word) == expected

    def test_digits_one_syllable_each(self):
        assert count_syllables("2024") == 4
        assert count_syllables("7") == 1

    def test_cache_is_bounded(self):
        assert 0 < count_syllables.cache_info().maxsize < 10**6

    @pytest.mark.parametrize("word", sorted(SYLLABLE_ORACLE))
    def test_memo_matches_uncached_on_oracle(self, word):
        assert count_syllables(word) == count_syllables.__wrapped__(word)
        assert count_syllables(word) == count_syllables.__wrapped__(word)  # cached

    @given(st.text(alphabet="bcdfgqlmnprstyaeiouáéíóúüñ7", min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_memo_matches_uncached(self, word):
        for token in (word, word.upper(), word.title()):
            assert count_syllables(token) == count_syllables.__wrapped__(token)

    def test_consonant_only_token_counts_one(self):
        assert count_syllables("pst") == 1

    @given(st.text(alphabet="bcdfglmnprstaeiouáéíóúü", min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_at_least_one_syllable(self, word):
        assert count_syllables(word) >= 1

    @given(st.text(alphabet="aeo", min_size=1, max_size=8))
    def test_strong_vowel_runs_are_all_nuclei(self, word):
        assert count_syllables(word) == len(word)


class TestTextStats:
    def test_counts(self):
        stats = text_stats("El sol brilla. La casa es verde.")
        assert stats.sentence_count == 2
        assert stats.word_count == 7
        assert stats.syllable_count == 10

    def test_wordless_sentences_not_counted(self):
        with_noise = text_stats("Hola mundo. !!!")
        assert with_noise.sentence_count == 1
        assert with_noise.word_count == 2

    def test_empty_text_all_zero(self):
        assert text_stats("  ") == text_stats("")


class TestFhIndex:
    def test_single_monosyllable_word(self):
        breakdown = fh_index("Sol.")
        assert breakdown.p_syllables_per_100_words == 100.0
        assert breakdown.f_words_per_sentence == 1.0
        assert breakdown.fh == 145.82

    def test_single_bisyllable_word(self):
        breakdown = fh_index("Hola.")
        assert breakdown.fh == pytest.approx(85.82, abs=1e-9)
        assert breakdown.fh == FH_INTERCEPT - FH_SYLLABLE_WEIGHT * 200.0 - FH_SENTENCE_WEIGHT * 1.0

    def test_value_not_clamped_above_100(self):
        assert fh_index("Sol.").fh > 100.0

    def test_matches_fh_from_counts(self):
        text = "María lee un libro. El país es grande."
        stats = text_stats(text)
        assert fh_index(text) == fh_from_counts(
            stats.sentence_count, stats.word_count, stats.syllable_count
        )

    def test_empty_raises(self):
        with pytest.raises(NoWordsError):
            fh_index(" ")

    def test_no_words_raises(self):
        with pytest.raises(NoWordsError):
            fh_index("... !!! ...")

    @given(
        sentences=st.integers(min_value=1, max_value=50),
        words=st.integers(min_value=1, max_value=500),
        syllables=st.integers(min_value=1, max_value=1500),
    )
    def test_more_syllables_always_lower_fh(self, sentences, words, syllables):
        lower = fh_from_counts(sentences, words, syllables + 1).fh
        assert lower < fh_from_counts(sentences, words, syllables).fh

    @given(
        sentences=st.integers(min_value=1, max_value=50),
        words=st.integers(min_value=1, max_value=500),
        syllables=st.integers(min_value=1, max_value=1500),
    )
    def test_longer_sentences_always_lower_fh(self, sentences, words, syllables):
        base = fh_from_counts(sentences + 1, words, syllables).fh
        assert fh_from_counts(sentences, words, syllables).fh < base
