import json
import random
import re
import types
from pathlib import Path

import pytest

import apec
from apec.corpus import Document
from apec.errors import ApecError, NoWordsError, ProviderUnavailableError
from apec.generation import REFINE, GenerationRequest, ScriptedChatProvider
from apec.refine import (
    TRACE_SCHEMA_VERSION,
    ApecConfig,
    ApecTrace,
    CycleRecord,
    ensemble_select,
    run_apec,
    score_candidate,
    trace_from_dict,
    trace_to_dict,
)
from apec.retrieval import build_index
from apec.similarity import HashEmbeddingProvider, combined_score

from conftest import MiscountingEmbedder, apec_response, planted_pair_provider

PAIRS = [
    ("El sol brilla mucho hoy.", "Hoy brilla el sol."),
    ("La casa verde tiene jardín.", "La casa tiene jardín."),
    ("Un tren cruza la ciudad.", "Un tren pasa por la ciudad."),
]

INDEX = build_index(PAIRS)

DOC = Document(id="d1", source="Texto.", task="PL")


def scripted(*corrections: str) -> ScriptedChatProvider:
    return ScriptedChatProvider(
        [{"match": "", "response": apec_response(c)} for c in corrections]
    )


def replay_accepts(trace: ApecTrace) -> list[bool]:
    """Recompute accept flags from the recorded scores."""
    best = trace.initial_score
    flags = []
    for record in trace.records:
        accepted = (not record.parse_failed) and record.score > best
        flags.append(accepted)
        if accepted:
            best = record.score
    return flags


class TestScoreCandidate:
    def test_identity_embedding(self, hash_embedder):
        fh, emb, score = score_candidate("Sol.", "Sol.", hash_embedder)
        assert fh == pytest.approx(145.82)
        assert emb == pytest.approx(1.0)
        assert score == pytest.approx((145.82 + 100.0) / 2)

    def test_planted_cosine(self):
        provider = planted_pair_provider("fuente", {"Hola.": 0.8711})
        fh, emb, score = score_candidate("fuente", "Hola.", provider)
        assert fh == pytest.approx(85.82)
        assert emb == pytest.approx(0.8711)
        assert score == pytest.approx((85.82 + 87.11) / 2)

    def test_empty_candidate(self, hash_embedder):
        with pytest.raises(NoWordsError):
            score_candidate("fuente", "   ", hash_embedder)

    def test_wordless_candidate(self, hash_embedder):
        with pytest.raises(NoWordsError):
            score_candidate("fuente", "!!! ???", hash_embedder)


class TestApecConfig:
    def test_defaults(self):
        config = ApecConfig()
        assert config.cycles == 5
        assert config.demo_count == 5
        assert (config.retries, config.backoff) == (3, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cycles": 0},
            {"demo_count": -1},
            {"retries": -1},
            {"backoff": -0.1},
            {"backoff": float("nan")},
            {"backoff": float("inf")},
            {"cycles": float("nan")},
            {"demo_count": float("nan")},
            {"retries": float("nan")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ApecConfig(**kwargs)


class TestRunApec:
    def trace(self):
        # cycle 4 ("Seis.") shares the exact fh and cosine of cycle 3, so
        # its score is float-identical and the strict gate must reject it
        provider = scripted("Uno.", "Dos.", "Tres.", "Seis.", "Cinco.")
        embedder = planted_pair_provider(
            "Texto.",
            {
                "Sol.": -0.3582,
                "Uno.": 0.3418,
                "Dos.": -0.2982,
                "Tres.": -0.1982,
                "Seis.": -0.1982,
                "Cinco.": 0.3618,
            },
        )
        return run_apec(DOC, "Sol.", INDEX, provider, embedder, stream="greedy")

    def test_hand_trace(self):
        trace = self.trace()
        assert trace.doc_id == "d1"
        assert trace.stream == "greedy"
        assert trace.initial == "Sol."
        assert trace.initial_score == pytest.approx(55.0)
        assert [r.cycle for r in trace.records] == [1, 2, 3, 4, 5]
        assert [r.candidate for r in trace.records] == [
            "Uno.",
            "Dos.",
            "Tres.",
            "Seis.",
            "Cinco.",
        ]
        assert [r.score for r in trace.records] == pytest.approx(
            [60.0, 58.0, 63.0, 63.0, 61.0]
        )
        assert [r.accepted for r in trace.records] == [True, False, True, False, False]
        assert not any(r.parse_failed for r in trace.records)
        assert trace.final == "Tres."
        assert trace.final_score == pytest.approx(63.0)
        assert trace.incomplete is False

    def test_equal_score_is_rejected(self):
        # cycle 4 matches the incumbent score exactly and must not replace it
        trace = self.trace()
        assert trace.records[3].score == pytest.approx(trace.records[2].score)
        assert trace.records[3].accepted is False

    def test_accept_flags_replay(self):
        trace = self.trace()
        assert [r.accepted for r in trace.records] == replay_accepts(trace)

    def test_final_is_best_accepted(self):
        trace = self.trace()
        accepted = [r for r in trace.records if r.accepted]
        assert trace.final == accepted[-1].candidate
        assert trace.final_score == max(
            [trace.initial_score] + [r.score for r in trace.records if r.accepted]
        )

    def test_stagnating_provider_never_accepts(self, hash_embedder):
        class ReflectingProvider:
            """Re-emits the adaptation under review as the correction."""

            provider_id = "reflect"

            def complete(self, request: GenerationRequest) -> str:
                body = request.last_user_content()
                current = body.split("# Adaptación\n", 1)[1]
                return apec_response(current)

        trace = run_apec(
            DOC, "El texto claro.", INDEX, ReflectingProvider(), hash_embedder
        )
        assert len(trace.records) == 5
        assert all(r.candidate == "El texto claro." for r in trace.records)
        assert not any(r.accepted for r in trace.records)
        assert trace.final == "El texto claro."
        assert trace.final_score == trace.initial_score

    def test_unparseable_responses_consume_cycles(self, hash_embedder):
        provider = ScriptedChatProvider(
            [{"match": "", "response": "sin encabezado"}] * 5
        )
        trace = run_apec(DOC, "Sol.", INDEX, provider, hash_embedder)
        assert len(trace.records) == 5
        assert all(r.parse_failed for r in trace.records)
        assert all(r.candidate == "sin encabezado" for r in trace.records)
        assert all(r.score == combined_score(0.0, 0.0) for r in trace.records)
        assert trace.final == "Sol."
        assert trace.final_score == trace.initial_score

    def test_unscorable_correction_is_failed_cycle(self, hash_embedder):
        provider = scripted("!!!")
        config = ApecConfig(cycles=1)
        trace = run_apec(DOC, "Sol.", INDEX, provider, hash_embedder, config=config)
        assert trace.records[0].parse_failed is True
        assert trace.records[0].candidate == "!!!"
        assert trace.final == "Sol."

    def test_blank_response_is_failed_cycle(self, hash_embedder):
        provider = ScriptedChatProvider([{"match": "", "response": "  "}])
        config = ApecConfig(cycles=1)
        trace = run_apec(DOC, "Sol.", INDEX, provider, hash_embedder, config=config)
        assert trace.records[0].parse_failed is True
        assert trace.records[0].candidate == ""

    def test_provider_exhaustion_marks_incomplete(self, hash_embedder):
        provider = scripted("Uno.", "Dos.")
        trace = run_apec(DOC, "Sol.", INDEX, provider, hash_embedder)
        assert trace.incomplete is True
        assert len(trace.records) == 2
        assert trace.doc_id == "d1"

    def test_empty_initial(self, hash_embedder):
        with pytest.raises(ApecError, match="initial adaptation is empty"):
            run_apec(DOC, "  ", INDEX, scripted("Uno."), hash_embedder)

    def test_cycle_budget_respected(self, hash_embedder):
        provider = scripted("Uno.", "Dos.", "Tres.")
        config = ApecConfig(cycles=3)
        trace = run_apec(DOC, "Sol.", INDEX, provider, hash_embedder, config=config)
        assert len(trace.records) == 3
        with pytest.raises(ProviderUnavailableError):  # one response a cycle: all are spent
            provider.complete(GenerationRequest(system_prompt="", messages=(("user", "x"),)))

    def test_demos_fixed_across_cycles(self, hash_embedder):
        seen = []

        class RecordingProvider:
            provider_id = "recording"

            def complete(self, request):
                seen.append(request)
                return apec_response("Respuesta fija.")

        config = ApecConfig(cycles=3, demo_count=2)
        run_apec(DOC, "Sol.", INDEX, RecordingProvider(), hash_embedder, config=config)
        assert len(seen) == 3
        assert all(len(r.messages) == 5 for r in seen)
        first_demo_turns = seen[0].messages[:-1]
        assert all(r.messages[:-1] == first_demo_turns for r in seen)

    def test_demo_count_zero_skips_retrieval(self, hash_embedder):
        seen = []

        class RecordingProvider:
            provider_id = "recording"

            def complete(self, request):
                seen.append(request)
                return apec_response("Respuesta fija.")

        config = ApecConfig(cycles=2, demo_count=0)
        run_apec(DOC, "Sol.", INDEX, RecordingProvider(), hash_embedder, config=config)
        assert all(len(r.messages) == 1 for r in seen)

    def test_every_request_uses_refine_decoding(self, hash_embedder):
        seen = []

        class RecordingProvider:
            provider_id = "recording"

            def complete(self, request):
                seen.append(request)
                return apec_response("Respuesta fija.")

        config = ApecConfig(cycles=3)
        run_apec(DOC, "Sol.", INDEX, RecordingProvider(), hash_embedder, config=config)
        assert len(seen) == 3
        assert all(request.decoding == REFINE for request in seen)


class RecordingEmbedder(HashEmbeddingProvider):
    """Hash vectors; each `embed` call's texts are recorded in `calls`."""

    def __init__(self):
        super().__init__(8)
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return super().embed(texts)


class TestEmbeddingPerDocument:
    def test_source_and_each_distinct_candidate_embedded_once(self):
        embedder = RecordingEmbedder()
        provider = scripted("Uno.", "Dos.", "Uno.", "Sol.", "Dos.")
        trace = run_apec(DOC, "Sol.", INDEX, provider, embedder)
        assert len(trace.records) == 5
        assert embedder.calls == [["Texto.", "Sol."], ["Uno."], ["Dos."]]

    def test_cache_ends_with_its_document(self):
        """A second document sends its own source, and a candidate the
        first document already sent, again."""
        embedder = RecordingEmbedder()
        other = Document(id="d2", source="Otro texto.", task="PL")
        for doc in (DOC, other):
            run_apec(doc, "Sol.", INDEX, scripted("Uno."), embedder, config=ApecConfig(cycles=1))
        assert embedder.calls == [["Texto.", "Sol."], ["Uno."], ["Otro texto.", "Sol."], ["Uno."]]

    @pytest.mark.parametrize("change, count", [(-1, 1), (1, 3)])
    def test_wrong_vector_count(self, change, count):
        with pytest.raises(ApecError, match=f"embedding provider returned {count} vectors for 2 texts"):
            run_apec(DOC, "Sol.", INDEX, scripted("Uno."), MiscountingEmbedder(change))


def make_trace(doc_id: str, stream: str, final: str, final_score: float) -> ApecTrace:
    return ApecTrace(
        doc_id=doc_id,
        source="fuente",
        initial="inicial",
        initial_score=0.0,
        records=(),
        final=final,
        final_score=final_score,
        stream=stream,
    )


class TestEnsembleSelect:
    def test_argmax(self):
        traces = [
            make_trace("d", "a", "texto a", 10.0),
            make_trace("d", "b", "texto b", 30.0),
            make_trace("d", "c", "texto c", 20.0),
        ]
        choice = ensemble_select(traces)
        assert choice == traces[1]

    def test_tie_uses_priority(self):
        traces = [
            make_trace("d", "a", "texto a", 30.0),
            make_trace("d", "b", "texto b", 30.0),
        ]
        assert ensemble_select(traces, priority=["b", "a"]).stream == "b"
        assert ensemble_select(traces, priority=["a", "b"]).stream == "a"

    def test_tie_without_priority_keeps_input_order(self):
        traces = [
            make_trace("d", "x", "texto x", 30.0),
            make_trace("d", "y", "texto y", 30.0),
        ]
        assert ensemble_select(traces).stream == "x"

    def test_listed_stream_beats_unlisted_on_tie(self):
        traces = [
            make_trace("d", "unlisted", "u", 30.0),
            make_trace("d", "listed", "l", 30.0),
        ]
        assert ensemble_select(traces, priority=["listed"]).stream == "listed"

    def test_priority_irrelevant_when_scores_differ(self):
        traces = [
            make_trace("d", "a", "texto a", 40.0),
            make_trace("d", "b", "texto b", 30.0),
        ]
        assert ensemble_select(traces, priority=["b"]).stream == "a"

    def test_single_stream(self):
        traces = [make_trace("d", "solo", "texto", 5.0)]
        assert ensemble_select(traces).stream == "solo"

    def test_empty(self):
        with pytest.raises(ApecError, match="no candidate streams for ensemble selection"):
            ensemble_select([])

    def test_randomized_argmax_property(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(1, 6)
            traces = [
                make_trace("d", f"s{i}", f"t{i}", rng.uniform(0.0, 100.0))
                for i in range(n)
            ]
            choice = ensemble_select(traces)
            assert choice.final_score == max(t.final_score for t in traces)


CYCLE = {"cycle": 1, "candidate": "Uno.", "fh": 85.8, "emb_sim": 0.3, "score": 60.0,
         "accepted": True}
TRACE_PAYLOAD = {
    "schema_version": TRACE_SCHEMA_VERSION, "doc_id": "d9", "source": "fuente",
    "initial": "inicial", "initial_score": 55.0, "records": [CYCLE], "final": "Uno.",
    "final_score": 60.0,
}


class TestTraceSerialization:
    def test_round_trip(self):
        trace = ApecTrace(
            doc_id="d9",
            source="fuente",
            initial="inicial",
            initial_score=55.0,
            records=(
                CycleRecord(
                    cycle=1,
                    candidate="Uno.",
                    fh=85.82,
                    emb_sim=0.34,
                    score=60.0,
                    accepted=True,
                ),
                CycleRecord(
                    cycle=2,
                    candidate="",
                    fh=0.0,
                    emb_sim=0.0,
                    score=0.0,
                    accepted=False,
                    parse_failed=True,
                ),
            ),
            final="Uno.",
            final_score=60.0,
            stream="greedy",
            incomplete=True,
        )
        payload = trace_to_dict(trace)
        assert payload["schema_version"] == TRACE_SCHEMA_VERSION
        restored = trace_from_dict(json.loads(json.dumps(payload)))
        assert restored == trace

    def test_schema_guard(self):
        with pytest.raises(ValueError):
            trace_from_dict({"schema_version": 99, "records": []})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"final_score": float("inf")}, "final_score must be finite, got inf"),
            ({"records": None}, "malformed trace: KeyError: 'records'"),
            ({"final": None}, "missing 1 required positional argument: 'final'"),
            ({"records": 5}, "malformed trace: TypeError"),
            ({"records": [5]}, "argument after ** must be a mapping"),
            ({"records": [{"cycle": 1}]}, "missing 5 required positional arguments"),
            ({"records": [{**CYCLE, "extra": 1}]}, "unexpected keyword argument 'extra'"),
            ({"records": [{**CYCLE, "score": "x"}]}, "score must be float, got 'x'"),
            ({"records": [{**CYCLE, "accepted": 1}]}, "accepted must be bool, got 1"),
            ({"final_score": "x"}, "final_score must be float, got 'x'"),
            ({"final_score": True}, "final_score must be float, got True"),
            ({"doc_id": ["a"]}, "doc_id must be str, got ['a']"),
        ],
    )
    def test_malformed_payload(self, payload, message):
        if isinstance(payload, dict):
            payload = {**TRACE_PAYLOAD, **payload}
            payload = {key: value for key, value in payload.items() if value is not None}
        with pytest.raises(ValueError) as exc_info:
            trace_from_dict(payload)
        assert message in str(exc_info.value)

    def test_integer_score_and_unknown_key_accepted(self):
        trace = trace_from_dict({**TRACE_PAYLOAD, "final_score": 7, "note": "x"})
        assert trace.final_score == 7


def readme_library_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_imports():
    """The `from apec import (...)` block in README's Library section runs."""
    block = readme_library_block()
    assert block.startswith("from apec import (")
    exec(block, {})


def test_package_exports_are_the_readme_names():
    """`apec` exports exactly the names of README's Library block, besides
    its submodules and `__version__`, so the two cannot drift apart."""
    imported = re.sub(r"#.*", "", readme_library_block().split("(", 1)[1].split(")", 1)[0])
    exported = {
        name
        for name, value in vars(apec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(re.findall(r"\w+", imported))
