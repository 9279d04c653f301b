import json
from pathlib import Path

import pytest

from apec.errors import (
    EmptyAdaptationError,
    MissingCorrectionError,
    ProviderUnavailableError,
    ResponseEmptyError,
    TransientProviderError,
    UnknownTaskError,
)
from apec.generation import (
    DECODING_PROFILES,
    GREEDY,
    INITIAL_SAMPLED,
    REFINE,
    DecodingParams,
    EchoChatProvider,
    GenerationRequest,
    HttpChatProvider,
    ScriptedChatProvider,
    generate_text,
    parse_apec_response,
    render_apec_prompt,
    render_initial_prompt,
)
from apec.retrieval import Demonstration
from apec.similarity import HttpEmbeddingProvider

from conftest import Reply, apec_response

DATA = Path(__file__).parent / "data"


def golden(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


class TestDecodingParams:
    def test_profiles(self):
        assert GREEDY.mode == "greedy"
        assert GREEDY.temperature == 0.0
        assert (INITIAL_SAMPLED.temperature, INITIAL_SAMPLED.top_k, INITIAL_SAMPLED.top_p) == (0.3, 40, 0.95)
        assert (REFINE.temperature, REFINE.top_k, REFINE.top_p) == (0.8, 50, 1.0)
        assert GREEDY.max_new_tokens == 2048
        assert DECODING_PROFILES == {
            "greedy": GREEDY,
            "initial-sampled": INITIAL_SAMPLED,
            "refine": REFINE,
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "beam"},
            {"max_new_tokens": 0},
            {"mode": "sampled", "temperature": 0.0},
            {"mode": "sampled", "temperature": 0.5, "top_p": 0.0},
            {"mode": "sampled", "temperature": 0.5, "top_p": 1.5},
            {"mode": "sampled", "temperature": 0.5, "top_k": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DecodingParams(**kwargs)


class TestGenerationRequest:
    def test_requires_messages(self):
        with pytest.raises(ValueError):
            GenerationRequest(system_prompt="", messages=())

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            GenerationRequest(system_prompt="", messages=(("system", "x"),))

    def test_rejects_repeated_role(self):
        with pytest.raises(ValueError):
            GenerationRequest(
                system_prompt="", messages=(("user", "a"), ("user", "b"))
            )

    def test_rejects_assistant_ending(self):
        with pytest.raises(ValueError):
            GenerationRequest(
                system_prompt="", messages=(("user", "a"), ("assistant", "b"))
            )

    def test_last_user_content(self):
        request = GenerationRequest(
            system_prompt="s",
            messages=(("user", "a"), ("assistant", "b"), ("user", "c")),
        )
        assert request.last_user_content() == "c"

    def test_flat_text_includes_system(self):
        request = GenerationRequest(system_prompt="reglas", messages=(("user", "hola"),))
        assert request.as_flat_text() == "[system]\nreglas\n\n[user]\nhola"

    def test_flat_text_omits_empty_system(self):
        request = GenerationRequest(system_prompt="", messages=(("user", "hola"),))
        assert request.as_flat_text() == "[user]\nhola"


class TestRenderInitial:
    def test_system_prompt_matches_golden(self):
        assert render_initial_prompt("PL", "Texto.").system_prompt == golden(
            "initial_prompt_pl.txt"
        )
        assert render_initial_prompt("ER", "Texto.").system_prompt == golden(
            "initial_prompt_er.txt"
        )

    def test_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            render_initial_prompt("XX", "Texto.")

    def test_zero_shot_shape(self):
        request = render_initial_prompt("PL", "El texto original.")
        assert request.messages == (("user", "El texto original."),)
        assert request.decoding is GREEDY

    def test_demos_become_turn_pairs_in_rank_order(self):
        demos = [
            Demonstration(source="s2", adaptation="a2", retrieval_score=0.5, rank=2),
            Demonstration(source="s1", adaptation="a1", retrieval_score=0.9, rank=1),
        ]
        request = render_initial_prompt("PL", "fuente", demos=demos)
        assert request.messages == (
            ("user", "s1"),
            ("assistant", "a1"),
            ("user", "s2"),
            ("assistant", "a2"),
            ("user", "fuente"),
        )


class TestRenderApec:
    def test_matches_filled_golden_template(self):
        source = "El texto original y largo."
        adaptation = "El texto corto."
        for task, name in (("PL", "review_template_pl.txt"), ("ER", "review_template_er.txt")):
            request = render_apec_prompt(task, source, adaptation)
            expected = golden(name).replace("{input}", source).replace(
                "{instance}", adaptation
            )
            assert request.last_user_content() == expected
            assert request.system_prompt == ""
            assert request.decoding is REFINE

    def test_source_and_adaptation_placement(self):
        request = render_apec_prompt("PL", "FUENTE-XYZ", "ADAPTADO-XYZ")
        body = request.last_user_content()
        assert "# Original\nFUENTE-XYZ" in body
        assert "# Adaptación\nADAPTADO-XYZ" in body

    def test_empty_adaptation(self):
        with pytest.raises(EmptyAdaptationError):
            render_apec_prompt("PL", "fuente", "   \n")

    def test_no_demos_single_message(self):
        request = render_apec_prompt("ER", "fuente", "adaptado")
        assert len(request.messages) == 1

    def test_demos_precede_template(self):
        demos = [Demonstration(source="s", adaptation="a", retrieval_score=1.0, rank=1)]
        request = render_apec_prompt("PL", "fuente", "adaptado", demos=demos)
        assert request.messages[0] == ("user", "s")
        assert request.messages[1] == ("assistant", "a")
        assert len(request.messages) == 3


class TestParseResponse:
    def test_three_sections(self):
        raw = apec_response("El texto corregido.")
        parsed = parse_apec_response(raw, "PL")
        assert parsed.correction == "El texto corregido."
        assert parsed.analysis == "La adaptación tiene frases largas."
        assert parsed.final_notes == "Sin comentarios adicionales."
        assert parsed.verdict is None

    def test_tolerant_header_variants(self):
        raw = "##   Análisis de la adaptación\nFrases largas.\n\n ## Corrección  \nCorto.\n\n###  Final\nNada."
        parsed = parse_apec_response(raw, "PL")
        assert parsed.correction == "Corto."
        assert parsed.analysis == "Frases largas."
        assert parsed.final_notes == "Nada."

    def test_missing_correction_header(self):
        with pytest.raises(MissingCorrectionError):
            parse_apec_response("# Análisis de la adaptación\nTexto.", "PL")

    def test_empty_correction_section(self):
        raw = "# Corrección\n\n# Final\nNada."
        with pytest.raises(MissingCorrectionError):
            parse_apec_response(raw, "PL")

    def test_no_final_header(self):
        raw = "# Corrección\nHasta el final del texto.\nSegunda línea."
        parsed = parse_apec_response(raw, "PL")
        assert parsed.correction == "Hasta el final del texto.\nSegunda línea."
        assert parsed.final_notes is None

    def test_correction_never_contains_final_header(self):
        raw = apec_response("Texto.", final="Notas.")
        parsed = parse_apec_response(raw, "ER")
        assert "# Final" not in parsed.correction

    def test_analysis_without_header(self):
        raw = "Comentario suelto.\n\n# Corrección\nTexto."
        parsed = parse_apec_response(raw, "PL")
        assert parsed.analysis == "Comentario suelto."

    def test_er_verdict_detection(self):
        raw = apec_response("Texto.", analysis="Veredicto: ADAPTACIÓN A CORREGIR.")
        assert parse_apec_response(raw, "ER").verdict == "fixable"
        raw = apec_response("Texto.", analysis="ADAPTACIÓN CORRECTA, sin cambios.")
        assert parse_apec_response(raw, "ER").verdict == "correct"
        raw = apec_response("Texto.", analysis="Hay ERRORES CRÍTICOS aquí.")
        assert parse_apec_response(raw, "ER").verdict == "critical"

    def test_er_verdict_first_marker_wins(self):
        analysis = "ERRORES CRÍTICOS y luego ADAPTACIÓN CORRECTA."
        raw = apec_response("Texto.", analysis=analysis)
        assert parse_apec_response(raw, "ER").verdict == "critical"

    def test_er_verdict_absent(self):
        raw = apec_response("Texto.", analysis="Sin marcador alguno.")
        assert parse_apec_response(raw, "ER").verdict is None

    def test_pl_ignores_verdict_markers(self):
        raw = apec_response("Texto.", analysis="ADAPTACIÓN CORRECTA.")
        assert parse_apec_response(raw, "PL").verdict is None

    def test_round_trip_with_render(self):
        # a parsed correction can seed the next revision request
        raw = apec_response("Texto nuevo y claro.")
        parsed = parse_apec_response(raw, "PL")
        request = render_apec_prompt("PL", "fuente", parsed.correction)
        assert "# Adaptación\nTexto nuevo y claro." in request.last_user_content()


class FlakyProvider:
    provider_id = "flaky"

    def __init__(self, failures: int, response: str = "ok"):
        self.failures = failures
        self.response = response
        self.attempts = 0

    def complete(self, request):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransientProviderError("overloaded")
        return self.response


REQUEST = GenerationRequest(system_prompt="", messages=(("user", "hola"),))


class TestGenerateText:
    def test_echo_contract(self):
        assert generate_text(EchoChatProvider(), REQUEST) == "hola"

    def test_retries_transient_failures(self):
        provider = FlakyProvider(failures=2)
        assert generate_text(provider, REQUEST, retries=3, backoff=0.0) == "ok"
        assert provider.attempts == 3

    def test_gives_up_after_retries(self):
        provider = FlakyProvider(failures=99)
        with pytest.raises(ProviderUnavailableError):
            generate_text(provider, REQUEST, retries=3, backoff=0.0)
        assert provider.attempts == 4

    def test_blank_completion(self):
        provider = FlakyProvider(failures=0, response="  \n ")
        with pytest.raises(ResponseEmptyError):
            generate_text(provider, REQUEST, backoff=0.0)


class TestScriptedProvider:
    def test_entry_validation(self):
        good = {"match": "a", "response": "b"}
        bad_entries = [
            {"match": "x"},
            5,
            ["x", "y"],
            "x",
            None,
            {"match": 5, "response": "x"},
            {"match": "x", "response": None},
        ]
        for entry in bad_entries:
            with pytest.raises(ValueError, match="fixture entry 1 must be an object"):
                ScriptedChatProvider([good, entry])

    def test_match_routing(self):
        provider = ScriptedChatProvider(
            [
                {"match": "perro", "response": "guau"},
                {"match": "gato", "response": "miau"},
            ]
        )
        gato = GenerationRequest(system_prompt="", messages=(("user", "el gato duerme"),))
        perro = GenerationRequest(system_prompt="", messages=(("user", "el perro corre"),))
        assert provider.complete(gato) == "miau"
        assert provider.complete(perro) == "guau"
        assert provider.remaining == 0

    def test_empty_match_consumed_in_order(self):
        provider = ScriptedChatProvider(
            [{"match": "", "response": "uno"}, {"match": "", "response": "dos"}]
        )
        assert provider.complete(REQUEST) == "uno"
        assert provider.complete(REQUEST) == "dos"

    def test_exhaustion(self):
        provider = ScriptedChatProvider([{"match": "", "response": "uno"}])
        provider.complete(REQUEST)
        with pytest.raises(ProviderUnavailableError):
            provider.complete(REQUEST)

    def test_no_matching_entry(self):
        provider = ScriptedChatProvider([{"match": "inexistente", "response": "x"}])
        with pytest.raises(ProviderUnavailableError):
            provider.complete(REQUEST)

    def test_from_path(self, tmp_path):
        fixture = tmp_path / "script.jsonl"
        lines = [
            json.dumps({"match": "hola", "response": "respuesta"}, ensure_ascii=False),
            "",
        ]
        fixture.write_text("\n".join(lines), encoding="utf-8")
        provider = ScriptedChatProvider.from_path(fixture)
        assert provider.remaining == 1
        assert provider.complete(REQUEST) == "respuesta"


def _chat_payload(content) -> dict:
    return {"choices": [{"message": {"content": content}}]}


class TestHttpChatProvider:
    def test_greedy_payload_shape(self, stub_server):
        stub_server.script.append(Reply(body=_chat_payload("salida")))
        provider = HttpChatProvider(stub_server.url + "/v1/chat", "modelo")
        request = GenerationRequest(
            system_prompt="reglas", messages=(("user", "hola"),), decoding=GREEDY
        )
        assert provider.complete(request) == "salida"
        assert stub_server.received[0].path == "/v1/chat"
        sent = stub_server.received[0].json
        assert sent["model"] == "modelo"
        assert sent["temperature"] == 0.0
        assert sent["top_p"] == 1.0
        assert sent["max_tokens"] == 2048
        assert "top_k" not in sent
        assert sent["messages"][0] == {"role": "system", "content": "reglas"}
        assert sent["messages"][1] == {"role": "user", "content": "hola"}

    def test_sampled_payload_includes_top_k(self, stub_server):
        stub_server.script.append(Reply(body=_chat_payload("x")))
        provider = HttpChatProvider(stub_server.url, "modelo")
        request = GenerationRequest(
            system_prompt="", messages=(("user", "hola"),), decoding=REFINE
        )
        provider.complete(request)
        sent = stub_server.received[0].json
        assert sent["temperature"] == 0.8
        assert sent["top_k"] == 50
        assert sent["top_p"] == 1.0
        assert sent["messages"][0]["role"] == "user"

    def test_api_key_header(self, stub_server):
        stub_server.script += [Reply(body=_chat_payload("x"))] * 2
        HttpChatProvider(stub_server.url, "m", api_key="secreto").complete(REQUEST)
        HttpChatProvider(stub_server.url, "m").complete(REQUEST)
        with_key, without_key = (sent.headers for sent in stub_server.received)
        assert with_key["Authorization"] == "Bearer secreto"
        assert "Authorization" not in without_key
        assert with_key["Content-Type"] == without_key["Content-Type"] == "application/json"

    def test_server_error_is_transient(self, stub_server):
        stub_server.script.append(Reply(503, b"busy"))
        provider = HttpChatProvider(stub_server.url, "m")
        with pytest.raises(TransientProviderError, match="chat endpoint returned HTTP 503"):
            provider.complete(REQUEST)

    def test_client_error_is_fatal(self, stub_server):
        stub_server.script.append(Reply(400, b"bad request"))
        provider = HttpChatProvider(stub_server.url, "m")
        with pytest.raises(ProviderUnavailableError, match="chat endpoint returned HTTP 400"):
            generate_text(provider, REQUEST, retries=2, backoff=0.0)
        assert len(stub_server.received) == 1

    def test_malformed_body_is_fatal(self, stub_server):
        stub_server.script.append(Reply(body={"choices": []}))
        provider = HttpChatProvider(stub_server.url, "m")
        with pytest.raises(ProviderUnavailableError, match="malformed chat response"):
            provider.complete(REQUEST)

    def test_null_content_is_empty_completion(self, stub_server):
        payload = {"choices": [{"message": {"role": "assistant", "content": None}}]}
        stub_server.script.append(Reply(body=payload))
        provider = HttpChatProvider(stub_server.url, "m")
        with pytest.raises(ResponseEmptyError):
            generate_text(provider, REQUEST, retries=2, backoff=0.0)
        assert len(stub_server.received) == 1

    @pytest.mark.parametrize("content", [42, ["a", "b"], {"text": "x"}, True])
    def test_non_string_content_is_malformed(self, stub_server, content):
        stub_server.script.append(Reply(body=_chat_payload(content)))
        provider = HttpChatProvider(stub_server.url, "m")
        with pytest.raises(ProviderUnavailableError, match="malformed chat response"):
            provider.complete(REQUEST)

    def test_retry_loop_integration(self, stub_server):
        stub_server.script += [Reply(429), Reply(body=_chat_payload("listo"))]
        provider = HttpChatProvider(stub_server.url, "m")
        assert generate_text(provider, REQUEST, retries=2, backoff=0.0) == "listo"
        assert len(stub_server.received) == 2


class TestSharedRetryPolicy:
    """Both HTTP providers retry through `with_retries`, on one schedule."""

    def test_chat_provider(self, stub_server, waits):
        stub_server.script += [Reply(503)] * 4
        provider = HttpChatProvider(stub_server.url, "m")
        with pytest.raises(
            ProviderUnavailableError,
            match="provider http:m failed after 4 attempts: chat endpoint returned HTTP 503",
        ):
            generate_text(provider, REQUEST, retries=3, backoff=0.5)
        assert waits == [0.5, 1.0, 2.0]
        assert len(stub_server.received) == 4

    def test_embedding_provider(self, stub_server, waits):
        stub_server.script += [Reply(503)] * 4
        provider = HttpEmbeddingProvider(stub_server.url, "m")
        with pytest.raises(
            ProviderUnavailableError,
            match=f"provider http:{stub_server.url}:m failed after 4 attempts: "
            "embedding endpoint returned HTTP 503",
        ):
            provider.embed(["x"])
        assert waits == [0.5, 1.0, 2.0]
        assert len(stub_server.received) == 4
