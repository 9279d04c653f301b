import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from apec.errors import (
    ApecError,
    ProviderUnavailableError,
    TransientProviderError,
    post_json,
)
from apec.generation import HttpChatProvider
from apec.similarity import HttpEmbeddingProvider

from conftest import Reply

SRC = Path(__file__).resolve().parent.parent / "src"


def post(url, timeout=5.0):
    return post_json(url, {"input": "x"}, "", timeout, "test endpoint")


class TestPostJson:
    def test_returns_decoded_body(self, stub_server):
        stub_server.script.append(Reply(body={"ok": ["sí"]}))
        assert post(stub_server.url + "/v1") == {"ok": ["sí"]}
        assert stub_server.received[0].json == {"input": "x"}

    def test_refused_port_is_transient(self):
        with socket.socket() as held:  # bound but not listening: connections are refused
            held.bind(("127.0.0.1", 0))
            port = held.getsockname()[1]
            with pytest.raises(TransientProviderError, match="test endpoint request failed"):
                post(f"http://127.0.0.1:{port}/v1")

    def test_read_timeout_is_transient(self, stub_server):
        stub_server.script.append(Reply(body={}, delay=0.3))
        with pytest.raises(TransientProviderError, match="timed out"):
            post(stub_server.url, timeout=0.05)

    def test_cut_off_body_is_transient(self, stub_server):
        stub_server.script.append(Reply(body={"data": "x" * 1000}, cut=True))
        with pytest.raises(TransientProviderError, match="IncompleteRead"):
            post(stub_server.url)

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_busy_status_is_transient(self, stub_server, status):
        stub_server.script.append(Reply(status, b"busy"))
        with pytest.raises(TransientProviderError, match=f"returned HTTP {status}"):
            post(stub_server.url)

    @pytest.mark.parametrize("status", [201, 204, 401, 404, 422])
    def test_other_status_is_fatal(self, stub_server, status):
        stub_server.script.append(Reply(status, {}))
        with pytest.raises(ProviderUnavailableError, match=f"returned HTTP {status}"):
            post(stub_server.url)

    @pytest.mark.parametrize("body", [b"<html>busy</html>", b"", b"\xff\xfe{"])
    def test_non_json_body_is_fatal(self, stub_server, body):
        stub_server.script.append(Reply(body=body))
        with pytest.raises(ProviderUnavailableError, match="not JSON"):
            post(stub_server.url)


class TestTransportCheck:
    @pytest.mark.parametrize(
        "endpoint",
        [
            "llm/v1", "ftp://x/y", "file:///etc/hostname", "http://", "data:,x", "http://h:port/",
            # urllib sends neither a non-ASCII nor a space-holding request line
            "http://h/ruta/año", "http://h/a b", "http://a b/v1", "http://h/v1\t", "http://h/?q=ñ",
        ],
    )
    @pytest.mark.parametrize("provider", [HttpChatProvider, HttpEmbeddingProvider])
    def test_rejected(self, provider, endpoint):
        with pytest.raises(ApecError, match="^endpoint "):
            provider(endpoint, "m")

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf"), 1e10])
    @pytest.mark.parametrize("provider", [HttpChatProvider, HttpEmbeddingProvider])
    def test_timeout_rejected(self, provider, timeout):
        with pytest.raises(ApecError, match="^timeout must be > 0"):
            provider("http://llm/v1", "m", timeout=timeout)

    @pytest.mark.parametrize(
        "endpoint", ["http://llm/v1/chat", "https://llm.example:8443/v1", "HTTP://[::1]:80/"]
    )
    @pytest.mark.parametrize("provider", [HttpChatProvider, HttpEmbeddingProvider])
    def test_accepted(self, provider, endpoint):
        assert provider(endpoint, "m").endpoint == endpoint


def test_cli_imports_no_third_party_http_stack():
    code = (
        "import sys\n"
        "import apec.cli\n"
        "apec.cli.main(['--help'])\n"
        "banned = ('requests', 'urllib3', 'charset_normalizer', 'idna', 'certifi')\n"
        "print('LOADED', sorted(m for m in sys.modules if m.split('.')[0] in banned))\n"
    )
    # -S: no site-packages, so neither an installed package nor a .pth
    # startup hook can be imported
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "usage: apec" in done.stdout
    assert done.stdout.splitlines()[-1] == "LOADED []"
