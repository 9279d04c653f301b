"""Exception types shared across the pipeline, and the provider transport.

A subclass of ApecError exists only where some code catches it by name;
every other failure is a plain ApecError whose message says what is
wrong, naming the file and line when an input file is at fault. The CLI
maps them onto exit codes. `with_retries` is the retry policy and
`post_json` the one HTTP request that both HTTP providers go through.
"""

import http.client
import json
import logging
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

logger = logging.getLogger(__name__)


class ApecError(Exception):
    """Base class for all pipeline errors."""


class EmptyTextError(ApecError):
    """Input text is empty or whitespace-only."""


class NoWordsError(ApecError):
    """Text contains no word tokens (punctuation-only input)."""


class ProviderUnavailableError(ApecError):
    """A model provider could not be reached after retries."""


class TransientProviderError(ApecError):
    """A single provider attempt failed in a retryable way."""


class ResponseEmptyError(ApecError):
    """The provider returned an empty completion."""


class MissingCorrectionError(ApecError):
    """A revision response has no usable correction section."""


DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.5
DEFAULT_TIMEOUT = 120.0


def with_retries(attempt, retries: int, backoff: float, what: str):
    """Return `attempt()`, retrying it while it raises TransientProviderError.

    `retries` counts re-attempts after the first try; the wait before
    re-attempt n (1, 2, ...) is `backoff * 2**(n - 1)`. Any other error
    propagates at once. Raises ProviderUnavailableError naming `what`
    once the attempts run out.
    """
    last_error = None
    for n in range(retries + 1):
        if n:
            time.sleep(backoff * 2 ** (n - 1))
        try:
            return attempt()
        except TransientProviderError as exc:
            last_error = exc
            logger.warning("%s: attempt %d of %d failed: %s", what, n + 1, retries + 1, exc)
    raise ProviderUnavailableError(f"{what} failed after {retries + 1} attempts: {last_error}")


def check_transport(endpoint: str, timeout: float) -> str:
    """`endpoint` if it is a printable ASCII http:// or https:// URL with a
    host and a valid port, and `timeout` is > 0 seconds and no more than
    `threading.TIMEOUT_MAX`; else ApecError."""
    try:
        parts = urllib.parse.urlsplit(endpoint)
        parts.port  # raises ValueError on a malformed port
    except ValueError as exc:
        raise ApecError(f"endpoint {endpoint!r} is not a valid URL: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ApecError(f"endpoint {endpoint!r} must be an http:// or https:// URL with a host")
    if " " in endpoint or not (endpoint.isascii() and endpoint.isprintable()):
        raise ApecError(f"endpoint {endpoint!r} must percent-encode spaces and non-ASCII")
    if not 0 < timeout <= threading.TIMEOUT_MAX:  # socket.settimeout accepts up to this
        raise ApecError(f"timeout must be > 0 and <= {threading.TIMEOUT_MAX:.0f}, got {timeout}")
    return endpoint


def post_json(endpoint: str, payload, api_key: str, timeout: float, what: str):
    """POST `payload` as JSON once and return the decoded body of a 200 reply.

    Sends `Authorization: Bearer` only when `api_key` is set, over a new
    connection per call. A connection error, timeout, cut-off body, 429
    or 5xx raises TransientProviderError; any other status, or a body
    that is not JSON, raises ProviderUnavailableError. `what` names the
    endpoint in messages.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        endpoint, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:  # holds the response; close it
            status = exc.code
    except (OSError, http.client.HTTPException) as exc:
        raise TransientProviderError(f"{what} request failed: {exc}") from exc
    if status == 429 or status >= 500:
        raise TransientProviderError(f"{what} returned HTTP {status}")
    if status != 200:
        raise ProviderUnavailableError(f"{what} returned HTTP {status}")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise ProviderUnavailableError(f"{what} returned a body that is not JSON: {exc}") from exc
