"""Exception types shared across the pipeline, and the provider transport.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them onto exit codes. `with_retries` is the retry
policy and `post_json` the one HTTP request that both HTTP providers go
through.
"""

import http.client
import json
import logging
import time
import urllib.error
import urllib.parse
import urllib.request

logger = logging.getLogger(__name__)


class ApecError(Exception):
    """Base class for all pipeline errors."""


class EmptyTextError(ApecError):
    """Input text is empty or whitespace-only."""


class EmptyTokenError(ApecError):
    """A word token was empty."""


class NoWordsError(ApecError):
    """Text contains no word tokens (punctuation-only input)."""


class DimensionMismatchError(ApecError):
    """Dense vectors of unequal length."""


class ProviderUnavailableError(ApecError):
    """A model provider could not be reached after retries."""


class TransientProviderError(ApecError):
    """A single provider attempt failed in a retryable way."""


class ResponseEmptyError(ApecError):
    """The provider returned an empty completion."""


class EmptyCorpusError(ApecError):
    """No documents given where at least one is required."""


class KTooLargeError(ApecError):
    """Requested more samples than the corpus holds."""


class EmptySourceError(ApecError):
    """Source text has no tokens, so a length ratio is undefined."""


class UnknownTaskError(ApecError):
    """Task tag is neither PL nor ER."""


class EmptyAdaptationError(ApecError):
    """An adaptation string was empty where content is required."""


class MissingCorrectionError(ApecError):
    """A revision response has no usable correction section."""


class EmptyCandidateError(ApecError):
    """Candidate adaptation is empty, so it cannot be scored."""


class NoCandidatesError(ApecError):
    """Ensemble selection got no candidate streams."""


class CorpusParseError(ApecError):
    """A corpus file line/row could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class DuplicateIdError(CorpusParseError):
    """A document id occurred twice in one corpus file."""


class SplitSpecError(ApecError):
    """Train/dev split parameters are inconsistent with the corpus."""


class MissingReferencesError(ApecError):
    """Reference adaptations required but absent."""


class UnknownDocIdError(ApecError):
    """An output references a document id not present in the corpus."""


class ConfigError(ApecError):
    """Run configuration is invalid or unreadable."""


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
    host and a valid port, and `timeout` is > 0 seconds; else ConfigError."""
    try:
        parts = urllib.parse.urlsplit(endpoint)
        parts.port  # raises ValueError on a malformed port
    except ValueError as exc:
        raise ConfigError(f"endpoint {endpoint!r} is not a valid URL: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"endpoint {endpoint!r} must be an http:// or https:// URL with a host")
    if " " in endpoint or not (endpoint.isascii() and endpoint.isprintable()):
        raise ConfigError(f"endpoint {endpoint!r} must percent-encode spaces and non-ASCII")
    if not timeout > 0:
        raise ConfigError(f"timeout must be > 0, got {timeout}")
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
