"""Exception types shared across the pipeline, and the provider transport.

A subclass of ApecError exists only where some code raises it and some
code catches it by name; every other failure is a plain ApecError whose
message says what is wrong, naming the file and line when an input file
is at fault. The CLI maps them onto exit codes. `with_retries` is the
retry policy and `HttpTransport` the kept-alive connections that both
HTTP providers post through.
"""

import base64
import http.client
import json
import logging
import selectors
import ssl
import threading
import time
import urllib.parse
import urllib.request

from . import __version__

logger = logging.getLogger(__name__)


class ApecError(Exception):
    """Base class for all pipeline errors."""


class NoWordsError(ApecError):
    """Text contains no word tokens (blank or punctuation-only input)."""


class ProviderUnavailableError(ApecError):
    """A model provider could not be reached after retries."""


class TransientProviderError(ApecError):
    """A single provider attempt failed in a retryable way; `retry_after`
    is how many seconds the server asked to wait before the next one."""

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


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
    re-attempt n (1, 2, ...) is `backoff * 2**(n - 1)`, or the failed
    attempt's `retry_after` when that is longer. Any other error
    propagates at once. Raises ProviderUnavailableError naming `what`
    once the attempts run out.
    """
    last_error = None
    for n in range(retries + 1):
        if n:
            time.sleep(max(backoff * 2 ** (n - 1), last_error.retry_after))
        try:
            return attempt()
        except TransientProviderError as exc:
            last_error = exc
            logger.warning("%s: attempt %d of %d failed: %s", what, n + 1, retries + 1, exc)
    raise ProviderUnavailableError(f"{what} failed after {retries + 1} attempts: {last_error}")


def check_transport(endpoint: str, timeout: float) -> None:
    """Raise ApecError unless `endpoint` is a printable ASCII http:// or
    https:// URL with a host, a valid port and no user:password@ part, and
    `timeout` is > 0 seconds and no more than `threading.TIMEOUT_MAX`."""
    try:
        parts = urllib.parse.urlsplit(endpoint)
        parts.port  # raises ValueError on a malformed port
    except ValueError as exc:
        raise ApecError(f"endpoint {endpoint!r} is not a valid URL: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ApecError(f"endpoint {endpoint!r} must be an http:// or https:// URL with a host")
    if "@" in parts.netloc:  # not echoed: it may hold a password
        raise ApecError(
            "endpoint must not carry user:password@ credentials;"
            " set api_key (or LLM_API_KEY / EMB_API_KEY) instead"
        )
    if " " in endpoint or not (endpoint.isascii() and endpoint.isprintable()):
        raise ApecError(f"endpoint {endpoint!r} must percent-encode spaces and non-ASCII")
    if not 0 < timeout <= threading.TIMEOUT_MAX:  # socket.settimeout accepts up to this
        raise ApecError(f"timeout must be > 0 and <= {threading.TIMEOUT_MAX:.0f}, got {timeout}")


class HttpTransport:
    """Kept-alive HTTP/1.1 connections to one JSON endpoint.

    `post_json` takes an idle connection or opens one, and hands it back
    once the whole reply is read unless the reply closes it, so there are
    never more connections than concurrent callers; `close` closes the
    idle ones. Each request sends `Authorization: Bearer` only when
    `api_key` is set. The proxy is looked up once, the way urllib does:
    an http endpoint is reached through the proxy with an absolute-form
    target, an https one through a CONNECT tunnel. TLS uses
    `ssl.create_default_context()`. Redirects are not followed.
    """

    def __init__(self, endpoint: str, api_key: str | None, timeout: float):
        check_transport(endpoint, timeout)
        self._timeout = timeout
        parts = urllib.parse.urlsplit(endpoint)
        self._headers = {"Content-Type": "application/json", "User-Agent": f"apec/{__version__}"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._address = (parts.hostname, parts.port)
        self._tunnel = None
        tls = parts.scheme == "https"
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(parts.netloc):
            via = urllib.parse.urlsplit(proxy if "://" in proxy else f"{parts.scheme}://{proxy}")
            try:
                self._address = (via.hostname, via.port)
            except ValueError as exc:  # a malformed port
                raise ApecError(f"{parts.scheme} proxy {proxy!r} is not a URL: {exc}") from exc
            if not via.hostname:
                raise ApecError(f"{parts.scheme} proxy {proxy!r} has no host")
            auth = {}
            if via.username and via.password:
                user = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password)}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user.encode()).decode()
            if tls:
                self._tunnel = (parts.hostname, parts.port, auth)
            else:
                self._target = urllib.parse.urlunsplit(parts._replace(fragment=""))
                self._headers.update(auth)
                tls = via.scheme == "https"
        self._context = ssl.create_default_context() if tls else None
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def post_json(self, payload, what: str):
        """POST `payload` as JSON once and return the decoded body of a 200 reply.

        A connection error, timeout, cut-off body, 429 or 5xx raises
        TransientProviderError, carrying a 429's or 503's delta-seconds
        `Retry-After` up to the timeout; any other status, or a body that
        is not JSON, raises ProviderUnavailableError. `what` names the
        endpoint in messages.
        """
        data = json.dumps(payload).encode("utf-8")
        conn = self._take()
        reusable = False
        try:
            conn.request("POST", self._target, data, self._headers)
            response = conn.getresponse()
            body = response.read()
            reusable = not response.will_close
        except (OSError, http.client.HTTPException) as exc:
            raise TransientProviderError(f"{what} request failed: {exc}") from exc
        finally:
            if reusable:
                with self._lock:
                    self._idle.append(conn)
            else:
                conn.close()
        status = response.status
        if status == 429 or status >= 500:
            wait = 0.0
            if status in (429, 503):
                wait = _retry_after(response.getheader("Retry-After"), self._timeout)
            raise TransientProviderError(f"{what} returned HTTP {status}", wait)
        if status != 200:
            raise ProviderUnavailableError(f"{what} returned HTTP {status}")
        try:
            return json.loads(body)
        except ValueError as exc:
            raise ProviderUnavailableError(
                f"{what} returned a body that is not JSON: {exc}"
            ) from exc

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _take(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, else a new one."""
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                return self._connect()
            if not _readable(conn.sock):
                return conn
            conn.close()  # end of file or stray bytes: the server is done with it

    def _connect(self) -> http.client.HTTPConnection:
        if self._context:
            conn = http.client.HTTPSConnection(
                *self._address, timeout=self._timeout, context=self._context
            )
        else:
            conn = http.client.HTTPConnection(*self._address, timeout=self._timeout)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn


def _readable(sock) -> bool:
    """Whether `sock` has bytes or end of file waiting, without blocking."""
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


def _retry_after(value: str | None, limit: float) -> float:
    """A delta-seconds `Retry-After` value in seconds, at most `limit`; 0
    for none, an HTTP-date or anything malformed."""
    value = (value or "").strip()
    return min(float(value), limit) if value.isascii() and value.isdigit() else 0.0
