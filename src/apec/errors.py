"""Exception types shared across the pipeline.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them onto exit codes. `with_retries` is the retry
policy that both HTTP providers go through.
"""

import logging
import time

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
