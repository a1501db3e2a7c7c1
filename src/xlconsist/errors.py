"""Exception types shared across the toolkit."""

from __future__ import annotations


class XlconsistError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # Exception's own reduce calls __init__ again with `args`, the
        # formatted message, which a subclass's __init__ does not take;
        # this one restores the message and attributes without calling it
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    """An unpickled XlconsistError: `args` and attributes as pickled."""
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class DatasetFormatError(XlconsistError):
    """A dataset file line could not be parsed or violates the schema."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.reason = message  # the message without its "line N: " prefix
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AlignmentError(XlconsistError):
    """A dataset violates its cross-language alignment invariants."""


class DimensionMismatchError(XlconsistError):
    """An embedding vector, fetched or cached, has an unexpected dimension."""


class CacheFormatError(XlconsistError, ValueError):
    """A vector cache file is not in the current format."""


class ReportFormatError(XlconsistError, ValueError):
    """A report JSON or pair-matrix CSV cannot be read."""


class InsufficientDataError(XlconsistError, ValueError):
    """Too few languages, items or matrix cells to compute a score."""


class ConfigFileError(XlconsistError):
    """A run config, template or paraphrase file cannot be read or has the
    wrong shape; the CLI exits 2 on it, as on a bad flag."""


class CacheMissError(XlconsistError):
    """A cache-only embedding run hit texts that are not in the cache."""

    def __init__(self, missing_keys: list[str]):
        self.missing_keys = missing_keys
        preview = ", ".join(missing_keys[:5])
        more = f" (+{len(missing_keys) - 5} more)" if len(missing_keys) > 5 else ""
        super().__init__(f"{len(missing_keys)} texts missing from cache: {preview}{more}")


class ProviderError(XlconsistError):
    """An embedding or completion endpoint failed after all retries."""


class AuthenticationError(ProviderError):
    """The endpoint rejected our credentials; retrying will not help."""


class MissingAnswersError(XlconsistError):
    """An AnswerSet does not cover the requested (language, item) slice."""

    def __init__(self, missing: list[tuple[str, str]]):
        self.missing = missing
        preview = ", ".join(f"{lang}/{item}" for lang, item in missing[:5])
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        super().__init__(f"{len(missing)} answers missing: {preview}{more}")


class LanguageMismatchError(XlconsistError):
    """Two artifacts that must share a language set do not."""


class ParaphraseMissingError(XlconsistError):
    """Prompt variant p3 was requested but no paraphrase exists for an item."""


class TemplateMissingError(XlconsistError):
    """Prompt variant p2 was requested but no template fits an item."""
