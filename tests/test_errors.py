"""Every toolkit error survives pickle, as one raised in a forked child must."""

import pickle

import pytest

import xlconsist.cli  # noqa: F401  (imports every module that defines an error)
from xlconsist.errors import (
    AlignmentError,
    AuthenticationError,
    CacheFormatError,
    CacheMissError,
    DatasetFormatError,
    DimensionMismatchError,
    LanguageMismatchError,
    MissingAnswersError,
    ParaphraseMissingError,
    ProviderError,
    XlconsistError,
)
from xlconsist.transport import Retryable

ERRORS = [
    XlconsistError("boom"),
    DatasetFormatError("answer record needs string lang, item and text", line=7),
    DatasetFormatError("empty answers file"),
    AlignmentError("missing translation: zh"),
    DimensionMismatchError("expected 32 dims, got 16"),
    CacheFormatError("c.bin is not a vector cache file"),
    CacheMissError(["ab"]),
    CacheMissError([f"key{n}" for n in range(7)]),
    ProviderError("HTTP 404: not found"),
    AuthenticationError("embedding endpoint rejected credentials (401)"),
    Retryable("HTTP 503"),
    MissingAnswersError([("en", "q1")]),
    MissingAnswersError([("de", f"q{n}") for n in range(6)]),
    LanguageMismatchError("language sets differ"),
    ParaphraseMissingError("no paraphrase for geo-1"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_is_round_tripped_below():
    assert {type(error) for error in ERRORS} == {XlconsistError, *_subclasses(XlconsistError)}


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: f"{type(e).__name__}:{e}")
def test_error_survives_pickle_with_its_message_and_attributes(error):
    copy = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
