"""xlconsist: cross-lingual consistency scoring for LLM answers.

Measures how consistently a model answers the same knowledge question
across languages: semantic consistency (xSC, embedding cosines), accuracy
consistency (xAC, rank correlation of per-item chrF accuracy), timeliness
consistency (xTC, rank correlation of recency-weighted scores), and their
harmonic mean (xC).

Each public name loads its submodule on first use, so `import xlconsist`
and `import xlconsist.<module>` load only what that module imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(("AnswerSet", "ground_truth_answers", "load_answers"), "answers"),
    **dict.fromkeys(
        (
            "ConsistencyReport",
            "PairMatrix",
            "ScoringConfig",
            "build_report",
            "correlate_matrices",
            "domain_breakdown",
            "timeliness_score",
            "xac",
            "xc",
            "xsc",
            "xtc",
        ),
        "consistency",
    ),
    **dict.fromkeys(
        (
            "Dataset",
            "QAItem",
            "TimelinessItem",
            "dataset_hash",
            "load_dataset",
            "validate_alignment",
            "validate_file",
            "write_dataset",
        ),
        "dataset",
    ),
    **dict.fromkeys(("Embedder", "EmbeddingProviderConfig", "VectorCache", "cache_key"), "embedding"),
    **dict.fromkeys(("ChrfConfig", "chrf", "cosine", "spearman"), "textmetrics"),
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{source}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
