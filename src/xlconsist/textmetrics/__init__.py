"""Pure-math primitives: chrF score, Spearman correlation, cosine similarity."""

from .chrf import DEFAULT_CHRF, ChrfConfig, backend_name, chrf, chrf_batch
from .stats import (
    SpearmanResult,
    average_ranks,
    cosine,
    pearson,
    rank_correlation,
    rank_deviations,
    spearman,
    spearman_detailed,
)

__all__ = [
    "ChrfConfig",
    "DEFAULT_CHRF",
    "chrf",
    "chrf_batch",
    "backend_name",
    "average_ranks",
    "cosine",
    "pearson",
    "rank_correlation",
    "rank_deviations",
    "spearman",
    "spearman_detailed",
    "SpearmanResult",
]
