"""Rank correlation and cosine similarity primitives.

All functions are pure and deterministic; aggregation uses exact summation
(math.fsum) so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


class SpearmanResult(NamedTuple):
    value: float
    degenerate: bool


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, ties receiving the mean of their positional ranks.

    NaN equals nothing, so each NaN is a group of its own.
    """
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts_run = np.ones(len(a), dtype=bool)
    starts_run[1:] = ordered[1:] != ordered[:-1]
    # 0-based sorted positions first..last of each run of equal values
    first = np.flatnonzero(starts_run)
    sizes = np.diff(np.append(first, len(a)))
    last = first + sizes - 1
    ranks = np.empty(len(a), dtype=np.float64)
    ranks[order] = np.repeat((first + last + 2) / 2.0, sizes)
    return ranks


def _centered(values: np.ndarray) -> tuple[np.ndarray, float]:
    mean = math.fsum(values.tolist()) / len(values)
    deviations = values - mean
    return deviations, math.fsum((deviations * deviations).tolist())


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation; 0.0 when either input has zero variance."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    if len(xa) < 2:
        raise ValueError("need at least 2 observations")
    return rank_correlation(_centered(xa), _centered(ya)).value


def spearman_detailed(x: Sequence[float], y: Sequence[float]) -> SpearmanResult:
    """Spearman rank correlation with average-tie ranks.

    Zero-variance input (a constant vector) leaves the coefficient
    undefined; we report 0.0 with the degenerate flag set rather than
    raising, so pair matrices can carry the cell honestly.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    if len(xa) < 2:
        raise ValueError("need at least 2 observations")
    return rank_correlation(rank_deviations(xa), rank_deviations(ya))


def rank_deviations(values: Sequence[float]) -> tuple[np.ndarray, float]:
    """Average-tie ranks of `values` minus their mean, and the fsum of
    their squares: the per-vector half of a Spearman correlation, so a
    vector compared with many others is ranked once."""
    return _centered(average_ranks(values))


def rank_correlation(
    x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]
) -> SpearmanResult:
    """Correlation of two equal-length (deviations, fsum of their squares)
    pairs: Spearman's of two `rank_deviations` results, Pearson's of two
    centered vectors. 0.0, flagged degenerate, when either has no variance."""
    (dx, var_x), (dy, var_y) = x, y
    if var_x == 0.0 or var_y == 0.0:
        return SpearmanResult(0.0, True)
    cov = math.fsum((dx * dy).tolist())
    return SpearmanResult(cov / math.sqrt(var_x * var_y), False)


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    return spearman_detailed(x, y).value


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity; 0.0 when either operand has zero norm."""
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    if ua.shape != va.shape:
        raise ValueError(f"dimension mismatch: {ua.shape} vs {va.shape}")
    if ua.ndim != 1 or len(ua) < 1:
        raise ValueError("operands must be 1-D vectors of dimension >= 1")
    norm_u = math.sqrt(math.fsum((ua * ua).tolist()))
    norm_v = math.sqrt(math.fsum((va * va).tolist()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return math.fsum((ua * va).tolist()) / (norm_u * norm_v)
