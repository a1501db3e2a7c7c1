"""Independent reference implementations used only to check the library.

Deliberately written with different machinery than the package (plain
dicts and index loops, no Counter, no numpy ranking): these are the
second route of every dual-route check, so they must not share code with
the route they verify.
"""

from __future__ import annotations

import re
import unicodedata


def _gram_counts(seq, n):
    counts = {}
    for start in range(0, len(seq) - n + 1):
        gram = seq[start : start + n]
        if isinstance(gram, list):
            gram = tuple(gram)
        if gram in counts:
            counts[gram] += 1
        else:
            counts[gram] = 1
    return counts


def _order_fscore(hyp_counts, ref_counts, beta):
    hyp_total = 0
    for v in hyp_counts.values():
        hyp_total += v
    ref_total = 0
    for v in ref_counts.values():
        ref_total += v
    if hyp_total == 0 and ref_total == 0:
        return None  # order carries no information, skip
    matched = 0
    for gram in hyp_counts:
        if gram in ref_counts:
            a = hyp_counts[gram]
            b = ref_counts[gram]
            matched += a if a < b else b
    if hyp_total > 0:
        precision = matched / hyp_total
    else:
        precision = 0.0
    if ref_total > 0:
        recall = matched / ref_total
    else:
        recall = 0.0
    if precision == 0.0 and recall == 0.0:
        return 0.0
    b2 = beta * beta
    return (1.0 + b2) * precision * recall / (b2 * precision + recall)


def brute_force_order_fscores(
    hypothesis,
    reference,
    char_max=6,
    word_max=2,
    beta=2.0,
    strip_whitespace=True,
    case_fold=False,
):
    """F-score of every n-gram order that has n-grams on either side,
    character orders first, enumerated by hand."""
    hypothesis = unicodedata.normalize("NFC", hypothesis)
    reference = unicodedata.normalize("NFC", reference)
    if case_fold:
        hypothesis = hypothesis.casefold()
        reference = reference.casefold()
    if strip_whitespace:
        hyp_chars = re.sub(r"\s+", "", hypothesis)
        ref_chars = re.sub(r"\s+", "", reference)
    else:
        hyp_chars = hypothesis
        ref_chars = reference

    fscores = []
    for n in range(1, char_max + 1):
        f = _order_fscore(_gram_counts(hyp_chars, n), _gram_counts(ref_chars, n), beta)
        if f is not None:
            fscores.append(f)
    hyp_words = hypothesis.split()
    ref_words = reference.split()
    for n in range(1, word_max + 1):
        f = _order_fscore(_gram_counts(hyp_words, n), _gram_counts(ref_words, n), beta)
        if f is not None:
            fscores.append(f)
    return fscores


def brute_force_chrf(hypothesis, reference, **options):
    """Enumerate every n-gram order by hand and average the F-scores."""
    fscores = brute_force_order_fscores(hypothesis, reference, **options)
    if not fscores:
        return 0.0
    total = 0.0
    for f in fscores:
        total += f
    return total / len(fscores)


def spearman_d2(x, y):
    """Closed-form 1 - 6*sum(d^2)/(n(n^2-1)). Valid for tie-free inputs only."""
    n = len(x)
    assert len(y) == n
    assert len(set(x)) == n and len(set(y)) == n, "oracle requires tie-free input"
    x_rank = {v: i + 1 for i, v in enumerate(sorted(x))}
    y_rank = {v: i + 1 for i, v in enumerate(sorted(y))}
    d2_sum = 0
    for xi, yi in zip(x, y):
        d = x_rank[xi] - y_rank[yi]
        d2_sum += d * d
    return 1.0 - 6.0 * d2_sum / (n * (n * n - 1))


def pearson_textbook(x, y):
    """Direct covariance/stddev formula, no shortcuts shared with the library."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = 0.0
    vx = 0.0
    vy = 0.0
    for xi, yi in zip(x, y):
        cov += (xi - mx) * (yi - my)
        vx += (xi - mx) ** 2
        vy += (yi - my) ** 2
    return cov / (vx * vy) ** 0.5
