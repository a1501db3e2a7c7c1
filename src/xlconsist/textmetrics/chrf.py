"""Character/word n-gram F-score (chrF / chrF++ conventions), scaled to [0,1].

Defaults follow chrF++: character orders 1-6, word orders 1-2, beta=2.
Setting word_ngram_max=0 gives plain chrF. Whitespace is removed before
character n-gram extraction; word n-grams split on whitespace, so scripts
written without spaces contribute through character n-grams only.

`chrf_batch` scores many pairs in one numpy pass and `chrf` is its
one-pair case. Each distinct string is prepared once (NFC, optional
casefold, whitespace strip and split), and strings with equal prepared
forms share one index. A pair of equal forms scores 1.0 without the
n-gram pass (0.0 when the form has no n-gram). For the other pairs, code
points and word tokens become dense integer symbols, numbered once per
chunk, and an order-n gram's id is (its order n-1 prefix's id) *
n_symbols + its last symbol. So no gram is hashed, no two grams share an
id, and no order sorts its ids, except that the grams are numbered
afresh, by one sort, at an order whose (string, gram) keys would
otherwise outgrow an int64. Ids only need to be distinct, so every score
is the same whatever they are. A pair's clipped overlap at each order is
the sum over the hypothesis's distinct grams of min(hypothesis count,
reference count), read from sorted (string, gram) counts. Pairs run in
chunks of at most CHUNK_CHARS characters to bound memory.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, repeat
from typing import Sequence

import numpy as np

# upper bound on the characters (hypothesis plus reference, summed over
# pairs) that one chunk of a batch holds; a longer single pair runs alone
CHUNK_CHARS = 1 << 17
# the largest (sequence, gram) key that _overlaps may form in an int64
_MAX_KEY = np.iinfo(np.int64).max

_nfc = partial(unicodedata.normalize, "NFC")


def backend_name() -> str:
    """Which n-gram kernel is active (there is one: the batched numpy pass)."""
    return "numpy"


@dataclass(frozen=True)
class ChrfConfig:
    char_ngram_max: int = 6
    word_ngram_max: int = 2
    beta: float = 2.0
    case_fold: bool = False

    def __post_init__(self):
        if self.char_ngram_max < 1:
            raise ValueError("char_ngram_max must be >= 1")
        if self.word_ngram_max < 0:
            raise ValueError("word_ngram_max must be >= 0")
        # a NaN, infinite or overflowing beta makes every score NaN
        if not (self.beta > 0 and math.isfinite(self.beta * self.beta)):
            raise ValueError(f"beta must be finite and > 0, with a finite square; got {self.beta!r}")


DEFAULT_CHRF = ChrfConfig()


def chrf(hypothesis: str, reference: str, cfg: ChrfConfig = DEFAULT_CHRF) -> float:
    """F-beta score averaged over n-gram orders, in [0,1].

    Orders where neither side has any n-grams (e.g. order 6 on two
    3-character strings) are skipped from the average; an order where only
    one side has n-grams counts as 0. Both inputs empty scores 0.
    """
    return chrf_batch([hypothesis], [reference], cfg)[0]


def chrf_batch(
    hypotheses: Sequence[str], references: Sequence[str], cfg: ChrfConfig = DEFAULT_CHRF
) -> list[float]:
    """chrF of every pair (hypotheses[k], references[k]), as `chrf` defines it."""
    if len(hypotheses) != len(references):
        raise ValueError(f"length mismatch: {len(hypotheses)} vs {len(references)}")
    # each distinct string is prepared once; strings with equal
    # (stripped characters, word tokens) forms share one index, numbered in
    # first-seen order
    raws = dict.fromkeys(chain(hypotheses, references))
    texts = map(_nfc, raws)
    if cfg.case_fold:
        texts = map(str.casefold, texts)
    splits = list(map(str.split, texts))
    forms: dict[tuple[str, tuple[str, ...]], int] = {}
    tokens = map(tuple, splits) if cfg.word_ngram_max > 0 else repeat(())
    index = [forms.setdefault(form, len(forms)) for form in zip(map("".join, splits), tokens)]
    prepared = dict(zip(raws, index))
    hyp = list(map(prepared.__getitem__, hypotheses))
    ref = list(map(prepared.__getitem__, references))
    chars = [form[0] for form in forms]
    words = [form[1] for form in forms]
    # equal forms give p = r = 1 at every order that has n-grams, so
    # f = (1+β²)/(β²+1) = 1.0 exactly, and so is the mean of those ones;
    # a form without characters has no n-gram at any order and scores 0.0
    scores = [1.0 if h == r and chars[h] else 0.0 for h, r in zip(hyp, ref)]
    unequal = [k for k, (h, r) in enumerate(zip(hyp, ref)) if h != r]
    start = budget = 0
    for position, k in enumerate(unequal):
        cost = len(chars[hyp[k]]) + len(chars[ref[k]])
        if position > start and budget + cost > CHUNK_CHARS:
            _fill(scores, unequal[start:position], hyp, ref, chars, words, cfg)
            start, budget = position, 0
        budget += cost
    _fill(scores, unequal[start:], hyp, ref, chars, words, cfg)
    return scores


def _fill(scores, pairs, hyp, ref, chars, words, cfg) -> None:
    """Score the pairs at the positions in `pairs` in one chunk, in place."""
    if pairs:
        chunk = _score_chunk([hyp[k] for k in pairs], [ref[k] for k in pairs], chars, words, cfg)
        for k, score in zip(pairs, chunk):
            scores[k] = score


def _score_chunk(hyp, ref, chars, words, cfg) -> list[float]:
    seqs, inverse = np.unique(np.array(hyp + ref, dtype=np.int64), return_inverse=True)
    hyp, ref = inverse[: len(hyp)], inverse[len(hyp) :]
    seqs = seqs.tolist()
    texts = list(map(chars.__getitem__, seqs))
    text = "".join(texts)
    code_points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    # each code point's rank among those that occur: a table lookup, no sort
    occurs = np.zeros(int(code_points.max(initial=0)) + 1, dtype=bool)
    occurs[code_points] = True
    rank = np.cumsum(occurs) - 1
    lengths = np.fromiter(map(len, texts), np.int64, len(seqs))
    stats = _order_stats(
        rank[code_points], int(rank[-1]) + 1, lengths, hyp, ref, cfg.char_ngram_max
    )
    if cfg.word_ngram_max > 0:
        sequences = list(map(words.__getitem__, seqs))
        tokens = list(chain.from_iterable(sequences))
        ids = dict(zip(dict.fromkeys(tokens), count()))  # in first-seen order
        lengths = np.fromiter(map(len, sequences), np.int64, len(seqs))
        stats += _order_stats(
            np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens)),
            len(ids), lengths, hyp, ref, cfg.word_ngram_max,
        )
    return _average_fscores(stats, cfg.beta * cfg.beta, len(hyp))


def _order_stats(symbols, n_symbols, lengths, hyp, ref, max_n):
    """Per order 1..max_n: (hypothesis totals, reference totals, overlaps),
    each an int64 array over the pairs. `symbols` holds every sequence's
    symbols back to back, as ids below n_symbols; sequence s has lengths[s]
    of them; pair k scores sequence hyp[k] against sequence ref[k].

    An order-n gram's id is (its order n-1 prefix's id) * n_symbols + its
    last symbol: exact, and so n_symbols**n ids wide. Only where the
    (sequence, gram) keys of `_overlaps` would outgrow an int64 are the
    grams that occur numbered from 0 again, by one sort."""
    ends = np.cumsum(lengths)
    seq_of = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(len(symbols))
    gram = symbols
    n_symbols = n_ids = max(n_symbols, 1)
    stats = []
    for n in range(1, max_n + 1):
        if n > 1:
            # positions whose n-gram still fits inside its own sequence
            fits = pos + (n - 1) < ends[seq_of]
            pos, seq_of, gram = pos[fits], seq_of[fits], gram[fits]
            if (len(lengths) + 1) * n_ids * n_symbols > _MAX_KEY:
                grams, gram = np.unique(gram, return_inverse=True)
                n_ids = max(len(grams), 1)
            gram = gram * n_symbols + symbols[pos + (n - 1)]
            n_ids *= n_symbols
        totals = np.maximum(lengths - (n - 1), 0)
        stats.append((totals[hyp], totals[ref], _overlaps(seq_of, gram, n_ids, hyp, ref)))
    return stats


def _overlaps(seq_of, gram, n_grams, hyp, ref):
    """Clipped n-gram overlap of each pair: for every distinct gram of the
    hypothesis, min(its count there, its count in the reference)."""
    keys, counts = np.unique(seq_of * n_grams + gram, return_counts=True)
    first = np.searchsorted(keys, hyp * n_grams)
    distinct = np.searchsorted(keys, (hyp + 1) * n_grams) - first
    stops = np.cumsum(distinct)
    # one row per (pair, distinct hypothesis gram): its index into keys
    entry = np.arange(stops[-1]) + np.repeat(first - stops + distinct, distinct)
    wanted = np.repeat(ref * n_grams, distinct) + keys[entry] % n_grams
    found = np.minimum(np.searchsorted(keys, wanted), max(len(keys) - 1, 0))
    clipped = np.where(keys[found] == wanted, np.minimum(counts[entry], counts[found]), 0)
    running = np.concatenate([[0], np.cumsum(clipped)])
    return running[stops] - running[stops - distinct]


def _average_fscores(stats, beta_sq: float, n_pairs: int) -> list[float]:
    """Per pair, the mean F-beta over orders where either side has n-grams.

    Same IEEE operations in the same order as the scalar formula
        p = overlap / hyp_total; r = overlap / ref_total
        f = (1 + beta_sq) * p * r / (beta_sq * p + r)   (0 when p + r == 0)
    and one math.fsum per pair, so every score is bit-identical to it.
    """
    fscores = np.zeros((n_pairs, len(stats)))
    counted = np.zeros(n_pairs, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for order, (hyp_total, ref_total, overlap) in enumerate(stats):
            precision = np.where(hyp_total > 0, overlap / hyp_total, 0.0)
            recall = np.where(ref_total > 0, overlap / ref_total, 0.0)
            f = (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)
            # orders with no n-grams on either side add an exact 0 to the fsum
            fscores[:, order] = np.where(precision + recall == 0.0, 0.0, f)
            counted += (hyp_total > 0) | (ref_total > 0)
    return [
        math.fsum(row) / count if count else 0.0
        for row, count in zip(fscores.tolist(), counted.tolist())
    ]
