import importlib
import math
import re
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlconsist.textmetrics import ChrfConfig, chrf, chrf_batch

from multilingual_pairs import PAIRS
from oracles import brute_force_chrf, brute_force_order_fscores

CHAR_ONLY_B1 = ChrfConfig(char_ngram_max=2, word_ngram_max=0, beta=1.0)

# content-bearing text: identity on whitespace-only strings degenerates to
# the both-empty case, which is defined as 0
texts = st.text(min_size=1, max_size=40).filter(lambda s: s.strip())


def test_identity_scores_one():
    for x in ["Argentina", "阿根廷", "a", "Paris Saint-Germain", "Αθήνα"]:
        assert chrf(x, x) == 1.0


def test_disjoint_scores_zero():
    assert chrf("abc", "xyz") == 0.0


def test_two_char_hand_value():
    # order 1: unigrams {a,b} fully shared -> F=1; order 2: {ab} vs {ba}
    # disjoint -> F=0; mean = 0.5
    assert chrf("ab", "ba", CHAR_ONLY_B1) == pytest.approx(0.5, abs=1e-12)


def test_empty_cases():
    assert chrf("", "Jane Austen") == 0.0
    assert chrf("Jane Austen", "") == 0.0
    assert chrf("", "") == 0.0


def test_nfc_equivalence():
    nfd = unicodedata.normalize("NFD", "café")
    nfc = unicodedata.normalize("NFC", "café")
    assert nfd != nfc
    assert chrf(nfd, "café") == chrf(nfc, "café") == 1.0


def test_case_fold_flag():
    assert chrf("ARGENTINA", "Argentina") < 1.0
    folded = ChrfConfig(case_fold=True)
    assert chrf("ARGENTINA", "Argentina", folded) == 1.0
    assert chrf("АРГЕНТИНА", "Аргентина", folded) == 1.0


def test_short_strings_skip_empty_orders():
    # both sides have no n-grams above order 3; identity must still be 1
    assert chrf("abc", "abc") == 1.0
    # one-sided high orders count as 0 (length mismatch is an error signal)
    long_vs_short = chrf("abcdefgh", "abc")
    assert 0.0 < long_vs_short < 1.0


def test_whitespace_stripping_default():
    # char n-grams ignore spacing; word n-grams still differ
    spaced = chrf("Buenos Aires", "BuenosAires")
    assert spaced > 0.6
    no_words = ChrfConfig(word_ngram_max=0)
    assert chrf("Buenos Aires", "BuenosAires", no_words) == 1.0


def _regex_strip(text):
    return re.sub(r"\s+", "", text)


def test_split_join_strips_what_the_whitespace_regex_strips():
    # chrf_batch strips with "".join(text.split()); the oracle with \s+
    points = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    every = "x".join(points)  # each code point alone between two letters
    if "".join(every.split()) != _regex_strip(every):
        differ = [c for c in points if "".join(c.split()) != _regex_strip(c)]
        pytest.fail(f"str.split and \\s disagree on {[hex(ord(c)) for c in differ][:20]}")


@given(st.text())
def test_split_join_strip_on_random_text(text):
    assert "".join(text.split()) == _regex_strip(text)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ChrfConfig(char_ngram_max=0)
    with pytest.raises(ValueError):
        ChrfConfig(beta=0.0)
    with pytest.raises(ValueError):
        ChrfConfig(beta=-1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 1e155])
def test_beta_that_gives_nan_is_refused(beta):
    # each of these made every score NaN, even chrf("abc", "abc")
    with pytest.raises(ValueError, match=re.escape(repr(beta))):
        ChrfConfig(beta=beta)


def test_largest_accepted_beta_scores_identity_one():
    cfg = ChrfConfig(beta=1e150)  # beta**2 = 1e300, still finite
    assert chrf("abc", "abc", cfg) == 1.0
    assert chrf("abc", "abd", cfg) == oracle_chrf("abc", "abd", beta=1e150)


def test_fifty_pair_fixture_matches_brute_force_oracle():
    cfg = ChrfConfig()
    for hyp, ref in PAIRS:
        expected = brute_force_chrf(hyp, ref)
        assert chrf(hyp, ref, cfg) == pytest.approx(expected, abs=1e-6), (hyp, ref)


def test_fixture_against_oracle_under_other_configs():
    for cfg, kwargs in [
        (ChrfConfig(word_ngram_max=0), dict(word_max=0)),
        (ChrfConfig(beta=1.0), dict(beta=1.0)),
        (ChrfConfig(char_ngram_max=3), dict(char_max=3)),
        (ChrfConfig(case_fold=True), dict(case_fold=True)),
    ]:
        for hyp, ref in PAIRS:
            expected = brute_force_chrf(hyp, ref, **kwargs)
            assert chrf(hyp, ref, cfg) == pytest.approx(expected, abs=1e-6)


@given(texts, texts)
def test_score_bounded(hyp, ref):
    score = chrf(hyp, ref)
    assert 0.0 <= score <= 1.0


@given(texts)
def test_identity_property(x):
    assert chrf(x, x) == 1.0


@given(texts, texts)
def test_beta_one_is_symmetric(hyp, ref):
    cfg = ChrfConfig(beta=1.0)
    assert chrf(hyp, ref, cfg) == pytest.approx(chrf(ref, hyp, cfg), abs=1e-12)


# the batched path against the oracle's per-order F-scores, averaged with
# fsum as the scorer does, compared with ==
BATCH_PAIRS = PAIRS + [
    ("", ""),
    ("", "Jane Austen"),
    ("Jane Austen", ""),
    ("   ", " \t\n"),
    ("a\ud800b", "a\ud800b"),
    ("a\ud800b", "ab"),
    ("\ud800", "\udc00"),
    ("😀 🎉 party", "party 🎉"),
    (unicodedata.normalize("NFD", "café Zürich"), "café Zürich"),
    ("aaaa", "aa"),
    ("aa", "aaaa"),
    ("Paris", "Paris"),
    ("Paris", "Paris"),
    # pairs whose prepared forms may be equal, which skip the n-gram pass
    ("   ", "   "),
    (" \t\n", "   "),
    ("ABC", "abc"),
    ("Straße X", "STRASSE x"),
    (unicodedata.normalize("NFD", "é"), "é"),
    ("Buenos Aires", "Buenos  Aires"),
    ("a", "a"),
    ("東", "東"),
    ("a b", "a b"),
    ("ab c", "a bc"),  # equal characters, other words
]
BATCH_CONFIGS = [
    (ChrfConfig(), {}),
    (ChrfConfig(case_fold=True), dict(case_fold=True)),
    (ChrfConfig(beta=1.0), dict(beta=1.0)),
    (ChrfConfig(word_ngram_max=0), dict(word_max=0)),
    (ChrfConfig(char_ngram_max=1), dict(char_max=1)),
    (ChrfConfig(char_ngram_max=9, word_ngram_max=4), dict(char_max=9, word_max=4)),
]


def oracle_chrf(hyp, ref, **options):
    fscores = brute_force_order_fscores(hyp, ref, **options)
    return math.fsum(fscores) / len(fscores) if fscores else 0.0


@pytest.mark.parametrize("cfg, options", BATCH_CONFIGS)
def test_batch_equals_oracle(cfg, options):
    hyps = [hyp for hyp, _ in BATCH_PAIRS]
    refs = [ref for _, ref in BATCH_PAIRS]
    expected = [oracle_chrf(hyp, ref, **options) for hyp, ref in BATCH_PAIRS]
    assert chrf_batch(hyps, refs, cfg) == expected
    assert [chrf(hyp, ref, cfg) for hyp, ref in BATCH_PAIRS] == expected


def test_batch_empty_and_length_mismatch():
    assert chrf_batch([], []) == []
    with pytest.raises(ValueError):
        chrf_batch(["a"], [])


def test_chunking_does_not_change_scores(monkeypatch):
    hyps = [hyp for hyp, _ in BATCH_PAIRS]
    refs = [ref for _, ref in BATCH_PAIRS]
    whole = chrf_batch(hyps, refs)
    module = importlib.import_module("xlconsist.textmetrics.chrf")
    for chunk_chars in (1, 3, 7, 40):
        monkeypatch.setattr(module, "CHUNK_CHARS", chunk_chars)
        assert chrf_batch(hyps, refs) == whole


batch_text = st.text(alphabet=st.sampled_from(list("ab cé\tΑ東́\ud800😀")), max_size=14)


@given(st.lists(st.tuples(batch_text, batch_text), max_size=12), st.sampled_from(BATCH_CONFIGS))
def test_batch_equals_oracle_on_random_batches(pairs, config):
    cfg, options = config
    scores = chrf_batch([hyp for hyp, _ in pairs], [ref for _, ref in pairs], cfg)
    assert scores == [oracle_chrf(hyp, ref, **options) for hyp, ref in pairs]


@pytest.mark.parametrize("chunk_chars", [1, 3, 40])
@pytest.mark.parametrize("cfg, options", BATCH_CONFIGS)
def test_chunked_batch_equals_oracle(monkeypatch, chunk_chars, cfg, options):
    # BATCH_PAIRS mixes pairs that skip the n-gram pass with pairs that take it
    module = importlib.import_module("xlconsist.textmetrics.chrf")
    monkeypatch.setattr(module, "CHUNK_CHARS", chunk_chars)
    hyps = [hyp for hyp, _ in BATCH_PAIRS]
    refs = [ref for _, ref in BATCH_PAIRS]
    expected = [oracle_chrf(hyp, ref, **options) for hyp, ref in BATCH_PAIRS]
    assert chrf_batch(hyps, refs, cfg) == expected
