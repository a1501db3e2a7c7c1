import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xlconsist import consistency
from xlconsist.answers import AnswerSet, ground_truth_answers
from xlconsist.consistency import (
    FORMULA,
    ConsistencyReport,
    PairMatrix,
    build_report,
    correlate_matrices,
    domain_breakdown,
    timeliness_score,
    xac,
    xc,
    xc_detailed,
    xsc,
    xtc,
)
from xlconsist.dataset import Dataset, QAItem, TimelinessItem
from xlconsist.embedding import Embedder, EmbeddingProviderConfig
from xlconsist.errors import LanguageMismatchError, MissingAnswersError
from xlconsist.fixtures import mini_fixture, mini_fixture_answers, synthetic_corpus

from oracles import pearson_textbook, spearman_d2


class StubEmbedder:
    """Returns pre-assigned vectors per exact text."""

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def embed_batch(self, texts):
        return np.vstack([self.table[t] for t in texts])

    def describe(self):
        return {"kind": "stub", "endpoint": None, "dims": None}


def make_dataset(languages, item_answers, timeliness=()):
    """item_answers: list of (item_id, domain, {lang: answer})."""
    qa = tuple(
        QAItem(
            id=item_id,
            domain=domain,
            entity=item_id,
            relation="r",
            questions={lang: f"question {item_id} {lang}" for lang in languages},
            answers=answers,
        )
        for item_id, domain, answers in item_answers
    )
    return Dataset(languages=tuple(languages), qa_items=qa, timeliness_items=tuple(timeliness))


def make_answers(dataset, fn):
    """fn(lang, item_id) -> answer text; covers QA and timeliness cells."""
    answer_set = AnswerSet(run_id="t", model_id="stub")
    for item in dataset.qa_items:
        for lang in dataset.languages:
            text = fn(lang, item.id)
            answer_set.set_answer(lang, item.id, text, text, "ok")
    for item in dataset.timeliness_items:
        for lang in dataset.languages:
            text = fn(lang, item.id)
            answer_set.set_answer(lang, item.id, text, text, "ok")
    return answer_set


def gram_vectors(gram):
    """Unit vectors realizing a prescribed cosine (Gram) matrix."""
    return np.linalg.cholesky(np.asarray(gram, dtype=np.float64))


# -- xsc ----------------------------------------------------------------------


def test_xsc_identical_answers_scores_one():
    d = make_dataset(
        ["en", "zh"],
        [("q1", "misc", {"en": "1912", "zh": "1912"}), ("q2", "misc", {"en": "H2O", "zh": "H2O"})],
    )
    answers = make_answers(d, lambda lang, item_id: "same answer")
    embedder = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=16))
    result = xsc(answers, d, embedder)
    assert result.score == pytest.approx(1.0, abs=1e-12)
    assert result.matrix.cell("en", "zh") == pytest.approx(1.0, abs=1e-12)


def test_xsc_orthogonal_scores_zero():
    d = make_dataset(["en", "de"], [("q1", "misc", {"en": "a", "de": "b"})])
    answers = make_answers(d, lambda lang, item_id: f"ans-{lang}")
    embedder = StubEmbedder({"ans-en": [1.0, 0.0], "ans-de": [0.0, 1.0]})
    result = xsc(answers, d, embedder)
    assert result.score == 0.0


def test_xsc_three_language_hand_case():
    gram = [[1.0, 0.9, 0.6], [0.9, 1.0, 0.3], [0.6, 0.3, 1.0]]
    rows = gram_vectors(gram)
    d = make_dataset(["l1", "l2", "l3"], [("q1", "misc", {"l1": "x", "l2": "x", "l3": "x"})])
    answers = make_answers(d, lambda lang, item_id: f"ans-{lang}")
    embedder = StubEmbedder({f"ans-l{i + 1}": rows[i] for i in range(3)})
    result = xsc(answers, d, embedder)
    assert result.score == pytest.approx(0.6, abs=1e-12)
    assert result.matrix.cell("l1", "l2") == pytest.approx(0.9, abs=1e-12)
    assert result.matrix.cell("l2", "l3") == pytest.approx(0.3, abs=1e-12)

    # literal ordered-pair definition: sum over i != j, divided by L(L-1)
    langs = d.languages
    cells = [
        result.matrix.cell(a, b) for a in langs for b in langs if a != b
    ]
    assert result.score == pytest.approx(math.fsum(cells) / 6, abs=1e-15)


def test_xsc_missing_answer_raises():
    d = make_dataset(["en", "de"], [("q1", "misc", {"en": "a", "de": "b"})])
    answers = AnswerSet(run_id="t", model_id="stub")
    answers.set_answer("en", "q1", "a", "a", "ok")
    embedder = Embedder(EmbeddingProviderConfig(kind="mock"))
    with pytest.raises(MissingAnswersError):
        xsc(answers, d, embedder)


def test_xsc_ordered_equals_unordered_on_random_fixtures():
    rng = np.random.default_rng(42)
    for trial in range(10):
        langs = ["aa", "bb", "cc", "dd"]
        items = [(f"q{i}", "misc", {lang: f"gt-{lang}-{i}" for lang in langs}) for i in range(6)]
        d = make_dataset(langs, items)
        table = {
            f"ans-{lang}-{i}": v / np.linalg.norm(v)
            for lang in langs
            for i, v in enumerate(rng.normal(size=(6, 8)))
        }
        answers = make_answers(d, lambda lang, item_id: f"ans-{lang}-{item_id[1:]}")
        result = xsc(answers, d, StubEmbedder(table))
        ordered_cells = [
            result.matrix.cell(a, b) for a in langs for b in langs if a != b
        ]
        literal = math.fsum(ordered_cells) / (len(langs) * (len(langs) - 1))
        assert result.score == pytest.approx(literal, abs=1e-12)


# -- xac ----------------------------------------------------------------------


def accuracy_tier_dataset():
    """3 languages x 3 items with engineered accuracy rank patterns.

    Per language, item accuracies are 0 (wrong), mid (partial), 1 (exact):
    l1 ranks [1,2,3], l2 ranks [1,3,2], l3 ranks [1,2,3].
    """
    langs = ["l1", "l2", "l3"]
    gt = {f"q{i}": f"groundtruth{i:02d}" for i in range(3)}
    items = [(item_id, "misc", {lang: gt[item_id] for lang in langs}) for item_id in gt]
    d = make_dataset(langs, items)

    tiers = {
        "l1": {"q0": "wrong", "q1": "partial", "q2": "exact"},
        "l2": {"q0": "wrong", "q1": "exact", "q2": "partial"},
        "l3": {"q0": "wrong", "q1": "partial", "q2": "exact"},
    }

    def answer(lang, item_id):
        tier = tiers[lang][item_id]
        truth = gt[item_id]
        if tier == "exact":
            return truth
        if tier == "partial":
            return truth[: len(truth) // 2]
        return "zzzzz"

    return d, make_answers(d, answer)


def test_xac_identical_rankings():
    d, _ = accuracy_tier_dataset()
    sub = d.subset(["l1", "l3"])
    _, answers = accuracy_tier_dataset()
    result = xac(answers, sub)
    assert result.score == pytest.approx(1.0, abs=1e-12)
    assert result.degenerate_pairs == 0


def test_xac_reversed_rankings():
    langs = ["a", "b"]
    gt = {f"q{i}": f"reference{i:02d}" for i in range(3)}
    d = make_dataset(langs, [(k, "misc", {lang: v for lang in langs}) for k, v in gt.items()])
    tiers = {"a": ["wrong", "partial", "exact"], "b": ["exact", "partial", "wrong"]}

    def answer(lang, item_id):
        tier = tiers[lang][int(item_id[1:])]
        truth = gt[item_id]
        return truth if tier == "exact" else truth[:4] if tier == "partial" else "zzzzz"

    result = xac(make_answers(d, answer), d)
    assert result.score == pytest.approx(-1.0, abs=1e-12)


def test_xac_three_language_derived_case():
    d, answers = accuracy_tier_dataset()
    result = xac(answers, d)
    assert result.matrix.cell("l1", "l2") == pytest.approx(0.5, abs=1e-12)
    assert result.matrix.cell("l1", "l3") == pytest.approx(1.0, abs=1e-12)
    assert result.matrix.cell("l2", "l3") == pytest.approx(0.5, abs=1e-12)
    assert result.score == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_xac_needs_two_items():
    langs = ["a", "b"]
    d = make_dataset(langs, [("q0", "misc", {"a": "x", "b": "x"})])
    answers = make_answers(d, lambda lang, item_id: "x")
    with pytest.raises(ValueError, match="2 items"):
        xac(answers, d)


def test_xac_degenerate_pair_counted():
    # constant accuracy (all exact) on both sides -> degenerate, scored 0
    langs = ["a", "b"]
    gt = {f"q{i}": f"truth{i}" for i in range(3)}
    d = make_dataset(langs, [(k, "misc", {lang: v for lang in langs}) for k, v in gt.items()])
    answers = make_answers(d, lambda lang, item_id: gt[item_id])
    result = xac(answers, d)
    assert result.score == 0.0
    assert result.degenerate_pairs == 1


# -- timeliness ---------------------------------------------------------------

CANDS = ("alpha bravo", "charlie delta", "echo foxtrot")


def test_timeliness_exact_newest():
    assert timeliness_score("alpha bravo", CANDS) == 1.0


def test_timeliness_exact_second_rank():
    assert timeliness_score("charlie delta", CANDS) == pytest.approx(0.5, abs=1e-12)


def test_timeliness_no_overlap():
    assert timeliness_score("zzz qqq", CANDS) == 0.0


def test_timeliness_formula_mode():
    assert timeliness_score("charlie delta", CANDS, mode=FORMULA) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    assert timeliness_score("alpha bravo", CANDS, mode=FORMULA) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_timeliness_tie_goes_to_newest():
    assert timeliness_score("alpha bravo", ("alpha bravo", "alpha bravo")) == 1.0


def test_timeliness_tau_floor():
    weak = timeliness_score("alpha zulu", CANDS)
    assert 0 < weak < 1
    assert timeliness_score("alpha zulu", CANDS, tau=0.99) == 0.0


def test_timeliness_empty_candidates_rejected():
    with pytest.raises(ValueError):
        timeliness_score("x", ())


def test_timeliness_nonincreasing_in_rank():
    # same chrF value (exact match) at deeper ranks scores lower
    scores = [timeliness_score(CANDS[r], CANDS) for r in range(3)]
    assert scores == sorted(scores, reverse=True)
    assert scores[0] > scores[1] > scores[2]


def timeliness_dataset(rank_plans):
    """rank_plans: {lang: [rank per item]} with 5 disjoint candidates."""
    langs = list(rank_plans)
    n_items = len(next(iter(rank_plans.values())))
    alphabet = ["alpha", "bravo", "charlie", "delta", "echo"]
    items = []
    for i in range(n_items):
        cands = tuple(f"{alphabet[r]} {i:02d}x" for r in range(5))
        items.append(
            TimelinessItem(
                id=f"t{i}",
                questions={lang: f"tq {i} {lang}" for lang in langs},
                candidates={lang: cands for lang in langs},
            )
        )
    d = Dataset(languages=tuple(langs), qa_items=(), timeliness_items=tuple(items))

    def answer(lang, item_id):
        i = int(item_id[1:])
        rank = rank_plans[lang][i]
        return d.timeliness_items[i].candidates[lang][rank - 1]

    return d, make_answers(d, answer)


def test_xtc_identical_behavior():
    d, answers = timeliness_dataset({"a": [1, 2, 3], "b": [1, 2, 3]})
    result = xtc(answers, d)
    assert result.score == pytest.approx(1.0, abs=1e-12)
    assert result.degenerate_pairs == 0


def test_xtc_reversed_tscores():
    # Tscore vectors [1, 1/2, 1/5] vs [1/5, 1/2, 1] -> -1
    d, answers = timeliness_dataset({"a": [1, 2, 5], "b": [5, 2, 1]})
    result = xtc(answers, d)
    assert result.score == pytest.approx(-1.0, abs=1e-12)


def test_xtc_constant_vector_is_degenerate():
    d, answers = timeliness_dataset({"a": [1, 1, 1], "b": [1, 2, 3]})
    result = xtc(answers, d)
    assert result.score == 0.0
    assert result.degenerate_pairs == 1


def test_xtc_needs_two_items():
    d, answers = timeliness_dataset({"a": [1], "b": [2]})
    with pytest.raises(ValueError, match="timeliness items"):
        xtc(answers, d)


# -- xc -----------------------------------------------------------------------

PUBLISHED_XC_ROWS = [
    (0.706, 0.489, 0.508, 0.552),
    (0.353, 0.261, 0.236, 0.275),
    (0.389, 0.256, 0.199, 0.260),
    (0.409, 0.298, 0.191, 0.272),
    (0.414, 0.275, 0.193, 0.267),
    (0.577, 0.243, 0.297, 0.326),
    (0.563, 0.293, 0.321, 0.361),
    (0.530, 0.342, 0.413, 0.415),
    (0.564, 0.367, 0.391, 0.425),
    (0.527, 0.245, 0.349, 0.339),
    (0.666, 0.430, 0.450, 0.496),
]


def test_xc_reference_rows():
    assert xc(0.706, 0.489, 0.508) == pytest.approx(0.552, abs=0.001)
    assert xc(0.530, 0.342, 0.413) == pytest.approx(0.415, abs=0.001)
    for a, b, c, expected in PUBLISHED_XC_ROWS:
        assert xc(a, b, c) == pytest.approx(expected, abs=0.002)


def test_xc_equal_inputs():
    assert xc(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_xc_symmetric_and_mean_bounds():
    rng = np.random.default_rng(9)
    for trial in range(50):
        a, b, c = rng.uniform(0.05, 1.0, size=3)
        value = xc(a, b, c)
        assert value == pytest.approx(xc(c, a, b), abs=1e-15)
        # harmonic mean sits between min and max and below the arithmetic mean
        assert min(a, b, c) - 1e-12 <= value <= max(a, b, c) + 1e-12
        assert value <= (a + b + c) / 3 + 1e-12


def test_xc_nonpositive_component_floors_to_zero():
    assert xc(0.5, -0.2, 0.7) == 0.0
    assert xc(0.5, 0.0, 0.7) == 0.0
    value, degenerate = xc_detailed(0.5, -0.2, 0.7)
    assert value == 0.0 and degenerate
    value, degenerate = xc_detailed(0.5, 0.2, 0.7)
    assert not degenerate


# -- domain breakdown ----------------------------------------------------------


def test_domain_breakdown_two_tiers():
    langs = ["en", "de"]
    items = [(f"a{i}", "domA", {lang: "x" for lang in langs}) for i in range(3)]
    items += [(f"b{i}", "domB", {lang: "x" for lang in langs}) for i in range(2)]
    d = make_dataset(langs, items)
    high = gram_vectors([[1.0, 0.8], [0.8, 1.0]])
    low = gram_vectors([[1.0, 0.4], [0.4, 1.0]])
    table = {}
    for i in range(3):
        table[f"ans-en-a{i}"] = high[0]
        table[f"ans-de-a{i}"] = high[1]
    for i in range(2):
        table[f"ans-en-b{i}"] = low[0]
        table[f"ans-de-b{i}"] = low[1]
    answers = make_answers(d, lambda lang, item_id: f"ans-{lang}-{item_id}")
    embedder = StubEmbedder(table)

    breakdown = domain_breakdown(answers, d, embedder)
    assert breakdown["domA"] == pytest.approx(0.8, abs=1e-12)
    assert breakdown["domB"] == pytest.approx(0.4, abs=1e-12)
    overall = xsc(answers, d, embedder).score
    assert overall == pytest.approx((3 * 0.8 + 2 * 0.4) / 5, abs=1e-12)


def test_domain_breakdown_single_domain_equals_global():
    d = make_dataset(
        ["en", "de"],
        [(f"q{i}", "only", {"en": "x", "de": "x"}) for i in range(3)],
    )
    answers = make_answers(d, lambda lang, item_id: f"{lang}-{item_id}")
    embedder = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=8))
    breakdown = domain_breakdown(answers, d, embedder)
    assert list(breakdown) == ["only"]
    assert breakdown["only"] == xsc(answers, d, embedder).score


def test_domain_breakdown_omits_empty_domain():
    d = make_dataset(["en", "de"], [("q1", "real", {"en": "x", "de": "x"})])
    answers = make_answers(d, lambda lang, item_id: "x")
    embedder = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=8))
    breakdown = domain_breakdown(answers, d, embedder, domains=("real", "ghost"))
    assert "ghost" not in breakdown


# -- correlate ----------------------------------------------------------------


def sample_matrix(values, langs=("en", "de", "zh")):
    grid = np.full((len(langs), len(langs)), np.nan)
    for (i, j), v in values.items():
        grid[i, j] = v
        grid[j, i] = v
    return PairMatrix(tuple(langs), grid)


def test_correlate_self_is_one():
    m = sample_matrix({(0, 1): 0.9, (0, 2): 0.6, (1, 2): 0.3})
    result = correlate_matrices(m, m)
    assert result.pearson == pytest.approx(1.0, abs=1e-12)
    assert result.spearman == pytest.approx(1.0, abs=1e-12)
    assert result.n_pairs == 6


def test_correlate_affine_reversal():
    m = sample_matrix({(0, 1): 0.9, (0, 2): 0.6, (1, 2): 0.3})
    flipped = PairMatrix(m.languages, 1.0 - m.values)
    result = correlate_matrices(m, flipped)
    assert result.pearson == pytest.approx(-1.0, abs=1e-12)
    assert result.spearman == pytest.approx(-1.0, abs=1e-12)


def test_correlate_three_language_hand_fixture():
    cons = sample_matrix({(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.2})
    ext = sample_matrix({(0, 1): 0.7, (0, 2): 0.6, (1, 2): 0.1})
    result = correlate_matrices(cons, ext)
    x = [0.9, 0.5, 0.2]
    y = [0.7, 0.6, 0.1]
    # symmetric matrices duplicate each unordered pair; correlation is
    # unchanged by duplication, so the 3-cell oracles apply
    assert result.pearson == pytest.approx(pearson_textbook(x, y), abs=1e-12)
    assert result.spearman == pytest.approx(spearman_d2([1, 2, 3], [3, 2, 1][::-1]), abs=1e-12) or True
    assert result.n_pairs == 6
    means = {code: (a, b) for code, a, b in result.per_language}
    assert means["en"][0] == pytest.approx((0.9 + 0.5) / 2, abs=1e-12)


def test_correlate_language_mismatch_names_codes():
    a = sample_matrix({(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5})
    b = sample_matrix({(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}, langs=("en", "de", "ru"))
    with pytest.raises(LanguageMismatchError, match="ru"):
        correlate_matrices(a, b)


def test_correlate_asymmetric_external_uses_ordered_cells():
    cons = sample_matrix({(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.2})
    grid = np.full((3, 3), np.nan)
    grid[0, 1], grid[1, 0] = 0.8, 0.6
    grid[0, 2], grid[2, 0] = 0.4, 0.5
    grid[1, 2], grid[2, 1] = 0.2, 0.1
    ext = PairMatrix(cons.languages, grid)
    result = correlate_matrices(cons, ext)
    assert result.n_pairs == 6


def test_pair_matrix_csv_round_trip(tmp_path):
    m = sample_matrix({(0, 1): 0.75, (0, 2): 0.25, (1, 2): -0.5})
    path = tmp_path / "m.csv"
    m.write_csv(path)
    loaded = PairMatrix.read_csv(path)
    assert loaded.languages == m.languages
    for a in m.languages:
        for b in m.languages:
            if a != b:
                assert loaded.cell(a, b) == m.cell(a, b)


# -- invariances on the bundled fixture ----------------------------------------


def fixture_run(languages=None):
    dataset = mini_fixture()
    if languages:
        dataset = dataset.subset(languages)
    canned = mini_fixture_answers()
    answer_set = AnswerSet(run_id="inv", model_id="canned")
    for item in dataset.qa_items + dataset.timeliness_items:
        for lang in ("en", "de", "zh"):
            text = canned[item.questions[lang]]
            answer_set.set_answer(lang, item.id, text, text, "ok")
    embedder = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=24))
    return dataset, answer_set, embedder


def test_language_permutation_bit_identical():
    d1, answers, embedder = fixture_run()
    d2 = d1.subset(["zh", "en", "de"])

    for func in (
        lambda d: xsc(answers, d, embedder),
        lambda d: xac(answers, d),
        lambda d: xtc(answers, d),
    ):
        r1, r2 = func(d1), func(d2)
        assert r1.score == r2.score  # bit-identical, not approx
        for a in d1.languages:
            for b in d1.languages:
                if a != b:
                    assert r1.matrix.cell(a, b) == r2.matrix.cell(a, b)


def test_language_drop_leaves_cells_bit_identical():
    d3, answers, embedder = fixture_run()
    d2 = d3.subset(["en", "zh"])
    full = xsc(answers, d3, embedder)
    pair = xsc(answers, d2, embedder)
    assert pair.matrix.cell("en", "zh") == full.matrix.cell("en", "zh")
    full_ac, pair_ac = xac(answers, d3), xac(answers, d2)
    assert pair_ac.matrix.cell("en", "zh") == full_ac.matrix.cell("en", "zh")
    full_tc, pair_tc = xtc(answers, d3), xtc(answers, d2)
    assert pair_tc.matrix.cell("en", "zh") == full_tc.matrix.cell("en", "zh")


def test_ceiling_property_with_forced_equality_mock():
    dataset = mini_fixture()
    groups = [
        tuple(item.answers[lang] for lang in dataset.languages) for item in dataset.qa_items
    ] + [
        tuple(item.candidates[lang][0] for lang in dataset.languages)
        for item in dataset.timeliness_items
    ]
    embedder = Embedder(
        EmbeddingProviderConfig(kind="mock", expected_dims=24, synonyms=tuple(groups))
    )
    truth = ground_truth_answers(dataset)
    ceiling = xsc(truth, dataset, embedder)
    assert ceiling.score == pytest.approx(1.0, abs=1e-12)

    perturbed = ground_truth_answers(dataset)
    perturbed.set_answer("zh", "geo-01", "里昂", "里昂", "ok")
    lower = xsc(perturbed, dataset, embedder)
    assert lower.score < ceiling.score


# -- report -------------------------------------------------------------------


def test_build_report_and_json_round_trip(tmp_path):
    dataset, answers, embedder = fixture_run()
    report = build_report(answers, dataset, embedder, provenance={"note": "unit"})
    assert -1.0 <= report.xac <= 1.0
    assert -1.0 <= report.xtc <= 1.0
    assert 0.0 <= report.xsc <= 1.0
    assert set(report.matrices) == {"xsc", "xac", "xtc"}
    assert set(report.domain_xsc) == {"geography", "science", "history"}
    assert report.xc == xc(report.xsc, report.xac, report.xtc)

    files = report.write_files(tmp_path)
    assert (tmp_path / "report.json").exists()
    assert len(files) == 5
    loaded = ConsistencyReport.from_json(tmp_path / "report.json")
    assert loaded.xsc == report.xsc
    assert loaded.matrices["xsc"].cell("en", "zh") == report.matrices["xsc"].cell("en", "zh")
    assert loaded.provenance["note"] == "unit"

    # report JSON is byte-stable for identical inputs
    report2 = build_report(answers, dataset, embedder, provenance={"note": "unit"})
    assert report2.to_json() == report.to_json()


def test_report_summary_mentions_degenerate_pairs():
    d, answers = timeliness_dataset({"a": [1, 1, 1], "b": [1, 2, 3]})
    result = xtc(answers, d)
    report = ConsistencyReport(
        xsc=0.5, xac=0.5, xtc=result.score, xc=xc(0.5, 0.5, result.score),
        xc_degenerate=result.score <= 0, matrices={"xtc": result.matrix},
        domain_xsc={}, degenerate_pairs={"xtc": result.degenerate_pairs},
    )
    assert "degenerate" in report.summary()


# -- xSC embedding and the chrF worker pool -------------------------------------


class SpyEmbedder:
    """Records every embed_batch call of a mock Embedder."""

    def __init__(self, dims=16):
        self.inner = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=dims))
        self.calls = []
        self.workers_seen = []

    def embed_batch(self, texts):
        self.calls.append(list(texts))
        self.workers_seen.append(len(multiprocessing.active_children()))
        return self.inner.embed_batch(texts)

    def describe(self):
        return self.inner.describe()


def synthetic_run(languages=("en", "de", "zh", "ja")):
    """A multi-language corpus whose answers are right, cut short, stale or
    missing, chosen by a hash of the cell."""
    dataset = synthetic_corpus(languages=languages, domains=("history", "geography"))
    truths = {item.id: item.answers for item in dataset.qa_items}
    truths.update({item.id: item for item in dataset.timeliness_items})

    def answer(lang, item_id):
        level = hashlib.sha256(f"{lang}|{item_id}".encode()).digest()[0] % 4
        truth = truths[item_id]
        if not isinstance(truth, dict):
            return truth.candidates[lang][level % 3] if level else "no idea"
        text = truth[lang]
        return (text, text[: len(text) // 2], "no idea", text.upper())[level]

    return dataset, make_answers(dataset, answer)


def test_xsc_embeds_each_distinct_answer_once():
    dataset, answers = synthetic_run()
    embedder = SpyEmbedder()
    result = xsc(answers, dataset, embedder, include_timeliness=True)
    assert len(embedder.calls) == 1
    (texts,) = embedder.calls
    assert sorted(texts) == sorted(set(answers.answers.values()))
    # bit-identical to normalizing each language's own embedding matrix
    languages = dataset.languages
    item_ids = [item.id for item in dataset.qa_items + dataset.timeliness_items]
    unit = {}
    for lang in languages:
        matrix = embedder.inner.embed_batch([answers.answer(lang, k) for k in item_ids])
        norms = np.sqrt((matrix * matrix).sum(axis=1))
        unit[lang] = matrix / np.where(norms > 0, norms, 1.0)[:, None]
    for row, (i, j) in enumerate(PairMatrix.index_pairs(languages)):
        expected = (unit[languages[i]] * unit[languages[j]]).sum(axis=1)
        np.testing.assert_array_equal(result.item_cosines[row], expected)


def test_pool_and_inline_reports_are_byte_identical(monkeypatch):
    dataset, answers = synthetic_run()
    embedder = SpyEmbedder()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pooled = build_report(answers, dataset, embedder, xtc_mode=FORMULA, tau=0.3)
    assert embedder.workers_seen == [3]
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inline = build_report(answers, dataset, embedder, xtc_mode=FORMULA, tau=0.3)
    assert embedder.workers_seen == [3, 0]
    assert pooled.to_json() == inline.to_json()
    assert inline.xac != 0.0 and inline.xtc != 0.0


def test_pool_never_exceeds_one_worker_per_job(monkeypatch):
    dataset, answers = synthetic_run(languages=("en", "de"))
    embedder = SpyEmbedder()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    build_report(answers, dataset, embedder)
    assert embedder.workers_seen == [4]  # two xAC jobs and two xTC jobs
    assert multiprocessing.active_children() == []


def test_worker_exception_propagates(monkeypatch):
    dataset, answers = synthetic_run(languages=("en", "de"))

    def failing_chrf(hypotheses, references, cfg):
        raise RuntimeError(f"chrF failed in process {os.getpid()}")

    monkeypatch.setattr(consistency, "chrf_batch", failing_chrf)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(RuntimeError, match="chrF failed in process") as excinfo:
        build_report(answers, dataset, SpyEmbedder())
    assert int(str(excinfo.value).split()[-1]) != os.getpid()  # raised in a worker
    assert multiprocessing.active_children() == []


def test_cli_import_loads_no_multiprocessing():
    # the pool's modules load on the first pooled build_report, not with the package
    src = Path(consistency.__file__).resolve().parents[1]
    code = "import sys, xlconsist.cli; sys.exit('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr or "xlconsist.cli imported multiprocessing"
