import gc
import hashlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlconsist import consistency
from xlconsist.answers import (
    AnswerSet,
    append_answer_record,
    ground_truth_answers,
    write_answer_header,
)
from xlconsist.consistency import (
    DEFAULT_SCORING,
    FORMULA,
    ConsistencyReport,
    PairMatrix,
    ScoringConfig,
    accuracy_vectors,
    build_report,
    correlate_matrices,
    domain_breakdown,
    timeliness_score,
    timeliness_vectors,
    xac,
    xc,
    xc_detailed,
    xsc,
    xtc,
)
from xlconsist.dataset import Dataset, QAItem, TimelinessItem
from xlconsist.embedding import Embedder, EmbeddingProviderConfig
from xlconsist.errors import (
    InsufficientDataError,
    LanguageMismatchError,
    MissingAnswersError,
    XlconsistError,
)
from xlconsist.fixtures import (
    bundled_fixture_path,
    mini_fixture,
    mini_fixture_answers,
    synthetic_corpus,
)
from xlconsist.textmetrics import spearman_detailed

from conftest import answer_cells
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
            answer_set.set_answer(lang, item.id, text)
    for item in dataset.timeliness_items:
        for lang in dataset.languages:
            text = fn(lang, item.id)
            answer_set.set_answer(lang, item.id, text)
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
    answers.set_answer("en", "q1", "a")
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
    with pytest.raises(InsufficientDataError, match="2 items"):
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


RANK_VECTORS = {
    "ties": [[0.5, 0.5, 0.1, 0.9, 0.1], [0.2, 0.2, 0.2, 0.7, 0.3], [1.0, 0.0, 1.0, 0.0, 0.5]],
    "constant": [[0.3] * 5, [0.0, 1.0, 0.0, 1.0, 1.0], [0.0] * 5, [0.1, 0.2, 0.3, 0.4, 0.5]],
    "nan": [[math.nan, 0.5, math.nan, 0.2, 0.2], [0.1, math.nan, 0.3, 0.3, 0.0],
            [math.nan] * 5, [0.0, -0.0, 0.0, 1.0, math.inf]],
    "two items": [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]],
}


@pytest.mark.parametrize("rows", list(RANK_VECTORS.values()), ids=list(RANK_VECTORS))
def test_rank_matrix_matches_per_pair_spearman(rows):
    check_rank_matrix(rows)


@given(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]), min_size=6,
                         max_size=6), min_size=2, max_size=6))
def test_rank_matrix_matches_per_pair_spearman_on_random_vectors(rows):
    check_rank_matrix(rows)


def check_rank_matrix(rows):
    """Each language ranked once gives the per-pair spearman_detailed cells
    bit for bit, degenerate flags included."""
    languages = tuple(f"l{i}" for i in range(len(rows)))
    vectors = {lang: np.array(row) for lang, row in zip(languages, rows)}
    matrix = consistency._rank_correlation_matrix(languages, vectors)
    for i, j in PairMatrix.index_pairs(languages):
        for a, b in ((i, j), (j, i)):
            expected = spearman_detailed(vectors[languages[a]], vectors[languages[b]])
            assert matrix.values[a, b].tobytes() == np.float64(expected.value).tobytes()
            assert bool(matrix.degenerate[a, b]) == expected.degenerate


# -- timeliness ---------------------------------------------------------------

CANDS = ("alpha bravo", "charlie delta", "echo foxtrot")


def test_timeliness_exact_newest():
    assert timeliness_score("alpha bravo", CANDS) == 1.0


def test_timeliness_exact_second_rank():
    assert timeliness_score("charlie delta", CANDS) == pytest.approx(0.5, abs=1e-12)


def test_timeliness_no_overlap():
    assert timeliness_score("zzz qqq", CANDS) == 0.0


def test_timeliness_formula_mode():
    formula = ScoringConfig(xtc_mode=FORMULA)
    assert timeliness_score("charlie delta", CANDS, formula) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert timeliness_score("alpha bravo", CANDS, formula) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_timeliness_tie_goes_to_newest():
    assert timeliness_score("alpha bravo", ("alpha bravo", "alpha bravo")) == 1.0


def test_timeliness_tau_floor():
    weak = timeliness_score("alpha zulu", CANDS)
    assert 0 < weak < 1
    assert timeliness_score("alpha zulu", CANDS, ScoringConfig(tau=0.99)) == 0.0


def test_timeliness_empty_candidates_rejected():
    with pytest.raises(ValueError):
        timeliness_score("x", ())


@pytest.mark.parametrize("settings, shown", [
    ({"tau": math.nan}, "tau must be within [0, 1], got nan"),
    ({"tau": 5.0}, "tau must be within [0, 1], got 5.0"),
    ({"tau": -0.1}, "tau must be within [0, 1], got -0.1"),
    ({"xtc_mode": "Prose"}, "xtc_mode must be 'prose' or 'formula', got 'Prose'"),
], ids=["tau-nan", "tau-above-one", "tau-negative", "mode-capitalised"])
def test_scoring_config_refuses_a_bad_setting(settings, shown):
    with pytest.raises(ValueError) as refused:
        ScoringConfig(**settings)
    assert str(refused.value) == shown
    # as a loose keyword the setting went unchecked: tau=nan scored 0.5 here
    loose = {"mode" if key == "xtc_mode" else key: value for key, value in settings.items()}
    with pytest.raises(TypeError):
        timeliness_score("charlie delta", CANDS, **loose)


@pytest.mark.parametrize("metric", [
    xsc, xac, xtc, accuracy_vectors, timeliness_vectors, timeliness_score,
], ids=lambda metric: metric.__name__)
def test_metric_functions_take_their_settings_only_as_one_scoring_value(metric):
    parameters = inspect.signature(metric).parameters
    assert list(parameters)[-1] == "scoring"
    assert parameters["scoring"].default is DEFAULT_SCORING
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())


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
    with pytest.raises(InsufficientDataError, match="timeliness items"):
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


# -- correlate ----------------------------------------------------------------


def sample_matrix(values, langs=("en", "de", "zh")):
    grid = np.full((len(langs), len(langs)), np.nan)
    for (i, j), v in values.items():
        grid[i, j] = v
        grid[j, i] = v
    return PairMatrix(tuple(langs), grid)


@pytest.mark.parametrize("languages, values, degenerate, shown", [
    (("en", "de", "en"), np.zeros((3, 3)), None, "duplicate language codes ['en']"),
    (("en", "de", "zh"), np.zeros((1, 3)), None, "matrix shape (1, 3) != (3, 3)"),
    (("en", "de", "zh"), np.zeros((3, 3)), [[0]], "degenerate shape (1, 1) != (3, 3)"),
], ids=["duplicate-language", "one-row", "one-degenerate-cell"])
def test_pair_matrix_refuses_what_is_not_one_cell_per_language_pair(
    languages, values, degenerate, shown
):
    with pytest.raises(ValueError) as excinfo:
        PairMatrix(languages, values, degenerate)
    assert str(excinfo.value) == shown


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
            answer_set.set_answer(lang, item.id, text)
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
    perturbed.set_answer("zh", "geo-01", "里昂")
    lower = xsc(perturbed, dataset, embedder)
    assert lower.score < ceiling.score


# -- report -------------------------------------------------------------------


def test_build_report_and_json_round_trip(tmp_path):
    dataset, answers, embedder = fixture_run()
    report = build_report(answers, dataset, embedder)
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
    assert loaded.provenance == report.provenance
    assert loaded.provenance["answers"]["run_id"] == answers.run_id

    # report JSON is byte-stable for identical inputs
    report2 = build_report(answers, dataset, embedder)
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


# -- xSC embedding and the chrF workers ----------------------------------------

# one entry per fork of this process, from the import of this module on
FORKS = []
os.register_at_fork(after_in_parent=lambda: FORKS.append(None))


def assert_no_child():
    """No child process of this one is left, running or un-reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class SpyEmbedder:
    """Records every embed_batch call of a mock Embedder, and the processes
    forked since the embedder was made or last called (the chrF workers)."""

    def __init__(self, dims=16):
        self.inner = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=dims))
        self.calls = []
        self.workers_seen = []
        self._forks = len(FORKS)

    def embed_batch(self, texts):
        self.calls.append(list(texts))
        self.workers_seen.append(len(FORKS) - self._forks)
        self._forks = len(FORKS)
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
    result = xsc(answers, dataset, embedder, ScoringConfig(include_timeliness=True))
    assert len(embedder.calls) == 1
    (texts,) = embedder.calls
    assert sorted(texts) == sorted(set(answer_cells(answers).values()))
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


def test_worker_and_inline_reports_are_byte_identical(monkeypatch):
    dataset, answers = synthetic_run()
    embedder = SpyEmbedder()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    forked = build_report(answers, dataset, embedder, ScoringConfig(xtc_mode=FORMULA, tau=0.3))
    assert embedder.workers_seen == [3]
    assert_no_child()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inline = build_report(answers, dataset, embedder, ScoringConfig(xtc_mode=FORMULA, tau=0.3))
    assert embedder.workers_seen == [3, 0]
    assert forked.to_json() == inline.to_json()
    assert inline.xac != 0.0 and inline.xtc != 0.0


def test_workers_never_exceed_one_per_job(monkeypatch):
    dataset, answers = synthetic_run(languages=("en", "de"))
    embedder = SpyEmbedder()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    build_report(answers, dataset, embedder)
    assert embedder.workers_seen == [4]  # two xAC jobs and two xTC jobs
    assert_no_child()


def test_worker_w_of_n_scores_every_nth_job_and_the_scores_come_back_in_job_order(
    monkeypatch
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(consistency, "chrf_batch", lambda hyps, refs, cfg: [hyps[0], os.getpid()])
    jobs = [([f"job {index}"], ["ref"]) for index in range(5)]
    scores, _ = consistency._score_jobs(jobs, consistency.DEFAULT_CHRF, lambda: None)
    assert [row[0] for row in scores] == [f"job {index}" for index in range(5)]
    pids = [row[1] for row in scores]
    assert pids[0] == pids[3] and pids[1] == pids[4]
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert_no_child()


def test_worker_exception_propagates(monkeypatch):
    dataset, answers = synthetic_run(languages=("en", "de"))

    def failing_chrf(hypotheses, references, cfg):
        raise RuntimeError(f"chrF failed in process {os.getpid()}")

    monkeypatch.setattr(consistency, "chrf_batch", failing_chrf)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(RuntimeError, match="chrF failed in process") as excinfo:
        build_report(answers, dataset, SpyEmbedder())
    assert int(str(excinfo.value).split()[-1]) != os.getpid()  # raised in a worker
    assert_no_child()


def test_a_worker_that_dies_without_a_reply_is_an_error_and_is_reaped(monkeypatch):
    dataset, answers = synthetic_run(languages=("en", "de"))
    parent = os.getpid()

    def dying_chrf(hypotheses, references, cfg):
        assert os.getpid() != parent, "chrF ran in the test process"
        os._exit(3)

    monkeypatch.setattr(consistency, "chrf_batch", dying_chrf)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(
        XlconsistError,
        match=r"^the forked xlconsist\.consistency\._score_share exited without a reply "
              r"\(exit code 3\)$",
    ):
        build_report(answers, dataset, SpyEmbedder())
    assert_no_child()
    assert gc.get_freeze_count() == 0


def test_an_error_while_the_workers_run_leaves_no_child(monkeypatch):
    dataset, answers = synthetic_run(languages=("en", "de"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    class FailingEmbedder(SpyEmbedder):
        def embed_batch(self, texts):
            super().embed_batch(texts)
            raise RuntimeError("embedding failed")

    embedder = FailingEmbedder()
    with pytest.raises(RuntimeError, match="embedding failed"):
        build_report(answers, dataset, embedder)
    assert embedder.workers_seen == [2]
    assert_no_child()
    assert gc.get_freeze_count() == 0


class CountsPickling(str):
    pickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return str, (str(self),)


def test_workers_take_their_jobs_through_fork_and_freeze_what_they_inherit(monkeypatch):
    # each worker inherits the parent's frozen objects and runs with gc disabled
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(
        consistency, "chrf_batch",
        lambda hyps, refs, cfg: [float(gc.get_freeze_count()), float(gc.isenabled())],
    )
    jobs = [([CountsPickling("a")], ["b"])] * 3
    scores, result = consistency._score_jobs(jobs, consistency.DEFAULT_CHRF, lambda: "here")
    assert result == "here"
    assert CountsPickling.pickled == 0
    assert len(scores) == 3 and all(row[0] > 0 and row[1] == 0.0 for row in scores)
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    assert_no_child()


def test_parent_freezes_what_it_forks_until_the_workers_are_joined(monkeypatch):
    # gc.freeze() before the fork: while the workers run, this process's
    # collections skip the dataset and answers (a frozen object is in no
    # generation that gc.get_objects lists), and no full collection runs;
    # once the workers are reaped they are unfrozen
    dataset, answers = synthetic_run()
    probe = dataset.qa_items[0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    events, recording = [], []

    def on_gc(phase, info):
        if recording and phase == "start":
            events.append(("gc", info["generation"]))

    def after_fork():
        if recording:
            events.append(("fork",))

    def seen(name):
        collected = any(obj is probe for obj in gc.get_objects())
        events.append((name, gc.get_freeze_count(), collected))

    class FreezeSpy(SpyEmbedder):
        def embed_batch(self, texts):
            seen("embed")
            return super().embed_batch(texts)

    computed_xsc = consistency._xsc

    def xsc_then_seen(languages, columns, embedder):
        semantic = computed_xsc(languages, columns, embedder)
        seen("xsc done")
        return semantic

    monkeypatch.setattr(consistency, "_xsc", xsc_then_seen)
    os.register_at_fork(after_in_parent=after_fork)
    # reset the collector's counts, so no earlier test decides whether a full
    # collection falls due in the pass below
    gc.collect()
    gc.callbacks.append(on_gc)
    recording.append(True)
    try:
        build_report(answers, dataset, FreezeSpy())
    finally:
        recording.clear()
        gc.callbacks.remove(on_gc)
    assert gc.get_freeze_count() == 0
    assert any(obj is probe for obj in gc.get_objects())
    kinds = [event[0] for event in events]
    assert kinds.count("fork") == 2
    first_fork, end = kinds.index("fork"), kinds.index("xsc done")
    assert first_fork < kinds.index("embed") < end
    for event in events:
        if event[0] in ("embed", "xsc done"):
            assert event[1] > 0 and not event[2], event
    assert ("gc", 2) not in events[first_fork:end]


def test_objects_the_caller_froze_stay_frozen(monkeypatch):
    # gc.unfreeze is process-wide: build_report must not unfreeze what its
    # caller froze before the call
    dataset = mini_fixture()
    answers = ground_truth_answers(dataset)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        build_report(answers, dataset, SpyEmbedder())
        assert gc.get_freeze_count() >= frozen
    finally:
        gc.unfreeze()


SCORE = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(None))
from xlconsist.cli import cli
try:
    cli.main(args=sys.argv[1:], prog_name="xlconsist")
except SystemExit as exc:
    if exc.code:
        raise
print(len(forks), *sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_forked_score_loads_no_multiprocessing(tmp_path):
    # score forks its store child and chrF workers itself, with no process pool
    truth = ground_truth_answers(mini_fixture())
    store = tmp_path / "answers.jsonl"
    write_answer_header(store, truth)
    with open(store, "a", encoding="utf-8") as handle:
        for (lang, item_id), text in answer_cells(truth).items():
            append_answer_record(handle, lang, item_id, text, text, "ok", 1)
    src = Path(consistency.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", SCORE, "score", "--dataset", str(bundled_fixture_path()),
         "--answers", str(store), "--out-dir", str(tmp_path / "out"),
         "--provider-kind", "mock", "--dims", "16"],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    # the store child and two chrF workers, and neither module
    assert result.stdout.splitlines()[-1] == "3"
    assert (tmp_path / "out" / "report.json").is_file()


# -- build_report: answers looked up once -------------------------------------


def without(answers, *cells):
    """A copy of `answers` that lacks the given (lang, item) cells."""
    copy = AnswerSet(run_id=answers.run_id, model_id=answers.model_id)
    for key, text in answer_cells(answers).items():
        if key not in cells:
            copy.set_answer(*key, text)
    return copy


@pytest.mark.parametrize("include_timeliness", [False, True])
def test_missing_qa_cell_is_refused_before_embedding(include_timeliness):
    dataset, answers = synthetic_run(languages=("en", "de", "zh"))
    item = dataset.qa_items[3].id
    embedder = SpyEmbedder()
    with pytest.raises(MissingAnswersError) as excinfo:
        build_report(without(answers, ("de", item)), dataset, embedder,
                     ScoringConfig(include_timeliness=include_timeliness))
    assert str(excinfo.value) == f"1 answers missing: de/{item}"
    assert embedder.calls == []
    assert_no_child()


@pytest.mark.parametrize("include_timeliness", [False, True])
def test_missing_timeliness_cell_is_refused_before_embedding(include_timeliness):
    dataset, answers = synthetic_run(languages=("en", "de", "zh"))
    item = dataset.timeliness_items[1].id
    embedder = SpyEmbedder()
    with pytest.raises(MissingAnswersError) as excinfo:
        build_report(without(answers, ("zh", item)), dataset, embedder,
                     ScoringConfig(include_timeliness=include_timeliness))
    assert str(excinfo.value) == f"1 answers missing: zh/{item}"
    assert embedder.calls == []


def test_missing_cells_are_named_in_check_order():
    dataset, answers = synthetic_run(languages=("en", "de", "zh"))
    qa, timely = dataset.qa_items[0].id, dataset.timeliness_items[0].id
    gaps = without(answers, ("zh", qa), ("en", timely), ("de", qa))
    # the items xAC scores are checked first, language by language
    with pytest.raises(MissingAnswersError, match=rf"^2 answers missing: de/{qa}, zh/{qa}$"):
        build_report(gaps, dataset, SpyEmbedder())
    with pytest.raises(
        MissingAnswersError, match=rf"^3 answers missing: en/{timely}, de/{qa}, zh/{qa}$"
    ):
        build_report(gaps, dataset, SpyEmbedder(), ScoringConfig(include_timeliness=True))


@pytest.mark.parametrize("include_timeliness", [False, True])
def test_build_report_calls_xsc_once_and_matches_the_public_metrics(
    monkeypatch, include_timeliness
):
    # build_report hands the answers that xAC looked up to xsc's computation;
    # count the items of each call
    dataset, answers = synthetic_run()
    calls = []
    computed_xsc = consistency._xsc

    def counted(languages, columns, embedder):
        calls.append(len(columns[0]))
        return computed_xsc(languages, columns, embedder)

    monkeypatch.setattr(consistency, "_xsc", counted)
    embedder = SpyEmbedder()
    scoring = ScoringConfig(xtc_mode=FORMULA, tau=0.3, include_timeliness=include_timeliness)
    report = build_report(answers, dataset, embedder, scoring)
    assert calls == [dataset.n_qa + (len(dataset.timeliness_items) if include_timeliness else 0)]
    semantic = xsc(answers, dataset, embedder, scoring)
    accuracy = xac(answers, dataset, scoring)
    timeliness = xtc(answers, dataset, scoring)
    assert (report.xsc, report.xac, report.xtc) == (
        semantic.score, accuracy.score, timeliness.score
    )
    assert report.matrices["xsc"].to_jsonable() == semantic.matrix.to_jsonable()
    assert report.matrices["xac"].to_jsonable() == accuracy.matrix.to_jsonable()
