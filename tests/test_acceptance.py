"""Acceptance suite: every criterion checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import functools
import math
import random
import string
import time

import numpy as np
import pytest
from click.testing import CliRunner

from xlconsist.answers import AnswerSet, ground_truth_answers
from xlconsist.cli import cli
from xlconsist.collection import CollectionConfig, collect_answers
from xlconsist.consistency import FORMULA, ScoringConfig, timeliness_score, xac, xc, xsc, xtc
from xlconsist.dataset import Dataset, QAItem, TimelinessItem
from xlconsist.embedding import Embedder, EmbeddingProviderConfig
from xlconsist.fixtures import bundled_fixture_path, mini_fixture, mini_fixture_answers
from xlconsist.mockllm import MockLLMServer
from xlconsist.textmetrics import chrf, cosine, spearman, spearman_detailed

from conftest import DATA_DIR
from multilingual_pairs import PAIRS
from oracles import brute_force_chrf, spearman_d2


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: {label}")
                raise
            print(f"PASS: {label}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------

REFERENCE_XC_ROWS = [
    # (xsc, xac, xtc, published xc)
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


@criterion("xC arithmetic reproduces the published table")
def test_xc_reference_table():
    assert xc(0.706, 0.489, 0.508) == pytest.approx(0.552, abs=0.001)
    assert xc(0.530, 0.342, 0.413) == pytest.approx(0.415, abs=0.001)
    for a, b, c, expected in REFERENCE_XC_ROWS:
        assert xc(a, b, c) == pytest.approx(expected, abs=0.002), (a, b, c)


@criterion("CHRF suite: identity, disjoint, 50-pair oracle agreement in < 1 s")
def test_chrf_suite():
    start = time.perf_counter()
    for text in ["Argentina", "阿根廷", "아르헨티나", "Αθήνα", "x"]:
        assert chrf(text, text) == 1.0
    assert chrf("abc", "xyz") == 0.0
    for hyp, ref in PAIRS:
        assert chrf(hyp, ref) == pytest.approx(brute_force_chrf(hyp, ref), abs=1e-6), (hyp, ref)
    assert time.perf_counter() - start < 1.0


@criterion("Spearman suite: d² oracle, tied hand case, monotone invariance")
def test_spearman_suite():
    rng = random.Random(20240601)
    for trial in range(1000):
        n = rng.randint(2, 50)
        x = rng.sample(range(10**6), n)
        y = rng.sample(range(10**6), n)
        assert abs(spearman(x, y) - spearman_d2(x, y)) <= 1e-12

    # hand-computed 5-element tied case: ranks [1, 2.5, 2.5, 4.5, 4.5]
    # against [1..5] give rho = 3/sqrt(10)
    assert spearman([10, 20, 20, 30, 30], [1, 2, 3, 4, 5]) == pytest.approx(
        3 / math.sqrt(10), abs=1e-12
    )

    for trial in range(100):
        n = rng.randint(3, 30)
        x = [rng.uniform(0.1, 9.0) for _ in range(n)]
        y = [rng.uniform(0.1, 9.0) for _ in range(n)]
        base = spearman(x, y)
        assert abs(spearman([2 * v + 7 for v in x], y) - base) <= 1e-12
        assert abs(spearman(x, [v**3 for v in y]) - base) <= 1e-12


# ---------------------------------------------------------------------------

def random_four_language_fixture(rng):
    langs = ("aa", "bb", "cc", "dd")
    alphabet = string.ascii_lowercase
    qa = []
    for i in range(8):
        truth = "".join(rng.choice(alphabet) for _ in range(12))
        qa.append(
            QAItem(
                id=f"q{i}", domain="x", entity=f"e{i}", relation="r",
                questions={lang: f"Q{i} {lang}" for lang in langs},
                answers={lang: truth for lang in langs},
            )
        )
    timeliness = []
    for i in range(4):
        cands = tuple("".join(rng.choice(alphabet) for _ in range(10)) for _ in range(3))
        timeliness.append(
            TimelinessItem(
                id=f"t{i}",
                questions={lang: f"T{i} {lang}" for lang in langs},
                candidates={lang: cands for lang in langs},
            )
        )
    dataset = Dataset(languages=langs, qa_items=tuple(qa), timeliness_items=tuple(timeliness))

    answers = AnswerSet(run_id="rand", model_id="rand")
    for item in qa:
        for lang in langs:
            truth = item.answers[lang]
            keep = rng.randint(0, len(truth))
            text = truth[:keep] + "".join(rng.choice(alphabet) for _ in range(12 - keep))
            answers.set_answer(lang, item.id, text, text, "ok")
    for item in timeliness:
        for lang in langs:
            pick = item.candidates[lang][rng.randrange(3)]
            keep = rng.randint(3, len(pick))
            answers.set_answer(lang, item.id, pick[:keep], pick[:keep], "ok")
    return dataset, answers


@criterion("ordered-pair definition equals unordered implementation to 1e-12")
def test_metric_definition_equivalence():
    rng = random.Random(77)
    np_rng = np.random.default_rng(77)
    for trial in range(5):
        dataset, answers = random_four_language_fixture(rng)
        langs = dataset.languages
        size = len(langs)
        denominator = size * (size - 1)

        table = {}
        for item in dataset.qa_items:
            for lang in langs:
                vec = np_rng.normal(size=16)
                table[answers.answer(lang, item.id)] = vec

        class Stub:
            def embed_batch(self, texts):
                return np.vstack([table[t] for t in texts])

            def describe(self):
                return {}

        semantic = xsc(answers, dataset, Stub())
        literal = math.fsum(
            math.fsum(
                cosine(table[answers.answer(a, item.id)], table[answers.answer(b, item.id)])
                for item in dataset.qa_items
            )
            / len(dataset.qa_items)
            for a in langs
            for b in langs
            if a != b
        ) / denominator
        assert abs(semantic.score - literal) <= 1e-12

        from xlconsist.consistency import accuracy_vectors, timeliness_vectors

        acc = accuracy_vectors(answers, dataset)
        accuracy = xac(answers, dataset)
        literal = math.fsum(
            spearman_detailed(acc[a], acc[b]).value for a in langs for b in langs if a != b
        ) / denominator
        assert abs(accuracy.score - literal) <= 1e-12

        tsc = timeliness_vectors(answers, dataset)
        timeliness = xtc(answers, dataset)
        literal = math.fsum(
            spearman_detailed(tsc[a], tsc[b]).value for a in langs for b in langs if a != b
        ) / denominator
        assert abs(timeliness.score - literal) <= 1e-12


@criterion("xSC ceiling: ground truth scores 1.0 with the mock, perturbations score less")
def test_xsc_ceiling_property():
    dataset = mini_fixture()
    groups = [
        tuple(item.answers[lang] for lang in dataset.languages) for item in dataset.qa_items
    ] + [
        tuple(item.candidates[lang][0] for lang in dataset.languages)
        for item in dataset.timeliness_items
    ]
    embedder = Embedder(
        EmbeddingProviderConfig(kind="mock", expected_dims=32, synonyms=tuple(groups))
    )
    ceiling = xsc(ground_truth_answers(dataset), dataset, embedder).score
    assert ceiling == pytest.approx(1.0, abs=1e-12)

    rng = random.Random(5)
    for trial in range(5):
        perturbed = ground_truth_answers(dataset)
        item = rng.choice(dataset.qa_items)
        lang = rng.choice(dataset.languages)
        perturbed.set_answer(lang, item.id, "perturbed answer", "perturbed answer", "ok")
        assert xsc(perturbed, dataset, embedder).score < ceiling


# ---------------------------------------------------------------------------

def _shift_alphabet(text: str) -> str:
    """Bijective a..m -> n..z character map; preserves every n-gram count."""
    return text.translate(str.maketrans(string.ascii_lowercase[:13], string.ascii_lowercase[13:26]))


@criterion("xTC mode check: prose halves the second-rank score, formula equalizes")
def test_xtc_mode_discrepancy():
    base = "abc def ghi jkl m"
    langs = ("A", "B")
    prose, formula = ScoringConfig(), ScoringConfig(xtc_mode=FORMULA)
    items = []
    answer_plan = {}
    for i, keep in enumerate((14, 9, 5)):
        newest = base[: 11 + 2 * i]
        outdated = _shift_alphabet(newest)
        cands = (newest, outdated)
        items.append(
            TimelinessItem(
                id=f"t{i}",
                questions={lang: f"q{i} {lang}" for lang in langs},
                candidates={lang: cands for lang in langs},
            )
        )
        answer_plan[("A", f"t{i}")] = newest[:keep]
        answer_plan[("B", f"t{i}")] = _shift_alphabet(newest[:keep])

    dataset = Dataset(languages=langs, qa_items=(), timeliness_items=tuple(items))
    answers = AnswerSet(run_id="mode", model_id="mode")
    for (lang, item_id), text in answer_plan.items():
        answers.set_answer(lang, item_id, text, text, "ok")

    for item in items:
        a_score = timeliness_score(answers.answer("A", item.id), item.candidates["A"], prose)
        b_score = timeliness_score(answers.answer("B", item.id), item.candidates["B"], prose)
        assert 0 < a_score < 1 or a_score == 1.0
        assert b_score == a_score / 2  # exactly: same chrF, rank 2 vs rank 1

        a_formula = timeliness_score(answers.answer("A", item.id), item.candidates["A"], formula)
        b_formula = timeliness_score(answers.answer("B", item.id), item.candidates["B"], formula)
        assert a_formula == b_formula  # the literal reading cannot tell them apart

    assert xtc(answers, dataset, prose).score == pytest.approx(1.0, abs=1e-12)
    assert xtc(answers, dataset, formula).score == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------

def run_golden_pipeline(tmp_path, out_name, answers_path=None):
    runner = CliRunner()
    if answers_path is None:
        answers_path = tmp_path / "answers.jsonl"
        with MockLLMServer(mini_fixture_answers()) as server:
            result = runner.invoke(cli, [
                "collect", "--dataset", str(bundled_fixture_path()),
                "--out", str(answers_path), "--endpoint", server.url,
                "--model", "canned", "--shots", "2", "--seed", "11",
                "--run-id", "golden", "--concurrency", "4",
            ])
            assert result.exit_code == 0, result.output
    result = runner.invoke(cli, [
        "score", "--dataset", str(bundled_fixture_path()), "--answers", str(answers_path),
        "--out-dir", str(tmp_path / out_name), "--cache", str(tmp_path / "vectors.bin"),
        "--provider-kind", "mock", "--dims", "48", "--seed", "11",
    ])
    assert result.exit_code == 0, result.output
    return answers_path, tmp_path / out_name / "report.json"


@criterion("end-to-end golden run is byte-identical and finishes in < 5 s")
def test_end_to_end_golden(tmp_path):
    start = time.perf_counter()
    answers_path, first = run_golden_pipeline(tmp_path, "out1")
    _, second = run_golden_pipeline(tmp_path, "out2", answers_path)  # warm cache
    elapsed = time.perf_counter() - start
    golden = (DATA_DIR / "golden_report.json").read_bytes()
    assert first.read_bytes() == golden
    assert second.read_bytes() == golden
    assert elapsed < 5.0, f"golden pipeline took {elapsed:.2f}s"


class _Interrupt(Exception):
    pass


@criterion("interrupted collection resumes to an identical answer set")
def test_resume_idempotence(tmp_path):
    dataset = mini_fixture()
    with MockLLMServer(mini_fixture_answers()) as server:
        cfg = CollectionConfig(
            endpoint=server.url, model="canned", shots=2, exemplar_seed=11,
            concurrency=3, backoff_base=0.01,
        )
        uninterrupted, _ = collect_answers(
            dataset, cfg, tmp_path / "full.jsonl", run_id="r"
        )

        for stop_after in (1, 17, 55):
            store = tmp_path / f"interrupted_{stop_after}.jsonl"
            count = {"n": 0}

            def interrupt(lang, item_id, status):
                count["n"] += 1
                if count["n"] >= stop_after:
                    raise _Interrupt()

            with pytest.raises(_Interrupt):
                collect_answers(
                    dataset, cfg, store, run_id="r", progress=interrupt
                )
            resumed, _ = collect_answers(dataset, cfg, store, run_id="r")
            assert resumed.answers == uninterrupted.answers
            assert resumed.statuses == uninterrupted.statuses


@criterion("language permutation and drop leave cells bit-identical")
def test_language_invariances():
    dataset = mini_fixture()
    canned = mini_fixture_answers()
    answers = AnswerSet(run_id="inv", model_id="canned")
    for item in dataset.qa_items + dataset.timeliness_items:
        for lang in dataset.languages:
            text = canned[item.questions[lang]]
            answers.set_answer(lang, item.id, text, text, "ok")
    embedder = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=48, mock_seed=11))

    runs = {
        "base": dataset,
        "permuted": dataset.subset(["zh", "en", "de"]),
        "dropped": dataset.subset(["en", "zh"]),
    }
    results = {
        name: (xsc(answers, d, embedder), xac(answers, d), xtc(answers, d))
        for name, d in runs.items()
    }

    base_xsc, base_xac, base_xtc = results["base"]
    perm_xsc, perm_xac, perm_xtc = results["permuted"]
    for base_result, perm_result in [
        (base_xsc, perm_xsc), (base_xac, perm_xac), (base_xtc, perm_xtc)
    ]:
        assert base_result.score == perm_result.score  # bit-identical
        for a in dataset.languages:
            for b in dataset.languages:
                if a != b:
                    assert base_result.matrix.cell(a, b) == perm_result.matrix.cell(a, b)

    drop_xsc, drop_xac, drop_xtc = results["dropped"]
    for base_result, drop_result in [
        (base_xsc, drop_xsc), (base_xac, drop_xac), (base_xtc, drop_xtc)
    ]:
        assert drop_result.matrix.cell("en", "zh") == base_result.matrix.cell("en", "zh")
