"""Property tests that span modules: format round-trips, matrix shape laws."""

import string
import threading

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from xlconsist.answers import AnswerSet
from xlconsist.cli import cli
from xlconsist.consistency import xac, xsc, xtc
from xlconsist.dataset import Dataset, QAItem, TimelinessItem, load_dataset, write_dataset
from xlconsist.embedding import Embedder, EmbeddingProviderConfig, VectorCache, cache_key
from xlconsist.fixtures import mini_fixture, mini_fixture_answers, synthetic_corpus

content = st.text(min_size=1, max_size=16).filter(lambda s: s.strip())
codes = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=3),
    min_size=2, max_size=4, unique=True,
)


@st.composite
def valid_datasets(draw):
    languages = tuple(draw(codes))
    n_qa = draw(st.integers(min_value=0, max_value=4))
    n_tim = draw(st.integers(min_value=0, max_value=2))
    qa = tuple(
        QAItem(
            id=f"q{i}",
            domain=draw(st.sampled_from(["alpha", "beta"])),
            entity=draw(content),
            relation=draw(content),
            questions={lang: draw(content) for lang in languages},
            answers={lang: draw(content) for lang in languages},
        )
        for i in range(n_qa)
    )
    timeliness = []
    for i in range(n_tim):
        depth = draw(st.integers(min_value=1, max_value=3))
        timeliness.append(
            TimelinessItem(
                id=f"t{i}",
                questions={lang: draw(content) for lang in languages},
                candidates={
                    lang: tuple(draw(content) for _ in range(depth)) for lang in languages
                },
            )
        )
    pool = {}
    if draw(st.booleans()):
        pool["alpha"] = (
            QAItem(
                id="pool0", domain="alpha", entity=draw(content), relation=draw(content),
                questions={lang: draw(content) for lang in languages},
                answers={lang: draw(content) for lang in languages},
            ),
        )
    return Dataset(languages, qa, tuple(timeliness), pool)


@settings(max_examples=40)
@given(valid_datasets())
def test_dataset_round_trip_property(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("rt") / "d.jsonl"
    write_dataset(dataset, path)
    assert load_dataset(path) == dataset


def test_pair_matrices_exactly_symmetric():
    dataset = mini_fixture()
    canned = mini_fixture_answers()
    answers = AnswerSet(run_id="sym", model_id="canned")
    for item in dataset.qa_items + dataset.timeliness_items:
        for lang in dataset.languages:
            text = canned[item.questions[lang]]
            answers.set_answer(lang, item.id, text)
    embedder = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=16))
    for result in (xsc(answers, dataset, embedder), xac(answers, dataset), xtc(answers, dataset)):
        values = result.matrix.values
        off = ~np.eye(len(values), dtype=bool)
        assert np.array_equal(values[off], values.T[off])
        assert np.all(np.abs(values[off]) <= 1.0 + 1e-12)


def test_xsc_nonnegative_embeddings_bounds():
    rng = np.random.default_rng(3)
    langs = ("aa", "bb", "cc")
    items = [
        QAItem(f"q{i}", "d", "e", "r",
               {lang: f"Q{i}{lang}" for lang in langs},
               {lang: f"A{i}{lang}" for lang in langs})
        for i in range(5)
    ]
    dataset = Dataset(langs, tuple(items))
    table = {}
    answers = AnswerSet(run_id="b", model_id="b")
    for item in items:
        for lang in langs:
            text = f"ans {item.id} {lang}"
            answers.set_answer(lang, item.id, text)
            table[text] = np.abs(rng.normal(size=6))  # nonnegative components

    class Stub:
        def embed_batch(self, texts):
            return np.vstack([table[t] for t in texts])

        def describe(self):
            return {}

    result = xsc(answers, dataset, Stub())
    assert 0.0 <= result.score <= 1.0
    off = ~np.eye(3, dtype=bool)
    assert np.all(result.matrix.values[off] >= 0.0)


def test_cache_concurrent_mixed_readers_writers(tmp_path):
    path = tmp_path / "c.bin"
    cfg = EmbeddingProviderConfig(kind="mock", expected_dims=8)
    cache = VectorCache(path)
    embedder = Embedder(cfg, cache)
    texts = [f"text {i}" for i in range(40)]
    errors = []

    def worker(offset):
        try:
            for i in range(40):
                batch = [texts[(i + offset) % 40], texts[(i * 3 + offset) % 40]]
                matrix = embedder.embed_batch(batch)
                assert matrix.shape == (2, 8)
        except Exception as exc:  # pragma: no cover - diagnostic path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert embedder.fetched_texts == 40  # each unique text fetched exactly once
    cache.close()

    reopened = VectorCache(path)
    assert reopened.keys() == {cache_key(t) for t in texts}
    reopened.close()


def test_synthetic_corpus_supports_five_shot_collection():
    corpus = synthetic_corpus(languages=("en", "de"))
    from xlconsist.collection import sample_exemplars

    for domain, pool in corpus.few_shot_pool.items():
        picks = sample_exemplars(pool, 5, seed=1, domain=domain)
        assert len(picks) == 5
    assert "timeliness" in corpus.few_shot_pool


def test_score_without_timeliness_items_fails_cleanly(tmp_path):
    dataset = mini_fixture()
    qa_only = Dataset(dataset.languages, dataset.qa_items, (), dataset.few_shot_pool)
    path = tmp_path / "qa_only.jsonl"
    write_dataset(qa_only, path)
    runner = CliRunner()
    result = runner.invoke(cli, [
        "score", "--dataset", str(path), "--ground-truth",
        "--out-dir", str(tmp_path / "out"), "--provider-kind", "mock", "--dims", "8",
    ])
    assert result.exit_code == 1
    assert "timeliness items" in result.output


def test_collect_with_config_file(tmp_path):
    from xlconsist.fixtures import bundled_fixture_path
    from xlconsist.mockllm import MockLLMServer

    with MockLLMServer(mini_fixture_answers()) as server:
        config = tmp_path / "run.yaml"
        config.write_text(
            "\n".join([
                "schema: xlconsist-run/1",
                f"dataset: {bundled_fixture_path()}",
                f"answers: {tmp_path / 'a.jsonl'}",
                "run_id: cfg-run",
                "seed: 11",
                "collection:",
                f"  endpoint: {server.url}",
                "  model: canned",
                "  shots: 1",
                "  concurrency: 2",
            ]) + "\n",
            encoding="utf-8",
        )
        runner = CliRunner()
        result = runner.invoke(cli, ["collect", "--config", str(config)])
        assert result.exit_code == 0, result.output
    from xlconsist.answers import load_answers

    loaded = load_answers(tmp_path / "a.jsonl")
    assert loaded.run_id == "cfg-run"
    assert loaded.seed == 11
    assert len(loaded.item_ids) * len(loaded.by_language) == 84
    assert all(None not in column for column in loaded.by_language.values())
