"""Tests for the benchmark itself: generator, output checks and span maths.

    python -m pytest perfbench/tests -q
"""

import json
import random

import numpy as np
import pytest
from click.testing import CliRunner

import checks
import spans
import workloads
from spans import Span
from xlconsist.cli import cli
from xlconsist.fixtures import synthetic_corpus
from xlconsist.mockllm import MockLLMServer
from xlconsist.textmetrics import chrf


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert first.answers == again.answers
    assert first.dataset == again.dataset
    assert first.vectors.keys() == again.vectors.keys()
    assert all(np.array_equal(first.vectors[t], again.vectors[t]) for t in first.vectors)
    assert first.answers != other.answers
    assert first.shape()["cells"] == len(first.answers)


def test_reference_chrf_matches_the_scorer_bit_for_bit():
    rng = random.Random(3)
    words = ["capital", "москва", "αθήνα", "東京", "river", "no", "idea"]
    for _ in range(300):
        hyp = " ".join(rng.choices(words, k=rng.randint(0, 6)))
        ref = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        assert checks.reference_chrf(hyp, ref) == chrf(hyp, ref)


@pytest.fixture(scope="module")
def small_score(tmp_path_factory):
    """A real `xlconsist score` report on a 3-language, one-domain corpus."""
    directory = tmp_path_factory.mktemp("score")
    dataset = synthetic_corpus(languages=("en", "de", "zh"), domains=("literature",))
    inputs = workloads.score_inputs(5, dataset)
    paths = workloads.write_inputs(inputs, directory)
    result = CliRunner().invoke(cli, [
        "score", "--dataset", str(paths["dataset"]), "--answers", str(paths["answers"]),
        "--cache", str(paths["cache"]), "--provider-kind", "cache-only",
        "--dims", str(workloads.DIMS), "--out-dir", str(directory / "report"),
    ])
    assert result.exit_code == 0, result.output
    return inputs, (directory / "report" / "report.json").read_bytes()


def test_score_check_accepts_the_program_output(small_score):
    inputs, report = small_score
    expected = checks.expected_report(inputs)
    assert checks.check_score_passes([report, report], expected) == [[], []]


def test_score_check_rejects_one_matrix_cell_changed_in_its_last_bit(small_score):
    inputs, report = small_score
    data = json.loads(report)
    cell = data["matrices"]["xac"]["values"][0][1]
    data["matrices"]["xac"]["values"][0][1] = float(np.nextafter(cell, np.inf))
    mutated = json.dumps(data, ensure_ascii=False, sort_keys=True, indent=1).encode() + b"\n"
    assert mutated != report
    verdicts = checks.check_score_passes([report, mutated], checks.expected_report(inputs))
    assert verdicts[0] == []
    assert verdicts[1] == ["report.json differs from pass 1"]


def test_score_check_rejects_a_wrong_score(small_score):
    inputs, report = small_score
    data = json.loads(report)
    data["metrics"]["xtc"] += 1e-6
    problems = checks.check_report(data, checks.expected_report(inputs))
    assert any(problem.startswith("xtc ") for problem in problems)


@pytest.fixture(scope="module")
def small_collect(tmp_path_factory):
    """A real `xlconsist collect` store against the in-process mock endpoint."""
    directory = tmp_path_factory.mktemp("collect")
    dataset = synthetic_corpus(languages=("en", "de"), domains=("literature",))
    inputs = workloads.collect_inputs(5, dataset, ("en",))
    paths = workloads.write_inputs(inputs, directory)
    canned = json.loads(paths["canned"].read_text(encoding="utf-8"))
    store = directory / "answers.jsonl"
    with MockLLMServer(canned) as server:
        result = CliRunner().invoke(cli, [
            "collect", "--dataset", str(paths["dataset"]), "--out", str(store),
            "--endpoint", server.url, "--shots", "5", "--concurrency", "2",
            "--languages", "en",
        ])
    assert result.exit_code == 0, result.output
    return inputs, store, directory / "answers.jsonl.manifest.json"


def test_store_check_accepts_the_program_output(small_collect):
    inputs, store, manifest = small_collect
    assert checks.check_store(store, manifest, inputs.answers) == []


def test_store_check_rejects_a_store_missing_one_cell(small_collect, tmp_path):
    inputs, store, manifest = small_collect
    lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = json.loads(lines[7])
    short = tmp_path / "answers.jsonl"
    short.write_text("".join(lines[:7] + lines[8:]), encoding="utf-8")
    problems = checks.check_store(short, manifest, inputs.answers)
    assert problems == [f"cell {(dropped['lang'], dropped['item'])}: 0 ok records"]


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "child", 1.0, 4.0, 0),
        Span(2, "child", 3.0, 6.0, 0),  # overlaps its sibling: covered once
        Span(3, "grandchild", 2.0, 3.0, 1),
        Span(4, "child", 9.0, 12.0, 0),  # runs past its parent: clipped at 10
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_layer_metrics_from_a_hand_built_dump():
    doc = {
        "spans": [
            [0, "cli.collect", 0.0, 1.0, None, None],
            [1, "collection.request", 0.1, 0.3, None, 1],
            [2, "collection.request", 0.2, 0.4, None, 3],
            [3, "answers.append", 0.5, 0.6, None, 1],
        ],
        "distinct": {},
        "missing": [],
    }
    metrics = spans.layer_metrics(doc)
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["collection.request_calls"] == 2
    assert metrics["collection.attempts"] == 4
    assert metrics["collection.retries"] == 2
    assert metrics["collection.max_in_flight"] == 2
    assert metrics["collection.failed_cells"] == 1
    assert metrics["cli.collect_self_s"] == pytest.approx(1.0)
    assert metrics["textmetrics.chrf_calls"] == 0
