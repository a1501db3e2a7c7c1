"""Seeded inputs for the benchmark workloads, and writing them to disk.

Generation is pure: the same (workload, seed) gives the same dataset,
answers and vectors. `write_inputs` turns them into the files the program
reads (dataset JSONL, answers store, vector cache, canned chat answers).

Why these workloads:

- score-paper: `xlconsist score` on the paper-scale synthetic corpus
  (12 languages, 2017 QA + 136 timeliness items). Answers are short and
  often repeated, and 66 language pairs put the weight on per-call
  overhead in the chrF wrapper, rank correlation and aggregation.
- score-longform: 4 languages, one per script family, with 80-400
  character answers in that script, nearly all distinct. The n-gram
  kernel does most of the work and per-string memoisation finds nothing
  to reuse, so a caching gain on score-paper must show no change here.
  BENCHMARK.json leaves it out: the time limit for all of its runs allows
  about 30 s per run with three workloads, and on a shared 2-vCPU host
  its figures then spread most, so run it by hand for a change to the
  chrF kernel or to caching.
- collect: `xlconsist collect` for one language against the mock chat
  endpoint in its own process at zero latency, 2 closed-loop workers
  (one per core). The only workload for prompt build, the HTTP client and
  store appends; zero latency makes it measure the client's cost per cell.
"""

from __future__ import annotations

import bisect
import json
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from xlconsist.answers import AnswerSet, append_answer_record, write_answer_header
from xlconsist.dataset import Dataset, QAItem, TimelinessItem, dataset_hash, write_dataset
from xlconsist.embedding import VectorCache, cache_key
from xlconsist.fixtures import CORPUS_SHAPE, TIMELINESS_SHAPE, synthetic_corpus

SCORE_PAPER = "score-paper"
SCORE_LONGFORM = "score-longform"
COLLECT = "collect"
WORKLOADS = (SCORE_PAPER, SCORE_LONGFORM, COLLECT)

DIMS = 128
NO_IDEA = "no idea"
LONGFORM_LANGUAGES = ("en", "ru", "el", "zh")
COLLECT_LANGUAGES = ("en",)
COLLECT_SHOTS = 5
COLLECT_CONCURRENCY = 2
MODEL = "bench-model"
RUN_ID = "bench"
# quartiles of the mean of two uniform draws
_QUARTILES = (0.5**1.5, 0.5, 1 - 0.5**1.5)

_ALPHABETS = {
    "en": "abcdefghijklmnopqrstuvwxyz",
    "ru": "абвгдежзийклмнопрстуфхцчшщыэюя",
    "el": "αβγδεζηθικλμνξοπρστυφχψω",
    "zh": "".join(chr(0x4E00 + k) for k in range(1500)),
}


@dataclass
class Inputs:
    """Everything one workload feeds the program, plus what the checks need."""

    workload: str
    seed: int
    dataset: Dataset
    languages: tuple[str, ...]  # languages the command runs on
    answers: dict[tuple[str, str], str]  # score: the store; collect: canned answers
    vectors: dict[str, np.ndarray] = field(default_factory=dict)  # float32 per text

    @property
    def cells(self) -> int:
        return len(self.languages) * (self.dataset.n_qa + len(self.dataset.timeliness_items))

    def shape(self) -> dict:
        texts = list(self.answers.values())
        return {
            "languages": list(self.languages),
            "qa_items": self.dataset.n_qa,
            "timeliness_items": len(self.dataset.timeliness_items),
            "cells": self.cells,
            "mean_answer_chars": sum(len(t) for t in texts) / len(texts),
            "distinct_answer_share": len(set(texts)) / len(texts),
        }


def truths(dataset: Dataset, languages) -> dict[tuple[str, str], str]:
    """Ground truth per cell; a timeliness item's is its newest candidate."""
    out = {}
    for item in dataset.qa_items:
        for lang in languages:
            out[(lang, item.id)] = item.answers[lang]
    for item in dataset.timeliness_items:
        for lang in languages:
            out[(lang, item.id)] = item.candidates[lang][0]
    return out


def degrade(truth: dict[tuple[str, str], str], rng: random.Random) -> dict[tuple[str, str], str]:
    """Per cell, one of: the truth, two thirds of it, a third of it, or 'no idea',
    each in about a quarter of cells, stripped as collection strips answers.
    An item's difficulty, shared by its languages, shifts the odds, so
    accuracy correlates across languages."""
    difficulty: dict[str, float] = {}
    out = {}
    for (lang, item_id), text in truth.items():
        mix = 0.5 * difficulty.setdefault(item_id, rng.random()) + 0.5 * rng.random()
        level = bisect.bisect(_QUARTILES, mix)
        if level == 1:
            text = text[: max(3, len(text) * 2 // 3)]
        elif level == 2:
            text = text[: max(2, len(text) // 3)]
        elif level == 3:
            text = NO_IDEA
        out[(lang, item_id)] = text.strip()
    return out


def _vectors(answers: dict[tuple[str, str], str], seed: int) -> dict[str, np.ndarray]:
    """One vector per distinct text: its first item's direction plus noise,
    so answers to one item agree across languages more than chance."""
    rng = np.random.default_rng(seed)
    bases: dict[str, np.ndarray] = {}
    vectors: dict[str, np.ndarray] = {}
    for (_, item_id), text in answers.items():
        if text in vectors:
            continue
        if item_id not in bases:
            bases[item_id] = rng.standard_normal(DIMS)
        vectors[text] = (bases[item_id] + 0.8 * rng.standard_normal(DIMS)).astype(np.float32)
    return vectors


def _vocabulary(lang: str, rng: random.Random, size: int = 3000) -> list[str]:
    alphabet = _ALPHABETS[lang]
    low, high = (1, 3) if lang == "zh" else (2, 9)
    return ["".join(rng.choices(alphabet, k=rng.randint(low, high))) for _ in range(size)]


def _join(words: list[str], lang: str) -> str:
    return unicodedata.normalize("NFC", ("" if lang == "zh" else " ").join(words))


def _phrase(vocab: list[str], lang: str, rng: random.Random, low: int, high: int) -> str:
    target = rng.randint(low, high)
    words: list[str] = []
    length = 0
    while length < target:
        words.append(rng.choice(vocab))
        length += len(words[-1]) + (lang != "zh")
    return _join(words, lang)[:target]


def _long_answer(
    truth: str, vocab: list[str], lang: str, keep: float, rng: random.Random
) -> str:
    """80-400 characters: the truth's words in order, each kept with
    probability `keep`, mixed with other words."""
    target = rng.randint(80, 400)
    parts = list(truth) if lang == "zh" else truth.split()
    words: list[str] = []
    length = 0
    while length < target:
        for part in parts:
            if rng.random() < keep:
                words.append(part)
                length += len(part) + 1
            if rng.random() < 0.3:
                words.append(rng.choice(vocab))
                length += len(words[-1]) + 1
        words.append(rng.choice(vocab))
        length += len(words[-1]) + 1
    return _join(words, lang)[:target]


def _longform(seed: int) -> tuple[Dataset, dict[tuple[str, str], str]]:
    rng = random.Random(f"{SCORE_LONGFORM}:{seed}")
    vocab = {lang: _vocabulary(lang, rng) for lang in LONGFORM_LANGUAGES}
    qa_items = []
    for domain, (_, _, n_items) in CORPUS_SHAPE.items():
        for i in range(n_items):
            item_id = f"{domain}-{i:04d}"
            qa_items.append(
                QAItem(
                    id=item_id,
                    domain=domain,
                    entity=f"{domain} entity {i:04d}",
                    relation=f"{domain} relation",
                    questions={lang: f"[{lang}] {item_id}?" for lang in LONGFORM_LANGUAGES},
                    answers={
                        lang: _phrase(vocab[lang], lang, rng, 40, 160)
                        for lang in LONGFORM_LANGUAGES
                    },
                )
            )
    timeliness = [
        TimelinessItem(
            id=f"tim-{i:04d}",
            questions={lang: f"[{lang}] tim-{i:04d}?" for lang in LONGFORM_LANGUAGES},
            candidates={
                lang: tuple(_phrase(vocab[lang], lang, rng, 40, 160) for _ in range(3))
                for lang in LONGFORM_LANGUAGES
            },
        )
        for i in range(TIMELINESS_SHAPE[2])
    ]
    dataset = Dataset(LONGFORM_LANGUAGES, tuple(qa_items), tuple(timeliness))
    answers = {}
    for item in dataset.qa_items:
        ease = rng.random()
        for lang in LONGFORM_LANGUAGES:
            keep = 0.5 * ease + 0.5 * rng.random()
            answers[(lang, item.id)] = _long_answer(item.answers[lang], vocab[lang], lang, keep, rng)
    for item in dataset.timeliness_items:
        ease = rng.random()
        for lang in LONGFORM_LANGUAGES:
            source = item.candidates[lang][rng.choice((0, 0, 1, 2))]
            keep = 0.5 * ease + 0.5 * rng.random()
            answers[(lang, item.id)] = _long_answer(source, vocab[lang], lang, keep, rng)
    return dataset, answers


def generate(workload: str, seed: int) -> Inputs:
    if workload == SCORE_PAPER:
        return score_inputs(seed, synthetic_corpus())
    if workload == SCORE_LONGFORM:
        dataset, answers = _longform(seed)
        return Inputs(workload, seed, dataset, dataset.languages, answers, _vectors(answers, seed))
    if workload == COLLECT:
        return collect_inputs(seed, synthetic_corpus(), COLLECT_LANGUAGES)
    raise ValueError(f"unknown workload {workload!r}")


def score_inputs(seed: int, dataset: Dataset) -> Inputs:
    """Degraded ground truth as the answers store, over every language."""
    answers = degrade(truths(dataset, dataset.languages), random.Random(f"{SCORE_PAPER}:{seed}"))
    return Inputs(SCORE_PAPER, seed, dataset, dataset.languages, answers, _vectors(answers, seed))


def collect_inputs(seed: int, dataset: Dataset, languages: tuple[str, ...]) -> Inputs:
    """Canned answers: degraded ground truth, one per distinct question."""
    inputs = Inputs(COLLECT, seed, dataset, languages, {})
    degraded = degrade(truths(dataset, languages), random.Random(f"{COLLECT}:{seed}"))
    # the mock answers by question text, and some synthetic questions repeat
    canned: dict[str, str] = {}
    for key, question in questions(inputs).items():
        inputs.answers[key] = canned.setdefault(question, degraded[key])
    return inputs


def questions(inputs: Inputs) -> dict[tuple[str, str], str]:
    out = {}
    for item in (*inputs.dataset.qa_items, *inputs.dataset.timeliness_items):
        for lang in inputs.languages:
            out[(lang, item.id)] = item.questions[lang]
    return out


def write_inputs(inputs: Inputs, directory: Path) -> dict[str, Path]:
    """Write the files the command reads; returns their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"dataset": directory / "dataset.jsonl"}
    write_dataset(inputs.dataset, paths["dataset"])
    if inputs.workload == COLLECT:
        canned = {question: inputs.answers[key] for key, question in questions(inputs).items()}
        paths["canned"] = directory / "canned.json"
        paths["canned"].write_text(json.dumps(canned, ensure_ascii=False), encoding="utf-8")
        return paths

    paths["answers"] = directory / "answers.jsonl"
    header = AnswerSet(
        run_id=RUN_ID, model_id=MODEL, seed=inputs.seed, dataset_hash=dataset_hash(inputs.dataset)
    )
    write_answer_header(paths["answers"], header)
    with open(paths["answers"], "a", encoding="utf-8") as handle:
        for (lang, item_id), text in inputs.answers.items():
            append_answer_record(handle, lang, item_id, text, text, "ok", 1)
    paths["cache"] = directory / "vectors.bin"
    with VectorCache(paths["cache"]) as cache:
        for text, vector in inputs.vectors.items():
            cache.put(cache_key(text), vector)
    return paths
