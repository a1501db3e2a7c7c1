"""Bundled fixture data and deterministic synthetic corpora.

The bundled fixture lives only in its data files: `data/fixture.jsonl`
(24 QA items in 3 domains, 4 timeliness items, 3 languages, disjoint
few-shot pools) and `data/fixture_answers.json` (the canned model's
answer to each of its questions). `mini_fixture()` and
`mini_fixture_answers()` read them. `synthetic_corpus()` produces a
full-size stand-in with the published per-domain shape, for count
checks and load testing.
"""

from __future__ import annotations

import json
from importlib.resources import files
from pathlib import Path

from .dataset import Dataset, QAItem, TimelinessItem, load_dataset

# (#entities, #relations, #QA pairs) per domain; timeliness row separate
CORPUS_SHAPE = {
    "sports": (50, 9, 253),
    "movie": (49, 17, 432),
    "science": (49, 12, 492),
    "history": (45, 12, 389),
    "geography": (94, 6, 286),
    "literature": (50, 5, 165),
}
TIMELINESS_SHAPE = (129, 2, 136)
EXEMPLARS_PER_DOMAIN = 20


def bundled_fixture_path() -> Path:
    return Path(str(files("xlconsist").joinpath("data/fixture.jsonl")))


def bundled_answers_path() -> Path:
    return Path(str(files("xlconsist").joinpath("data/fixture_answers.json")))


def mini_fixture() -> Dataset:
    return load_dataset(bundled_fixture_path())


def mini_fixture_answers() -> dict[str, str]:
    """Canned answers for the mock endpoint, keyed by question text."""
    return json.loads(bundled_answers_path().read_text(encoding="utf-8"))


def synthetic_corpus(
    languages: tuple[str, ...] = None,
    domains: tuple[str, ...] = None,
    include_timeliness: bool = True,
    exemplars_per_domain: int = EXEMPLARS_PER_DOMAIN,
) -> Dataset:
    """Deterministic full-size stand-in with the published corpus shape.

    Entity/relation/QA counts per domain match the real corpus; the text
    itself is formulaic. Useful for loader/validator stress tests and for
    asserting the per-domain statistics row for row.
    """
    from .dataset import STANDARD_LANGUAGES

    languages = tuple(languages or STANDARD_LANGUAGES)
    domains = tuple(domains or CORPUS_SHAPE)
    qa_items = []
    pool: dict[str, tuple[QAItem, ...]] = {}
    for domain in domains:
        n_entities, n_relations, n_items = CORPUS_SHAPE[domain]
        for i in range(n_items):
            entity = f"{domain} entity {i % n_entities:03d}"
            relation = f"{domain} relation {i % n_relations}"
            qa_items.append(
                QAItem(
                    id=f"{domain}-{i:04d}",
                    domain=domain,
                    entity=entity,
                    relation=relation,
                    questions={
                        lang: f"[{lang}] What is the {relation} of {entity}?"
                        for lang in languages
                    },
                    answers={lang: f"[{lang}] {domain} fact {i:04d}" for lang in languages},
                )
            )
        pool[domain] = tuple(
            QAItem(
                id=f"{domain}-exemplar-{i:02d}",
                domain=domain,
                entity=f"{domain} exemplar entity {i:02d}",
                relation=f"{domain} relation {i % n_relations}",
                questions={
                    lang: f"[{lang}] Exemplar question {i:02d} for {domain}?"
                    for lang in languages
                },
                answers={lang: f"[{lang}] exemplar fact {i:02d}" for lang in languages},
            )
            for i in range(exemplars_per_domain)
        )

    timeliness = []
    if include_timeliness:
        n_entities, n_relations, n_items = TIMELINESS_SHAPE
        for i in range(n_items):
            entity = f"timely entity {i % n_entities:03d}"
            relation = f"status {i % n_relations}"
            timeliness.append(
                TimelinessItem(
                    id=f"tim-{i:04d}",
                    questions={
                        lang: f"[{lang}] What is the latest {relation} of {entity}?"
                        for lang in languages
                    },
                    candidates={
                        lang: (
                            f"[{lang}] current value {i:04d}",
                            f"[{lang}] previous value {i:04d}",
                            f"[{lang}] original value {i:04d}",
                        )
                        for lang in languages
                    },
                )
            )
        pool["timeliness"] = tuple(
            QAItem(
                id=f"timeliness-exemplar-{i:02d}",
                domain="timeliness",
                entity=f"timely exemplar entity {i:02d}",
                relation=f"status {i % TIMELINESS_SHAPE[1]}",
                questions={
                    lang: f"[{lang}] Exemplar question {i:02d} for timeliness?"
                    for lang in languages
                },
                answers={lang: f"[{lang}] timely exemplar fact {i:02d}" for lang in languages},
            )
            for i in range(exemplars_per_domain)
        )

    return Dataset(
        languages=languages,
        qa_items=tuple(qa_items),
        timeliness_items=tuple(timeliness),
        few_shot_pool=pool,
    )
