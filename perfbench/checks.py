"""Output checks, computed independently of the program under test.

Score: every pass writes the same report.json bytes, and the first one
agrees to 1e-9 with a recomputation from the generated answers and
vectors: a reference chrF written here, numpy cosines and
`scipy.stats.spearmanr`. Collect: the store holds exactly one `ok` record
per cell with the canned text, and the manifest lists every cell as ok.

Each check returns a list of problems; empty means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

TOLERANCE = 1e-9
_WHITESPACE = re.compile(r"\s+")


def _order_stats(hyp, ref, max_n):
    """(hypothesis total, reference total, clipped overlap) per order 1..max_n;
    hyp and ref are strings (character n-grams) or token tuples (word n-grams)."""
    out = []
    for n in range(1, max_n + 1):
        hyp_grams = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        ref_grams = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        small, large = sorted((hyp_grams, ref_grams), key=len)
        overlap = sum(min(count, large[gram]) for gram, count in small.items() if gram in large)
        out.append((max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0), overlap))
    return out


def reference_chrf(hypothesis: str, reference: str) -> float:
    """chrF++ with the scorer's defaults: char orders 1-6, word orders 1-2,
    beta 2, whitespace removed for character n-grams. Orders with no n-grams
    on either side are skipped; the rest are averaged with fsum."""
    hypothesis = unicodedata.normalize("NFC", hypothesis)
    reference = unicodedata.normalize("NFC", reference)
    stats = _order_stats(
        _WHITESPACE.sub("", hypothesis), _WHITESPACE.sub("", reference), 6
    ) + _order_stats(tuple(hypothesis.split()), tuple(reference.split()), 2)
    scores = []
    for hyp_total, ref_total, overlap in stats:
        if hyp_total == 0 and ref_total == 0:
            continue
        precision = overlap / hyp_total if hyp_total else 0.0
        recall = overlap / ref_total if ref_total else 0.0
        if precision + recall == 0.0:
            scores.append(0.0)
        else:
            scores.append(5.0 * precision * recall / (4.0 * precision + recall))
    return math.fsum(scores) / len(scores) if scores else 0.0


def _spearman_matrix(languages, vectors):
    """Pairwise Spearman; a constant vector on either side scores 0, degenerate."""
    size = len(languages)
    values = np.full((size, size), np.nan)
    degenerate = 0
    for i in range(size):
        for j in range(i + 1, size):
            x, y = vectors[languages[i]], vectors[languages[j]]
            if np.all(x == x[0]) or np.all(y == y[0]):
                cell = 0.0
                degenerate += 1
            else:
                cell = float(spearmanr(x, y).statistic)
            values[i, j] = values[j, i] = cell
    return values, degenerate


def _offdiagonal_mean(values) -> float:
    upper = values[np.triu_indices(len(values), k=1)]
    return float(upper.mean())


def _cosine_matrix(languages, item_ids, answers, vectors):
    size = len(languages)
    unit = {}
    for lang in languages:
        rows = np.array([vectors[answers[(lang, item)]] for item in item_ids], dtype=np.float64)
        unit[lang] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    values = np.full((size, size), np.nan)
    for i in range(size):
        for j in range(i + 1, size):
            cell = float(np.einsum("nd,nd->n", unit[languages[i]], unit[languages[j]]).mean())
            values[i, j] = values[j, i] = cell
    return values


def expected_report(inputs) -> dict:
    """xSC/xAC/xTC/xC, their matrices, degenerate counts and the domain table."""
    dataset, answers, vectors = inputs.dataset, inputs.answers, inputs.vectors
    languages = list(dataset.languages)
    qa_ids = [item.id for item in dataset.qa_items]

    xsc_values = _cosine_matrix(languages, qa_ids, answers, vectors)
    domains = {}
    for domain in dict.fromkeys(item.domain for item in dataset.qa_items):
        ids = [item.id for item in dataset.qa_items if item.domain == domain]
        domains[domain] = _offdiagonal_mean(_cosine_matrix(languages, ids, answers, vectors))

    accuracy = {
        lang: np.array(
            [reference_chrf(answers[(lang, item.id)], item.answers[lang]) for item in dataset.qa_items]
        )
        for lang in languages
    }
    xac_values, xac_degenerate = _spearman_matrix(languages, accuracy)

    timeliness = {}
    for lang in languages:
        scores = []
        for item in dataset.timeliness_items:
            by_rank = [reference_chrf(answers[(lang, item.id)], c) for c in item.candidates[lang]]
            best = max(by_rank)
            scores.append(0.0 if best == 0.0 else best / (by_rank.index(best) + 1))
        timeliness[lang] = np.array(scores)
    xtc_values, xtc_degenerate = _spearman_matrix(languages, timeliness)

    xsc, xac, xtc = (_offdiagonal_mean(v) for v in (xsc_values, xac_values, xtc_values))
    positive = min(xsc, xac, xtc) > 0.0
    return {
        "languages": languages,
        "metrics": {
            "xsc": xsc,
            "xac": xac,
            "xtc": xtc,
            "xc": 3.0 / (1.0 / xsc + 1.0 / xac + 1.0 / xtc) if positive else 0.0,
            "xc_degenerate": not positive,
        },
        "degenerate_pairs": {"xac": xac_degenerate, "xtc": xtc_degenerate},
        "matrices": {"xsc": xsc_values, "xac": xac_values, "xtc": xtc_values},
        "domains": domains,
    }


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and not isinstance(a, bool) and abs(a - b) <= TOLERANCE


def check_report(report: dict, expected: dict) -> list[str]:
    problems = []
    metrics = report.get("metrics", {})
    for name in ("xsc", "xac", "xtc", "xc"):
        if not _close(metrics.get(name), expected["metrics"][name]):
            problems.append(f"{name} {metrics.get(name)!r} != {expected['metrics'][name]!r}")
    if metrics.get("xc_degenerate") != expected["metrics"]["xc_degenerate"]:
        problems.append("xc_degenerate flag differs")
    if report.get("degenerate_pairs") != expected["degenerate_pairs"]:
        problems.append(
            f"degenerate pairs {report.get('degenerate_pairs')} != {expected['degenerate_pairs']}"
        )
    languages = expected["languages"]
    for name, values in expected["matrices"].items():
        matrix = report.get("matrices", {}).get(name, {})
        if matrix.get("languages") != languages:
            problems.append(f"{name} matrix languages {matrix.get('languages')} != {languages}")
            continue
        for i in range(len(languages)):
            for j in range(len(languages)):
                if i != j and not _close(matrix["values"][i][j], values[i, j]):
                    problems.append(f"{name}[{languages[i]},{languages[j]}] differs")
    report_domains = report.get("domains", {})
    if set(report_domains) != set(expected["domains"]):
        problems.append(f"domains {sorted(report_domains)} != {sorted(expected['domains'])}")
    else:
        for domain, value in expected["domains"].items():
            if not _close(report_domains[domain], value):
                problems.append(f"domain {domain} xsc differs")
    return problems


def check_score_passes(reports: list[bytes], expected: dict) -> list[list[str]]:
    """Per pass, the problems with its report.json bytes (index-aligned)."""
    if not reports:
        return []
    first = reports[0]
    try:
        first_problems = check_report(json.loads(first), expected)
    except ValueError as exc:
        first_problems = [f"report.json is not JSON: {exc}"]
    out = [first_problems]
    for data in reports[1:]:
        out.append(first_problems if data == first else ["report.json differs from pass 1"])
    return out


def check_store(store: Path, manifest: Path, expected: dict[tuple[str, str], str]) -> list[str]:
    """The collect output: one ok record per cell with the canned text, and
    a manifest that lists every cell as ok."""
    problems = []
    try:
        lines = store.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"cannot read store: {exc}"]
    ok_counts: Counter = Counter()
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            problems.append(f"store line {number} is not a JSON object")
            continue
        key = (record.get("lang"), record.get("item"))
        if key not in expected:
            problems.append(f"store has a record for unknown cell {key}")
        elif record.get("status") == "ok":
            ok_counts[key] += 1
            if record.get("text") != expected[key]:
                problems.append(f"cell {key}: text {record.get('text')!r} != {expected[key]!r}")
    for key in expected:
        if ok_counts[key] != 1:
            problems.append(f"cell {key}: {ok_counts[key]} ok records")
    try:
        statuses = json.loads(manifest.read_text(encoding="utf-8")).get("statuses", {})
    except (OSError, ValueError) as exc:
        return problems + [f"cannot read manifest: {exc}"]
    listed = {f"{lang}/{item}" for lang, item in expected}
    if set(statuses) != listed:
        problems.append(f"manifest lists {len(statuses)} cells, expected {len(listed)}")
    bad = [cell for cell, entry in statuses.items() if entry.get("status") != "ok"]
    if bad:
        problems.append(f"manifest marks {len(bad)} cells not ok")
    return problems
