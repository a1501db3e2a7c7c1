"""Span recording around the public names each layer calls through.

`install` wraps those names in the current process only; the wrappers
record (id, name, start, end, parent, value) per call, keep them in
memory, and `Tracer.dump` writes them once the pass has ended.
`layer_metrics` turns a dump into the per-layer metrics.

A span's parent is the innermost wrapped call still open on the same
thread. Its self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    value: object = None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs, measure=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, None))
            raise
        end = time.perf_counter()
        stack.pop()
        value = measure(self, args, kwargs, result) if measure is not None else None
        self.spans.append((span_id, name, start, end, parent, value))
        return result

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, measure)

        setattr(owner, attr, wrapper)

    def dump(self, path: str | Path) -> None:
        doc = {
            "spans": self.spans,
            "distinct": {key: len(values) for key, values in self.distinct.items()},
            "missing": self.missing,
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _kernel(tracer, args, kwargs, result):
    # n-grams walked: every order's hypothesis plus reference count
    return sum(hyp + ref for hyp, ref, _ in result)


def _chrf(tracer, args, kwargs, result):
    seen = tracer.distinct["chrf"]
    seen.add(_arg(args, kwargs, 0, "hypothesis"))
    seen.add(_arg(args, kwargs, 1, "reference"))


def _ranks(tracer, args, kwargs, result):
    values = np.asarray(_arg(args, kwargs, 0, "values"), dtype=np.float64)
    tracer.distinct["rank"].add(values.tobytes())


def _embed(tracer, args, kwargs, result):
    embedder, texts = args[0], _arg(args, kwargs, 1, "texts")
    tracer.distinct["embed"].update(texts)
    return [len(texts), id(embedder), embedder.fetched_texts]


def _cache_get(tracer, args, kwargs, result):
    return 0 if result is None else 1


def _written(tracer, args, kwargs, result):
    return sum(Path(path).stat().st_size for path in result)


def _attempts(tracer, args, kwargs, result):
    return result[1]


def _append(tracer, args, kwargs, result):
    return 0 if _arg(args, kwargs, 5, "status") == "ok" else 1


# (module, class or None, attribute, span name, measure)
HOOKS = (
    ("xlconsist.cli", None, "load_dataset", "dataset.load", None),
    ("xlconsist.cli", None, "dataset_hash", "dataset.hash", None),
    ("xlconsist.cli", None, "load_answers", "answers.load", None),
    ("xlconsist.cli", None, "build_report", "consistency.build_report", None),
    ("xlconsist.cli", None, "collect_answers", "collection.collect_answers", None),
    ("xlconsist.consistency", None, "xsc", "consistency.xsc", None),
    ("xlconsist.consistency", None, "xac", "consistency.xac", None),
    ("xlconsist.consistency", None, "xtc", "consistency.xtc", None),
    ("xlconsist.consistency", None, "domain_breakdown", "consistency.domains", None),
    ("xlconsist.consistency", None, "chrf", "textmetrics.chrf", _chrf),
    ("xlconsist.consistency", None, "spearman_detailed", "textmetrics.spearman", None),
    ("xlconsist.textmetrics.stats", None, "average_ranks", "textmetrics.rank", _ranks),
    ("xlconsist.textmetrics.chrf", "_ngram", "char_ngram_stats", "textmetrics.kernel", _kernel),
    ("xlconsist.textmetrics.chrf", "_ngram", "word_ngram_stats", "textmetrics.kernel", _kernel),
    ("xlconsist.embedding", "Embedder", "embed_batch", "embedding.embed_batch", _embed),
    ("xlconsist.embedding", "VectorCache", "__init__", "embedding.cache_open", None),
    ("xlconsist.embedding", "VectorCache", "get", "embedding.cache_get", _cache_get),
    ("xlconsist.embedding", "VectorCache", "close", "embedding.cache_close", None),
    ("xlconsist.consistency", "ConsistencyReport", "write_files", "consistency.write", _written),
    ("xlconsist.collection", None, "build_messages", "collection.prompt_build", None),
    ("xlconsist.collection", "ChatClient", "complete", "collection.request", _attempts),
    ("xlconsist.collection", None, "append_answer_record", "answers.append", _append),
    ("xlconsist.collection", None, "load_answers", "answers.load", None),
    ("xlconsist.collection", "RunManifest", "save", "collection.manifest_save", None),
    ("xlconsist.collection", "TokenBucket", "acquire", "collection.rate_wait", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every hook that exists; note the ones that do not."""
    for module_name, owner_name, attr, name, measure in HOOKS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name, None)
        if owner is None or not hasattr(owner, attr):
            tracer.missing.append(f"{module_name}:{owner_name or ''}.{attr}")
            continue
        tracer.wrap(owner, attr, name, measure)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals, clipped to the span."""
    by_id = {span.id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def max_concurrent(spans: list[Span]) -> int:
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]  # nearest rank


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# per-layer metric -> (unit, better); the order is the report order
LAYER_METRICS = {
    "textmetrics.kernel_calls": ("count", "lower"),
    "textmetrics.kernel_s": ("s", "lower"),
    "textmetrics.kernel_ngrams": ("count", "lower"),
    "textmetrics.chrf_calls": ("count", "lower"),
    "textmetrics.chrf_self_s": ("s", "lower"),
    "textmetrics.prep_distinct_ratio": ("ratio", "higher"),
    "textmetrics.spearman_calls": ("count", "lower"),
    "textmetrics.spearman_s": ("s", "lower"),
    "textmetrics.rank_calls": ("count", "lower"),
    "textmetrics.rank_s": ("s", "lower"),
    "textmetrics.rank_distinct_ratio": ("ratio", "higher"),
    "embedding.cache_open_s": ("s", "lower"),
    "embedding.embed_batch_calls": ("count", "lower"),
    "embedding.embed_batch_s": ("s", "lower"),
    "embedding.texts_requested": ("count", "lower"),
    "embedding.texts_fetched": ("count", "lower"),
    "embedding.hit_ratio": ("ratio", "higher"),
    "embedding.distinct_texts_ratio": ("ratio", "higher"),
    "consistency.build_report_self_s": ("s", "lower"),
    "consistency.xsc_calls": ("count", "lower"),
    "consistency.xsc_s": ("s", "lower"),
    "consistency.xac_s": ("s", "lower"),
    "consistency.xtc_s": ("s", "lower"),
    "consistency.domains_s": ("s", "lower"),
    "consistency.write_s": ("s", "lower"),
    "consistency.report_bytes": ("bytes", "lower"),
    "dataset.load_s": ("s", "lower"),
    "dataset.hash_s": ("s", "lower"),
    "answers.load_s": ("s", "lower"),
    "answers.append_calls": ("count", "lower"),
    "answers.append_s": ("s", "lower"),
    "collection.prompt_build_s": ("s", "lower"),
    "collection.request_calls": ("count", "lower"),
    "collection.request_ms_p50": ("ms", "lower"),
    "collection.request_ms_p99": ("ms", "lower"),
    "collection.attempts": ("count", "lower"),
    "collection.retries": ("count", "lower"),
    "collection.failed_cells": ("count", "lower"),
    "collection.max_in_flight": ("count", "higher"),
    "collection.rate_wait_s": ("s", "lower"),
    "collection.manifest_save_s": ("s", "lower"),
    "cli.score_self_s": ("s", "lower"),
    "cli.collect_self_s": ("s", "lower"),
}


def layer_metrics(doc: dict) -> dict[str, float]:
    """Every LAYER_METRICS entry from one dump; a layer that did not run reads 0."""
    spans = [Span(*row) for row in doc["spans"]]
    distinct = doc.get("distinct", {})
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def count(name):
        return len(by_name[name])

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_total(name):
        return sum(selfs[s.id] for s in by_name[name])

    def measured(name):
        # a call that raised records no value
        return [s for s in by_name[name] if s.value is not None]

    def value_sum(name):
        return sum(s.value for s in measured(name))

    embeds = measured("embedding.embed_batch")
    requested = sum(s.value[0] for s in embeds)
    fetched_by_embedder: dict[int, int] = {}
    for span in embeds:
        _, embedder, fetched = span.value
        fetched_by_embedder[embedder] = max(fetched_by_embedder.get(embedder, 0), fetched)
    requests_ms = [(s.end - s.start) * 1000.0 for s in by_name["collection.request"]]
    # attempts of the requests that returned; one that raised used them all up
    attempts = value_sum("collection.request")
    return {
        "textmetrics.kernel_calls": count("textmetrics.kernel"),
        "textmetrics.kernel_s": total("textmetrics.kernel"),
        "textmetrics.kernel_ngrams": value_sum("textmetrics.kernel"),
        "textmetrics.chrf_calls": count("textmetrics.chrf"),
        "textmetrics.chrf_self_s": self_total("textmetrics.chrf"),
        "textmetrics.prep_distinct_ratio": _ratio(
            distinct.get("chrf", 0), 2 * count("textmetrics.chrf")
        ),
        "textmetrics.spearman_calls": count("textmetrics.spearman"),
        "textmetrics.spearman_s": total("textmetrics.spearman"),
        "textmetrics.rank_calls": count("textmetrics.rank"),
        "textmetrics.rank_s": total("textmetrics.rank"),
        "textmetrics.rank_distinct_ratio": _ratio(
            distinct.get("rank", 0), count("textmetrics.rank")
        ),
        "embedding.cache_open_s": total("embedding.cache_open"),
        "embedding.embed_batch_calls": count("embedding.embed_batch"),
        "embedding.embed_batch_s": total("embedding.embed_batch"),
        "embedding.texts_requested": requested,
        "embedding.texts_fetched": sum(fetched_by_embedder.values()),
        "embedding.hit_ratio": _ratio(
            value_sum("embedding.cache_get"), count("embedding.cache_get")
        ),
        "embedding.distinct_texts_ratio": _ratio(distinct.get("embed", 0), requested),
        "consistency.build_report_self_s": self_total("consistency.build_report"),
        "consistency.xsc_calls": count("consistency.xsc"),
        "consistency.xsc_s": total("consistency.xsc"),
        "consistency.xac_s": total("consistency.xac"),
        "consistency.xtc_s": total("consistency.xtc"),
        "consistency.domains_s": total("consistency.domains"),
        "consistency.write_s": total("consistency.write"),
        "consistency.report_bytes": value_sum("consistency.write"),
        "dataset.load_s": total("dataset.load"),
        "dataset.hash_s": total("dataset.hash"),
        "answers.load_s": total("answers.load"),
        "answers.append_calls": count("answers.append"),
        "answers.append_s": total("answers.append"),
        "collection.prompt_build_s": total("collection.prompt_build"),
        "collection.request_calls": len(requests_ms),
        "collection.request_ms_p50": statistics.median(requests_ms) if requests_ms else 0.0,
        "collection.request_ms_p99": _percentile(requests_ms, 99),
        "collection.attempts": attempts,
        "collection.retries": attempts - len(requests_ms),
        "collection.failed_cells": value_sum("answers.append"),
        "collection.max_in_flight": max_concurrent(by_name["collection.request"]),
        "collection.rate_wait_s": total("collection.rate_wait"),
        "collection.manifest_save_s": total("collection.manifest_save"),
        "cli.score_self_s": self_total("cli.score"),
        "cli.collect_self_s": self_total("cli.collect"),
    }
