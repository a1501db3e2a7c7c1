"""Answer collection over a chat-completions endpoint, few-shot style.

Each request carries sampled exemplar QA pairs as prior turns and the
target question as the final user message. `collect_answers` sends the
cells from the calling thread: one loop keeps up to `concurrency`
requests in flight, one per keep-alive connection of one
`transport.Transport`, and waits on a selector for whichever answer is
ready. Rate-limit waits, jittered backoff and request deadlines are
timers in that loop, so none of them holds up an answer that has
arrived; the status and retry policy is `transport.RetryPolicy`, which
the embedding client shares. A run reads its answers store once, the
header and each cell's last status and attempts, never an answer's
text, and refuses a store of another run id, variant, seed, model,
dataset or shot count (the endpoint is recorded, not compared). Each
completed cell is appended to the store and its status and attempts to
the run manifest, which the run returns, so an interrupted run resumes
with the missing cells. Raw
completions are stored verbatim next to the post-processed answer so
answers can be re-extracted later, and the run manifest records each
cell's status, attempts and the exemplars from which
`RunManifest.rebuild_messages` rebuilds any request.
`<store>.stats.json` counts what the run sent and received."""

from __future__ import annotations

import http.client
import json
import logging
import math
import os
import random
import selectors
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib.resources import files
from pathlib import Path

from .answers import (
    STATUS_FAILED,
    STATUS_OK,
    AnswerSet,
    append_answer_record,
    open_for_append,
    store_records,
    write_answer_header,
)
from .dataset import Dataset, QAItem
from .errors import (
    AuthenticationError,
    ConfigFileError,
    ParaphraseMissingError,
    ProviderError,
    TemplateMissingError,
    XlconsistError,
)
from .transport import Request, Retryable, RetryPolicy, Transport, is_http_url

log = logging.getLogger(__name__)

SYSTEM_PROMPT = "Answer the question concisely, in the language it is asked."
TIMELINESS_DOMAIN = "timeliness"

VARIANTS = ("p1", "p2", "p3")


@dataclass(frozen=True)
class CollectionConfig:
    endpoint: str
    model: str
    shots: int = 5
    exemplar_seed: int = 0
    prompt_variant: str = "p1"
    temperature: float = 0.0  # not reported upstream; pinned for comparability
    decoding: dict = field(default_factory=dict)  # passed through opaquely
    concurrency: int = 4
    timeout: float = 60.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    rate_limit_rps: float | None = None
    token_env: str = "XLCONSIST_API_KEY"
    cut_at_newline: bool = True

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        rate = self.rate_limit_rps
        if rate is not None and not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"rate_limit_rps must be finite and > 0, got {rate}")
        if self.prompt_variant not in VARIANTS:
            raise ValueError(f"prompt_variant must be one of {VARIANTS}")
        if self.endpoint and not is_http_url(self.endpoint):
            raise ValueError(f"endpoint {self.endpoint!r} is not an http(s) URL")

    def snapshot(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "model": self.model,
            "shots": self.shots,
            "exemplar_seed": self.exemplar_seed,
            "prompt_variant": self.prompt_variant,
            "temperature": self.temperature,
            "decoding": dict(self.decoding),
            "concurrency": self.concurrency,
            "max_attempts": self.max_attempts,
            "rate_limit_rps": self.rate_limit_rps,
            "cut_at_newline": self.cut_at_newline,
        }


def sample_exemplars(pool, k: int, seed: int, domain: str) -> list[QAItem]:
    """k distinct exemplars, deterministic in (seed, domain), order preserved
    from the draw so prompts are reproducible."""
    pool = list(pool)
    if k > len(pool):
        raise ValueError(f"domain {domain!r}: requested {k} exemplars from a pool of {len(pool)}")
    if k == 0:
        return []
    rng = random.Random(f"{seed}:{domain}")
    return rng.sample(pool, k)


def _load_table(path: str | Path, shape: str) -> dict[str, dict[str, str]]:
    """The JSON object of objects of strings at `path`; ConfigFileError
    naming the file when it cannot be read or is not one."""
    try:
        with open(path, "rb") as handle:
            table = json.load(handle)
    except OSError as exc:
        raise ConfigFileError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigFileError(f"{path}: not UTF-8 JSON ({exc})") from exc
    if not (
        isinstance(table, dict)
        and all(
            isinstance(group, dict) and all(type(text) is str for text in group.values())
            for group in table.values()
        )
    ):
        raise ConfigFileError(f"{path}: not a JSON object of {shape}")
    return table


class QuestionTemplates:
    """Relation/language question templates for prompt variant p2."""

    def __init__(self, table: dict):
        self.table = table

    @classmethod
    def load(cls, path: str | Path | None = None) -> "QuestionTemplates":
        if path is None:
            path = str(files("xlconsist").joinpath("data/templates.json"))
        return cls(_load_table(path, "relation -> {language: template}"))

    def render(self, entity: str, relation: str, lang: str) -> str:
        for rel_key in (relation, "*"):
            group = self.table.get(rel_key)
            if not group:
                continue
            template = group.get(lang) or group.get("*")
            if template:
                return template.format(entity=entity, relation=relation)
        raise TemplateMissingError(f"no template for relation {relation!r} / language {lang!r}")


def load_paraphrases(path: str | Path) -> dict:
    """Paraphrase file for variant p3: {item_id: {lang: question}}."""
    return _load_table(path, "item id -> {language: question}")


def _question_for(item, lang: str, variant: str, templates, paraphrases) -> str:
    if variant == "p1":
        return item.questions[lang]
    if variant == "p2":
        if not isinstance(item, QAItem):
            raise TemplateMissingError(
                f"timeliness item {item.id!r} has no entity or relation for a p2 template"
            )
        templates = templates or QuestionTemplates.load()
        return templates.render(item.entity, item.relation, lang)
    if variant == "p3":
        entry = (paraphrases or {}).get(item.id, {})
        question = entry.get(lang)
        if not question:
            raise ParaphraseMissingError(
                f"no paraphrase for item {item.id!r} in language {lang!r}"
            )
        return question
    raise ValueError(f"unknown prompt variant {variant!r}")


def build_messages(
    item,
    lang: str,
    exemplars,
    variant: str = "p1",
    templates: QuestionTemplates | None = None,
    paraphrases: dict | None = None,
) -> list[dict]:
    question = _question_for(item, lang, variant, templates, paraphrases)
    messages = [{"role": "system", "content": SYSTEM_PROMPT}]
    for exemplar in exemplars:
        messages.append({"role": "user", "content": exemplar.questions[lang]})
        messages.append({"role": "assistant", "content": exemplar.answers[lang]})
    messages.append({"role": "user", "content": question})
    return messages


def postprocess_answer(raw: str, cut_at_newline: bool = True) -> str:
    text = raw.strip()
    if cut_at_newline:
        text = text.split("\n", 1)[0].strip()
    return text


class TokenBucket:
    """Client-side rate limiter; rate=None disables it."""

    def __init__(self, rate: float | None, burst: float = 1.0):
        self.rate = rate
        self.capacity = max(burst, 1.0)
        self.tokens = self.capacity
        self.updated = time.monotonic()

    def reserve(self, now: float) -> float:
        """Take a token at monotonic time `now`; returns the seconds until it
        is due, 0 when one was in the bucket. Tokens taken ahead are paid
        back as the bucket refills."""
        if self.rate is None:
            return 0.0
        self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate) - 1.0
        self.updated = now
        return max(0.0, -self.tokens / self.rate)


def _completion_text(document) -> str:
    return str(document["choices"][0]["message"]["content"])


def _replace_file(path: str | Path, text: str) -> None:
    """Write `text` and a newline as the file at `path`: into a temporary
    file beside it, then `os.replace`, so a write cut short leaves the
    previous file whole and no temporary file behind."""
    temporary = Path(f"{path}.tmp")
    try:
        temporary.write_text(text + "\n", encoding="utf-8")
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


@dataclass
class RunManifest:
    """Everything needed to reconstruct any request of a collection run."""

    run_id: str
    config: dict
    dataset_hash: str | None
    exemplar_ids: dict[str, list[str]]
    statuses: dict[str, dict]  # "lang/item" -> {"status", "attempts"}
    started_at: str
    finished_at: str | None = None

    def save(self, path: str | Path) -> None:
        payload = {
            "schema": "xlconsist-manifest/1",
            "run_id": self.run_id,
            "config": self.config,
            "dataset_hash": self.dataset_hash,
            "exemplar_ids": self.exemplar_ids,
            "statuses": self.statuses,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        _replace_file(path, json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            run_id=data["run_id"],
            config=data["config"],
            dataset_hash=data.get("dataset_hash"),
            exemplar_ids=data.get("exemplar_ids", {}),
            statuses=data.get("statuses", {}),
            started_at=data.get("started_at", ""),
            finished_at=data.get("finished_at"),
        )

    def rebuild_messages(
        self,
        dataset: Dataset,
        lang: str,
        item_id: str,
        templates: QuestionTemplates | None = None,
        paraphrases: dict | None = None,
    ) -> list[dict]:
        """The chat messages the run sent for one cell."""
        found = {item.id: (item, domain) for item, domain in _items_with_domains(dataset)}
        if item_id not in found:
            raise KeyError(f"item {item_id!r} not in dataset")
        item, domain = found[item_id]
        by_id = {e.id: e for e in dataset.few_shot_pool.get(domain, ())}
        exemplars = [by_id[eid] for eid in self.exemplar_ids.get(domain, [])]
        return build_messages(
            item, lang, exemplars, self.config.get("prompt_variant", "p1"), templates, paraphrases
        )


def _items_with_domains(dataset: Dataset):
    """Each item with the domain of its exemplars: the QA items under their
    own domain, then the timeliness items under TIMELINESS_DOMAIN."""
    for item in dataset.qa_items:
        yield item, item.domain
    for item in dataset.timeliness_items:
        yield item, TIMELINESS_DOMAIN


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _nearest_rank(ordered: list[float], percent: int) -> float | None:
    if not ordered:
        return None
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


@dataclass
class _CollectStats:
    """What one `collect_answers` call sent and received, saved next to the
    store as `<store>.stats.json`. A resumed run counts only its own
    requests. Latency runs from a request's send to the end of its
    response, over the attempts that got one."""

    cells_sent: int = 0
    attempts: int = 0
    stale_resends: int = 0
    no_response: int = 0  # attempts ended by a timeout or a connection error
    failed_cells: int = 0
    status_counts: Counter = field(default_factory=Counter)
    latencies_ms: list[float] = field(default_factory=list)

    def save(self, path: str | Path) -> None:
        ordered = sorted(self.latencies_ms)
        payload = {
            "schema": "xlconsist-collect-stats/1",
            "cells_sent": self.cells_sent,
            "attempts": self.attempts,
            "retries": self.attempts - self.cells_sent,
            "stale_resends": self.stale_resends,
            "status_counts": {str(code): n for code, n in sorted(self.status_counts.items())},
            "no_response": self.no_response,
            "failed_cells": self.failed_cells,
            "latency_ms_p50": _nearest_rank(ordered, 50),
            "latency_ms_p95": _nearest_rank(ordered, 95),
        }
        _replace_file(path, json.dumps(payload, indent=1))


@dataclass(eq=False)
class _Slot:
    """One keep-alive connection and the cell it serves. The cell keeps its
    slot while it waits for a rate token, is in flight and backs off."""

    conn: http.client.HTTPConnection
    cell: tuple | None = None  # (item, domain, lang); None once no cell is left
    payload: dict | None = None
    attempt: int = 0
    request: Request | None = None  # set while a request is in flight
    sent: float = 0.0
    wake: float = 0.0  # in flight: the request's deadline; else when to send


class _CellLoop:
    """Sends cells from the calling thread with up to `concurrency` requests
    in flight, one per connection of `transport`, under one RetryPolicy.

    It waits on a selector for whichever connection has its answer ready;
    its timeout is the earliest rate-limit wait, backoff or request
    deadline, so none of them holds up an answer that has arrived. A
    finished cell goes to `done(cell, raw, status, attempts)`, and then its
    slot sends the next cell on the same connection."""

    def __init__(self, transport: Transport, cfg: CollectionConfig, cells: list, payload_for, done):
        self.transport = transport
        self.cfg = cfg
        self.policy = RetryPolicy(
            "chat endpoint", cfg.max_attempts, cfg.backoff_base, cfg.exemplar_seed
        )
        self.cells = iter(cells)
        self.slots = [_Slot(transport.connect()) for _ in range(min(cfg.concurrency, len(cells)))]
        self.payload_for = payload_for
        self.done = done
        self.bucket = TokenBucket(cfg.rate_limit_rps, burst=float(cfg.concurrency))
        self.stats = _CollectStats()
        self.selector = selectors.DefaultSelector()

    def run(self) -> None:
        slots = self.slots
        with self.selector:
            now = time.monotonic()
            for slot in slots:
                self._take(slot, now)
            while True:
                now = time.monotonic()
                for slot in slots:
                    while slot.cell is not None and slot.wake <= now:
                        if slot.request is None:
                            self._send(slot)
                        else:
                            self._expire(slot, now)
                wakes = [slot.wake for slot in slots if slot.cell is not None]
                if not wakes:
                    return
                for key, _ in self.selector.select(max(0.0, min(wakes) - time.monotonic())):
                    self._receive(key.data)

    def _take(self, slot: _Slot, now: float) -> None:
        slot.cell = next(self.cells, None)
        if slot.cell is not None:
            slot.payload = self.payload_for(slot.cell)
            slot.attempt = 0
            slot.wake = now + self.bucket.reserve(now)

    def _send(self, slot: _Slot) -> None:
        slot.attempt += 1
        self.stats.attempts += 1
        if slot.attempt == 1:
            self.stats.cells_sent += 1
        try:
            slot.request = self.transport.send(slot.conn, slot.payload)
        except (OSError, http.client.HTTPException) as exc:
            self._retry(slot, exc, time.monotonic())
            return
        self.stats.stale_resends += slot.request.resent
        self.selector.register(slot.conn.sock, selectors.EVENT_READ, slot)
        slot.sent = time.monotonic()
        slot.wake = slot.sent + self.cfg.timeout

    def _expire(self, slot: _Slot, now: float) -> None:
        self.selector.unregister(slot.conn.sock)
        slot.conn.close()  # a late answer must not meet the next request
        self._retry(slot, TimeoutError(f"no response within {self.cfg.timeout} s"), now)

    def _receive(self, slot: _Slot) -> None:
        self.selector.unregister(slot.conn.sock)
        try:
            answer = self.transport.receive(slot.request)
        except (OSError, http.client.HTTPException) as exc:
            self._retry(slot, exc, time.monotonic())
            return
        if answer is None:  # resent on a fresh connection: wait again
            self.stats.stale_resends += 1
            self.selector.register(slot.conn.sock, selectors.EVENT_READ, slot)
            return
        now = time.monotonic()
        slot.request = None
        status, body = answer
        self.stats.status_counts[status] += 1
        self.stats.latencies_ms.append((now - slot.sent) * 1000.0)
        try:
            raw = self.policy.read(status, body, _completion_text)
        except Retryable as exc:
            self._retry(slot, exc, now)
        except AuthenticationError:
            raise  # fatal: no point continuing the run
        except ProviderError as exc:
            self._fail(slot, exc)
        else:
            self._finish(slot, raw, STATUS_OK, slot.attempt)

    def _retry(self, slot: _Slot, error: Exception, now: float) -> None:
        slot.request = None
        if not isinstance(error, Retryable):
            self.stats.no_response += 1
        if slot.attempt < self.policy.max_attempts:
            slot.wake = now + self.policy.backoff(slot.attempt + 1)
        else:
            self._fail(slot, self.policy.exhausted(error))

    def _fail(self, slot: _Slot, error: ProviderError) -> None:
        item, _, lang = slot.cell
        log.warning("cell %s/%s failed at attempt %d: %s", lang, item.id, slot.attempt, error)
        self.stats.failed_cells += 1
        self._finish(slot, "", STATUS_FAILED, slot.attempt)

    def _finish(self, slot: _Slot, raw: str, status: str, attempts: int) -> None:
        self.done(slot.cell, raw, status, attempts)
        self._take(slot, time.monotonic())


def collect_answers(
    dataset: Dataset,
    cfg: CollectionConfig,
    store_path: str | Path,
    *,
    run_id: str = "run",
    dataset_digest: str | None = None,
    templates: QuestionTemplates | None = None,
    paraphrases: dict | None = None,
    retry_failed: bool = False,
    progress=None,
) -> RunManifest:
    """Collect one answer per (language, item) of `dataset` (cut it with
    `Dataset.subset` first to collect some languages); resumable and
    rate-limited.

    Every cell's question is built first, so a cell without one (a p2
    cell without a template, a p3 cell without a paraphrase) raises before
    the store is touched or a request is sent. Starts no thread.
    `progress(lang, item_id, status)` is invoked in the calling thread as
    each cell is stored; exceptions it raises abort the run, as does an
    `AuthenticationError`. No request is sent after that, every
    connection and the store are closed, and the cells already stored
    survive and are skipped on the next call. Writes
    `<store>.manifest.json` and `<store>.stats.json` when the run ends,
    each replacing the previous file whole, and returns the manifest: the
    status and attempts of every stored cell, this run's and earlier
    runs', under `statuses`.
    """
    store_path = Path(store_path)
    languages = dataset.languages
    cells = list(_items_with_domains(dataset))
    exemplars_by_domain = {
        domain: sample_exemplars(
            dataset.few_shot_pool.get(domain, ()), cfg.shots, cfg.exemplar_seed, domain
        )
        for domain in dict.fromkeys(domain for _, domain in cells)
    }

    if cfg.prompt_variant == "p2" and templates is None:
        templates = QuestionTemplates.load()
    for item, _ in cells:
        for lang in languages:
            _question_for(item, lang, cfg.prompt_variant, templates, paraphrases)

    transport = Transport(cfg.endpoint, cfg.timeout, cfg.token_env)
    manifest_path = Path(str(store_path) + ".manifest.json")
    if not store_path.exists() or store_path.stat().st_size == 0:
        header = AnswerSet(run_id, cfg.model, cfg.prompt_variant, cfg.exemplar_seed, dataset_digest)
        write_answer_header(store_path, header, extra={"endpoint": cfg.endpoint, "shots": cfg.shots})
    stored, last = store_records(store_path)
    shots = stored.extra.get("shots")
    for was, wanted, refusal in (
        (
            (stored.run_id, stored.prompt_variant, stored.seed),
            (run_id, cfg.prompt_variant, cfg.exemplar_seed),
            f"belongs to run {stored.run_id!r} (variant {stored.prompt_variant}, "
            f"seed {stored.seed})",
        ),
        (stored.model_id, cfg.model, f"holds answers of model {stored.model_id!r}, not {cfg.model!r}"),
        (
            stored.dataset_hash,
            dataset_digest,
            f"was collected against dataset {stored.dataset_hash}, not {dataset_digest}",
        ),
        (shots, cfg.shots, f"was collected with {shots} shots, not {cfg.shots}"),
    ):
        if None not in (was, wanted) and was != wanted:  # None: nothing to compare
            raise XlconsistError(f"{store_path} {refusal}; refusing to mix")
    # (status, attempts) of each stored cell, the last record winning
    cells_done = {
        key: (record.get("status", STATUS_OK), record.get("attempts"))
        for key, record in last.items()
    }
    started = _now()
    if cells_done:  # a resumed run keeps its start
        try:
            started = RunManifest.load(manifest_path).started_at or started
        except (OSError, ValueError, LookupError, TypeError):
            pass  # no manifest, or one torn by a kill while it was written

    pending = []
    for item, domain in cells:
        for lang in languages:
            status, _ = cells_done.get((lang, item.id), (None, None))
            if status == STATUS_OK:
                continue
            if status == STATUS_FAILED and not retry_failed:
                continue
            pending.append((item, domain, lang))

    def payload_for(cell):
        item, domain, lang = cell
        messages = build_messages(
            item, lang, exemplars_by_domain[domain], cfg.prompt_variant, templates, paraphrases
        )
        return {
            "model": cfg.model,
            "messages": messages,
            "temperature": cfg.temperature,
            **cfg.decoding,
        }

    with open_for_append(store_path) as store_handle:

        def done(cell, raw, status, attempts):
            item, _, lang = cell
            text = postprocess_answer(raw, cfg.cut_at_newline) if status == STATUS_OK else ""
            append_answer_record(store_handle, lang, item.id, raw, text, status, attempts)
            cells_done[(lang, item.id)] = status, attempts
            if progress is not None:
                progress(lang, item.id, status)

        loop = _CellLoop(transport, cfg, pending, payload_for, done)
        try:
            loop.run()
        finally:
            transport.close()

    manifest = RunManifest(
        run_id=run_id,
        config=cfg.snapshot(),
        dataset_hash=dataset_digest,
        exemplar_ids={
            domain: [e.id for e in exemplars] for domain, exemplars in exemplars_by_domain.items()
        },
        statuses={
            "/".join(key): {"status": status, "attempts": attempts}
            for key, (status, attempts) in sorted(cells_done.items())
        },
        started_at=started,
        finished_at=_now(),
    )
    manifest.save(manifest_path)
    loop.stats.save(str(store_path) + ".stats.json")
    return manifest
