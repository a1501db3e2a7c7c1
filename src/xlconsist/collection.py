"""Answer collection over a chat-completions endpoint, few-shot style.

Each request carries sampled exemplar QA pairs as prior turns and the
target question as the final user message. `concurrency` request loops,
one thread each, take cells from one shared iterator and send them
through one `transport.Transport`, one keep-alive connection per
thread; `ChatClient` adds retries with jittered backoff on top. Each loop
hands `(lang, item, status)` back to the calling thread through a queue.
Completed cells are appended to the answers store immediately, so an
interrupted run resumes by filling only the missing cells; a store
collected with another run id, variant, seed, model, dataset or shot
count is refused. Raw completions are stored verbatim next to the
post-processed answer so answers can be re-extracted later, and the run
manifest records each cell's status, attempts and the exemplars from
which `RunManifest.rebuild_messages` rebuilds any request.
"""

from __future__ import annotations

import http.client
import json
import logging
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib.resources import files
from pathlib import Path

from .answers import (
    STATUS_FAILED,
    STATUS_OK,
    AnswerSet,
    append_answer_record,
    load_answers,
    write_answer_header,
)
from .dataset import Dataset, QAItem
from .errors import AuthenticationError, ParaphraseMissingError, ProviderError, XlconsistError
from .transport import Transport

log = logging.getLogger(__name__)

SYSTEM_PROMPT = "Answer the question concisely, in the language it is asked."
TIMELINESS_DOMAIN = "timeliness"

VARIANTS = ("p1", "p2", "p3", "custom")


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
        if self.prompt_variant not in VARIANTS:
            raise ValueError(f"prompt_variant must be one of {VARIANTS}")

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


class QuestionTemplates:
    """Relation/language question templates for prompt variant p2."""

    def __init__(self, table: dict):
        self.table = table

    @classmethod
    def load(cls, path: str | Path | None = None) -> "QuestionTemplates":
        if path is None:
            path = str(files("xlconsist").joinpath("data/templates.json"))
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def render(self, entity: str, relation: str, lang: str) -> str:
        for rel_key in (relation, "*"):
            group = self.table.get(rel_key)
            if not group:
                continue
            template = group.get(lang) or group.get("*")
            if template:
                return template.format(entity=entity, relation=relation)
        raise KeyError(f"no template for relation {relation!r} / language {lang!r}")


def load_paraphrases(path: str | Path) -> dict:
    """Paraphrase file for variant p3: {item_id: {lang: question}}."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _question_for(item, lang: str, variant: str, templates, paraphrases) -> str:
    if variant in ("p1", "custom"):
        return item.questions[lang]
    if variant == "p2":
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
        self._lock = threading.Lock()

    def acquire(self) -> None:
        if self.rate is None:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            time.sleep(wait)


class ChatClient:
    """chat-completions-over-HTTP with retries and jittered backoff."""

    RETRYABLE = {429, 500, 502, 503, 504}

    def __init__(self, cfg: CollectionConfig):
        self.cfg = cfg
        self.transport = Transport(cfg.endpoint, cfg.timeout, cfg.token_env)
        self._jitter = random.Random(cfg.exemplar_seed)

    def complete(self, messages: list[dict]) -> tuple[str, int]:
        """Returns (completion text, attempts used); raises after retries."""
        payload = {
            "model": self.cfg.model,
            "messages": messages,
            "temperature": self.cfg.temperature,
            **self.cfg.decoding,
        }
        last_error: Exception | None = None
        for attempt in range(1, self.cfg.max_attempts + 1):
            if attempt > 1:
                base = self.cfg.backoff_base * 2 ** (attempt - 2)
                time.sleep(base * (0.5 + self._jitter.random()))
            try:
                status, body = self.transport.post(payload)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status in (401, 403):
                raise AuthenticationError(f"endpoint rejected credentials ({status})")
            if status in self.RETRYABLE:
                last_error = ProviderError(f"HTTP {status}")
                continue
            if status != 200:
                raise ProviderError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
            try:
                content = json.loads(body)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError) as exc:
                last_error = ProviderError(f"malformed completion response: {exc}")
                continue
            return str(content), attempt
        raise ProviderError(
            f"request failed after {self.cfg.max_attempts} attempts: {last_error}"
        )


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
        Path(path).write_text(
            json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )

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
        item, domain = _find_item(dataset, item_id)
        by_id = {e.id: e for e in dataset.few_shot_pool.get(domain, ())}
        exemplars = [by_id[eid] for eid in self.exemplar_ids.get(domain, [])]
        return build_messages(
            item, lang, exemplars, self.config.get("prompt_variant", "p1"), templates, paraphrases
        )


def _find_item(dataset: Dataset, item_id: str):
    for item in dataset.qa_items:
        if item.id == item_id:
            return item, item.domain
    for item in dataset.timeliness_items:
        if item.id == item_id:
            return item, TIMELINESS_DOMAIN
    raise KeyError(f"item {item_id!r} not in dataset")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def collect_answers(
    dataset: Dataset,
    languages,
    cfg: CollectionConfig,
    store_path: str | Path,
    *,
    run_id: str = "run",
    dataset_digest: str | None = None,
    templates: QuestionTemplates | None = None,
    paraphrases: dict | None = None,
    retry_failed: bool = False,
    progress=None,
) -> tuple[AnswerSet, RunManifest]:
    """Collect one answer per (language, item); resumable and rate-limited.

    `progress(lang, item_id, status)` is invoked in the coordinating thread
    as cells complete; exceptions it raises abort the run, as does an
    `AuthenticationError`. No cell starts after that, every request loop is
    joined, and the cells already stored survive and are skipped on the
    next call.
    """
    store_path = Path(store_path)
    languages = list(languages)
    missing = [lang for lang in languages if lang not in dataset.languages]
    if missing:
        raise XlconsistError(f"languages not in dataset: {missing}")

    cells = []
    domains = []
    for item in dataset.qa_items:
        cells.append((item, item.domain))
        if item.domain not in domains:
            domains.append(item.domain)
    if dataset.timeliness_items:
        domains.append(TIMELINESS_DOMAIN)
        cells.extend((item, TIMELINESS_DOMAIN) for item in dataset.timeliness_items)

    exemplars_by_domain = {
        domain: sample_exemplars(
            dataset.few_shot_pool.get(domain, ()), cfg.shots, cfg.exemplar_seed, domain
        )
        for domain in domains
    }

    client = ChatClient(cfg)
    done: dict[tuple[str, str], str] = {}
    manifest_path = Path(str(store_path) + ".manifest.json")
    started = _now()
    if store_path.exists() and store_path.stat().st_size > 0:
        existing = load_answers(store_path)
        if (existing.run_id, existing.prompt_variant, existing.seed) != (
            run_id,
            cfg.prompt_variant,
            cfg.exemplar_seed,
        ):
            raise XlconsistError(
                f"{store_path} belongs to run {existing.run_id!r} "
                f"(variant {existing.prompt_variant}, seed {existing.seed}); refusing to mix"
            )
        if existing.model_id != cfg.model:
            raise XlconsistError(
                f"{store_path} holds answers of model {existing.model_id!r}, "
                f"not {cfg.model!r}; refusing to mix"
            )
        if existing.dataset_hash and dataset_digest and existing.dataset_hash != dataset_digest:
            raise XlconsistError(
                f"{store_path} was collected against dataset {existing.dataset_hash}, "
                f"not {dataset_digest}; refusing to mix"
            )
        with open(store_path, encoding="utf-8") as handle:
            stored_shots = json.loads(handle.readline()).get("shots")
        if stored_shots is not None and stored_shots != cfg.shots:
            raise XlconsistError(
                f"{store_path} was collected with {stored_shots} shots, "
                f"not {cfg.shots}; refusing to mix"
            )
        done = dict(existing.statuses)
        if manifest_path.exists():
            started = RunManifest.load(manifest_path).started_at or started
    else:
        header_set = AnswerSet(
            run_id=run_id,
            model_id=cfg.model,
            prompt_variant=cfg.prompt_variant,
            seed=cfg.exemplar_seed,
            dataset_hash=dataset_digest,
        )
        write_answer_header(
            store_path, header_set, extra={"endpoint": cfg.endpoint, "shots": cfg.shots}
        )

    pending = []
    for item, domain in cells:
        for lang in languages:
            status = done.get((lang, item.id))
            if status == STATUS_OK:
                continue
            if status == STATUS_FAILED and not retry_failed:
                continue
            pending.append((item, domain, lang))

    bucket = TokenBucket(cfg.rate_limit_rps, burst=float(cfg.concurrency))
    write_lock = threading.Lock()
    store_handle = open(store_path, "a", encoding="utf-8")

    def fetch_cell(item, domain, lang):
        bucket.acquire()
        messages = build_messages(
            item, lang, exemplars_by_domain[domain], cfg.prompt_variant, templates, paraphrases
        )
        try:
            raw, attempts = client.complete(messages)
            text = postprocess_answer(raw, cfg.cut_at_newline)
            status = STATUS_OK
        except AuthenticationError:
            raise  # fatal: no point continuing the run
        except ProviderError as exc:
            log.warning("cell %s/%s failed after retries: %s", lang, item.id, exc)
            raw, text, status, attempts = "", "", STATUS_FAILED, cfg.max_attempts
        with write_lock:
            append_answer_record(store_handle, lang, item.id, raw, text, status, attempts)
        return lang, item.id, status

    cells_left = iter(pending)
    take_lock = threading.Lock()
    stop = threading.Event()
    # at most concurrency + 1 cells are taken and not yet reported, so a run
    # that `progress` stops at its k-th report has stored at most
    # k + concurrency cells
    slots = threading.Semaphore(cfg.concurrency + 1)
    results = queue.SimpleQueue()  # (lang, item_id, status), an exception, or None: loop ended

    def request_loop():
        try:
            while True:
                slots.acquire()
                with take_lock:
                    cell = None if stop.is_set() else next(cells_left, None)
                if cell is None:
                    break
                results.put(fetch_cell(*cell))
        except BaseException as exc:
            results.put(exc)
        results.put(None)

    loops = []
    try:
        for k in range(min(cfg.concurrency, len(pending))):
            loop = threading.Thread(target=request_loop, name=f"xlconsist-collect-{k}")
            loop.start()
            loops.append(loop)
        running = len(loops)
        while running:
            outcome = results.get()
            if outcome is None:
                running -= 1
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            if progress is not None:
                progress(*outcome)
            slots.release()
    finally:
        with take_lock:
            stop.set()
        slots.release(cfg.concurrency)  # wake every loop waiting for a slot
        for loop in loops:
            loop.join()
        store_handle.close()
        client.transport.close()

    answer_set = load_answers(store_path)
    manifest = RunManifest(
        run_id=run_id,
        config=cfg.snapshot(),
        dataset_hash=dataset_digest,
        exemplar_ids={
            domain: [e.id for e in exemplars] for domain, exemplars in exemplars_by_domain.items()
        },
        statuses={
            "/".join(key): {"status": status, "attempts": answer_set.attempts.get(key)}
            for key, status in sorted(answer_set.statuses.items())
        },
        started_at=started,
        finished_at=_now(),
    )
    manifest.save(manifest_path)
    return answer_set, manifest
