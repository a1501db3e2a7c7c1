"""Aligned multilingual knowledge-QA dataset: types, JSONL format, validation.

File format (one JSON object per line, UTF-8):

    header      {"schema": "makqa/1", "languages": ["en", "de", ...]}
    QA          {"id", "domain", "entity", "relation",
                 "q": {lang: text}, "a": {lang: text}}
    exemplar    same shape as QA plus "type": "exemplar"  (few-shot pool)
    timeliness  {"id", "type": "timeliness", "q": {lang: text},
                 "candidates": {lang: [newest, ..., oldest]}}

All text is NFC-normalized on construction. Languages beyond the declared
list are preserved in records but ignored by validation and scoring.
"""

from __future__ import annotations

import hashlib
import io
import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AlignmentError, DatasetFormatError

SCHEMA = "makqa/1"

STANDARD_LANGUAGES = ("en", "de", "nl", "fr", "es", "it", "pt", "el", "ru", "zh", "ja", "ko")
STANDARD_DOMAINS = ("sports", "movie", "science", "history", "geography", "literature")


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _nfc_map(m: dict) -> dict[str, str]:
    return {_nfc(str(k)): _nfc(str(v)) for k, v in m.items()}


@dataclass(frozen=True)
class QAItem:
    id: str
    domain: str
    entity: str
    relation: str
    questions: dict[str, str]
    answers: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "id", _nfc(self.id))
        object.__setattr__(self, "domain", _nfc(self.domain))
        object.__setattr__(self, "entity", _nfc(self.entity))
        object.__setattr__(self, "relation", _nfc(self.relation))
        object.__setattr__(self, "questions", _nfc_map(self.questions))
        object.__setattr__(self, "answers", _nfc_map(self.answers))


@dataclass(frozen=True)
class TimelinessItem:
    id: str
    questions: dict[str, str]
    candidates: dict[str, tuple[str, ...]]  # index 0 = most recent

    def __post_init__(self):
        object.__setattr__(self, "id", _nfc(self.id))
        object.__setattr__(self, "questions", _nfc_map(self.questions))
        object.__setattr__(
            self,
            "candidates",
            {_nfc(str(k)): tuple(_nfc(str(c)) for c in v) for k, v in self.candidates.items()},
        )


@dataclass(frozen=True)
class Dataset:
    languages: tuple[str, ...]
    qa_items: tuple[QAItem, ...] = ()
    timeliness_items: tuple[TimelinessItem, ...] = ()
    few_shot_pool: dict[str, tuple[QAItem, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "languages", tuple(_nfc(str(c)) for c in self.languages))
        object.__setattr__(self, "qa_items", tuple(self.qa_items))
        object.__setattr__(self, "timeliness_items", tuple(self.timeliness_items))
        object.__setattr__(
            self, "few_shot_pool", {k: tuple(v) for k, v in self.few_shot_pool.items()}
        )

    @property
    def n_qa(self) -> int:
        return len(self.qa_items)

    def domain_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for item in self.qa_items:
            counts[item.domain] = counts.get(item.domain, 0) + 1
        return counts

    def domains(self) -> tuple[str, ...]:
        return tuple(self.domain_counts())

    def qa_by_domain(self, domain: str) -> tuple[QAItem, ...]:
        return tuple(item for item in self.qa_items if item.domain == domain)

    def item_ids(self) -> list[str]:
        return [i.id for i in self.qa_items] + [i.id for i in self.timeliness_items]

    def subset(self, languages: list[str] | tuple[str, ...]) -> "Dataset":
        """Restrict the declared language list; item records are untouched."""
        missing = [code for code in languages if code not in self.languages]
        if missing:
            raise AlignmentError(f"languages not in dataset: {', '.join(missing)}")
        if len(set(languages)) != len(tuple(languages)):
            raise AlignmentError("language subset contains duplicates")
        return Dataset(
            languages=tuple(languages),
            qa_items=self.qa_items,
            timeliness_items=self.timeliness_items,
            few_shot_pool=self.few_shot_pool,
        )


@dataclass(frozen=True)
class Violation:
    kind: str  # format | alignment | duplicate
    message: str
    item_id: str | None = None
    language: str | None = None
    line: int | None = None

    def render(self) -> str:
        parts = [self.kind]
        if self.line is not None:
            parts.append(f"line {self.line}")
        if self.item_id is not None:
            parts.append(f"item {self.item_id}")
        if self.language is not None:
            parts.append(f"lang {self.language}")
        return f"[{' / '.join(parts)}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "OK: no violations"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)


def validate_alignment(dataset: Dataset) -> ValidationReport:
    """Check the alignment invariants; violations are data, not exceptions."""
    violations: list[Violation] = []

    def add(kind, message, item_id=None, language=None):
        violations.append(Violation(kind, message, item_id=item_id, language=language))

    if len(dataset.languages) < 2:
        add("alignment", f"need at least 2 declared languages, got {len(dataset.languages)}")
    seen_codes = set()
    for code in dataset.languages:
        if not code:
            add("format", "empty language code in declared list")
        elif code in seen_codes:
            add("duplicate", f"language {code!r} declared twice")
        seen_codes.add(code)

    seen_ids: set[str] = set()

    def check_id(item_id):
        if item_id in seen_ids:
            add("duplicate", f"duplicate item id {item_id!r}", item_id=item_id)
        seen_ids.add(item_id)

    def check_qa(item: QAItem):
        check_id(item.id)
        for lang in dataset.languages:
            q = item.questions.get(lang)
            if q is None or not q.strip():
                add("alignment", "missing or empty question", item_id=item.id, language=lang)
            a = item.answers.get(lang)
            if a is None or not a.strip():
                add("alignment", "missing or empty answer", item_id=item.id, language=lang)

    for item in dataset.qa_items:
        check_qa(item)
    for pool in dataset.few_shot_pool.values():
        for item in pool:
            check_qa(item)

    for item in dataset.timeliness_items:
        check_id(item.id)
        lengths = set()
        for lang in dataset.languages:
            q = item.questions.get(lang)
            if q is None or not q.strip():
                add("alignment", "missing or empty question", item_id=item.id, language=lang)
            cands = item.candidates.get(lang)
            if cands is None or len(cands) == 0:
                add("alignment", "missing or empty candidate list", item_id=item.id, language=lang)
            else:
                lengths.add(len(cands))
                if any(not c.strip() for c in cands):
                    add("alignment", "empty candidate answer", item_id=item.id, language=lang)
        if len(lengths) > 1:
            add(
                "alignment",
                f"candidate lists differ in length across languages: {sorted(lengths)}",
                item_id=item.id,
            )

    return ValidationReport(tuple(violations))


def _require(record: dict, key: str, line: int):
    if key not in record:
        raise DatasetFormatError(f"missing required field {key!r}", line=line)
    return record[key]


def _parse_text_map(value, key: str, line: int) -> dict[str, str]:
    if not isinstance(value, dict):
        raise DatasetFormatError(f"field {key!r} must be an object of lang -> text", line=line)
    out = {}
    for lang, text in value.items():
        if not isinstance(text, str):
            raise DatasetFormatError(f"{key}[{lang!r}] must be a string", line=line)
        out[str(lang)] = text
    return out


def _parse_record(record: dict, line: int):
    kind = record.get("type", "qa")
    if kind in ("qa", "exemplar"):
        item = QAItem(
            id=str(_require(record, "id", line)),
            domain=str(_require(record, "domain", line)),
            entity=str(_require(record, "entity", line)),
            relation=str(_require(record, "relation", line)),
            questions=_parse_text_map(_require(record, "q", line), "q", line),
            answers=_parse_text_map(_require(record, "a", line), "a", line),
        )
        return kind, item
    if kind == "timeliness":
        raw = _require(record, "candidates", line)
        if not isinstance(raw, dict):
            raise DatasetFormatError("field 'candidates' must be an object", line=line)
        candidates = {}
        for lang, values in raw.items():
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise DatasetFormatError(
                    f"candidates[{lang!r}] must be a list of strings", line=line
                )
            candidates[str(lang)] = tuple(values)
        item = TimelinessItem(
            id=str(_require(record, "id", line)),
            questions=_parse_text_map(_require(record, "q", line), "q", line),
            candidates=candidates,
        )
        return kind, item
    raise DatasetFormatError(f"unknown record type {kind!r}", line=line)


def _parse_lines(lines) -> Dataset:
    languages = None
    qa: list[QAItem] = []
    timeliness: list[TimelinessItem] = []
    pool: dict[str, list[QAItem]] = {}

    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON: {exc.msg}", line=line_no) from exc
        if not isinstance(record, dict):
            raise DatasetFormatError("expected a JSON object", line=line_no)

        if languages is None:
            schema = record.get("schema")
            if schema != SCHEMA:
                raise DatasetFormatError(
                    f"first line must be a header with schema={SCHEMA!r}, got {schema!r}",
                    line=line_no,
                )
            declared = record.get("languages")
            if not isinstance(declared, list) or not declared:
                raise DatasetFormatError("header must declare a nonempty language list", line=line_no)
            languages = tuple(str(code) for code in declared)
            continue

        kind, item = _parse_record(record, line_no)
        if kind == "qa":
            qa.append(item)
        elif kind == "exemplar":
            pool.setdefault(item.domain, []).append(item)
        else:
            timeliness.append(item)

    if languages is None:
        raise DatasetFormatError("file has no header line", line=1)
    return Dataset(
        languages=languages,
        qa_items=tuple(qa),
        timeliness_items=tuple(timeliness),
        few_shot_pool={k: tuple(v) for k, v in pool.items()},
    )


def load_dataset(path: str | Path) -> Dataset:
    """Parse and fully validate a dataset file.

    Raises DatasetFormatError (with line number) for malformed content and
    AlignmentError when the parsed dataset violates its invariants.
    """
    with open(path, encoding="utf-8") as handle:
        dataset = _parse_lines(handle)
    report = validate_alignment(dataset)
    if not report.ok:
        raise AlignmentError(report.render())
    return dataset


def validate_file(path: str | Path) -> ValidationReport:
    """Lenient whole-file validation; parse failures become violations."""
    try:
        with open(path, encoding="utf-8") as handle:
            dataset = _parse_lines(handle)
    except DatasetFormatError as exc:
        return ValidationReport((Violation("format", str(exc), line=exc.line),))
    return validate_alignment(dataset)


def _dump(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _qa_record(item: QAItem, kind: str | None = None) -> dict:
    record = {
        "id": item.id,
        "domain": item.domain,
        "entity": item.entity,
        "relation": item.relation,
        "q": item.questions,
        "a": item.answers,
    }
    if kind:
        record["type"] = kind
    return record


def serialize_dataset(dataset: Dataset) -> str:
    out = io.StringIO()
    out.write(_dump({"schema": SCHEMA, "languages": list(dataset.languages)}) + "\n")
    for domain in dataset.few_shot_pool:
        for item in dataset.few_shot_pool[domain]:
            out.write(_dump(_qa_record(item, "exemplar")) + "\n")
    for item in dataset.qa_items:
        out.write(_dump(_qa_record(item)) + "\n")
    for item in dataset.timeliness_items:
        record = {
            "id": item.id,
            "type": "timeliness",
            "q": item.questions,
            "candidates": {lang: list(c) for lang, c in item.candidates.items()},
        }
        out.write(_dump(record) + "\n")
    return out.getvalue()


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")


def dataset_hash(dataset: Dataset) -> str:
    """Stable content digest used for report provenance."""
    return hashlib.sha256(serialize_dataset(dataset).encode("utf-8")).hexdigest()
