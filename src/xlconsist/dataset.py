"""Aligned multilingual knowledge-QA dataset: types, JSONL format, validation.

File format (one JSON object per line, UTF-8):

    header      {"schema": "makqa/1", "languages": ["en", "de", ...]}
    QA          {"id", "domain", "entity", "relation",
                 "q": {lang: text}, "a": {lang: text}}
    exemplar    same shape as QA plus "type": "exemplar"  (few-shot pool)
    timeliness  {"id", "type": "timeliness", "q": {lang: text},
                 "candidates": {lang: [newest, ..., oldest]}}

All text is NFC-normalized on construction. The parser normalises each
string of the file once, as it type-checks it, and builds the items from
those strings without normalising them again. Languages beyond the
declared list are preserved in records but ignored by validation and
scoring.
"""

from __future__ import annotations

import hashlib
import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AlignmentError, DatasetFormatError

SCHEMA = "makqa/1"

STANDARD_LANGUAGES = ("en", "de", "nl", "fr", "es", "it", "pt", "el", "ru", "zh", "ja", "ko")
STANDARD_DOMAINS = ("sports", "movie", "science", "history", "geography", "literature")


_normalize = unicodedata.normalize


def _nfc(text: str) -> str:
    return _normalize("NFC", text)


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
            self, "few_shot_pool", {_nfc(str(k)): tuple(v) for k, v in self.few_shot_pool.items()}
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
    """The lang -> text object `value`, type-checked and NFC-normalised in
    one pass into the dict the item keeps."""
    if not isinstance(value, dict):
        raise DatasetFormatError(f"field {key!r} must be an object of lang -> text", line=line)
    try:
        # normalize() refuses a value that is not a string
        return {_normalize("NFC", lang): _normalize("NFC", text) for lang, text in value.items()}
    except TypeError:
        lang = next(lang for lang, text in value.items() if not isinstance(text, str))
        raise DatasetFormatError(f"{key}[{lang!r}] must be a string", line=line) from None


def _parsed(cls, **fields):
    """An item of `cls` from fields the parser has already normalised;
    __post_init__, which would copy and normalise them again, is skipped."""
    item = object.__new__(cls)
    # one at a time, as the dataclass __init__ sets them: through
    # item.__dict__ each item would keep its own attribute table, not the
    # class's shared one (~0.4 MiB more on the paper-scale corpus)
    for name, value in fields.items():
        object.__setattr__(item, name, value)
    return item


def _parse_field(record: dict, key: str, line: int) -> str:
    return _normalize("NFC", str(_require(record, key, line)))


def _parse_record(record: dict, line: int):
    kind = record.get("type", "qa")
    if kind in ("qa", "exemplar"):
        item = _parsed(
            QAItem,
            id=_parse_field(record, "id", line),
            domain=_parse_field(record, "domain", line),
            entity=_parse_field(record, "entity", line),
            relation=_parse_field(record, "relation", line),
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
            candidates[_normalize("NFC", lang)] = tuple(_normalize("NFC", v) for v in values)
        item = _parsed(
            TimelinessItem,
            id=_parse_field(record, "id", line),
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


def decode_utf8(data: bytes, universal_newlines: bool) -> str:
    """`data` decoded as UTF-8, or DatasetFormatError naming the 1-based line
    of its first byte that cannot be decoded. Lines end at "\\n", and with
    `universal_newlines` also at "\\r\\n" and "\\r", as a text-mode read ends them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + 1
        if universal_newlines:
            line += head.count(b"\r") - head.count(b"\r\n")
        raise DatasetFormatError(f"byte {data[exc.start]:#04x} is not UTF-8", line=line) from None


def _read(path: str | Path) -> Dataset:
    try:
        with open(path, encoding="utf-8") as handle:
            return _parse_lines(handle)
    except UnicodeDecodeError:
        # its offset counts from the chunk being decoded: find the byte's line in the file
        decode_utf8(Path(path).read_bytes(), universal_newlines=True)
        raise


def load_dataset(path: str | Path) -> Dataset:
    """Parse and fully validate a dataset file.

    Raises DatasetFormatError (with line number) for malformed content and
    AlignmentError, naming the count and the first violation, when the
    parsed dataset violates its invariants.
    """
    dataset = _read(path)
    report = validate_alignment(dataset)
    if not report.ok:
        first = report.violations[0].render()
        raise AlignmentError(f"{len(report.violations)} violation(s); first: {first}")
    return dataset


def check_file(path: str | Path) -> tuple[ValidationReport, Dataset | None]:
    """(`validate_file`'s report, the parsed dataset or None when the file
    does not parse), from one read of the file."""
    try:
        dataset = _read(path)
    except DatasetFormatError as exc:
        return ValidationReport((Violation("format", exc.reason, line=exc.line),)), None
    return validate_alignment(dataset), dataset


def validate_file(path: str | Path) -> ValidationReport:
    """Lenient whole-file validation; parse failures become violations."""
    return check_file(path)[0]


# one encoder for every record; json.dumps with these options builds a new one per call
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


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


def _timeliness_record(item: TimelinessItem) -> dict:
    # the candidate tuples encode as JSON arrays
    return {"id": item.id, "type": "timeliness", "q": item.questions, "candidates": item.candidates}


def _records(dataset: Dataset):
    """The records of `dataset`'s file, one per line, in file order."""
    yield {"schema": SCHEMA, "languages": list(dataset.languages)}
    for pool in dataset.few_shot_pool.values():
        for item in pool:
            yield _qa_record(item, "exemplar")
    for item in dataset.qa_items:
        yield _qa_record(item)
    for item in dataset.timeliness_items:
        yield _timeliness_record(item)


def serialize_dataset(dataset: Dataset) -> str:
    return "".join([_encode(record) + "\n" for record in _records(dataset)])


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")


def dataset_hash(dataset: Dataset) -> str:
    """Stable content digest used for report provenance: sha256 of the
    file `write_dataset` would write."""
    return hashlib.sha256(serialize_dataset(dataset).encode("utf-8")).hexdigest()
