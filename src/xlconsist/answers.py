"""Model answers keyed by (language, item), with a resumable JSONL store.

Store layout: a header line with run metadata, then one record per
completed cell. Records are append-only; on replay the last record for a
cell wins, so retrying failures just appends replacements. A torn final
line (crash mid-append) is dropped on load and cut back before the next
append, so no appended record joins it.

    header  {"schema": "xlconsist-answers/1", "run_id", "model_id",
             "prompt_variant", "seed", "dataset_hash", ...}
    record  {"lang", "item", "raw", "text", "status", "attempts"}
"""

from __future__ import annotations

import json
import mmap
import unicodedata
from dataclasses import dataclass, field
from itertools import repeat, starmap
from pathlib import Path

from .dataset import Dataset, decode_utf8
from .errors import DatasetFormatError, MissingAnswersError

ANSWERS_SCHEMA = "xlconsist-answers/1"
# the header fields that an AnswerSet and AnswerColumns carry
HEADER_FIELDS = ("run_id", "model_id", "prompt_variant", "seed", "dataset_hash")

STATUS_OK = "ok"
STATUS_FAILED = "failed"

_decode = json.JSONDecoder().raw_decode


@dataclass
class AnswerSet:
    run_id: str
    model_id: str
    prompt_variant: str = "p1"
    seed: int = 0
    dataset_hash: str | None = None
    answers: dict[tuple[str, str], str] = field(default_factory=dict)
    raw: dict[tuple[str, str], str] = field(default_factory=dict)
    statuses: dict[tuple[str, str], str] = field(default_factory=dict)
    attempts: dict[tuple[str, str], int] = field(default_factory=dict)  # from the store only
    extra: dict = field(default_factory=dict)  # other header fields, such as endpoint and shots

    def set_answer(self, lang: str, item_id: str, raw: str, text: str, status: str) -> None:
        key = (lang, item_id)
        self.answers[key] = unicodedata.normalize("NFC", text)
        self.raw[key] = raw
        self.statuses[key] = status

    def answer(self, lang: str, item_id: str) -> str:
        return self.answers[(lang, item_id)]

    def columns(self, languages, item_ids) -> list[list[str]]:
        """Each language's answers to item_ids, in order, one lookup per cell.
        A missing cell raises MissingAnswersError naming every missing cell,
        language by language."""
        lookup = self.answers.get
        columns = [list(map(lookup, zip(repeat(lang), item_ids))) for lang in languages]
        return _complete(languages, item_ids, columns)


def _complete(languages, item_ids, columns):
    """`columns`, or MissingAnswersError naming each None cell, language by language."""
    if any(None in column for column in columns):
        raise MissingAnswersError(
            [
                (lang, item_id)
                for lang, column in zip(languages, columns)
                for item_id, text in zip(item_ids, column)
                if text is None
            ]
        )
    return columns


@dataclass
class AnswerColumns:
    """What scoring reads of an answers store: its header fields and each
    language's answers to the items read, None where the store has no
    answer. Scoring reads it as it reads an AnswerSet, through those
    fields and `columns`."""

    run_id: str
    model_id: str
    prompt_variant: str
    seed: int
    dataset_hash: str | None
    item_ids: list[str]
    by_language: dict[str, list[str | None]]

    def columns(self, languages, item_ids) -> list[list[str]]:
        """As AnswerSet.columns: a language or item that was not read has
        no answers."""
        end = len(self.item_ids)
        position = dict(zip(self.item_ids, range(end)))
        # an item that was not read points at the None past a column's end
        at = [position.get(item_id, end) for item_id in item_ids]
        lacking = [None] * end
        columns = [
            list(map([*self.by_language.get(lang, lacking), None].__getitem__, at))
            for lang in languages
        ]
        return _complete(languages, item_ids, columns)


def ground_truth_answers(dataset: Dataset, run_id: str = "ground-truth") -> AnswerSet:
    """The dataset's own answers as an AnswerSet (the oracle ceiling run).

    Timeliness items contribute their newest candidate.
    """
    answer_set = AnswerSet(run_id=run_id, model_id="ground-truth")
    for item in dataset.qa_items:
        for lang in dataset.languages:
            text = item.answers[lang]
            answer_set.set_answer(lang, item.id, text, text, STATUS_OK)
    for item in dataset.timeliness_items:
        for lang in dataset.languages:
            text = item.candidates[lang][0]
            answer_set.set_answer(lang, item.id, text, text, STATUS_OK)
    return answer_set


def write_answer_header(path: str | Path, answer_set: AnswerSet, extra: dict | None = None) -> None:
    header = {"schema": ANSWERS_SCHEMA, **{key: getattr(answer_set, key) for key in HEADER_FIELDS}}
    if extra:
        header.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n")


def append_answer_record(
    handle, lang: str, item_id: str, raw: str, text: str, status: str, attempts: int
) -> None:
    record = {
        "lang": lang,
        "item": item_id,
        "raw": raw,
        "text": text,
        "status": status,
        "attempts": attempts,
    }
    handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    handle.flush()


def open_for_append(path: str | Path):
    """The store at `path` opened to append records. A torn final line,
    which `load_answers` drops, is cut back first, and a whole final record
    without its newline gets one, so the next record starts a line."""
    with open(path, "a+b") as handle:
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as view:
            final = view.rfind(b"\n", 0, len(view) - 1) + 1  # searched back from the end
            line = view[final:]
        try:
            json.loads(line.decode("utf-8"))
        except ValueError:  # torn, cut inside a character, or blank
            handle.truncate(final)
        else:
            if not line.endswith(b"\n"):
                handle.write(b"\n")
    return open(path, "a", encoding="utf-8")


def load_answers(path: str | Path) -> AnswerSet:
    """Replay a store: the header, then every record, the last per cell
    winning. `_records` reads and checks them, as for `store_columns`."""
    answer_set, records = _records(path)
    for key, answer, record in records:
        raw, status = record.get("raw", answer), record.get("status", STATUS_OK)
        answer_set.set_answer(*key, raw, answer, status)
        if "attempts" in record:
            answer_set.attempts[key] = record["attempts"]
    return answer_set


def _records(path: str | Path):
    """The empty AnswerSet of the store's header, and its records as
    ((lang, item), text, record), checked, in the order they are stored.

    Lines end at "\\n" only, so an answer holding U+2028 or another
    `str.splitlines` boundary stays one record. A body whose only "{"
    characters are the first characters of its lines (true of every store
    whose answers hold no "{") is decoded in one call (`_whole_records`);
    any other body, or one that call refuses, is read line by line: a line
    that is exactly one JSON object is decoded in place by one bound
    decoder, and any other line is skipped when blank, dropped when it is a
    torn final line, and otherwise raises DatasetFormatError with its line
    number. Either way a record without a string `lang`, `item` or `text`
    raises DatasetFormatError with its line number, as does a header that
    is not a JSON object of this schema with an integer `seed`.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:  # a final line torn inside a character is dropped
        final = data.rfind(b"\n", 0, len(data) - 1) + 1
        text = decode_utf8(data[:final], universal_newlines=False)
    if not text:
        raise DatasetFormatError("empty answers file", line=1)
    body = text.find("\n") + 1 or len(text)
    answer_set = _header(text[:body])
    records = _whole_records(text[body:])
    if records is None:
        records = _line_records(text, body)
    return answer_set, starmap(_checked, records)


def _checked(line_no: int, record: dict):
    """The record's (lang, item), text and itself, or DatasetFormatError."""
    key, answer = (record.get("lang"), record.get("item")), record.get("text")
    if type(key[0]) is not str or type(key[1]) is not str or type(answer) is not str:
        raise DatasetFormatError("answer record needs string lang, item and text", line=line_no)
    return key, answer, record


def _header(line: str) -> AnswerSet:
    """The empty AnswerSet that the store's header line describes, or
    DatasetFormatError on line 1."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid header: {exc.msg}", line=1) from exc
    if not isinstance(header, dict):
        raise DatasetFormatError("header is not a JSON object", line=1)
    if header.get("schema") != ANSWERS_SCHEMA:
        raise DatasetFormatError(
            f"expected schema {ANSWERS_SCHEMA!r}, got {header.get('schema')!r}", line=1
        )
    del header["schema"]
    seed = header.pop("seed", 0)
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise DatasetFormatError(f"header seed must be an integer, got {seed!r}", line=1)
    return AnswerSet(
        run_id=header.pop("run_id", ""),
        model_id=header.pop("model_id", ""),
        prompt_variant=header.pop("prompt_variant", "p1"),
        seed=seed,
        dataset_hash=header.pop("dataset_hash", None),
        extra=header,  # the fields left, such as endpoint and shots
    )


def _whole_records(body: str):
    """(line number, record) of each line of `body`, decoded as one JSON
    array in one call, or None when that would not be exactly what the line
    loop reads.

    The lines are joined with ",\\n", so the newline stays and a string
    cannot run on across a line end. The result is taken only when every
    line starts with "{", the body holds no other "{", and the array holds
    one dict per line: the "{" of each dict is then the start of its own
    line, so each line holds exactly that one object (and whitespace after
    it). A blank line, a torn tail or an answer holding "{" fails one of
    these checks, and the caller reads the body line by line.
    """
    if body.endswith("\n"):
        body = body[:-1]
    if not body:
        return []
    joined = body.replace("\n", ",\n")
    lines = len(joined) - len(body) + 1
    if not body.count("{") == lines == body.count("\n{") + body.startswith("{"):
        return None
    try:
        records = json.loads(f"[{joined}]")
    except (json.JSONDecodeError, RecursionError):  # the array nests one level deeper
        return None
    if len(records) != lines or not all(type(record) is dict for record in records):
        return None
    return enumerate(records, 2)


def _line_records(text: str, body: int):
    """(line number, record) of each record line of `text` from offset
    `body`, decoded line by line."""
    size = len(text)
    pos, line_no = body, 2
    while pos < size:
        end = text.find("\n", pos)
        if end < 0:
            end = size
        try:
            record, stop = _decode(text, pos)
        except json.JSONDecodeError:
            record, stop = None, -1
        if stop != end or type(record) is not dict:
            record = _odd_line(text[pos:end], line_no, last=end + 1 >= size)
        if record is not None:
            yield line_no, record
        pos, line_no = end + 1, line_no + 1


def _odd_line(line: str, line_no: int, last: bool) -> dict | None:
    """The record of a line that is not exactly one JSON object: None when
    the line is blank or a torn final line, else DatasetFormatError."""
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        if last:
            return None  # torn final line from an interrupted run
        raise DatasetFormatError("invalid answer record", line=line_no)
    if not isinstance(record, dict):
        raise DatasetFormatError("answer record is not a JSON object", line=line_no)
    return record


def store_columns(path: str | Path) -> AnswerColumns:
    """The AnswerColumns of every language and item of the store at `path`,
    in the order each is first stored: one walk over the records that
    `load_answers` reads, with its checks, the last record per cell winning."""
    answer_set, records = _records(path)
    position, by_language = {}, {}
    for (lang, item_id), answer, _ in records:
        at = position.setdefault(item_id, len(position))
        column = by_language.setdefault(lang, [])
        if at >= len(column):
            column += [None] * (at + 1 - len(column))
        column[at] = unicodedata.normalize("NFC", answer)
    for column in by_language.values():
        column += [None] * (len(position) - len(column))
    header = {key: getattr(answer_set, key) for key in HEADER_FIELDS}
    return AnswerColumns(**header, item_ids=list(position), by_language=by_language)
