"""Model answers by (language, item), with a resumable JSONL store.

`AnswerSet` is the one form of a model's answers: the store's header and
one column of answers per language. `load_answers` builds it from a
store; `store_records` gives the header and each cell's last record,
status and attempts included, for a collection run to resume from.

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
from itertools import starmap
from pathlib import Path

from .dataset import Dataset, decode_utf8
from .errors import DatasetFormatError, MissingAnswersError

ANSWERS_SCHEMA = "xlconsist-answers/1"
# the header fields that an AnswerSet carries
HEADER_FIELDS = ("run_id", "model_id", "prompt_variant", "seed", "dataset_hash")

STATUS_OK = "ok"
STATUS_FAILED = "failed"

_decode = json.JSONDecoder().raw_decode


@dataclass
class AnswerSet:
    """A model's answers by (language, item): the store header's fields and
    one column per language over `item_ids`, in the order each was first
    set, None where the set has no answer. Every column is
    `len(item_ids)` long; `set_answer` keeps it so."""

    run_id: str
    model_id: str
    prompt_variant: str = "p1"
    seed: int = 0
    dataset_hash: str | None = None
    extra: dict = field(default_factory=dict)  # other header fields, such as endpoint and shots
    item_ids: list[str] = field(default_factory=list)
    by_language: dict[str, list[str | None]] = field(default_factory=dict)

    def __post_init__(self):
        self._position = dict(zip(self.item_ids, range(len(self.item_ids))))

    def set_answer(self, lang: str, item_id: str, text: str) -> None:
        """Store `text`, NFC-normalised, as the answer of (lang, item_id);
        a later call for the same cell replaces it."""
        at = self._position.get(item_id)
        if at is None:
            at = self._position[item_id] = len(self.item_ids)
            self.item_ids.append(item_id)
            for column in self.by_language.values():
                column.append(None)
        column = self.by_language.get(lang)
        if column is None:
            column = self.by_language[lang] = [None] * len(self.item_ids)
        column[at] = unicodedata.normalize("NFC", text)

    def answer(self, lang: str, item_id: str) -> str:
        """The answer of (lang, item_id); KeyError when the set has none."""
        column, at = self.by_language.get(lang), self._position.get(item_id)
        if column is None or at is None or column[at] is None:
            raise KeyError((lang, item_id))
        return column[at]

    def columns(self, languages, item_ids) -> list[list[str]]:
        """Each language's answers to item_ids, in order, one lookup per
        cell. A missing cell raises MissingAnswersError naming every missing
        cell, language by language."""
        end = len(self.item_ids)
        # an item the set lacks points at the None past a column's end
        at = [self._position.get(item_id, end) for item_id in item_ids]
        lacking = [None] * end
        columns = [
            list(map([*self.by_language.get(lang, lacking), None].__getitem__, at))
            for lang in languages
        ]
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


def ground_truth_answers(dataset: Dataset, run_id: str = "ground-truth") -> AnswerSet:
    """The dataset's own answers as an AnswerSet (the oracle ceiling run).

    Timeliness items contribute their newest candidate.
    """
    answer_set = AnswerSet(run_id=run_id, model_id="ground-truth")
    for item in dataset.qa_items:
        for lang in dataset.languages:
            answer_set.set_answer(lang, item.id, item.answers[lang])
    for item in dataset.timeliness_items:
        for lang in dataset.languages:
            answer_set.set_answer(lang, item.id, item.candidates[lang][0])
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
    """The AnswerSet of the store at `path`: its header, then every record
    placed by `set_answer`, the last per cell winning, in one walk over the
    records that `_records` reads and checks."""
    answer_set, records = _records(path)
    place = answer_set.set_answer
    for (lang, item_id), answer, _ in records:
        place(lang, item_id, answer)
    return answer_set


def store_records(path: str | Path) -> tuple[AnswerSet, dict[tuple[str, str], dict]]:
    """The header of the store at `path`, as an AnswerSet with no cells,
    and the last record of each (lang, item) cell, in the order each cell
    was first stored; read and checked by `_records`."""
    header, records = _records(path)
    return header, {key: record for key, _, record in records}


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
