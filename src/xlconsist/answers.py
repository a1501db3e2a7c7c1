"""Model answers keyed by (language, item), with a resumable JSONL store.

Store layout: a header line with run metadata, then one record per
completed cell. Records are append-only; on replay the last record for a
cell wins, so retrying failures just appends replacements. A torn final
line (crash mid-append) is dropped on load.

    header  {"schema": "xlconsist-answers/1", "run_id", "model_id",
             "prompt_variant", "seed", "dataset_hash", ...}
    record  {"lang", "item", "raw", "text", "status", "attempts"}
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import signal
import unicodedata
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .dataset import Dataset
from .errors import DatasetFormatError, MissingAnswersError, XlconsistError

ANSWERS_SCHEMA = "xlconsist-answers/1"

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
    scored language's answers to the scored items, None where the store
    has no answer. Scoring reads it as it reads an AnswerSet, through
    those fields and `columns`."""

    run_id: str
    model_id: str
    prompt_variant: str
    seed: int
    dataset_hash: str | None
    item_ids: list[str]
    by_language: dict[str, list[str | None]]

    @classmethod
    def of(cls, answer_set: AnswerSet, languages, item_ids) -> "AnswerColumns":
        item_ids = list(dict.fromkeys(item_ids))
        position = dict(zip(item_ids, range(len(item_ids))))
        by_language = {lang: [None] * len(item_ids) for lang in languages}
        # one pass over the store's cells in the order they are stored, two
        # lookups in small dicts each: about 3x faster than a lookup of each
        # scored cell in the store's dict, whose (lang, item) keys are
        # scattered through memory
        column_of, position_of = by_language.get, position.get
        for (lang, item_id), text in answer_set.answers.items():
            column = column_of(lang)
            if column is not None:
                at = position_of(item_id)
                if at is not None:
                    column[at] = text
        return cls(
            answer_set.run_id,
            answer_set.model_id,
            answer_set.prompt_variant,
            answer_set.seed,
            answer_set.dataset_hash,
            item_ids,
            by_language,
        )

    def columns(self, languages, item_ids) -> list[list[str]]:
        """As AnswerSet.columns, for languages and items among those read."""
        position = dict(zip(self.item_ids, range(len(self.item_ids))))
        at = list(map(position.__getitem__, item_ids))
        columns = [list(map(self.by_language[lang].__getitem__, at)) for lang in languages]
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
    header = {
        "schema": ANSWERS_SCHEMA,
        "run_id": answer_set.run_id,
        "model_id": answer_set.model_id,
        "prompt_variant": answer_set.prompt_variant,
        "seed": answer_set.seed,
        "dataset_hash": answer_set.dataset_hash,
    }
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


def load_answers(path: str | Path) -> AnswerSet:
    """Replay a store: the header, then every record, the last per cell winning.

    Lines end at "\\n" only, so an answer holding U+2028 or another
    `str.splitlines` boundary stays one record. A line that is exactly one
    JSON object is decoded in place by one bound decoder; any other line is
    skipped when blank, dropped when it is a torn final line, and otherwise
    raises DatasetFormatError with its line number, as does a record
    without a string `lang`, `item` or `text`.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if not text:
        raise DatasetFormatError("empty answers file", line=1)
    body = text.find("\n") + 1 or len(text)
    try:
        header = json.loads(text[:body])
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid header: {exc.msg}", line=1) from exc
    if header.get("schema") != ANSWERS_SCHEMA:
        raise DatasetFormatError(
            f"expected schema {ANSWERS_SCHEMA!r}, got {header.get('schema')!r}", line=1
        )
    answer_set = AnswerSet(
        run_id=header.get("run_id", ""),
        model_id=header.get("model_id", ""),
        prompt_variant=header.get("prompt_variant", "p1"),
        seed=int(header.get("seed", 0)),
        dataset_hash=header.get("dataset_hash"),
    )
    answers, raw, statuses = answer_set.answers, answer_set.raw, answer_set.statuses
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
            key = (record.get("lang"), record.get("item"))
            answer = record.get("text")
            if type(key[0]) is not str or type(key[1]) is not str or type(answer) is not str:
                raise DatasetFormatError(
                    "answer record needs string lang, item and text", line=line_no
                )
            answers[key] = unicodedata.normalize("NFC", answer)
            raw[key] = record.get("raw", answer)
            statuses[key] = record.get("status", STATUS_OK)
            if "attempts" in record:
                answer_set.attempts[key] = record["attempts"]
        pos, line_no = end + 1, line_no + 1
    return answer_set


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


class StoreReader:
    """An answers store read for scoring, in a forked child when `fork`.

    The child starts here and runs `load_answers` while this process does
    other work. `columns`, called once, then sends it the scored languages
    and items, and it sends back their `AnswerColumns`, or the error that
    loading raised, which `columns` raises; it is pickled, so no traceback
    comes with it. Without `fork`, `columns` loads the store itself.
    `close` reaps the child, killing it first in case it still runs (as
    after an error before `columns`). A child that has sent its reply
    exits on its own, so closing later, not right after `columns`, keeps
    its exit off this process's path.
    """

    def __init__(self, path: str | Path, fork: bool):
        self.path = path
        self._pid = self._request = self._reply = None
        if fork:
            request_read, self._request = os.pipe()
            self._reply, reply_write = os.pipe()
            self._pid = os.fork()
            if self._pid == 0:
                status = 1
                try:
                    os.close(self._request)
                    os.close(self._reply)
                    _serve(path, request_read, reply_write)
                    status = 0
                finally:
                    os._exit(status)
            os.close(request_read)
            os.close(reply_write)

    def columns(self, languages, item_ids) -> AnswerColumns:
        if self._pid is None:
            return AnswerColumns.of(load_answers(self.path), languages, item_ids)
        request, self._request = self._request, None
        try:
            with open(request, "wb") as stream:
                pickle.dump((list(languages), list(item_ids)), stream, pickle.HIGHEST_PROTOCOL)
        except BrokenPipeError:
            pass  # the child is gone; its reply is read below
        reply, self._reply = self._reply, None
        with open(reply, "rb") as stream:
            data = stream.read()
        if not data:
            raise XlconsistError(f"{self.path}: the answers store reader exited without a reply")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        for fd in (self._request, self._reply):
            if fd is not None:
                os.close(fd)
        self._request = self._reply = None
        if self._pid:
            # the child has sent its reply and is exiting, or is not needed
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _serve(path, request_fd: int, reply_fd: int) -> None:
    """The store child's work: load the store, read the parent's request
    and write the reply. An empty request (the parent closed its end
    without one) asks for nothing."""
    # no collection runs in the child: one would walk (and so copy the
    # pages of) every object it inherited, and it makes no garbage that
    # must be freed before it exits
    gc.disable()
    try:
        answer_set = load_answers(path)
    except Exception as exc:  # sent to the parent, which raises it
        answer_set, error = None, exc
    with open(request_fd, "rb") as stream:
        request = stream.read()
    if not request:
        return
    if answer_set is None:
        reply = False, error
    else:
        reply = True, AnswerColumns.of(answer_set, *pickle.loads(request))
    # pickled whole first, so that a failure here sends no partial reply
    data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
    with open(reply_fd, "wb") as stream:
        stream.write(data)
