"""The answers store loader against a reference per-line loop."""

import json
import os

import pytest

from xlconsist import answers as answers_module
from xlconsist.answers import (
    AnswerColumns,
    AnswerSet,
    load_answers,
    store_columns,
    write_answer_header,
)
from xlconsist.errors import DatasetFormatError, MissingAnswersError
from xlconsist.forked import Forked


def record(lang, item, text, **extra):
    fields = {"lang": lang, "item": item, "raw": text, "text": text, "status": "ok",
              "attempts": 1}
    fields.update(extra)
    return json.dumps(fields, ensure_ascii=False, sort_keys=True)


def header():
    return json.dumps({"schema": "xlconsist-answers/1", "run_id": "r", "model_id": "m",
                       "seed": 3, "dataset_hash": "abc"})


CLEAN = [
    record("en", "q1", "Paris"),
    record("de", "q1", "Paris"),
    record("en", "q2", "Cafe\u0301", raw=" Cafe\u0301\n"),  # NFD, NFC on load
    record("en", "q1", "Lyon", status="failed", attempts=3),  # last record wins
    record("ja", "q2", "東京"),
]

# a record whose nested array holds an object, split inside the array so
# that its second line starts with that object's "{"
SPLIT_NESTED = record("en", "q3", "Rome", tags=[1, {"k": 2}]).replace(", {", "\n{", 1)
BRACED = record("en", "q4", "{x}")

# (name, body after the header line)
STORES = [
    ("clean", "\n".join(CLEAN) + "\n"),
    ("blank lines", "\n" + CLEAN[0] + "\n\n\n" + "\n".join(CLEAN[1:]) + "\n\n"),
    ("crlf", "\r\n".join(CLEAN) + "\r\n"),
    ("no trailing newline", "\n".join(CLEAN)),
    ("whitespace-only line", CLEAN[0] + "\n   \n" + CLEAN[1] + "\n"),
    ("padded record", " " + CLEAN[0] + "\t\n" + CLEAN[1] + "\n"),
    ("torn final line", "\n".join(CLEAN) + '\n{"lang": "en", "item": "q3", "te'),
    ("torn final line, then newline", "\n".join(CLEAN) + '\n{"lang": "en", "ite\n'),
    ("torn line, then a blank line", "\n".join(CLEAN) + '\n{"lang": "en", "ite\n\n'),
    ("bad interior line", CLEAN[0] + '\n{"lang": "en", "raw"\n' + CLEAN[1] + "\n"),
    ("two records on one line", CLEAN[0] + "\n" + CLEAN[1] + CLEAN[2] + "\n" + CLEAN[3]),
    ("two records, comma", CLEAN[0] + "," + CLEAN[1] + "\n"),
    ("record split over two lines", CLEAN[0] + "\n" + CLEAN[1].replace(", ", ",\n", 1)
     + "\n" + CLEAN[2] + "\n"),
    ("valid JSON, not an object", CLEAN[0] + "\n[1, 2]\n" + CLEAN[1] + "\n"),
    ("string, not an object", CLEAN[0] + '\n"text"\n' + CLEAN[1] + "\n"),
    # three lines that "[" + ",".join(lines) + "]" would decode as three objects
    ("joined-array trap", '{"a":"x}\n{"}\n{"c":1},{"d":2}\n'),
    # three lines that "[" + ",\n".join(lines) + "]" decodes as three objects:
    # a line that does not start with "{" ...
    ("split flat record, then two records on a line", CLEAN[0] + "\n"
     + CLEAN[1].replace(", ", "\n", 1) + "\n" + CLEAN[2] + ", " + CLEAN[3] + "\n"),
    # ... or a line whose "{" opens an object nested in the line before
    ("split nested array, then two records on a line", CLEAN[0] + "\n"
     + SPLIT_NESTED + "\n" + CLEAN[2] + ", " + CLEAN[3] + "\n"),
    # two lines that "[" + ",\n".join(lines) + "]" decodes as fewer objects ...
    ("split nested array", CLEAN[0] + "\n" + SPLIT_NESTED + "\n" + CLEAN[2] + "\n"),
    # ... or as two values, one of them not an object
    ("record, then an array around the next", CLEAN[0] + ", [1\n" + CLEAN[1] + "]\n"),
    # a whole store, but an answer holds "{": read line by line
    ("answer holding a brace", "\n".join(CLEAN) + "\n" + BRACED + "\n"),
]


def per_line_load(path):
    """Reference loader: json.loads on each "\\n"-separated line, one
    set_answer per record."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()  # the text ended with a line break
    head = json.loads(lines[0])
    loaded = AnswerSet(run_id=head["run_id"], model_id=head["model_id"],
                       seed=head["seed"], dataset_hash=head["dataset_hash"])
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if line_no == len(lines):
                break  # torn final line
            raise DatasetFormatError("invalid answer record", line=line_no)
        if not isinstance(rec, dict):
            raise DatasetFormatError("answer record is not a JSON object", line=line_no)
        loaded.set_answer(rec["lang"], rec["item"], rec.get("raw", rec["text"]), rec["text"],
                          rec.get("status", "ok"))
        if "attempts" in rec:
            loaded.attempts[(rec["lang"], rec["item"])] = rec["attempts"]
    return loaded


def outcome(load, path):
    """The AnswerSet with its dicts' insertion order, or the error raised."""
    try:
        loaded = load(path)
    except Exception as exc:  # compared by type and message
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None))
    return ("ok", loaded, [list(d.items()) for d in
                           (loaded.answers, loaded.raw, loaded.statuses, loaded.attempts)])


@pytest.mark.parametrize("name, body", STORES, ids=[s[0] for s in STORES])
def test_loader_matches_per_line_loop(tmp_path, name, body):
    path = tmp_path / "a.jsonl"
    path.write_bytes((header() + "\n" + body).encode("utf-8"))
    assert outcome(load_answers, path) == outcome(per_line_load, path)


@pytest.mark.parametrize("name, body", STORES, ids=[s[0] for s in STORES])
def test_only_a_store_whose_braces_start_its_lines_is_decoded_in_one_call(tmp_path, monkeypatch,
                                                                        name, body):
    def line_records(text, body):
        line_loop.append(True)
        return real_line_records(text, body)

    line_loop, real_line_records = [], answers_module._line_records
    monkeypatch.setattr(answers_module, "_line_records", line_records)
    path = tmp_path / "a.jsonl"
    path.write_bytes((header() + "\n" + body).encode("utf-8"))
    outcome(load_answers, path)
    one_call = name in ("clean", "no trailing newline", "crlf")
    assert line_loop == ([] if one_call else [True])


def test_loader_reads_the_expected_cells(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(header() + "\n" + "\n".join(CLEAN) + "\n", encoding="utf-8")
    loaded = load_answers(path)
    assert (loaded.run_id, loaded.model_id, loaded.seed, loaded.dataset_hash) == (
        "r", "m", 3, "abc")
    assert loaded.answers == {("en", "q1"): "Lyon", ("de", "q1"): "Paris",
                              ("en", "q2"): "Caf\u00e9", ("ja", "q2"): "東京"}
    assert loaded.raw[("en", "q2")] == " Cafe\u0301\n"
    assert loaded.statuses[("en", "q1")] == "failed"
    assert loaded.attempts[("en", "q1")] == 3


@pytest.mark.parametrize(
    "body, line, message",
    [
        (CLEAN[0] + '\n{"lang": "en", "raw"\n' + CLEAN[1] + "\n", 3, "invalid answer record"),
        (CLEAN[0] + "\n" + CLEAN[1] + CLEAN[2] + "\n" + CLEAN[3], 3, "invalid answer record"),
        (CLEAN[0] + "\n[1, 2]\n" + CLEAN[1] + "\n", 3, "not a JSON object"),
        ('{"a":"x}\n{"}\n{"c":1},{"d":2}\n', 2, "invalid answer record"),
        (CLEAN[0] + "\n" + CLEAN[1].replace(", ", "\n", 1) + "\n" + CLEAN[2] + ", " + CLEAN[3],
         3, "invalid answer record"),
        (CLEAN[0] + "\n" + SPLIT_NESTED + "\n" + CLEAN[2] + ", " + CLEAN[3], 3,
         "invalid answer record"),
    ],
    ids=["torn interior", "two records", "not an object", "joined-array trap",
         "split flat record", "split nested array"],
)
def test_bad_interior_line_names_its_line(tmp_path, body, line, message):
    path = tmp_path / "a.jsonl"
    path.write_text(header() + "\n" + body, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=message) as excinfo:
        load_answers(path)
    assert excinfo.value.line == line


def test_final_line_torn_inside_a_character_is_dropped(tmp_path):
    path = tmp_path / "a.jsonl"
    whole = (header() + "\n" + "\n".join(CLEAN) + "\n").encode("utf-8")
    cut = whole.rindex("東".encode("utf-8")) + 1  # inside the character
    for tail in (b"", b"\n"):
        path.write_bytes(whole[:cut] + tail)
        assert load_answers(path).answers == {("en", "q1"): "Lyon", ("de", "q1"): "Paris",
                                              ("en", "q2"): "Caf\u00e9"}
    # on any other line the bytes that do not decode are an error naming it
    path.write_bytes(whole[:cut] + b"\n" + CLEAN[0].encode("utf-8") + b"\n")
    with pytest.raises(DatasetFormatError, match="is not UTF-8") as excinfo:
        load_answers(path)
    assert excinfo.value.line == 6


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_answer_with_a_unicode_line_separator_is_one_record(tmp_path, separator):
    # json.dumps(ensure_ascii=False) writes these raw; only "\n" ends a record
    path = tmp_path / "a.jsonl"
    write_answer_header(path, AnswerSet(run_id="r", model_id="m"))
    text = f"first{separator}second"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(record("en", "q1", text) + "\n" + record("en", "q2", "x") + "\n")
    loaded = load_answers(path)
    assert loaded.answers == {("en", "q1"): text, ("en", "q2"): "x"}


@pytest.mark.parametrize("fields", [
    {"lang": 1, "item": None, "text": "a"},
    {"lang": "en", "item": 7, "text": "a"},
    {"lang": ["en"], "item": "q1", "text": "a"},
    {"lang": "en", "item": "q1", "text": None},
], ids=["int-lang-null-item", "int-item", "list-lang", "null-text"])
def test_record_with_a_field_that_is_not_a_string_names_its_line(tmp_path, fields):
    path = tmp_path / "a.jsonl"
    path.write_text(header() + "\n" + CLEAN[0] + "\n" + json.dumps(fields) + "\n" + CLEAN[1]
                    + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="needs string lang, item and text") as excinfo:
        load_answers(path)
    assert excinfo.value.line == 3


# -- what scoring reads of a store, in a forked child or inline -----------------


@pytest.fixture
def clean_store(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(header() + "\n" + "\n".join(CLEAN) + "\n", encoding="utf-8")
    return path


@pytest.fixture(params=["forked", "inline"])
def fork(request, monkeypatch):
    """Two CPUs in the affinity mask, so Forked forks, or one, so it runs inline."""
    cpus = {0, 1} if request.param == "forked" else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    return request.param == "forked"


def test_reader_gives_the_columns_of_the_loaded_store(clean_store, fork):
    reader = Forked(store_columns, clean_store)
    try:
        assert (reader._pid is not None) == fork
        columns = reader.result()
    finally:
        reader.close()
    assert columns == AnswerColumns.of(load_answers(clean_store), ["en", "de", "ja"],
                                       ["q1", "q2"])
    assert (columns.run_id, columns.model_id, columns.seed, columns.dataset_hash) == (
        "r", "m", 3, "abc")
    assert columns.item_ids == ["q1", "q2"]
    assert columns.by_language == {"en": ["Lyon", "Café"], "de": ["Paris", None],
                                   "ja": [None, "東京"]}
    assert columns.columns(["en"], ["q2", "q1"]) == [["Café", "Lyon"]]


@pytest.mark.parametrize("languages, item_ids", [
    (["en", "de", "ja"], ["q1", "q2"]),
    (["de"], ["q2"]),
    (["en"], ["q1", "q2"]),
    (["en", "fr"], ["q1"]),  # a language the store lacks
    (["fr", "en", "ja"], ["q3", "q2"]),  # and an item
])
def test_columns_read_from_the_store_match_the_answer_set(clean_store, languages, item_ids):
    def outcome(source):
        try:
            return source.columns(languages, item_ids)
        except MissingAnswersError as exc:
            return str(exc), exc.missing

    loaded = load_answers(clean_store)
    assert outcome(store_columns(clean_store)) == outcome(loaded)


def test_reader_raises_the_stores_error(tmp_path, fork):
    path = tmp_path / "a.jsonl"
    path.write_text(header() + "\n" + CLEAN[0] + '\n{"lang": "en", "raw"\n' + CLEAN[1] + "\n",
                    encoding="utf-8")
    reader = Forked(store_columns, path)
    try:
        with pytest.raises(DatasetFormatError, match="invalid answer record") as excinfo:
            reader.result()
    finally:
        reader.close()
    assert excinfo.value.line == 3


def test_closing_a_reader_before_it_is_asked_ends_its_child(clean_store, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reader = Forked(store_columns, clean_store)
    pid = reader._pid
    reader.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already reaped
    reader.close()  # a second close does nothing
