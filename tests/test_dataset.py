import hashlib
import json
import unicodedata

import pytest

from xlconsist.dataset import (
    SCHEMA,
    Dataset,
    QAItem,
    TimelinessItem,
    dataset_hash,
    load_dataset,
    serialize_dataset,
    validate_alignment,
    validate_file,
    write_dataset,
)
from xlconsist.errors import AlignmentError, DatasetFormatError
from xlconsist.fixtures import (
    CORPUS_SHAPE,
    TIMELINESS_SHAPE,
    mini_fixture,
    synthetic_corpus,
)


def small_dataset():
    return Dataset(
        languages=("en", "zh"),
        qa_items=(
            QAItem("q1", "geography", "France", "capital",
                   {"en": "Capital of France?", "zh": "法国首都？"},
                   {"en": "Paris", "zh": "巴黎"}),
            QAItem("q2", "geography", "Japan", "capital",
                   {"en": "Capital of Japan?", "zh": "日本首都？"},
                   {"en": "Tokyo", "zh": "东京"}),
            QAItem("q3", "science", "gold", "symbol",
                   {"en": "Element for Au?", "zh": "Au是什么元素？"},
                   {"en": "Gold", "zh": "金"}),
        ),
        timeliness_items=(
            TimelinessItem("t1",
                           {"en": "Newest model?", "zh": "最新型号？"},
                           {"en": ("v3", "v2", "v1"), "zh": ("三代", "二代", "一代")}),
        ),
    )


def test_small_fixture_counts(tmp_path):
    path = tmp_path / "small.jsonl"
    write_dataset(small_dataset(), path)
    d = load_dataset(path)
    assert len(d.languages) == 2
    assert d.n_qa == 3
    assert len(d.timeliness_items) == 1


def test_round_trip_identity(tmp_path):
    for original in [small_dataset(), mini_fixture()]:
        path = tmp_path / "rt.jsonl"
        write_dataset(original, path)
        assert load_dataset(path) == original


def test_missing_language_raises_naming_item(tmp_path):
    d = small_dataset()
    bad = QAItem("q4", "science", "iron", "symbol",
                 {"en": "Element for Fe?", "zh": "Fe是什么元素？"},
                 {"en": "Iron"})  # zh answer missing
    path = tmp_path / "bad.jsonl"
    write_dataset(Dataset(d.languages, d.qa_items + (bad,), d.timeliness_items), path)
    with pytest.raises(AlignmentError, match="q4") as exc_info:
        load_dataset(path)
    assert "zh" in str(exc_info.value)


def test_duplicate_id_rejected(tmp_path):
    d = small_dataset()
    dup = d.qa_items[0]
    path = tmp_path / "dup.jsonl"
    write_dataset(Dataset(d.languages, d.qa_items + (dup,), d.timeliness_items), path)
    with pytest.raises(AlignmentError, match="duplicate"):
        load_dataset(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(
        '{"schema":"makqa/1","languages":["en","zh"]}\n{not json\n', encoding="utf-8"
    )
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "nohdr.jsonl"
    path.write_text('{"id":"x","domain":"d"}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="header"):
        load_dataset(path)


def test_unknown_record_type_rejected(tmp_path):
    path = tmp_path / "weird.jsonl"
    path.write_text(
        '{"schema":"makqa/1","languages":["en","zh"]}\n{"id":"x","type":"mystery"}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetFormatError, match="mystery"):
        load_dataset(path)


def test_validate_alignment_clean():
    assert validate_alignment(small_dataset()).ok


def test_validate_alignment_empty_answer():
    d = small_dataset()
    bad_items = list(d.qa_items)
    bad_items[1] = QAItem("q2", "geography", "Japan", "capital",
                          {"en": "Capital of Japan?", "zh": "日本首都？"},
                          {"en": "Tokyo", "zh": "  "})
    report = validate_alignment(Dataset(d.languages, tuple(bad_items), d.timeliness_items))
    assert len(report.violations) == 1
    assert report.violations[0].item_id == "q2"
    assert report.violations[0].language == "zh"


def test_validate_alignment_candidate_length_mismatch():
    d = small_dataset()
    bad = TimelinessItem("t1",
                         {"en": "Newest model?", "zh": "最新型号？"},
                         {"en": ("v3", "v2"), "zh": ("三代", "二代", "一代")})
    report = validate_alignment(Dataset(d.languages, d.qa_items, (bad,)))
    assert len(report.violations) == 1
    assert "length" in report.violations[0].message


def test_fix_reported_violation_then_loads(tmp_path):
    path = tmp_path / "fixable.jsonl"
    lines = serialize_dataset(small_dataset()).splitlines()
    record = json.loads(lines[1])
    del record["a"]["zh"]
    lines[1] = json.dumps(record, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    report = validate_file(path)
    assert len(report.violations) == 1
    violation = report.violations[0]
    record["a"][violation.language] = "巴黎"
    lines[1] = json.dumps(record, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert validate_file(path).ok
    load_dataset(path)


def test_nfc_normalization_on_load(tmp_path):
    decomposed = unicodedata.normalize("NFD", "Café")
    header = '{"schema":"makqa/1","languages":["en","fr"]}'
    line = json.dumps(
        {"id": "q1", "domain": "misc", "entity": "x", "relation": "r",
         "q": {"en": "Where?", "fr": "Où?"},
         "a": {"en": decomposed, "fr": decomposed}},
        ensure_ascii=False,
    )
    path = tmp_path / "nfd.jsonl"
    path.write_text(header + "\n" + line + "\n", encoding="utf-8")
    d = load_dataset(path)
    assert d.qa_items[0].answers["en"] == unicodedata.normalize("NFC", "Café")


def test_undeclared_languages_preserved_and_ignored(tmp_path):
    d = small_dataset()
    extra = QAItem("q9", "science", "iron", "symbol",
                   {"en": "Fe?", "zh": "Fe？", "ko": "Fe는?"},
                   {"en": "Iron", "zh": "铁", "ko": "철"})
    ds = Dataset(d.languages, d.qa_items + (extra,), d.timeliness_items)
    assert validate_alignment(ds).ok  # ko not declared, so not checked
    path = tmp_path / "extra.jsonl"
    write_dataset(ds, path)
    reloaded = load_dataset(path)
    assert reloaded == ds
    assert reloaded.qa_items[-1].answers["ko"] == "철"


def test_subset_languages():
    d = mini_fixture()
    sub = d.subset(["en", "zh"])
    assert sub.languages == ("en", "zh")
    assert sub.qa_items == d.qa_items
    with pytest.raises(AlignmentError):
        d.subset(["en", "ru"])


def test_dataset_hash_stability(tmp_path):
    d = mini_fixture()
    h1 = dataset_hash(d)
    path = tmp_path / "h.jsonl"
    write_dataset(d, path)
    assert dataset_hash(load_dataset(path)) == h1
    assert dataset_hash(d.subset(["en", "de"])) != h1


def test_synthetic_corpus_counts_row_for_row():
    d = synthetic_corpus()
    counts = d.domain_counts()
    for domain, (_, _, n_items) in CORPUS_SHAPE.items():
        assert counts[domain] == n_items, domain
    assert len(d.timeliness_items) == TIMELINESS_SHAPE[2]
    # entity / relation diversity also matches the published shape
    for domain, (n_entities, n_relations, _) in CORPUS_SHAPE.items():
        items = [i for i in d.qa_items if i.domain == domain]
        assert len({i.entity for i in items}) == n_entities
        assert len({i.relation for i in items}) == n_relations
    assert all(len(pool) == 20 for pool in d.few_shot_pool.values())


def test_synthetic_sports_file_has_253_pairs(tmp_path):
    d = synthetic_corpus(domains=("sports",), include_timeliness=False)
    path = tmp_path / "sports.jsonl"
    write_dataset(d, path)
    loaded = load_dataset(path)
    assert loaded.n_qa == 253
    assert loaded.domain_counts() == {"sports": 253}


def _nfd(text):
    return unicodedata.normalize("NFD", text)


# every string in NFD: ids, domain, entity, relation, the declared language
# "x-é", the map keys, questions, answers and timeliness candidates; "ko"
# is not declared
_NFD_RECORDS = [
    {"schema": SCHEMA, "languages": ["en", _nfd("x-é")]},
    {"id": _nfd("ex-é"), "type": "exemplar", "domain": _nfd("géographie"),
     "entity": _nfd("Besançon"), "relation": _nfd("région"),
     "q": {"en": _nfd("Region of Besançon?"), _nfd("x-é"): _nfd("Région de Besançon ?")},
     "a": {"en": _nfd("Bourgogne-Franche-Comté"), _nfd("x-é"): _nfd("Bourgogne-Franche-Comté")}},
    {"id": _nfd("q-é"), "domain": _nfd("géographie"), "entity": _nfd("Zürich"),
     "relation": _nfd("capitale"),
     "q": {"en": _nfd("Capital of the canton of Zürich?"), _nfd("x-é"): _nfd("Capitale ?"),
           "ko": _nfd("취리히 주의 주도는?")},
     "a": {"en": _nfd("Zürich"), _nfd("x-é"): _nfd("Zürich"), "ko": _nfd("취리히")}},
    {"id": _nfd("t-é"), "type": "timeliness",
     "q": {"en": _nfd("Newest café?"), _nfd("x-é"): _nfd("Dernier café ?"), "ko": "카페?"},
     "candidates": {"en": [_nfd("Café Noël"), _nfd("Café Été")],
                    _nfd("x-é"): [_nfd("Noël"), _nfd("Été")],
                    "ko": [_nfd("노엘"), "여름"]}},
]


def _nfd_dataset():
    """The dataset of _NFD_RECORDS, built through the public constructors."""
    header, exemplar, qa, timely = _NFD_RECORDS

    def qa_item(record):
        return QAItem(record["id"], record["domain"], record["entity"], record["relation"],
                      record["q"], record["a"])

    return Dataset(
        languages=tuple(header["languages"]),
        qa_items=(qa_item(qa),),
        timeliness_items=(
            TimelinessItem(timely["id"], timely["q"],
                           {lang: tuple(c) for lang, c in timely["candidates"].items()}),
        ),
        few_shot_pool={exemplar["domain"]: (qa_item(exemplar),)},
    )


def _write_nfd_file(path):
    lines = [json.dumps(record, ensure_ascii=False) for record in _NFD_RECORDS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _strings(key)
            yield from _strings(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _strings(item)


def test_nfd_text_in_every_field_loads_equal_to_constructed_items(tmp_path):
    loaded = load_dataset(_write_nfd_file(tmp_path / "nfd.jsonl"))
    built = _nfd_dataset()
    assert loaded == built
    assert loaded.few_shot_pool == built.few_shot_pool
    assert loaded.languages == ("en", "x-é")
    item, timely = loaded.qa_items[0], loaded.timeliness_items[0]
    assert item.answers["ko"] == "취리히" and timely.candidates["x-é"] == ("Noël", "Été")
    fields = [loaded.languages, list(loaded.few_shot_pool)]
    fields += [vars(item) for item in (*loaded.few_shot_pool["géographie"], item, timely)]
    strings = list(_strings(fields))
    assert len(strings) > 40
    assert all(unicodedata.is_normalized("NFC", text) for text in strings)
    assert any(not unicodedata.is_normalized("NFC", text) for text in _strings(_NFD_RECORDS))


# sha256 of the file write_dataset writes for _nfd_dataset(), in full and cut
# to ("x-é", "en"); they pin the digest's encoding of every record kind
_NFD_DIGEST = "5ce72ae55498f83c69c48ef0db63594fe337689e5cd7174a77305047e6f77423"
_NFD_SUBSET_DIGEST = "0fbca02c37be06fd6387e5e78d8745e352c76f389cafe74410452895488167f8"


def test_dataset_hash_is_the_digest_of_the_serialized_file(tmp_path):
    built = _nfd_dataset()
    loaded = load_dataset(_write_nfd_file(tmp_path / "nfd.jsonl"))
    for dataset, digest in [(built, _NFD_DIGEST), (loaded, _NFD_DIGEST),
                            (built.subset(["x-é", "en"]), _NFD_SUBSET_DIGEST)]:
        text = serialize_dataset(dataset)
        assert dataset_hash(dataset) == hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    written = tmp_path / "written.jsonl"
    write_dataset(built, written)
    assert written.read_text(encoding="utf-8") == serialize_dataset(built)
    assert load_dataset(written) == built


_QA = {"id": "q1", "domain": "d", "entity": "e", "relation": "r",
       "q": {"en": "Q?", "zh": "问？"}, "a": {"en": "A", "zh": "答"}}
_TIMELY = {"id": "t1", "type": "timeliness", "q": {"en": "Q?", "zh": "问？"},
           "candidates": {"en": ["b", "a"], "zh": ["乙", "甲"]}}


@pytest.mark.parametrize("record, message", [
    ({**_QA, "q": "Q?"}, "field 'q' must be an object of lang -> text"),
    ({**_QA, "a": {"en": "A", "zh": 5}}, "a['zh'] must be a string"),
    ({**_QA, "q": {"en": ["Q?"], "zh": None}}, "q['en'] must be a string"),
    ({**_QA, "a": {_nfd("é"): 1}}, f"a[{_nfd('é')!r}] must be a string"),
    ({key: value for key, value in _QA.items() if key != "entity"},
     "missing required field 'entity'"),
    ({**{key: value for key, value in _QA.items() if key != "id"}, "q": 1},
     "missing required field 'id'"),
    ({**_QA, "type": "exemplar", "a": {"en": "A", "zh": 2}}, "a['zh'] must be a string"),
    ({**_TIMELY, "candidates": ["b"]}, "field 'candidates' must be an object"),
    ({**_TIMELY, "candidates": {"en": ["b"], "zh": ["乙", 3]}},
     "candidates['zh'] must be a list of strings"),
    ({**{key: value for key, value in _TIMELY.items() if key != "id"}, "candidates": {"en": 1}},
     "candidates['en'] must be a list of strings"),
    ({**_TIMELY, "q": {"en": 1}}, "q['en'] must be a string"),
    ({**_QA, "type": "mystery"}, "unknown record type 'mystery'"),
])
def test_malformed_record_names_its_field_and_line(tmp_path, record, message):
    lines = ['{"schema":"makqa/1","languages":["en","zh"]}', json.dumps(_QA),
             "", json.dumps(record, ensure_ascii=False)]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert (str(excinfo.value), excinfo.value.line) == (f"line 4: {message}", 4)
    report = validate_file(path)
    assert report.render() == f"1 violation(s):\n[format / line 4] {message}"
