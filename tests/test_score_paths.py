"""`score` on both of its paths: the answers store parsed in a forked child
(two CPUs in the affinity mask) or inline (one CPU). Each writes the same
files and fails with the same exit code and message, checked in the same
order: settings (provider, chrF and modes), dataset errors, store errors,
then the scoring checks and missing answers. A refused run writes no
file: no report and no vector cache."""

import json
import os

import pytest
from click.testing import CliRunner

from xlconsist import cli as cli_module
from xlconsist.answers import append_answer_record, ground_truth_answers, write_answer_header
from xlconsist.cli import cli
from xlconsist.dataset import Dataset, QAItem, dataset_hash, serialize_dataset, write_dataset
from xlconsist.fixtures import bundled_fixture_path, mini_fixture, mini_fixture_answers
from xlconsist.mockllm import MockLLMServer

from conftest import DATA_DIR, answer_cells

AFFINITY = {"forked": {0, 1}, "inline": {0}}


@pytest.fixture(params=sorted(AFFINITY))
def path(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: AFFINITY[request.param],
                        raising=False)
    return request.param


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """The store the golden report was scored from."""
    store = tmp_path_factory.mktemp("collected") / "answers.jsonl"
    with MockLLMServer(mini_fixture_answers()) as server:
        result = CliRunner().invoke(cli, [
            "collect", "--dataset", str(bundled_fixture_path()), "--out", str(store),
            "--endpoint", server.url, "--model", "canned", "--shots", "2", "--seed", "11",
            "--run-id", "golden", "--concurrency", "4",
        ])
    assert result.exit_code == 0, result.output
    return store


def score(dataset, store, out_dir, *flags):
    return CliRunner().invoke(cli, [
        "score", "--dataset", str(dataset), "--answers", str(store), "--out-dir", str(out_dir),
        "--cache", str(out_dir.parent / f"{out_dir.name}.bin"), "--provider-kind", "mock",
        "--dims", "48", "--seed", "11", *flags,
    ])


FLAG_SETS = {
    "defaults": [],
    "timeliness-formula-tau": ["--include-timeliness", "--xtc-mode", "formula", "--tau", "0.3"],
    "languages": ["--languages", "en,zh"],
}


@pytest.mark.parametrize("flags", list(FLAG_SETS.values()), ids=list(FLAG_SETS))
def test_both_paths_write_the_same_files(monkeypatch, tmp_path, collected, flags):
    written = {}
    for name, cpus in AFFINITY.items():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        result = score(bundled_fixture_path(), collected, tmp_path / name, *flags)
        assert result.exit_code == 0, result.output
        written[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert sorted(written["forked"]) == [
        "domains.csv", "report.json", "xac_matrix.csv", "xsc_matrix.csv", "xtc_matrix.csv"]
    assert written["forked"] == written["inline"]
    if not flags:
        assert written["forked"]["report.json"] == (DATA_DIR / "golden_report.json").read_bytes()


def test_store_child_is_forked_before_the_dataset_parse_returns(monkeypatch, tmp_path, path,
                                                                collected):
    events, recording = [], []

    def after_fork():
        if recording:
            events.append("fork")

    def load_dataset(dataset_path):
        parsed = real_load_dataset(dataset_path)
        events.append("dataset parsed")
        return parsed

    real_load_dataset = cli_module.load_dataset
    monkeypatch.setattr(cli_module, "load_dataset", load_dataset)
    os.register_at_fork(after_in_parent=after_fork)
    recording.append(True)
    try:
        result = score(bundled_fixture_path(), collected, tmp_path / "out")
    finally:
        recording.clear()
    assert result.exit_code == 0, result.output
    if path == "forked":
        # the store child, then the two chrF workers
        assert events == ["fork", "dataset parsed", "fork", "fork"]
    else:
        assert events == ["dataset parsed"]


@pytest.mark.parametrize("flags, config, shown", [
    (["--dims", "0"], "", "expected_dims must be >= 1"),
    (["--tau", "nan"], "", "tau must be within [0, 1], got nan"),
    ([], "chrf:\n  case_fold: x\n", "chrf.case_fold must be true or false, got 'x'"),
    ([], "modes:\n  xtc_mode: bogus\n", "xtc_mode must be 'prose' or 'formula', got 'bogus'"),
], ids=["dims-0", "tau-nan", "case-fold-string", "xtc-mode-unknown"])
def test_a_bad_setting_forks_no_child_and_writes_nothing(tmp_path, path, collected, flags,
                                                         config, shown):
    config_path = tmp_path / "run.yaml"
    config_path.write_text("schema: xlconsist-run/1\n" + config, encoding="utf-8")
    forks, recording = [], []
    os.register_at_fork(after_in_parent=lambda: recording and forks.append("fork"))
    recording.append(True)
    try:
        result = score(bundled_fixture_path(), collected, tmp_path / "out",
                       "--config", str(config_path), *flags)
    finally:
        recording.clear()
    assert result.exit_code == 2, result.output
    assert f"Error: {shown}\n" in result.output
    assert forks == []
    assert list(tmp_path.iterdir()) == [config_path]  # no cache file, no out dir


# -- error paths ---------------------------------------------------------------


def _ground_truth_store(path):
    truth = ground_truth_answers(mini_fixture())
    write_answer_header(path, truth)
    with open(path, "a", encoding="utf-8") as handle:
        for (lang, item_id), text in answer_cells(truth).items():
            append_answer_record(handle, lang, item_id, text, text, "ok", 1)


def _edit_lines(path, edit):
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join(edit(lines)), encoding="utf-8")


def malformed_store_line(dataset, store):
    def edit(lines):
        record = json.loads(lines[4])
        del record["item"]
        lines[4] = json.dumps(record)
        return lines

    _edit_lines(store, edit)


def store_without_header(dataset, store):
    _edit_lines(store, lambda lines: lines[1:])


def header_not_an_object(dataset, store):
    _edit_lines(store, lambda lines: ['["x"]', *lines[1:]])


def header_seed(seed):
    def damage(dataset, store):
        _edit_lines(store, lambda lines: [
            json.dumps({**json.loads(lines[0]), "seed": seed}), *lines[1:]])

    return damage


def missing_answers(dataset, store):
    fixture = mini_fixture()
    extra = QAItem("extra-1", "geography", "Chile", "capital",
                   {"en": "What is the capital of Chile?",
                    "de": "Was ist die Hauptstadt von Chile?",
                    "zh": "智利的首都是哪座城市？"},
                   {"en": "Santiago", "de": "Santiago", "zh": "圣地亚哥"})
    write_dataset(Dataset(fixture.languages, fixture.qa_items + (extra,),
                          fixture.timeliness_items, fixture.few_shot_pool), dataset)


def misaligned_dataset(dataset, store):
    def edit(lines):
        index = next(i for i, line in enumerate(lines[1:], start=1)
                     if line and "type" not in json.loads(line))
        record = json.loads(lines[index])
        del record["a"]["zh"]
        lines[index] = json.dumps(record, ensure_ascii=False)
        return lines

    _edit_lines(dataset, edit)


def zero_dims(dataset, store):
    pass


MALFORMED_STORE = (1, "Error: line 5: answer record needs string lang, item and text")
NO_HEADER = (1, "Error: line 1: expected schema 'xlconsist-answers/1', got None")
MISSING = (1, "Error: 3 answers missing: en/extra-1, de/extra-1, zh/extra-1")
MISALIGNED = (1, "Error: 1 violation(s); first: [alignment / item geo-01 / lang zh] "
                 "missing or empty answer")
ZERO_DIMS = (2, "Error: expected_dims must be >= 1")

ERROR_CASES = {
    "malformed-store-line": ([malformed_store_line], MALFORMED_STORE),
    "store-without-header": ([store_without_header], NO_HEADER),
    "header-not-an-object": (
        [header_not_an_object], (1, "Error: line 1: header is not a JSON object")),
    "header-seed-string": (
        [header_seed("abc")], (1, "Error: line 1: header seed must be an integer, got 'abc'")),
    "header-seed-null": (
        [header_seed(None)], (1, "Error: line 1: header seed must be an integer, got None")),
    "missing-answers": ([missing_answers], MISSING),
    "misaligned-dataset": ([misaligned_dataset], MISALIGNED),
    "dims-0": ([zero_dims], ZERO_DIMS),
    # where two checks fail, the earlier one in the order above is reported
    "misaligned-dataset-and-store-without-header": (
        [misaligned_dataset, store_without_header], MISALIGNED),
    "malformed-store-line-and-dims-0": ([malformed_store_line, zero_dims], ZERO_DIMS),
    "store-without-header-and-missing-answers": (
        [store_without_header, missing_answers], NO_HEADER),
    "dims-0-and-missing-answers": ([zero_dims, missing_answers], ZERO_DIMS),
}


@pytest.mark.parametrize("damages, expected", list(ERROR_CASES.values()), ids=list(ERROR_CASES))
def test_error_gives_the_same_exit_code_and_message_on_both_paths(tmp_path, path, damages,
                                                                  expected):
    dataset, store = tmp_path / "dataset.jsonl", tmp_path / "answers.jsonl"
    dataset.write_text(serialize_dataset(mini_fixture()), encoding="utf-8")
    _ground_truth_store(store)
    for damage in damages:
        damage(dataset, store)
    flags = ["--dims", "0"] if zero_dims in damages else []
    result = score(dataset, store, tmp_path / "out", *flags)
    exit_code, message = expected
    assert (result.exit_code, result.exception.__class__) == (exit_code, SystemExit), result.output
    assert message + "\n" in result.output
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.bin").exists()  # no vector cache either


def test_provenance_keeps_the_store_header_apart_from_the_run(tmp_path, path):
    dataset, store = tmp_path / "dataset.jsonl", tmp_path / "answers.jsonl"
    dataset.write_text(serialize_dataset(mini_fixture()), encoding="utf-8")
    _ground_truth_store(store)
    zeros = "0" * 64
    _edit_lines(store, lambda lines: [
        json.dumps({**json.loads(lines[0]), "seed": 0, "dataset_hash": zeros}), *lines[1:]])
    result = score(dataset, store, tmp_path / "out", "--seed", "3")  # the later --seed wins
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    provenance = report["provenance"]
    assert (provenance["answers"]["seed"], provenance["answers"]["dataset_hash"]) == (0, zeros)
    assert provenance["provider"]["seed"] == 3
    assert provenance["dataset_hash"] == dataset_hash(mini_fixture())
