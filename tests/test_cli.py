import json
import socket

import pytest
from click.testing import CliRunner

from xlconsist.answers import append_answer_record, ground_truth_answers, write_answer_header
from xlconsist.cli import cli
from xlconsist.consistency import ConsistencyReport
from xlconsist.dataset import dataset_hash, load_dataset, serialize_dataset, write_dataset
from xlconsist.fixtures import bundled_fixture_path, mini_fixture, mini_fixture_answers
from xlconsist.mockllm import MockLLMServer

from conftest import DATA_DIR, answer_cells


@pytest.fixture
def runner():
    return CliRunner()


# -- validate -------------------------------------------------------------------

def test_validate_ok(runner):
    result = runner.invoke(cli, ["validate", str(bundled_fixture_path())])
    assert result.exit_code == 0
    assert "OK" in result.output


def _misaligned_dataset(tmp_path):
    lines = serialize_dataset(mini_fixture()).splitlines()
    qa_index = next(
        i for i, line in enumerate(lines[1:], start=1)
        if "type" not in json.loads(line)
    )
    record = json.loads(lines[qa_index])
    del record["a"]["zh"]
    lines[qa_index] = json.dumps(record, ensure_ascii=False)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


def test_validate_misaligned_exits_one(runner, tmp_path):
    result = runner.invoke(cli, ["validate", str(_misaligned_dataset(tmp_path))])
    assert result.exit_code == 1
    assert "zh" in result.output


def _reading_commands(tmp_path, dataset):
    """The commands that read `dataset` before they write, with their flags."""
    return {
        "score": ["--ground-truth", "--out-dir", str(tmp_path / "out")],
        "collect": ["--out", str(tmp_path / "answers.jsonl"),
                    "--endpoint", "http://127.0.0.1:9/v1/chat"],
        "embed": ["--answers", str(dataset), "--cache", str(tmp_path / "c.bin"),
                  "--provider-kind", "mock"],
    }


def test_misaligned_dataset_ends_in_one_line_naming_the_first_violation(runner, tmp_path):
    bad = _misaligned_dataset(tmp_path)
    shown = "1 violation(s); first: [alignment / item geo-01 / lang zh] missing or empty answer"
    for command, flags in _reading_commands(tmp_path, bad).items():
        _one_line_error(runner.invoke(cli, [command, "--dataset", str(bad), *flags]), shown)
    assert sorted(tmp_path.iterdir()) == [bad]


def test_validate_missing_file_exits_two(runner):
    result = runner.invoke(cli, ["validate", "no/such/file.jsonl"])
    assert result.exit_code == 2


def test_dataset_byte_that_is_not_utf8_names_its_line(runner, tmp_path):
    lines = serialize_dataset(mini_fixture()).encode("utf-8").split(b"\n")
    record = lines[2].replace(b'"id":"', b'"id":"\xff', 1)
    # a lone CR ends a line as a text-mode read ends it: line 2 is blank
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n".join([lines[0] + b"\n\r" + lines[1] + b"\r", record, *lines[3:]]))
    shown = "line 4: byte 0xff is not UTF-8"
    result = runner.invoke(cli, ["validate", str(bad)])
    assert result.exit_code == 1, result.output
    assert "[format / line 4] byte 0xff is not UTF-8" in result.output
    for command, flags in _reading_commands(tmp_path, bad).items():
        result = runner.invoke(cli, [command, "--dataset", str(bad), *flags])
        _one_line_error(result, shown)
    assert sorted(tmp_path.iterdir()) == [bad]


# -- end-to-end golden run ---------------------------------------------------------

def run_pipeline(runner, tmp_path, out_name="out", languages=None, reuse_answers=None):
    answers = reuse_answers or (tmp_path / "answers.jsonl")
    if reuse_answers is None:
        with MockLLMServer(mini_fixture_answers()) as server:
            result = runner.invoke(cli, [
                "collect", "--dataset", str(bundled_fixture_path()),
                "--out", str(answers), "--endpoint", server.url, "--model", "canned",
                "--shots", "2", "--seed", "11", "--run-id", "golden", "--concurrency", "4",
            ])
            assert result.exit_code == 0, result.output
    args = [
        "score", "--dataset", str(bundled_fixture_path()), "--answers", str(answers),
        "--out-dir", str(tmp_path / out_name), "--cache", str(tmp_path / "vectors.bin"),
        "--provider-kind", "mock", "--dims", "48", "--seed", "11",
    ]
    if languages:
        args += ["--languages", languages]
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    return answers, tmp_path / out_name / "report.json"


def test_golden_report_byte_identical(runner, tmp_path):
    _, report_path = run_pipeline(runner, tmp_path)
    golden = (DATA_DIR / "golden_report.json").read_bytes()
    assert report_path.read_bytes() == golden


def test_warm_cache_rerun_identical(runner, tmp_path):
    answers, first = run_pipeline(runner, tmp_path, "out1")
    _, second = run_pipeline(runner, tmp_path, "out2", reuse_answers=answers)
    assert first.read_bytes() == second.read_bytes()


def test_language_subset_gives_submatrix(runner, tmp_path):
    answers, full_path = run_pipeline(runner, tmp_path, "full")
    _, sub_path = run_pipeline(runner, tmp_path, "sub", languages="en,zh",
                               reuse_answers=answers)
    full = ConsistencyReport.from_json(full_path)
    sub = ConsistencyReport.from_json(sub_path)
    for name in ("xsc", "xac", "xtc"):
        assert sub.matrices[name].languages == ("en", "zh")
        assert sub.matrices[name].cell("en", "zh") == full.matrices[name].cell("en", "zh")


def test_provenance_hashes_the_scored_dataset(runner, tmp_path):
    answers, full_path = run_pipeline(runner, tmp_path, "full")
    _, sub_path = run_pipeline(runner, tmp_path, "sub", languages="zh,en",
                               reuse_answers=answers)
    dataset = load_dataset(bundled_fixture_path())
    full = ConsistencyReport.from_json(full_path).provenance["dataset_hash"]
    sub = ConsistencyReport.from_json(sub_path).provenance["dataset_hash"]
    assert full == dataset_hash(dataset)
    assert sub == dataset_hash(dataset.subset(["zh", "en"])) != full


@pytest.mark.parametrize("beta, shown", [(".nan", "nan"), (".inf", "inf"), ("1e155", "1e+155")])
def test_score_refuses_a_beta_that_gives_nan(runner, tmp_path, beta, shown):
    config = tmp_path / "run.yaml"
    config.write_text(f"schema: xlconsist-run/1\nchrf:\n  beta: {beta}\n", encoding="utf-8")
    result = runner.invoke(cli, [
        "score", "--config", str(config), "--dataset", str(bundled_fixture_path()),
        "--ground-truth", "--out-dir", str(tmp_path / "out"), "--provider-kind", "mock",
    ])
    assert result.exit_code == 2
    assert f"beta must be finite and > 0, with a finite square; got {shown}" in result.output
    assert not (tmp_path / "out").exists()


def test_score_ground_truth_oracle(runner, tmp_path):
    result = runner.invoke(cli, [
        "score", "--dataset", str(bundled_fixture_path()), "--ground-truth",
        "--out-dir", str(tmp_path / "oracle"), "--provider-kind", "mock", "--dims", "16",
    ])
    assert result.exit_code == 0, result.output
    report = ConsistencyReport.from_json(tmp_path / "oracle" / "report.json")
    assert report.provenance["answers"]["model_id"] == "ground-truth"


def test_score_refuses_ground_truth_with_an_answers_flag(runner, tmp_path):
    """--ground-truth never reads the store that --answers names; a config's
    `answers:` key stays allowed with it."""
    not_a_store = tmp_path / "notes.txt"
    not_a_store.write_text("not a store\n", encoding="utf-8")
    args = ["score", "--dataset", str(bundled_fixture_path()), "--ground-truth",
            "--out-dir", str(tmp_path / "out"), "--provider-kind", "mock", "--dims", "16"]
    _usage_error(runner.invoke(cli, [*args, "--answers", str(not_a_store)]),
                 "--ground-truth and --answers cannot be used together")
    assert not (tmp_path / "out").exists()
    config = tmp_path / "run.yaml"
    config.write_text(f"schema: xlconsist-run/1\nanswers: {not_a_store}\n", encoding="utf-8")
    result = runner.invoke(cli, [*args, "--config", str(config)])
    assert result.exit_code == 0, result.output


def test_score_with_config_file_and_flag_override(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        "\n".join([
            "schema: xlconsist-run/1",
            f"dataset: {bundled_fixture_path()}",
            f"out_dir: {tmp_path / 'cfg_out'}",
            "seed: 11",
            "provider:",
            "  kind: mock",
            "  expected_dims: 16",
        ]) + "\n",
        encoding="utf-8",
    )
    result = runner.invoke(cli, [
        "score", "--config", str(config), "--ground-truth", "--dims", "48",
    ])
    assert result.exit_code == 0, result.output
    report = ConsistencyReport.from_json(tmp_path / "cfg_out" / "report.json")
    assert report.provenance["provider"]["dims"] == 48  # flag beat the config


# -- embed + cache-only scoring ------------------------------------------------

def test_embed_then_cache_only_score(runner, tmp_path):
    answers, first = run_pipeline(runner, tmp_path, "online")
    result = runner.invoke(cli, [
        "embed", "--dataset", str(bundled_fixture_path()), "--answers", str(answers),
        "--cache", str(tmp_path / "prefetch.bin"), "--provider-kind", "mock",
        "--dims", "48", "--seed", "11",
    ])
    assert result.exit_code == 0, result.output
    assert "newly fetched" in result.output

    result = runner.invoke(cli, [
        "score", "--dataset", str(bundled_fixture_path()), "--answers", str(answers),
        "--out-dir", str(tmp_path / "offline"), "--cache", str(tmp_path / "prefetch.bin"),
        "--provider-kind", "cache-only", "--dims", "48", "--seed", "11",
    ])
    assert result.exit_code == 0, result.output
    # identical scores and matrices; provenance honestly differs (provider
    # kind is cache-only for the offline run)
    online = json.loads(first.read_text(encoding="utf-8"))
    offline = json.loads((tmp_path / "offline" / "report.json").read_text(encoding="utf-8"))
    assert offline["metrics"] == online["metrics"]
    assert offline["matrices"] == online["matrices"]
    assert offline["provenance"]["provider"]["kind"] == "cache-only"


def test_cache_only_without_prefetch_fails(runner, tmp_path):
    answers, _ = run_pipeline(runner, tmp_path)
    result = runner.invoke(cli, [
        "score", "--dataset", str(bundled_fixture_path()), "--answers", str(answers),
        "--out-dir", str(tmp_path / "broken"), "--cache", str(tmp_path / "empty.bin"),
        "--provider-kind", "cache-only", "--dims", "48",
    ])
    assert result.exit_code == 1
    assert "missing from cache" in result.output


def test_score_without_a_cache_writes_the_cached_report(runner, tmp_path):
    # both runs keep float32 vectors, in the file or in memory
    answers, cached = run_pipeline(runner, tmp_path, "cached")
    result = runner.invoke(cli, [
        "score", "--dataset", str(bundled_fixture_path()), "--answers", str(answers),
        "--out-dir", str(tmp_path / "uncached"), "--provider-kind", "mock",
        "--dims", "48", "--seed", "11",
    ])
    assert result.exit_code == 0, result.output
    golden = (DATA_DIR / "golden_report.json").read_bytes()
    assert cached.read_bytes() == golden
    assert (tmp_path / "uncached" / "report.json").read_bytes() == golden


def _one_line_error(result, *shown):
    """`result` exited 1 with one error line holding each of `shown`."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    for text in shown:
        assert text in lines[0]


def _usage_error(result, *shown):
    """`result` exited 2 with one error line, its last, holding each of
    `shown`; the lines above it, if any, are click's usage hint."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    lines = result.output.strip().splitlines()
    assert [line for line in lines if line.startswith("Error: ")] == lines[-1:], result.output
    assert all(line.startswith(("Error: ", "Usage: ", "Try ")) for line in lines if line)
    for text in shown:
        assert text in lines[-1]


@pytest.mark.parametrize("content, shown", [
    (b"something else entirely", "is not a vector cache file"),
    (b"XLCVEC1\n", "re-run `xlconsist embed`"),
], ids=["foreign", "version-1"])
def test_score_with_a_cache_it_cannot_read_exits_one(runner, tmp_path, content, shown):
    cache = tmp_path / "c.bin"
    cache.write_bytes(content)
    result = runner.invoke(cli, [
        "score", "--dataset", str(bundled_fixture_path()), "--ground-truth",
        "--out-dir", str(tmp_path / "out"), "--cache", str(cache), "--provider-kind", "mock",
    ])
    _one_line_error(result, str(cache), shown)
    assert cache.read_bytes() == content
    assert not (tmp_path / "out").exists()


def test_score_with_a_cache_it_cannot_create_exits_one(runner, tmp_path):
    # the cache file is created with its first vector, so the error comes
    # from that write, not from opening the cache
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("", encoding="utf-8")
    result = runner.invoke(cli, [
        "score", "--dataset", str(bundled_fixture_path()), "--ground-truth",
        "--out-dir", str(tmp_path / "out"), "--cache", str(blocker / "c.bin"),
        "--provider-kind", "mock",
    ])
    _one_line_error(result, str(blocker))
    assert not (tmp_path / "out").exists()


def _embed_args(tmp_path, *extra):
    return [
        "embed", "--dataset", str(bundled_fixture_path()),
        "--answers", str(_ground_truth_store(tmp_path / "gt.jsonl")),
        "--cache", str(tmp_path / "c.bin"), *extra,
    ]


def test_embed_into_a_cache_of_another_size_exits_one(runner, tmp_path):
    result = runner.invoke(cli, _embed_args(tmp_path, "--provider-kind", "mock", "--dims", "48"))
    assert result.exit_code == 0, result.output
    written = (tmp_path / "c.bin").read_bytes()
    result = runner.invoke(cli, _embed_args(tmp_path, "--provider-kind", "mock", "--dims", "64"))
    _one_line_error(result, str(tmp_path / "c.bin"), "48", "64")
    assert (tmp_path / "c.bin").read_bytes() == written


@pytest.mark.parametrize("command", ["score", "embed"])
def test_a_directory_given_as_the_cache_exits_one(runner, tmp_path, command):
    cache = tmp_path / "c.bin"
    cache.mkdir()
    args = _embed_args(tmp_path, "--provider-kind", "mock") if command == "embed" else [
        "score", "--dataset", str(bundled_fixture_path()), "--ground-truth",
        "--out-dir", str(tmp_path / "out"), "--cache", str(cache), "--provider-kind", "mock",
    ]
    result = runner.invoke(cli, args)
    _one_line_error(result, str(cache), "Is a directory")
    assert not (tmp_path / "out").exists()


def test_embed_from_an_unreachable_endpoint_exits_one(runner, tmp_path, monkeypatch):
    monkeypatch.setattr("xlconsist.embedding.time.sleep", lambda seconds: None)
    with socket.socket() as probe:  # a port that nothing listens on once closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    result = runner.invoke(cli, _embed_args(
        tmp_path, "--provider-kind", "http", "--endpoint", f"http://127.0.0.1:{port}/embed",
    ))
    _one_line_error(result, "embedding endpoint request failed after 3 attempts")


# -- report / correlate ----------------------------------------------------------

def test_report_command_summarizes(runner, tmp_path):
    _, report_path = run_pipeline(runner, tmp_path)
    result = runner.invoke(cli, ["report", str(report_path)])
    assert result.exit_code == 0
    assert "xSC" in result.output and "xC" in result.output


def test_correlate_own_matrix_is_one(runner, tmp_path):
    _, report_path = run_pipeline(runner, tmp_path)
    matrix_csv = report_path.parent / "xsc_matrix.csv"
    result = runner.invoke(cli, [
        "correlate", str(report_path), str(matrix_csv),
        "--scatter-out", str(tmp_path / "scatter.csv"),
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output[: result.output.rindex("}") + 1])
    assert payload["pearson"] == pytest.approx(1.0, abs=1e-12)
    assert payload["spearman"] == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "scatter.csv").read_text().startswith("lang,")


def test_correlate_language_mismatch_names_codes(runner, tmp_path):
    _, report_path = run_pipeline(runner, tmp_path)
    bad_csv = tmp_path / "bad.csv"
    lines = (report_path.parent / "xsc_matrix.csv").read_text().splitlines()
    bad_csv.write_text(
        "\n".join(line.replace("zh", "ru") for line in lines) + "\n", encoding="utf-8"
    )
    result = runner.invoke(cli, ["correlate", str(report_path), str(bad_csv)])
    assert result.exit_code == 1
    assert "ru" in result.output and "zh" in result.output


# -- help / doc drift ------------------------------------------------------------

def test_collect_help_lists_documented_flags(runner):
    result = runner.invoke(cli, ["collect", "--help"])
    for flag in ("--endpoint", "--model", "--shots", "--seed", "--variant", "--concurrency"):
        assert flag in result.output, flag


def test_collect_refuses_the_custom_variant(runner, tmp_path):
    # `custom` was an alias of p1; it is no longer a variant
    result = runner.invoke(cli, [
        "collect", "--dataset", str(bundled_fixture_path()), "--out", str(tmp_path / "a.jsonl"),
        "--endpoint", "http://127.0.0.1:9/v1/chat/completions", "--variant", "custom",
    ])
    assert result.exit_code == 2
    assert "custom" in result.output
    assert not (tmp_path / "a.jsonl").exists()


def test_embed_and_score_help_list_endpoint(runner):
    for command in ("embed", "score"):
        result = runner.invoke(cli, [command, "--help"])
        assert "--endpoint" in result.output


def test_missing_answers_for_slice_fails_cleanly(runner, tmp_path):
    # answers collected for the 24+4 fixture, scored against a larger dataset
    answers, _ = run_pipeline(runner, tmp_path)
    bigger = mini_fixture()
    from xlconsist.dataset import Dataset, QAItem

    extra = QAItem("extra-1", "geography", "Chile", "capital",
                   {"en": "What is the capital of Chile?",
                    "de": "Was ist die Hauptstadt von Chile?",
                    "zh": "智利的首都是哪座城市？"},
                   {"en": "Santiago", "de": "Santiago", "zh": "圣地亚哥"})
    bigger = Dataset(bigger.languages, bigger.qa_items + (extra,),
                     bigger.timeliness_items, bigger.few_shot_pool)
    path = tmp_path / "bigger.jsonl"
    write_dataset(bigger, path)
    result = runner.invoke(cli, [
        "score", "--dataset", str(path), "--answers", str(answers),
        "--out-dir", str(tmp_path / "x"), "--provider-kind", "mock", "--dims", "16",
    ])
    assert result.exit_code == 1
    assert "missing" in result.output


# -- out-of-range settings are usage errors ----------------------------------------

def _ground_truth_store(path):
    truth = ground_truth_answers(mini_fixture())
    write_answer_header(path, truth)
    with open(path, "a", encoding="utf-8") as handle:
        for (lang, item_id), text in answer_cells(truth).items():
            append_answer_record(handle, lang, item_id, text, text, "ok", 1)
    return path


@pytest.mark.parametrize("command, args, config, shown", [
    ("collect", ["--concurrency", "0"], "", "concurrency must be >= 1"),
    ("collect", ["--rate-limit", "0"], "", "rate_limit_rps must be finite and > 0, got 0.0"),
    ("collect", ["--rate-limit", "-5"], "", "got -5.0"),
    ("collect", [], "collection:\n  max_attempts: 0\n", "max_attempts must be >= 1, got 0"),
    ("score", ["--dims", "0"], "", "expected_dims must be >= 1"),
    ("embed", ["--batch-size", "0"], "", "batch_size must be >= 1"),
    ("collect", [], "seed: abc\n", "seed must be an integer, got 'abc'"),
    ("score", [], "seed: abc\n", "seed must be an integer, got 'abc'"),
    ("embed", [], "seed: abc\n", "seed must be an integer, got 'abc'"),
    # a number that the setting would silently change is refused, not truncated
    ("score", [], "chrf:\n  char_ngram_max: 2.7\n",
     "chrf.char_ngram_max must be an integer, got 2.7"),
    ("score", [], "chrf:\n  word_ngram_max: true\n",
     "chrf.word_ngram_max must be an integer, got True"),
    ("score", [], "provider:\n  expected_dims: 16.9\n",
     "provider.expected_dims must be an integer, got 16.9"),
    ("score", [], "seed: 2.5\n", "seed must be an integer, got 2.5"),
    ("score", [], "modes:\n  tau: true\n", "modes.tau must be a number, got True"),
    ("score", [], "chrf:\n  beta: true\n", "chrf.beta must be a number, got True"),
    ("collect", [], "collection:\n  shots: 1.5\n", "collection.shots must be an integer, got 1.5"),
    ("collect", [], "collection:\n  timeout: false\n",
     "collection.timeout must be a number, got False"),
    ("embed", [], "provider:\n  batch_size: 8.5\n",
     "provider.batch_size must be an integer, got 8.5"),
], ids=["concurrency", "rate-limit-0", "rate-limit-negative", "max-attempts", "dims",
        "batch-size", "collect-seed", "score-seed", "embed-seed", "char-ngram-max-fraction",
        "word-ngram-max-bool", "expected-dims-fraction", "seed-fraction", "tau-bool",
        "beta-bool", "shots-fraction", "timeout-bool", "batch-size-fraction"])
def test_out_of_range_setting_exits_two_and_writes_nothing(
    runner, tmp_path, command, args, config, shown
):
    config_path = tmp_path / "run.yaml"
    config_path.write_text("schema: xlconsist-run/1\n" + config, encoding="utf-8")
    args = [command, "--config", str(config_path), "--dataset", str(bundled_fixture_path())] + args
    if command == "collect":
        args += ["--out", str(tmp_path / "a.jsonl"),
                 "--endpoint", "http://127.0.0.1:9/v1/chat/completions"]
    elif command == "score":
        args += ["--ground-truth", "--out-dir", str(tmp_path / "out"),
                 "--cache", str(tmp_path / "v.bin")]
    else:
        answers = _ground_truth_store(tmp_path / "gt.jsonl")
        args += ["--answers", str(answers), "--cache", str(tmp_path / "v.bin")]
    before = set(tmp_path.iterdir())
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    assert shown in result.output
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["score", "embed", "collect"])
def test_endpoint_that_is_not_http_exits_two_and_writes_nothing(runner, tmp_path, command):
    endpoint = "ftp://host/chat" if command == "collect" else "ftp://host/embed"
    args = [command, "--dataset", str(bundled_fixture_path()), "--endpoint", endpoint]
    if command == "collect":
        args += ["--out", str(tmp_path / "a.jsonl"), "--model", "m"]
    else:
        args += ["--cache", str(tmp_path / "c.bin"), "--provider-kind", "http"]
    if command == "score":
        args += ["--ground-truth", "--out-dir", str(tmp_path / "out")]
    elif command == "embed":
        args += ["--answers", str(_ground_truth_store(tmp_path / "gt.jsonl"))]
    before = set(tmp_path.iterdir())
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    assert f"endpoint '{endpoint}' is not an http(s) URL" in result.output
    assert set(tmp_path.iterdir()) == before


def _without_item(line):
    record = json.loads(line)
    del record["item"]
    return json.dumps(record)


def _torn(line):
    return line[: len(line) // 2]


@pytest.mark.parametrize("command, broken, line, damage", [
    ("score", "store", 5, _without_item),
    ("embed", "store", 7, _torn),
    ("embed", "dataset", 3, _torn),
], ids=["score-record-without-item", "embed-torn-store-record", "embed-torn-dataset-record"])
def test_malformed_input_file_exits_one_naming_its_line(
    runner, tmp_path, command, broken, line, damage
):
    store = _ground_truth_store(tmp_path / "gt.jsonl")
    dataset = tmp_path / "d.jsonl"
    dataset.write_bytes(bundled_fixture_path().read_bytes())
    target = store if broken == "store" else dataset
    lines = target.read_text(encoding="utf-8").split("\n")
    lines[line - 1] = damage(lines[line - 1])
    target.write_text("\n".join(lines), encoding="utf-8")
    args = [command, "--dataset", str(dataset), "--answers", str(store),
            "--cache", str(tmp_path / "v.bin")]
    if command == "score":
        args += ["--out-dir", str(tmp_path / "out")]
    result = runner.invoke(cli, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"line {line}:" in result.output


def _collect_with_rate_limit(runner, tmp_path, value):
    config = tmp_path / "run.yaml"
    config.write_text(
        f"schema: xlconsist-run/1\ncollection:\n  rate_limit_rps: {value}\n", encoding="utf-8"
    )
    with MockLLMServer(mini_fixture_answers()) as llm:
        return runner.invoke(cli, [
            "collect", "--config", str(config), "--dataset", str(bundled_fixture_path()),
            "--out", str(tmp_path / "a.jsonl"), "--endpoint", llm.url, "--model", "canned",
            "--shots", "1",
        ])


def test_quoted_rate_limit_in_the_config_is_read_as_a_number(runner, tmp_path):
    result = _collect_with_rate_limit(runner, tmp_path, '"500"')
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["rate_limit_rps"] == 500.0


def test_rate_limit_that_is_not_a_number_exits_two_and_writes_nothing(runner, tmp_path):
    result = _collect_with_rate_limit(runner, tmp_path, "fast")
    assert result.exit_code == 2, result.output
    assert "collection.rate_limit_rps must be a number, got 'fast'" in result.output
    assert not (tmp_path / "a.jsonl").exists()


# -- every bad input ends in one error line ----------------------------------------

def _golden_csv(edit):
    """The golden report's xSC matrix CSV, its lines changed by `edit`."""
    def content(tmp_path):
        path = tmp_path / "golden.csv"
        ConsistencyReport.from_json(DATA_DIR / "golden_report.json").matrices["xsc"].write_csv(path)
        return "\n".join(edit(path.read_text(encoding="utf-8").splitlines())) + "\n"
    return content


def _golden_json(edit):
    """The golden report JSON, its document changed by `edit`."""
    def content(tmp_path):
        report = json.loads((DATA_DIR / "golden_report.json").read_text(encoding="utf-8"))
        edit(report)
        return json.dumps(report)
    return content


@pytest.mark.parametrize("command, flag, content, extra, code, shown", [
    ("correlate", None, _golden_csv(lambda lines: [lines[0], lines[2], lines[1], lines[3]]),
     [], 1, ["row 2 is 'de', expected 'en'"]),
    ("correlate", None, _golden_csv(lambda lines: lines[:2]), [], 1, ["expected 3 rows, found 1"]),
    ("correlate", None, _golden_csv(lambda lines: [lines[0], "en,,0.5,x", *lines[2:]]),
     [], 1, ["row 2, column 4: 'x' is not a number"]),
    ("correlate", None, _golden_csv(lambda lines: [lines[0], "en,,,", "de,,,", "zh,,,"]),
     [], 1, ["fewer than 2 common off-diagonal cells"]),
    ("correlate", None, _golden_csv(lambda lines: ["lang,en,de,en", *lines[1:3],
                                                   "en" + lines[3][2:]]),
     [], 1, ["duplicate language codes ['en']"]),
    ("report", None, _golden_json(lambda r: r.update(schema="other/1")), [], 1,
     ["expected schema 'xlconsist-report/1', got 'other/1'"]),
    ("report", None, _golden_json(lambda r: r.pop("metrics")), [], 1, ["missing key 'metrics'"]),
    ("report", None, lambda tmp_path: "{not json", [], 1, ["not UTF-8 JSON"]),
    ("report", None, _golden_json(lambda r: r["metrics"].update(xsc="high")), [], 1,
     ["malformed report: metric 'xsc' is not a number"]),
    ("report", None, _golden_json(lambda r: r["domains"].update(history="high")), [], 1,
     ["malformed report: 'domains' value 'history' is not a number"]),
    ("report", None, _golden_json(lambda r: r["domains"].update(history=True)), [], 1,
     ["malformed report: 'domains' value 'history' is not a number"]),
    ("report", None, _golden_json(lambda r: r.update(domains=[0.5])), [], 1,
     ["malformed report: 'domains' is not an object"]),
    ("report", None, _golden_json(lambda r: r["degenerate_pairs"].update(xac="many")), [], 1,
     ["malformed report: 'degenerate_pairs' value 'xac' is not an integer"]),
    ("report", None, _golden_json(lambda r: r["degenerate_pairs"].update(xtc=False)), [], 1,
     ["malformed report: 'degenerate_pairs' value 'xtc' is not an integer"]),
    ("report", None, _golden_json(lambda r: r.update(provenance=["seed"])), [], 1,
     ["malformed report: 'provenance' is not an object"]),
    ("report", None, _golden_json(lambda r: r["matrices"]["xac"].update(
        values=r["matrices"]["xac"]["values"][:1])), [], 1,
     ["malformed report: matrix shape (1, 3) != (3, 3)"]),
    ("report", None, _golden_json(lambda r: r["matrices"]["xac"]["values"][1].pop()), [], 1,
     ["malformed report: matrix rows differ in length"]),
    ("report", None, _golden_json(lambda r: r["matrices"]["xtc"].update(degenerate=[[0]])),
     [], 1, ["malformed report: degenerate shape (1, 1) != (3, 3)"]),
    ("report", None, _golden_json(lambda r: r["matrices"]["xsc"].update(
        languages=["en", "de", "en"])), [], 1,
     ["malformed report: duplicate language codes ['en']"]),
    ("score", "--config", lambda tmp_path: "schema: [xlconsist-run/1\n", [], 2,
     ["not a YAML run config"]),
    ("score", "--config", lambda tmp_path: "- chrf\n- modes\n", [], 2,
     ["the top level is not a mapping"]),
    ("score", "--config", lambda tmp_path: "provider: 5\n", [], 2,
     ["section 'provider' is not a mapping"]),
    ("score", "--config", lambda tmp_path: 'chrf:\n  case_fold: "false"\n', [], 2,
     ["chrf.case_fold must be true or false, got 'false'"]),
    ("score", "--config", lambda tmp_path: "modes:\n  include_timeliness: yes please\n", [], 2,
     ["modes.include_timeliness must be true or false, got 'yes please'"]),
    ("score", "--config", lambda tmp_path: "languages: 5\n", [], 2,
     ["languages must be a list of language codes, got 5"]),
    ("score", "--config", lambda tmp_path: "modes:\n  xtc_mode: bogus\n", [], 2,
     ["xtc_mode must be 'prose' or 'formula', got 'bogus'"]),
    ("score", None, None, ["--tau", "nan"], 2, ["tau must be within [0, 1], got nan"]),
    ("score", None, None, ["--tau", "1.5"], 2, ["tau must be within [0, 1], got 1.5"]),
    ("score", "--config", lambda tmp_path: "chrf:\n  beta: .nan\n", [], 2,
     ["beta must be finite and > 0, with a finite square; got nan"]),
    ("collect", "--config", lambda tmp_path: "collection:\n  cut_at_newline: 'no'\n", [], 2,
     ["collection.cut_at_newline must be true or false, got 'no'"]),
    ("collect", "--templates", lambda tmp_path: "{not json", ["--variant", "p2"], 2,
     ["not UTF-8 JSON"]),
    ("collect", "--templates", lambda tmp_path: '["What is {entity}?"]', ["--variant", "p2"], 2,
     ["not a JSON object of relation -> {language: template}"]),
    ("collect", "--paraphrases", lambda tmp_path: "{not json", ["--variant", "p3"], 2,
     ["not UTF-8 JSON"]),
    ("collect", None, None, ["--variant", "p2"], 1,
     ["timeliness item 'tim-01' has no entity or relation for a p2 template"]),
    ("collect", "--templates", lambda tmp_path: '{"capital": {"*": "Capital of {entity}?"}}',
     ["--variant", "p2"], 1, ["no template for relation"]),
    ("collect", "--paraphrases", lambda tmp_path: '{"geo-01": {"en": "Capital of France?"}}',
     ["--variant", "p3"], 1, ["no paraphrase for item 'geo-01' in language 'de'"]),
], ids=["correlate-rows-out-of-order", "correlate-not-a-matrix", "correlate-not-a-number",
        "correlate-no-common-cells", "correlate-csv-duplicate-language", "report-other-schema", "report-missing-key",
        "report-not-json", "report-metric-not-a-number", "report-domain-not-a-number",
        "report-domain-a-bool", "report-domains-a-list", "report-degenerate-pairs-a-string",
        "report-degenerate-pairs-a-bool", "report-provenance-a-list", "report-values-one-row",
        "report-values-ragged", "report-degenerate-one-cell", "report-duplicate-language",
        "config-not-yaml", "config-a-list",
        "config-section-not-a-mapping", "case-fold-string", "include-timeliness-string",
        "languages-a-number", "xtc-mode-unknown", "tau-nan", "tau-above-one", "beta-nan", "cut-at-newline-string",
        "templates-not-json",
        "templates-not-a-table", "paraphrases-not-json", "p2-timeliness-item",
        "p2-relation-without-template", "p3-missing-paraphrase"])
def test_bad_input_ends_in_one_error_line_and_writes_nothing(
    runner, tmp_path, command, flag, content, extra, code, shown
):
    bad = tmp_path / "bad"
    if content is not None:
        bad.write_text(content(tmp_path), encoding="utf-8")
    out, store, cache = tmp_path / "out", tmp_path / "a.jsonl", tmp_path / "v.bin"
    args = {
        "report": ["report"],
        "correlate": ["correlate", str(DATA_DIR / "golden_report.json")],
        "score": ["score", "--dataset", str(bundled_fixture_path()), "--ground-truth",
                  "--out-dir", str(out), "--cache", str(cache), "--provider-kind", "mock",
                  "--dims", "16"],
        "collect": ["collect", "--dataset", str(bundled_fixture_path()), "--out", str(store),
                    "--model", "canned", "--shots", "1"],
    }[command]
    args += ([flag] if flag else []) + ([str(bad)] if content else []) + extra
    with MockLLMServer(mini_fixture_answers()) as llm:
        result = runner.invoke(cli, args + (["--endpoint", llm.url] if command == "collect" else []))
        assert llm.request_count == 0
    (_one_line_error if code == 1 else _usage_error)(result, *shown)
    assert not out.exists() and not store.exists() and not cache.exists()


def test_an_integral_float_setting_is_read_as_its_integer(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("schema: xlconsist-run/1\nseed: 0.0\nchrf:\n  char_ngram_max: 6.0\n"
                      "provider:\n  expected_dims: 32.0\n", encoding="utf-8")
    reports = []
    for name, extra in (("plain", []), ("floats", ["--config", str(config)])):
        result = runner.invoke(cli, [
            "score", "--dataset", str(bundled_fixture_path()), "--ground-truth",
            "--out-dir", str(tmp_path / name), *extra,
        ])
        assert result.exit_code == 0, result.output
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_an_empty_config_section_means_its_defaults(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("schema: xlconsist-run/1\nprovider:\nchrf:\nmodes:\n", encoding="utf-8")
    reports = []
    for name, extra in (("plain", []), ("empty", ["--config", str(config)])):
        result = runner.invoke(cli, [
            "score", "--dataset", str(bundled_fixture_path()), "--ground-truth",
            "--out-dir", str(tmp_path / name), *extra,
        ])
        assert result.exit_code == 0, result.output
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]
