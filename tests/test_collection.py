import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from xlconsist import mockllm
from xlconsist.answers import STATUS_FAILED, STATUS_OK, load_answers
from xlconsist.collection import (
    SYSTEM_PROMPT,
    CollectionConfig,
    QuestionTemplates,
    RunManifest,
    TokenBucket,
    build_messages,
    collect_answers,
    postprocess_answer,
    sample_exemplars,
)
from xlconsist.dataset import Dataset
from xlconsist.errors import (
    AuthenticationError,
    ParaphraseMissingError,
    TemplateMissingError,
    XlconsistError,
)
from xlconsist.fixtures import mini_fixture, mini_fixture_answers
from xlconsist.mockllm import MockLLMServer, fallback_answer


# -- exemplar sampling ---------------------------------------------------------

def pool_of(n):
    return [f"exemplar-{i}" for i in range(n)]


def test_sample_zero_is_empty():
    assert sample_exemplars(pool_of(20), 0, seed=1, domain="sports") == []


def test_sample_deterministic():
    a = sample_exemplars(pool_of(20), 5, seed=7, domain="sports")
    b = sample_exemplars(pool_of(20), 5, seed=7, domain="sports")
    assert a == b
    c = sample_exemplars(pool_of(20), 5, seed=8, domain="sports")
    d = sample_exemplars(pool_of(20), 5, seed=7, domain="movie")
    assert a != c or a != d  # either seed or domain changes the draw


def test_sample_five_from_twenty_distinct():
    picks = sample_exemplars(pool_of(20), 5, seed=3, domain="sports")
    assert len(picks) == 5
    assert len(set(picks)) == 5
    assert all(p in pool_of(20) for p in picks)


def test_sample_pool_too_small():
    with pytest.raises(ValueError, match="pool of 3"):
        sample_exemplars(pool_of(3), 5, seed=0, domain="x")


# -- prompts -------------------------------------------------------------------

def test_zero_shot_prompt_is_system_prompt_and_question():
    d = mini_fixture()
    item = d.qa_items[0]
    assert build_messages(item, "en", []) == [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": item.questions["en"]},
    ]


def test_prompt_contains_exemplars_in_order():
    d = mini_fixture()
    item = d.qa_items[0]
    exemplars = list(d.few_shot_pool["geography"][:2])
    messages = build_messages(item, "de", exemplars)
    assert [m["content"] for m in messages[1:]] == [
        exemplars[0].questions["de"], exemplars[0].answers["de"],
        exemplars[1].questions["de"], exemplars[1].answers["de"],
        item.questions["de"],
    ]


def test_p2_template_golden():
    templates = QuestionTemplates.load()
    assert (
        templates.render("Buenos Aires", "country", "en")
        == "In which country is Buenos Aires located?"
    )
    assert templates.render("Frankreich", "capital", "de") == (
        "Was ist die Hauptstadt von Frankreich?"
    )
    # generic fallback for unknown relations / languages
    assert templates.render("X", "mystery relation", "en") == "What is the mystery relation of X?"
    assert templates.render("X", "mystery relation", "ru") == "What is the mystery relation of X?"


def test_p2_prompt_uses_template():
    d = mini_fixture()
    item = d.qa_items[0]  # France / capital
    messages = build_messages(item, "en", [], variant="p2")
    assert messages[-1] == {"role": "user", "content": "What is the capital of France?"}


def test_p3_requires_paraphrase():
    d = mini_fixture()
    item = d.qa_items[0]
    paraphrases = {item.id: {"en": "Name the French capital city."}}
    messages = build_messages(item, "en", [], variant="p3", paraphrases=paraphrases)
    assert messages[-1]["content"] == "Name the French capital city."
    with pytest.raises(ParaphraseMissingError):
        build_messages(item, "de", [], variant="p3", paraphrases=paraphrases)


def test_build_messages_shape():
    d = mini_fixture()
    item = d.qa_items[0]
    exemplars = list(d.few_shot_pool["geography"][:2])
    messages = build_messages(item, "en", exemplars)
    assert [m["role"] for m in messages] == ["system", "user", "assistant", "user", "assistant", "user"]
    assert messages[-1]["content"] == item.questions["en"]


def test_postprocess_answer():
    assert postprocess_answer("  Paris  \nIt is the capital.") == "Paris"
    assert postprocess_answer("  Paris\nLyon ", cut_at_newline=False) == "Paris\nLyon"


def test_config_validation():
    with pytest.raises(ValueError):
        CollectionConfig(endpoint="http://x", model="m", shots=-1)
    with pytest.raises(ValueError):
        CollectionConfig(endpoint="http://x", model="m", prompt_variant="p9")


@pytest.mark.parametrize("field, value, shown", [
    ("max_attempts", 0, "max_attempts must be >= 1, got 0"),
    ("rate_limit_rps", 0.0, "got 0.0"),
    ("rate_limit_rps", -5.0, "got -5.0"),
    ("rate_limit_rps", float("inf"), "got inf"),
    ("rate_limit_rps", float("nan"), "got nan"),
], ids=["attempts-0", "rate-0", "rate-negative", "rate-inf", "rate-nan"])
def test_config_refuses_out_of_range_values(field, value, shown):
    with pytest.raises(ValueError, match=shown):
        CollectionConfig(endpoint="http://x", model="m", **{field: value})


def test_token_bucket_paces_requests():
    bucket = TokenBucket(rate=200.0, burst=1.0)
    now = bucket.updated
    # one token in the bucket, then one every 5 ms, taken ahead
    waits = [bucket.reserve(now) for _ in range(5)]
    assert waits == pytest.approx([0.0, 0.005, 0.010, 0.015, 0.020])
    # 40 ms later the four tokens taken ahead are paid back and one is due
    assert bucket.reserve(now + 0.040) == 0.0
    assert bucket.reserve(now + 0.040) == pytest.approx(0.005)
    assert TokenBucket(rate=None).reserve(now) == 0.0  # no-op path


# -- end-to-end collection against the mock endpoint ----------------------------

def make_cfg(url, **kwargs):
    defaults = dict(
        endpoint=url,
        model="canned",
        shots=2,
        exemplar_seed=11,
        concurrency=4,
        max_attempts=3,
        backoff_base=0.01,
        timeout=10.0,
    )
    defaults.update(kwargs)
    return CollectionConfig(**defaults)


def collect_fixture(store, url, **kwargs):
    dataset = mini_fixture()
    cfg = make_cfg(url, **kwargs)
    return collect_answers(
        dataset, dataset.languages, cfg, store, run_id="t-run",
        dataset_digest="digest", **{k: v for k, v in {}.items()}
    )


def test_collect_full_population(tmp_path):
    with MockLLMServer(mini_fixture_answers()) as server:
        answers, manifest = collect_fixture(tmp_path / "a.jsonl", server.url)
    dataset = mini_fixture()
    expected_cells = (len(dataset.qa_items) + len(dataset.timeliness_items)) * 3
    assert len(answers.answers) == expected_cells
    assert all(status == STATUS_OK for status in answers.statuses.values())
    assert answers.answer("en", "geo-01") == "Paris"
    assert answers.answer("zh", "geo-03") == "圣彼得堡"  # planned wrong answer
    assert manifest.finished_at is not None
    assert set(manifest.exemplar_ids) == {"geography", "science", "history", "timeliness"}
    assert all(len(ids) == 2 for ids in manifest.exemplar_ids.values())


def test_concurrency_limit_respected(tmp_path):
    with MockLLMServer(mini_fixture_answers(), latency=0.02) as server:
        collect_fixture(tmp_path / "a.jsonl", server.url, concurrency=3)
        assert server.max_in_flight <= 3
        assert server.request_count == 84


def test_manifest_reconstructs_prompts(tmp_path, flaky_server):
    url, handler = flaky_server
    handler.fail_times = 0
    dataset = mini_fixture()
    collect_answers(dataset, dataset.languages, make_cfg(url), tmp_path / "a.jsonl", run_id="t-run")
    loaded = RunManifest.load(str(tmp_path / "a.jsonl") + ".manifest.json")
    rebuilt = [loaded.rebuild_messages(dataset, *key.split("/")) for key in loaded.statuses]

    def canonical(requests):
        return sorted(json.dumps(messages, ensure_ascii=False) for messages in requests)

    # exemplars in the sampled order, not pool order, as the server received them
    assert len(handler.received) == len(rebuilt) == 84
    assert canonical(rebuilt) == canonical(handler.received)
    assert loaded.statuses["zh/geo-01"]["status"] == STATUS_OK


class _FlakyHandler(BaseHTTPRequestHandler):
    state = {}
    received = []
    fail_times = 2
    always_fail = False
    auth_error = False

    def do_POST(self):
        if self.auth_error:
            self.send_response(401)
            self.end_headers()
            return
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        self.received.append(payload["messages"])
        question = [m for m in payload["messages"] if m["role"] == "user"][-1]["content"]
        seen = self.state.get(question, 0)
        self.state[question] = seen + 1
        if self.always_fail or seen < self.fail_times:
            self.send_response(503)
            self.end_headers()
            return
        body = json.dumps(
            {"choices": [{"message": {"content": f"reply to {question[:10]}"}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    handler = type("Flaky", (_FlakyHandler,), {"state": {}, "received": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", handler
    server.shutdown()
    server.server_close()


def test_retry_then_success_logs_attempts(tmp_path):
    d = mini_fixture().subset(["en", "de"])
    d = type(d)(languages=d.languages, qa_items=d.qa_items[:1], few_shot_pool=d.few_shot_pool)
    handler = type("Flaky", (_FlakyHandler,), {"state": {}, "fail_times": 2})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        cfg = make_cfg(url, shots=0, max_attempts=3)
        answers, _ = collect_answers(d, d.languages, cfg, tmp_path / "a.jsonl", run_id="t-run")
        assert all(status == STATUS_OK for status in answers.statuses.values())
        records = [
            json.loads(line)
            for line in (tmp_path / "a.jsonl").read_text().splitlines()[1:]
        ]
        assert all(record["attempts"] == 3 for record in records)
    finally:
        server.shutdown()
        server.server_close()


def test_manifest_records_attempts(tmp_path, flaky_server):
    url, handler = flaky_server
    handler.fail_times = 2
    d = mini_fixture().subset(["en", "de"])
    d = type(d)(languages=d.languages, qa_items=d.qa_items[:1], few_shot_pool=d.few_shot_pool)
    cfg = make_cfg(url, shots=0, max_attempts=3)
    _, manifest = collect_answers(d, d.languages, cfg, tmp_path / "a.jsonl", run_id="t-run")
    expected = {"status": STATUS_OK, "attempts": 3}
    assert manifest.statuses == {"en/geo-01": expected, "de/geo-01": expected}
    loaded = RunManifest.load(str(tmp_path / "a.jsonl") + ".manifest.json")
    assert loaded.statuses == manifest.statuses


def test_always_failing_server_yields_failed_cells(tmp_path, flaky_server):
    url, handler = flaky_server
    handler.always_fail = True
    d = mini_fixture().subset(["en", "de"])
    d = type(d)(languages=d.languages, qa_items=d.qa_items[:2], few_shot_pool=d.few_shot_pool)
    cfg = make_cfg(url, shots=0, max_attempts=2)
    answers, manifest = collect_answers(d, d.languages, cfg, tmp_path / "a.jsonl", run_id="t-run")
    assert len(answers.answers) == 4
    assert all(status == STATUS_FAILED for status in answers.statuses.values())
    assert all(text == "" for text in answers.answers.values())
    assert all(entry["status"] == STATUS_FAILED for entry in manifest.statuses.values())


def test_auth_failure_aborts(tmp_path, flaky_server):
    url, handler = flaky_server
    handler.auth_error = True
    d = mini_fixture().subset(["en", "de"])
    cfg = make_cfg(url, shots=0)
    with pytest.raises(AuthenticationError):
        collect_answers(d, d.languages, cfg, tmp_path / "a.jsonl", run_id="t-run")


class StopAfter(Exception):
    pass


def test_resume_idempotence(tmp_path):
    """Interrupt mid-collection, resume, and match the uninterrupted run."""
    dataset = mini_fixture()
    canned = mini_fixture_answers()

    with MockLLMServer(canned) as server:
        cfg = make_cfg(server.url, concurrency=2)
        uninterrupted, _ = collect_answers(
            dataset, dataset.languages, cfg, tmp_path / "full.jsonl", run_id="t-run"
        )

        seen = {"count": 0}

        def interrupt(lang, item_id, status):
            seen["count"] += 1
            if seen["count"] >= 10:
                raise StopAfter()

        with pytest.raises(StopAfter):
            collect_answers(
                dataset, dataset.languages, cfg, tmp_path / "resumed.jsonl",
                run_id="t-run", progress=interrupt,
            )
        partial = load_answers(tmp_path / "resumed.jsonl")
        assert 0 < len(partial.answers) < len(uninterrupted.answers)

        before_resume = server.request_count
        resumed, _ = collect_answers(
            dataset, dataset.languages, cfg, tmp_path / "resumed.jsonl", run_id="t-run"
        )
        filled = server.request_count - before_resume
        assert filled < 84  # only missing cells were fetched

    assert resumed.answers == uninterrupted.answers
    assert resumed.statuses == uninterrupted.statuses
    assert resumed.raw == uninterrupted.raw


def test_progress_abort_stops_every_request_loop(tmp_path):
    """A progress callback that raises at its k-th cell ends the run with at
    most k + concurrency cells stored, every request loop joined; the next
    call fetches only the missing cells."""
    dataset = mini_fixture()
    store = tmp_path / "a.jsonl"
    k, concurrency = 5, 3
    reported = []

    def stop_at_k(lang, item_id, status):
        reported.append((lang, item_id))
        if len(reported) == k:
            raise StopAfter()
        # slower than a request, so the loops wait for the callback; the last
        # short wait lets a loop start a request that is in flight at the abort
        time.sleep(0.06 if len(reported) < k - 1 else 0.005)

    with MockLLMServer(mini_fixture_answers(), latency=0.02) as server:
        cfg = make_cfg(server.url, concurrency=concurrency)
        before = set(threading.enumerate())
        with pytest.raises(StopAfter):
            collect_answers(
                dataset, dataset.languages, cfg, store, run_id="t-run", progress=stop_at_k
            )
        # the mock's own per-connection threads end when the client closes them
        left = [
            thread for thread in set(threading.enumerate()) - before
            if "process_request_thread" not in thread.name
        ]
        assert left == []
        assert server.request_count <= k + concurrency
        stored = load_answers(store)
        assert set(reported) <= set(stored.answers)
        assert k <= len(stored.answers) <= k + concurrency

        fetched = server.request_count
        answers, _ = collect_answers(dataset, dataset.languages, cfg, store, run_id="t-run")
        assert server.request_count - fetched == 84 - len(stored.answers)
    assert len(answers.answers) == 84
    assert all(status == STATUS_OK for status in answers.statuses.values())


def test_resume_after_a_torn_final_line_loses_no_cell(tmp_path):
    """A crash mid-append leaves a torn final line, which the load drops. The
    resume cuts it back before its first append, or ends a whole final record
    with its missing newline, so every record it appends loads with the rest."""
    dataset = mini_fixture()
    with MockLLMServer(mini_fixture_answers()) as server:
        cfg = make_cfg(server.url)
        uninterrupted, _ = collect_answers(
            dataset, dataset.languages, cfg, tmp_path / "full.jsonl", run_id="t-run"
        )
        head, *records = (tmp_path / "full.jsonl").read_bytes().split(b"\n")[:-1]
        # the store loses its final record and ends in a record with Chinese
        # text, so some of the cuts fall inside a character
        last = next(r for r in records if b'"item": "geo-03", "lang": "zh"' in r)
        records.remove(last)
        kept = b"\n".join([head, *records[:-1]]) + b"\n"
        tails = [last[:n] for n in range(1, len(last) + 1)]  # the whole record last
        tails += [last[:n] + b"\n" for n in range(1, len(last))]
        store = tmp_path / "a.jsonl"
        for tail in tails:
            store.write_bytes(kept + tail)
            resumed, _ = collect_answers(dataset, dataset.languages, cfg, store, run_id="t-run")
            loaded = load_answers(store)
            assert (loaded.answers, loaded.raw, loaded.statuses) == (
                uninterrupted.answers, uninterrupted.raw, uninterrupted.statuses
            ), tail
            assert resumed == loaded


def test_resume_against_another_endpoint_fills_only_the_missing_cells(tmp_path):
    """The header records the endpoint, but a resume does not compare it: the
    model id is the run's identity, and a restarted server may listen on
    another port."""
    dataset = mini_fixture()
    store = tmp_path / "a.jsonl"
    seen = []

    def interrupt(lang, item_id, status):
        seen.append(item_id)
        if len(seen) == 10:
            raise StopAfter()

    with MockLLMServer(mini_fixture_answers()) as first, \
            MockLLMServer(mini_fixture_answers()) as second:
        assert first.url != second.url
        with pytest.raises(StopAfter):
            collect_answers(dataset, dataset.languages, make_cfg(first.url), store,
                            run_id="t-run", progress=interrupt)
        stored = len(load_answers(store).answers)
        sent = first.request_count
        answers, _ = collect_answers(dataset, dataset.languages, make_cfg(second.url), store,
                                     run_id="t-run")
        assert first.request_count == sent
        assert second.request_count == 84 - stored
    assert len(answers.answers) == 84
    assert set(answers.statuses.values()) == {STATUS_OK}
    assert answers.extra == {"endpoint": first.url, "shots": 2}


def test_p2_reads_the_bundled_templates_once_per_run(tmp_path, monkeypatch):
    loads = []
    load = QuestionTemplates.load

    def counted_load(path=None):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(QuestionTemplates, "load", counted_load)
    full = mini_fixture()
    dataset = Dataset(full.languages, full.qa_items, (), full.few_shot_pool)
    with MockLLMServer(mini_fixture_answers()) as server:
        answers, _ = collect_answers(
            dataset, dataset.languages, make_cfg(server.url, prompt_variant="p2"),
            tmp_path / "a.jsonl",
        )
    assert len(answers.answers) == len(dataset.qa_items) * 3 == server.request_count
    assert loads == [None]


@pytest.mark.parametrize("variant, error, shown", [
    ("p2", TemplateMissingError, "timeliness item 'tim-01' has no entity or relation"),
    ("p3", ParaphraseMissingError, "no paraphrase for item 'tim-04' in language 'zh'"),
], ids=["p2-timeliness-item", "p3-missing-paraphrase"])
def test_a_cell_without_a_question_stops_the_run_before_any_write(
    tmp_path, variant, error, shown
):
    dataset = mini_fixture()
    # p3 has a paraphrase for every cell but the last
    items = [*dataset.qa_items, *dataset.timeliness_items]
    paraphrases = {item.id: dict(item.questions) for item in items}
    del paraphrases["tim-04"]["zh"]
    store = tmp_path / "a.jsonl"
    with MockLLMServer(mini_fixture_answers()) as server:
        with pytest.raises(error, match=shown):
            collect_answers(
                dataset, dataset.languages, make_cfg(server.url, prompt_variant=variant), store,
                paraphrases=paraphrases,
            )
        assert server.request_count == 0
    assert list(tmp_path.iterdir()) == []


def test_resume_refuses_mismatched_run(tmp_path):
    with MockLLMServer(mini_fixture_answers()) as server:
        collect_fixture(tmp_path / "a.jsonl", server.url)
        dataset = mini_fixture()
        cfg = make_cfg(server.url, exemplar_seed=99)
        with pytest.raises(XlconsistError, match="refusing to mix"):
            collect_answers(dataset, dataset.languages, cfg, tmp_path / "a.jsonl", run_id="t-run")


def test_resume_refuses_other_model(tmp_path):
    with MockLLMServer(mini_fixture_answers()) as server:
        collect_fixture(tmp_path / "a.jsonl", server.url)
        dataset = mini_fixture()
        cfg = make_cfg(server.url, model="other-model")
        with pytest.raises(XlconsistError, match="'canned'.*'other-model'"):
            collect_answers(dataset, dataset.languages, cfg, tmp_path / "a.jsonl", run_id="t-run")


def test_resume_refuses_other_dataset(tmp_path):
    with MockLLMServer(mini_fixture_answers()) as server:
        collect_fixture(tmp_path / "a.jsonl", server.url)  # dataset_digest="digest"
        dataset = mini_fixture()
        cfg = make_cfg(server.url)
        with pytest.raises(XlconsistError, match="digest, not other-digest"):
            collect_answers(
                dataset, dataset.languages, cfg, tmp_path / "a.jsonl",
                run_id="t-run", dataset_digest="other-digest",
            )
        # no digest on one side: nothing to compare, the resume goes ahead
        before = server.request_count
        collect_answers(dataset, dataset.languages, cfg, tmp_path / "a.jsonl", run_id="t-run")
        assert server.request_count == before



def test_resume_refuses_other_shots(tmp_path):
    with MockLLMServer(mini_fixture_answers()) as server:
        collect_fixture(tmp_path / "a.jsonl", server.url)  # shots=2
        header = json.loads((tmp_path / "a.jsonl").read_text().splitlines()[0])
        assert header["shots"] == 2
        dataset = mini_fixture()
        cfg = make_cfg(server.url, shots=3)
        with pytest.raises(XlconsistError, match="2 shots, not 3"):
            collect_answers(dataset, dataset.languages, cfg, tmp_path / "a.jsonl", run_id="t-run")


def test_resume_keeps_started_at(tmp_path):
    store = tmp_path / "a.jsonl"
    manifest_path = tmp_path / "a.jsonl.manifest.json"
    with MockLLMServer(mini_fixture_answers()) as server:
        collect_fixture(store, server.url)
        recorded = json.loads(manifest_path.read_text())
        recorded["started_at"] = "2001-02-03T04:05:06+00:00"
        manifest_path.write_text(json.dumps(recorded))
        _, manifest = collect_fixture(store, server.url)
    assert manifest.started_at == "2001-02-03T04:05:06+00:00"
    assert RunManifest.load(manifest_path).started_at == "2001-02-03T04:05:06+00:00"
    assert manifest.finished_at > manifest.started_at

def test_fallback_answer_is_stable():
    assert fallback_answer("who?") == fallback_answer("who?")
    assert fallback_answer("who?") != fallback_answer("what?")


@pytest.mark.parametrize(
    "content",
    [None, b'{"q": "a"', b"\xff", b'["a"]', b'{"q": 1}'],
    ids=["missing", "not JSON", "not UTF-8", "a list", "a number answer"],
)
def test_mock_refuses_an_answers_file_that_is_not_a_question_answer_object(
    tmp_path, capsys, content
):
    path = tmp_path / "answers.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as excinfo:
        mockllm.main(["--port", "0", "--answers", str(path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(path) in err, err
