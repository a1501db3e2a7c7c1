"""`collect_answers`' one-thread loop: its waits never hold up other cells,
it starts no thread, and `<store>.stats.json` counts what was sent."""

import json
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from xlconsist.answers import STATUS_FAILED, STATUS_OK, load_answers
from xlconsist.collection import CollectionConfig, collect_answers
from xlconsist.fixtures import mini_fixture, mini_fixture_answers
from xlconsist.mockllm import MockLLMServer

LATENCY_FIELDS = {"latency_ms_p50", "latency_ms_p95"}


class _ScriptedHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 chat endpoint. A question in `fail` gets that many
    `fail_status` answers (503 by default) before its answer; a question in
    `silent` is read and never answered.
    With `close_after` set, each connection is closed after that many
    responses without saying so. Records every status it sends."""

    protocol_version = "HTTP/1.1"
    wbufsize = -1  # one write per response, as the mock does
    fail: dict = {}
    fail_status = 503
    silent: frozenset = frozenset()
    close_after = 0

    def setup(self):
        super().setup()
        self.served = 0
        with self.lock:
            self.connections.append(self.client_address)

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        question = json.loads(self.rfile.read(length))["messages"][-1]["content"]
        with self.lock:
            self.seen[question] += 1
            seen = self.seen[question]
        if question in self.silent:
            self.release.wait(10)
            self.close_connection = True
            return
        status = self.fail_status if seen <= self.fail.get(question, 0) else 200
        body = b""
        if status == 200:
            body = json.dumps({"choices": [{"message": {"content": f"re: {question}"}}]}).encode()
        with self.lock:
            self.statuses.append(status)
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.served += 1
        if self.close_after and self.served >= self.close_after:
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    servers = []

    def start(**attrs):
        attrs.update(
            lock=threading.Lock(), seen=Counter(), statuses=[], connections=[],
            release=threading.Event(),
        )
        handler = type("Scripted", (_ScriptedHandler,), attrs)
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append((server, handler))
        return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions", handler

    yield start
    for server, handler in servers:
        handler.release.set()
        server.shutdown()
        server.server_close()


def small_dataset():
    """20 cells: 10 items in en and de, questions in store order."""
    d = mini_fixture().subset(["en", "de"])
    return type(d)(languages=d.languages, qa_items=d.qa_items[:10], few_shot_pool=d.few_shot_pool)


def make_cfg(url, **kwargs):
    defaults = dict(
        endpoint=url, model="canned", shots=0, exemplar_seed=5, concurrency=2,
        max_attempts=3, backoff_base=0.01, timeout=10.0,
    )
    defaults.update(kwargs)
    return CollectionConfig(**defaults)


def store_records(store):
    return [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()[1:]]


def read_stats(store):
    return json.loads((store.parent / (store.name + ".stats.json")).read_text(encoding="utf-8"))


def test_backoff_keeps_its_slot_and_holds_up_no_other_cell(scripted_server, tmp_path):
    dataset = small_dataset()
    first = dataset.qa_items[0].questions[dataset.languages[0]]
    url, handler = scripted_server(fail={first: 2})
    store = tmp_path / "a.jsonl"
    collect_answers(
        dataset, dataset.languages, make_cfg(url, backoff_base=0.2), store, run_id="t-run"
    )
    records = store_records(store)
    assert len(records) == 20
    assert all(record["status"] == STATUS_OK for record in records)
    # the first cell backs off 0.1-0.3 s, then 0.2-0.6 s; the other slot
    # stores the other 19 cells meanwhile
    last = records[-1]
    assert (last["lang"], last["item"], last["attempts"]) == (
        dataset.languages[0], dataset.qa_items[0].id, 3
    )
    assert handler.seen[first] == 3
    assert sum(handler.seen.values()) == 22


def test_unanswered_request_times_out_and_holds_up_no_other_cell(scripted_server, tmp_path):
    dataset = small_dataset()
    first = dataset.qa_items[0].questions[dataset.languages[0]]
    url, handler = scripted_server(silent=frozenset({first}))
    store = tmp_path / "a.jsonl"
    cfg = make_cfg(url, timeout=0.3, max_attempts=2)
    start = time.monotonic()
    answers, manifest = collect_answers(dataset, dataset.languages, cfg, store, run_id="t-run")
    elapsed = time.monotonic() - start
    key = (dataset.languages[0], dataset.qa_items[0].id)
    assert answers.statuses[key] == STATUS_FAILED
    assert answers.attempts[key] == 2
    assert manifest.statuses["/".join(key)] == {"status": STATUS_FAILED, "attempts": 2}
    others = {cell: status for cell, status in answers.statuses.items() if cell != key}
    assert len(others) == 19 and set(others.values()) == {STATUS_OK}
    assert elapsed < 2.0
    assert handler.seen[first] == 2
    stats = read_stats(store)
    assert (stats["no_response"], stats["failed_cells"], stats["attempts"]) == (2, 1, 21)


def test_collect_starts_no_thread(tmp_path):
    dataset = mini_fixture()
    started = []

    with MockLLMServer(mini_fixture_answers()) as server:
        before = set(threading.enumerate())

        def progress(lang, item_id, status):
            started.extend(
                thread.name for thread in set(threading.enumerate()) - before
                # the mock's own per-connection threads
                if "process_request_thread" not in thread.name
            )

        answers, _ = collect_answers(
            dataset, dataset.languages, make_cfg(server.url, concurrency=4), tmp_path / "a.jsonl",
            run_id="t-run", progress=progress,
        )
    assert len(answers.answers) == 84
    assert started == []


def test_rate_limit_paces_the_loop(tmp_path):
    dataset = small_dataset()
    with MockLLMServer(mini_fixture_answers()) as server:
        cfg = make_cfg(server.url, rate_limit_rps=50.0)
        start = time.monotonic()
        answers, _ = collect_answers(
            dataset, dataset.languages, cfg, tmp_path / "a.jsonl", run_id="t-run"
        )
        elapsed = time.monotonic() - start
    assert set(answers.statuses.values()) == {STATUS_OK}
    # a burst of `concurrency` tokens, then one every 20 ms
    assert elapsed >= (20 - 2) / 50.0 * 0.9


def test_stats_count_what_the_server_received(scripted_server, tmp_path):
    dataset = small_dataset()
    retried = [item.questions["de"] for item in dataset.qa_items[:3]]
    runs = []
    for run in ("one", "two"):
        # every connection closes after one answer: each later request finds
        # its idle connection closed and is resent once on a fresh one
        url, handler = scripted_server(fail={q: 1 for q in retried}, close_after=1)
        store = tmp_path / run / "a.jsonl"
        store.parent.mkdir()
        collect_answers(dataset, dataset.languages, make_cfg(url), store, run_id="t-run")
        runs.append((read_stats(store), handler, store))

    (stats, handler, store), (other, _, _) = runs
    assert {k: v for k, v in stats.items() if k not in LATENCY_FIELDS} == {
        k: v for k, v in other.items() if k not in LATENCY_FIELDS
    }
    assert stats["cells_sent"] == 20
    assert stats["attempts"] == len(handler.statuses) == 23
    assert stats["retries"] == 3
    assert stats["status_counts"] == {
        str(code): n for code, n in Counter(handler.statuses).items()
    } == {"200": 20, "503": 3}
    assert stats["stale_resends"] == len(handler.connections) - 2 == 21
    assert (stats["no_response"], stats["failed_cells"]) == (0, 0)
    assert 0 < stats["latency_ms_p50"] <= stats["latency_ms_p95"]
    # next to the store, never inside it or the manifest
    manifest = (store.parent / "a.jsonl.manifest.json").read_text(encoding="utf-8")
    for text in (store.read_text(encoding="utf-8"), manifest):
        assert "latency_ms" not in text and "stale_resends" not in text
    assert all(record["attempts"] in (1, 2) for record in store_records(store))
    assert len(load_answers(store).answers) == 20


def test_failed_cell_records_the_attempts_it_used(scripted_server, tmp_path, caplog):
    """A status that is not retried ends the cell after one request, and the
    store, the manifest and the stats file all say so."""
    dataset = small_dataset()
    questions = [item.questions[lang] for item in dataset.qa_items for lang in dataset.languages]
    url, handler = scripted_server(fail={q: 1 for q in questions}, fail_status=400)
    store = tmp_path / "a.jsonl"
    answers, manifest = collect_answers(dataset, dataset.languages, make_cfg(url), store,
                                        run_id="t-run")
    assert handler.statuses == [400] * 20
    assert set(answers.statuses.values()) == {STATUS_FAILED}
    assert [record["attempts"] for record in store_records(store)] == [1] * 20
    assert {entry["attempts"] for entry in manifest.statuses.values()} == {1}
    stats = read_stats(store)
    assert (stats["attempts"], stats["retries"], stats["failed_cells"]) == (20, 0, 20)
    assert stats["status_counts"] == {"400": 20}
    warnings = [record.getMessage() for record in caplog.records]
    assert len(warnings) == 20 and all("HTTP 400" in w and "retr" not in w for w in warnings)


class StopAfter(Exception):
    pass


def test_returned_answer_set_is_the_loaded_store(scripted_server, tmp_path):
    """The AnswerSet that `collect_answers` returns equals a load of its store
    in every field, header fields included, after a fresh run, a resumed run
    and a `retry_failed` run; the manifest lists the same statuses."""
    dataset = small_dataset()
    questions = [item.questions[lang] for item in dataset.qa_items for lang in dataset.languages]
    url, _ = scripted_server(fail={q: 1 for q in questions[:6]}, fail_status=400)
    store = tmp_path / "a.jsonl"
    seen = []

    def interrupt(lang, item_id, status):
        seen.append(item_id)
        if len(seen) == 8:
            raise StopAfter()

    with pytest.raises(StopAfter):
        collect_answers(dataset, dataset.languages, make_cfg(url), store, run_id="t-run",
                        progress=interrupt)
    statuses = {}
    for name, path, retry_failed in (
        ("resumed", store, False),
        ("fresh", tmp_path / "fresh.jsonl", False),
        ("retry failed", store, True),
    ):
        answers, manifest = collect_answers(dataset, dataset.languages, make_cfg(url), path,
                                            run_id="t-run", retry_failed=retry_failed)
        loaded = load_answers(path)
        assert answers == loaded, name
        assert answers.extra == {"endpoint": url, "shots": 0}
        assert manifest.statuses == {
            "/".join(key): {"status": status, "attempts": loaded.attempts[key]}
            for key, status in sorted(loaded.statuses.items())
        }
        statuses[name] = Counter(answers.statuses.values())
    # the first six cells failed once with a status that is not retried
    assert statuses == {
        "resumed": {STATUS_FAILED: 6, STATUS_OK: 14},
        "fresh": {STATUS_OK: 20},
        "retry failed": {STATUS_OK: 20},
    }
