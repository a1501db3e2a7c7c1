"""Durability of the answers store and the HTTP embedding path through the CLI."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from click.testing import CliRunner

from xlconsist.answers import (
    AnswerSet,
    append_answer_record,
    ground_truth_answers,
    load_answers,
    write_answer_header,
)
from xlconsist.cli import cli
from xlconsist.consistency import ConsistencyReport
from xlconsist.errors import DatasetFormatError
from xlconsist.fixtures import bundled_fixture_path, mini_fixture, mini_fixture_answers
from xlconsist.mockllm import MockLLMServer


def test_torn_final_record_is_dropped(tmp_path):
    path = tmp_path / "a.jsonl"
    answer_set = AnswerSet(run_id="r", model_id="m")
    write_answer_header(path, answer_set)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"lang": "en", "item": "q1", "raw": "x", "text": "x",
                                 "status": "ok", "attempts": 1}) + "\n")
        handle.write('{"lang": "en", "item": "q2", "raw": "y", "te')  # killed mid-write
    loaded = load_answers(path)
    assert ("en", "q1") in loaded.answers
    assert ("en", "q2") not in loaded.answers


def test_torn_interior_record_is_an_error(tmp_path):
    path = tmp_path / "a.jsonl"
    write_answer_header(path, AnswerSet(run_id="r", model_id="m"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"lang": "en", "item": "q1", "raw"\n')  # corruption, not a tail
        handle.write(json.dumps({"lang": "en", "item": "q2", "raw": "y", "text": "y",
                                 "status": "ok", "attempts": 1}) + "\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_answers(path)


def test_interior_record_that_is_not_utf8_names_its_line(tmp_path):
    store = tmp_path / "a.jsonl"
    truth = ground_truth_answers(mini_fixture())
    write_answer_header(store, truth)
    with open(store, "a", encoding="utf-8") as handle:
        for (lang, item_id), text in truth.answers.items():
            append_answer_record(handle, lang, item_id, text, text, "ok", 1)
    lines = store.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b'"text": "', b'"text": "\xff', 1)
    store.write_bytes(b"\n".join(lines))
    with pytest.raises(DatasetFormatError, match="byte 0xff is not UTF-8") as excinfo:
        load_answers(store)
    assert excinfo.value.line == 3
    dataset = str(bundled_fixture_path())
    commands = {
        "score": ["--answers", str(store), "--out-dir", str(tmp_path / "out"),
                  "--provider-kind", "mock", "--dims", "16"],
        "collect": ["--out", str(store), "--endpoint", "http://127.0.0.1:9/v1/chat"],
        "embed": ["--answers", str(store), "--cache", str(tmp_path / "c.bin"),
                  "--provider-kind", "mock", "--dims", "16"],
    }
    for command, flags in commands.items():
        result = CliRunner().invoke(cli, [command, "--dataset", dataset, *flags])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert result.output == "Error: line 3: byte 0xff is not UTF-8\n", command
    assert not (tmp_path / "out").exists()


def test_last_record_wins_on_replay(tmp_path):
    path = tmp_path / "a.jsonl"
    write_answer_header(path, AnswerSet(run_id="r", model_id="m"))
    with open(path, "a", encoding="utf-8") as handle:
        for status, text in (("failed", ""), ("ok", "Paris")):
            handle.write(json.dumps({"lang": "en", "item": "q1", "raw": text, "text": text,
                                     "status": status, "attempts": 1}) + "\n")
    loaded = load_answers(path)
    assert loaded.answers[("en", "q1")] == "Paris"
    assert loaded.statuses[("en", "q1")] == "ok"


class _HashEmbedHandler(BaseHTTPRequestHandler):
    """Deterministic per-text vectors so the CLI HTTP path is reproducible."""

    dims = 24

    def do_POST(self):
        import hashlib

        length = int(self.headers["Content-Length"])
        texts = json.loads(self.rfile.read(length))["texts"]
        vectors = []
        for text in texts:
            digest = hashlib.sha256(text.encode()).digest()
            vectors.append([(b - 127.5) / 128.0 for b in digest[: self.dims]])
        body = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_http_embedding_provider_through_cli(tmp_path):
    embed_server = ThreadingHTTPServer(("127.0.0.1", 0), _HashEmbedHandler)
    threading.Thread(target=embed_server.serve_forever, daemon=True).start()
    embed_url = f"http://127.0.0.1:{embed_server.server_address[1]}/embed"
    runner = CliRunner()
    try:
        with MockLLMServer(mini_fixture_answers()) as llm:
            result = runner.invoke(cli, [
                "collect", "--dataset", str(bundled_fixture_path()),
                "--out", str(tmp_path / "a.jsonl"), "--endpoint", llm.url,
                "--model", "canned", "--shots", "1", "--seed", "5", "--run-id", "http-run",
            ])
            assert result.exit_code == 0, result.output

        for out_name in ("r1", "r2"):
            result = runner.invoke(cli, [
                "score", "--dataset", str(bundled_fixture_path()),
                "--answers", str(tmp_path / "a.jsonl"),
                "--out-dir", str(tmp_path / out_name),
                "--cache", str(tmp_path / "http_vectors.bin"),
                "--provider-kind", "http", "--endpoint", embed_url, "--dims", "24",
            ])
            assert result.exit_code == 0, result.output
        first = (tmp_path / "r1" / "report.json").read_bytes()
        second = (tmp_path / "r2" / "report.json").read_bytes()
        assert first == second  # second run: warm cache, zero fetches

        report = ConsistencyReport.from_json(tmp_path / "r1" / "report.json")
        assert report.provenance["provider"]["kind"] == "http"
        assert report.provenance["provider"]["endpoint"] == embed_url
        assert 0.0 <= abs(report.xsc) <= 1.0
    finally:
        embed_server.shutdown()
        embed_server.server_close()


class _KeepAliveEmbedHandler(_HashEmbedHandler):
    """HTTP/1.1: a connection stays open until the client closes it."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.lock:
            self.connections.append(self.client_address)
            self.open.add(self.client_address)

    def finish(self):
        with self.lock:
            self.open.discard(self.client_address)
        super().finish()


@pytest.mark.parametrize("command", ["embed", "score"])
def test_http_embedding_connections_end_with_the_command(tmp_path, command):
    handler = type("KeepAlive", (_KeepAliveEmbedHandler,), {
        "lock": threading.Lock(), "connections": [], "open": set(),
    })
    embed_server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=embed_server.serve_forever, daemon=True).start()
    answers = tmp_path / "a.jsonl"
    truth = ground_truth_answers(mini_fixture())
    write_answer_header(answers, truth)
    with open(answers, "a", encoding="utf-8") as handle:
        for (lang, item_id), text in truth.answers.items():
            append_answer_record(handle, lang, item_id, text, text, "ok", 1)
    args = [
        command, "--dataset", str(bundled_fixture_path()), "--answers", str(answers),
        "--cache", str(tmp_path / "v.bin"), "--provider-kind", "http", "--dims", "24",
        "--endpoint", f"http://127.0.0.1:{embed_server.server_address[1]}/embed",
    ]
    if command == "score":
        args += ["--out-dir", str(tmp_path / "out")]
    try:
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 0, result.output
        assert handler.connections
        # the server's side ends once it reads the client's close
        deadline = time.monotonic() + 5.0
        while handler.open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handler.open == set()
    finally:
        embed_server.shutdown()
        embed_server.server_close()


def test_star_import():
    import xlconsist

    namespace = {}
    exec("from xlconsist import *", namespace)
    assert "build_report" in namespace and "chrf" in namespace
    for name in xlconsist.__all__:  # each loaded on first use
        assert namespace[name] is getattr(xlconsist, name), name
