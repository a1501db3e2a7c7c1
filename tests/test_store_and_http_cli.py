"""Durability of the answers store and the HTTP embedding path through the CLI."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from click.testing import CliRunner

from xlconsist.answers import AnswerSet, load_answers, write_answer_header
from xlconsist.cli import cli
from xlconsist.consistency import ConsistencyReport
from xlconsist.errors import DatasetFormatError
from xlconsist.fixtures import bundled_fixture_path, mini_fixture_answers
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


def test_star_import():
    namespace = {}
    exec("from xlconsist import *", namespace)
    assert "build_report" in namespace and "chrf" in namespace
