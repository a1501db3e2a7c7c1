"""One status and retry policy for both HTTP clients: the chat client that
`collect_answers` drives and the embedding client. 429 and 5xx are retried,
401 and 403 are fatal, and any other status fails after one request."""

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from xlconsist.answers import STATUS_FAILED
from xlconsist.collection import CollectionConfig, collect_answers
from xlconsist.embedding import Embedder, EmbeddingProviderConfig
from xlconsist.errors import AuthenticationError, ProviderError
from xlconsist.fixtures import mini_fixture
from xlconsist.transport import RetryPolicy


class _ScriptHandler(BaseHTTPRequestHandler):
    """Answers the n-th POST with `script[n]`, and with 200 once the script
    has run out. A 200 carries embedding vectors when the request has
    texts, else a chat completion."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.lock:
            n = len(self.statuses)
            status = self.script[n] if n < len(self.script) else 200
            self.statuses.append(status)
        if status != 200:
            body = b"scripted failure"
        elif "texts" in payload:
            body = json.dumps({"vectors": [[1.0, 0.0, 0.0] for _ in payload["texts"]]}).encode()
        else:
            body = json.dumps({"choices": [{"message": {"content": "Paris"}}]}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def script_server():
    servers = []

    def start(script):
        handler = type("Script", (_ScriptHandler,), {
            "script": script, "statuses": [], "lock": threading.Lock(),
        })
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/v1", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def chat(url, tmp_path, caplog):
    """The answer of a one-cell collection; a failed cell raises the error
    that its warning recorded."""
    d = mini_fixture().subset(["en"])
    d = type(d)(languages=d.languages, qa_items=d.qa_items[:1], few_shot_pool=d.few_shot_pool)
    cfg = CollectionConfig(
        endpoint=url, model="m", shots=0, concurrency=1, max_attempts=3, backoff_base=0.01,
        timeout=10.0,
    )
    answers, _ = collect_answers(d, cfg, tmp_path / "a.jsonl", run_id="t-run")
    ((key, status),) = answers.statuses.items()
    if status == STATUS_FAILED:
        (record,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        raise ProviderError(record.getMessage())
    return answers.answers[key]


def embed(url, tmp_path, caplog):
    cfg = EmbeddingProviderConfig(
        kind="http", endpoint=url, expected_dims=3, max_attempts=3, backoff_base=0.01
    )
    embedder = Embedder(cfg)
    try:
        return embedder.embed_batch(["Paris"]).tolist()
    finally:
        embedder.close()


@pytest.mark.parametrize("client", [chat, embed])
def test_retryable_statuses_are_retried(client, script_server, tmp_path, caplog):
    url, handler = script_server([503, 503])
    assert client(url, tmp_path, caplog) in ("Paris", [[1.0, 0.0, 0.0]])
    assert handler.statuses == [503, 503, 200]


@pytest.mark.parametrize("client", [chat, embed])
def test_other_status_fails_after_one_request(client, script_server, tmp_path, caplog):
    url, handler = script_server([400])
    with pytest.raises(ProviderError, match="HTTP 400") as excinfo:
        client(url, tmp_path, caplog)
    assert not isinstance(excinfo.value, AuthenticationError)
    assert handler.statuses == [400]


@pytest.mark.parametrize("client", [chat, embed])
def test_rejected_credentials_are_fatal(client, script_server, tmp_path, caplog):
    url, handler = script_server([401])
    with pytest.raises(AuthenticationError, match="401"):
        client(url, tmp_path, caplog)
    assert handler.statuses == [401]


def test_backoff_is_jittered_exponential_from_a_fixed_seed():
    waits = [RetryPolicy("test", 4, 0.5).backoff(n) for n in (2, 3, 4)]
    again = [RetryPolicy("test", 4, 0.5).backoff(n) for n in (2, 3, 4)]
    assert waits == again
    for n, wait in zip((2, 3, 4), waits):
        assert 0.5 * 2 ** (n - 2) * 0.5 <= wait < 0.5 * 2 ** (n - 2) * 1.5
