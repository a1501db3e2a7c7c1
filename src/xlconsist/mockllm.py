"""Canned-answer chat-completions endpoint for tests and smoke runs.

Serves the wire format the collection client speaks, answering the last
user message from a question -> answer map (defaults to the bundled
fixture answers). Unknown questions get a stable hash-derived reply so
runs stay deterministic. It speaks HTTP/1.1 and keeps connections alive,
as a real chat endpoint does, so a client reuses each connection it
opens; `stop()` shuts those connections too. Each response goes out in
one write: sent as headers and then body, the body would wait for the
client's delayed ACK under Nagle's algorithm, about 40 ms a request.

    python -m xlconsist.mockllm --port 8089
    python -m xlconsist.mockllm --answers my_answers.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def fallback_answer(question: str) -> str:
    digest = hashlib.sha256(question.encode("utf-8")).hexdigest()
    return f"unknown-{digest[:8]}"


def _shut(sock) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)  # its handler reads EOF and ends
    except OSError:
        pass  # the client closed it first


class MockLLMServer:
    """In-process server; tracks in-flight request high-water mark."""

    def __init__(self, answers: dict[str, str], port: int = 0, latency: float = 0.0):
        self.answers = dict(answers)
        self.latency = latency
        self.request_count = 0
        self.max_in_flight = 0
        self._in_flight = 0
        self._stats_lock = threading.Lock()
        self._open = set()  # kept-alive connections, shut down by stop()
        self._stopped = False
        self._server = ThreadingHTTPServer(("127.0.0.1", port), self._make_handler())
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1/chat/completions"

    def start(self) -> "MockLLMServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        with self._stats_lock:
            self._stopped = True
            for sock in self._open:
                _shut(sock)
        self._server.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            wbufsize = -1  # headers and body leave in one write, on flush

            def setup(self):
                super().setup()
                with server._stats_lock:
                    if server._stopped:
                        _shut(self.connection)
                    server._open.add(self.connection)

            def handle(self):
                try:
                    super().handle()
                except ConnectionResetError:
                    pass  # the client reset the connection: it has ended

            def finish(self):
                with server._stats_lock:
                    server._open.discard(self.connection)
                super().finish()

            def do_POST(self):
                with server._stats_lock:
                    server.request_count += 1
                    server._in_flight += 1
                    server.max_in_flight = max(server.max_in_flight, server._in_flight)
                try:
                    if server.latency:
                        time.sleep(server.latency)
                    length = int(self.headers.get("Content-Length", 0))
                    payload = json.loads(self.rfile.read(length))
                    question = ""
                    for message in reversed(payload.get("messages", [])):
                        if message.get("role") == "user":
                            question = message.get("content", "")
                            break
                    content = server.answers.get(question) or fallback_answer(question)
                    body = json.dumps(
                        {"choices": [{"message": {"role": "assistant", "content": content}}]},
                        ensure_ascii=False,
                    ).encode("utf-8")
                finally:
                    # before the response goes out: once a client has it, it
                    # may send its next request, which must not count this one
                    with server._stats_lock:
                        server._in_flight -= 1
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"ok")

            def log_message(self, *args):
                pass

        return Handler


def _canned_answers(path: Path, parser: argparse.ArgumentParser) -> dict[str, str]:
    """The question -> answer object in the JSON file at `path`; exits 2
    with one line naming the file when it cannot be read or is not one."""
    try:
        answers = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        reason = exc.strerror
    except ValueError as exc:  # not UTF-8 or not JSON
        reason = f"not UTF-8 JSON ({exc})"
    else:
        if isinstance(answers, dict) and all(type(text) is str for text in answers.values()):
            return answers
        reason = "not a JSON object of question -> answer strings"
    parser.exit(2, f"error: --answers {path}: {reason}\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8089)
    parser.add_argument("--answers", type=Path, default=None,
                        help="JSON file mapping question text to answer")
    parser.add_argument("--latency", type=float, default=0.0)
    args = parser.parse_args(argv)

    if args.answers:
        answers = _canned_answers(args.answers, parser)
    else:
        from .fixtures import mini_fixture_answers

        answers = mini_fixture_answers()

    server = MockLLMServer(answers, port=args.port, latency=args.latency)
    print(f"mock chat endpoint on {server.url} ({len(answers)} canned answers)")
    try:
        server.start()._thread.join()
    except KeyboardInterrupt:
        server.stop()


if __name__ == "__main__":
    main()
