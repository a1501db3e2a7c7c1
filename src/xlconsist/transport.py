"""JSON POST over `http.client`, and the one status and retry policy of
the chat and embedding clients.

One `Transport` per client. The endpoint URL is parsed, and the proxy
resolved from the environment (`HTTP_PROXY`, `HTTPS_PROXY`, `NO_PROXY`),
once. Every connection comes from `connect`, so each goes to the same
target, through the same proxy or `CONNECT` tunnel, with the same
headers. Two ways to use them:

- `post` is one blocking exchange on the transport's one connection,
  reused while the server keeps it alive. Posts must not overlap (the
  embedding client makes them under its lock).
- `send` writes a request on a connection the caller holds and returns
  at once; once the connection's socket is readable, `receive` reads the
  answer. One thread can so keep a request in flight on each of many
  connections (`collect_answers`).

A request that fails on a reused connection before a status line arrives
is resent once on a fresh connection: the server most likely closed it
while it sat idle. TLS verifies certificates and host names against the
system trust store (OpenSSL honours `SSL_CERT_FILE`). Each exchange
returns the status and body of one response.

`RetryPolicy` reads those responses for both clients: 401 and 403 are
fatal, 429 and 5xx gateway statuses and an unparsable body may be
retried after a jittered exponential backoff, and any other status fails
at once. The callers drive the attempts: `collect_answers` from its
selector loop, the embedding client with a blocking sleep.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import random
import ssl
import threading
import urllib.request
from dataclasses import dataclass
from urllib.parse import unquote, urlsplit

from .errors import AuthenticationError, ProviderError, XlconsistError

# what a reused connection that the server has closed raises before any
# status line; http.client.RemoteDisconnected is a ConnectionResetError
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError)


def _basic(username: str, password: str) -> str:
    credentials = f"{unquote(username)}:{unquote(password)}".encode("latin-1")
    return "Basic " + base64.b64encode(credentials).decode("ascii")


def is_http_url(endpoint: str) -> bool:
    """Whether `endpoint` is an http(s) URL with a host, as Transport needs."""
    url = urlsplit(endpoint)
    return url.scheme in ("http", "https") and bool(url.hostname)


class Transport:
    """POSTs JSON to one endpoint over keep-alive connections."""

    def __init__(self, endpoint: str, timeout: float, token_env: str):
        if not is_http_url(endpoint):
            raise XlconsistError(f"endpoint {endpoint!r} is not an http(s) URL")
        url = urlsplit(endpoint)
        self.timeout = timeout
        self.token_env = token_env
        self._context = ssl.create_default_context() if url.scheme == "https" else None
        host, port = url.hostname, url.port or (443 if self._context else 80)
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        self._address = (host, port)
        self._tunnel = None

        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(host):
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                raise XlconsistError(f"proxy {proxy!r} is not an http:// URL")
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            auth = {}
            if proxy_url.username is not None:
                auth["Proxy-Authorization"] = _basic(proxy_url.username, proxy_url.password or "")
            if self._context:
                self._tunnel = (host, port, auth)
            else:
                # a plain-HTTP proxy takes the absolute URI as the request target
                self._target = f"http://{url.netloc.rpartition('@')[2]}{self._target}"
                self._headers.update(auth)

        self._post_conn: http.client.HTTPConnection | None = None
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def connect(self) -> http.client.HTTPConnection:
        """A new connection, opened by its first request; `close` closes it."""
        if self._context:
            conn = http.client.HTTPSConnection(
                *self._address, timeout=self.timeout, context=self._context
            )
        else:
            conn = http.client.HTTPConnection(*self._address, timeout=self.timeout)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        with self._lock:
            self._connections.append(conn)
        return conn

    def post(self, payload) -> tuple[int, bytes]:
        """One exchange on the connection that the first post opens: (HTTP
        status, response body). Not for overlapping calls. Raises OSError
        or http.client.HTTPException when no complete response arrives."""
        if self._post_conn is None:
            self._post_conn = self.connect()
        request = self.send(self._post_conn, payload)
        while True:
            answer = self.receive(request)
            if answer is not None:
                return answer

    def send(self, conn: http.client.HTTPConnection, payload) -> Request:
        """Write one POST on `conn`, which must have no request in flight,
        without waiting for its answer. Raises OSError or
        http.client.HTTPException, with `conn` closed, when it cannot be
        written; a later request on `conn` opens a fresh connection."""
        body = json.dumps(payload, allow_nan=False).encode()
        headers = dict(self._headers)
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = Request(conn, body, headers, conn.sock is not None)
        try:
            conn.request("POST", self._target, body, headers)
        except _STALE_ERRORS:
            if not request.may_resend:
                conn.close()
                raise
            self._resend(request)
        except BaseException:
            conn.close()
            raise
        return request

    def receive(self, request: Request) -> tuple[int, bytes] | None:
        """(HTTP status, response body) of `request`, blocking until the
        whole response is read. None when the reused connection turned out
        closed: the request has been resent on a fresh connection
        (`request.conn.sock` is a new socket), and its answer is awaited
        again. Raises OSError or http.client.HTTPException, with the
        connection closed, when no complete response arrives."""
        conn = request.conn
        try:
            response = conn.getresponse()
            return response.status, response.read()
        except _STALE_ERRORS:
            if not request.may_resend:
                conn.close()
                raise
        except BaseException:
            conn.close()  # the next request opens a fresh one
            raise
        self._resend(request)
        return None

    def _resend(self, request: Request) -> None:
        request.may_resend = False
        request.resent = True
        request.conn.close()
        try:
            request.conn.request("POST", self._target, request.body, request.headers)
        except BaseException:
            request.conn.close()
            raise

    def close(self) -> None:
        """Close every connection; a later post or send reopens its own."""
        with self._lock:
            for conn in self._connections:
                conn.close()


@dataclass(eq=False, slots=True)
class Request:
    """A POST written to `conn` whose answer has not been read yet."""

    conn: http.client.HTTPConnection
    body: bytes
    headers: dict
    may_resend: bool  # written on a reused connection and not resent yet
    resent: bool = False


# statuses after which another attempt may succeed
RETRYABLE = frozenset({429, 500, 502, 503, 504})


class Retryable(ProviderError):
    """A response after which another attempt may succeed."""


# what ends one attempt of a request and leaves the next one to try again
RETRY_ERRORS = (OSError, http.client.HTTPException, Retryable)


class RetryPolicy:
    """How a client reads a response and spaces and ends its attempts."""

    def __init__(self, name: str, max_attempts: int, backoff_base: float, seed: int = 0):
        self.name = name
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._jitter = random.Random(seed)

    def read(self, status: int, body: bytes, parse):
        """`parse` of a 200 response's JSON document. Raises
        AuthenticationError on 401 and 403, `Retryable` on a status in
        RETRYABLE or a body that `parse` cannot read, and ProviderError on
        any other status."""
        if status in (401, 403):
            raise AuthenticationError(f"{self.name} rejected credentials ({status})")
        if status in RETRYABLE:
            raise Retryable(f"HTTP {status}")
        if status != 200:
            raise ProviderError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            return parse(json.loads(body))
        except (ValueError, LookupError, TypeError) as exc:
            raise Retryable(f"malformed {self.name} response: {exc}") from None

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before attempt number `attempt` (2 or more):
        base * 2^(attempt - 2) * (0.5 + U[0, 1))."""
        return self.backoff_base * 2 ** (attempt - 2) * (0.5 + self._jitter.random())

    def exhausted(self, last_error: Exception) -> ProviderError:
        """The error of a request whose attempts ran out."""
        return ProviderError(
            f"{self.name} request failed after {self.max_attempts} attempts: {last_error}"
        )
