import json
import subprocess
import sys
import threading
import time
import unicodedata
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from xlconsist import embedding
from xlconsist.embedding import (
    Embedder,
    EmbeddingProviderConfig,
    MockProvider,
    VectorCache,
    cache_key,
)
from xlconsist.errors import (
    AuthenticationError,
    CacheFormatError,
    CacheMissError,
    DimensionMismatchError,
    ProviderError,
)

from oracles import read_vector_cache


# -- cache_key --------------------------------------------------------------

def test_cache_key_deterministic():
    assert cache_key("Argentina") == cache_key("Argentina")


def test_cache_key_case_sensitive():
    assert cache_key("Argentina") != cache_key("argentina")


def test_cache_key_nfc_equivalence():
    nfd = unicodedata.normalize("NFD", "é")
    nfc = unicodedata.normalize("NFC", "é")
    assert nfd != nfc
    assert cache_key(nfd) == cache_key(nfc)


# -- VectorCache ------------------------------------------------------------

def _stored(cache, keys):
    """The cache's rows for `keys`, as {key: [floats]}."""
    return {key: row.tolist() for key, row in zip(keys, cache.gather(keys, cache.dims))}


def test_cache_round_trip(tmp_path):
    path = tmp_path / "vectors.bin"
    vectors = {cache_key(f"text {i}"): np.linspace(0, i, 7) for i in range(20)}
    with VectorCache(path) as cache:
        for key, vector in vectors.items():
            cache.put(key, vector)
    expected = {key: vector.astype(np.float32).tolist() for key, vector in vectors.items()}
    assert read_vector_cache(path) == expected
    with VectorCache(path) as cache:
        assert cache.keys() == set(vectors)
        assert _stored(cache, list(vectors)) == expected


def test_cache_reopen_append_reopen(tmp_path):
    path = tmp_path / "vectors.bin"
    with VectorCache(path) as cache:
        cache.put(cache_key("a"), [1.0, 2.0])
    with VectorCache(path) as cache:
        cache.put(cache_key("b"), [3.0, 4.0])
    expected = {cache_key("a"): [1.0, 2.0], cache_key("b"): [3.0, 4.0]}
    assert read_vector_cache(path) == expected
    with VectorCache(path) as cache:
        assert len(cache) == 2
        assert _stored(cache, list(expected)) == expected


_PUT_THEN_CRASH = """
import json, os, sys
from xlconsist.embedding import VectorCache, cache_key
cache = VectorCache(sys.argv[1])
for text, vector in json.loads(sys.argv[2]).items():
    cache.put(cache_key(text), vector)
os._exit(0)  # a crash: nothing after the puts runs
"""


def _put_then_crash(path, vectors):
    """Put `vectors` ({text: list}) into the cache at `path` from a process
    that then dies without closing the cache."""
    src = Path(embedding.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c", _PUT_THEN_CRASH, str(path), json.dumps(vectors)],
        env={"PYTHONPATH": str(src)}, check=True,
    )


def test_cache_survives_truncated_tail(tmp_path):
    path = tmp_path / "vectors.bin"
    _put_then_crash(path, {"kept": [1.0, 2.0, 3.0], "torn": [4.0, 5.0, 6.0]})
    path.write_bytes(path.read_bytes()[:-5])  # tear the last record
    with VectorCache(path) as reopened:
        assert reopened.keys() == {cache_key("kept")}
    _put_then_crash(path, {"new": [7.0, 8.0, 9.0]})  # the torn bytes go first

    expected = {cache_key("kept"): [1.0, 2.0, 3.0], cache_key("new"): [7.0, 8.0, 9.0]}
    with VectorCache(path) as final:
        assert cache_key("torn") not in final
        assert final.keys() == set(expected)
        assert _stored(final, list(expected)) == expected
    assert read_vector_cache(path) == expected


def test_reopen_and_close_without_a_put_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "vectors.bin"
    with VectorCache(path) as cache:
        for i in range(5):
            cache.put(cache_key(f"text {i}"), [float(i)] * 3)
    written = path.read_bytes()
    for _ in range(3):
        with VectorCache(path) as cache:
            assert len(cache) == 5
            cache.put(cache_key("text 0"), [9.0])  # stored already: nothing appended
            cache.gather([cache_key("text 1")], 3)
        assert path.read_bytes() == written


def test_cache_put_is_idempotent(tmp_path):
    path = tmp_path / "vectors.bin"
    with VectorCache(path) as cache:
        cache.put(cache_key("x"), [1.0])
        cache.put(cache_key("x"), [9.0])  # ignored: content-addressed
        assert _stored(cache, [cache_key("x")]) == {cache_key("x"): [1.0]}
    assert read_vector_cache(path) == {cache_key("x"): [1.0]}


def test_cache_rejects_foreign_file(tmp_path):
    version_1 = b"XLCVEC1\n" + b"R" + bytes(32) + b"\x01\x00\x00\x00" + bytes(4)
    for content, message in [
        (b"something else entirely", "is not a vector cache file"),
        (version_1, "re-run `xlconsist embed`"),
    ]:
        path = tmp_path / "not_a_cache.bin"
        path.write_bytes(content)
        with pytest.raises(CacheFormatError, match=message) as excinfo:
            VectorCache(path)
        assert str(path) in str(excinfo.value)
        assert path.read_bytes() == content


def test_gather_equals_the_reference_read_across_reopen(tmp_path):
    path = tmp_path / "vectors.bin"
    rng = np.random.default_rng(3)
    older = {cache_key(f"old {i}"): rng.normal(size=9) for i in range(40)}
    newer = {cache_key(f"new {i}"): rng.normal(size=9) for i in range(40)}
    with VectorCache(path) as cache:
        for key, vector in older.items():
            cache.put(key, vector)
    with VectorCache(path) as cache:
        for key, vector in newer.items():
            cache.put(key, vector)  # appended after the first session's records
        keys = list(newer)[::-3] + list(older) + list(older)[:5]
        rows = cache.gather(keys, 9)
        assert rows.shape == (len(keys), 9) and rows.dtype == np.float64
        reference = read_vector_cache(path)
        assert [row.tolist() for row in rows] == [reference[key] for key in keys]
        assert cache.gather([], 9).shape == (0, 9)
        with pytest.raises(CacheMissError) as excinfo:
            cache.gather([keys[0], cache_key("absent"), keys[1]], 9)
    assert excinfo.value.missing_keys == [cache_key("absent")]


@pytest.mark.parametrize("on_disk", [True, False])
def test_cached_vector_of_another_size_is_refused(tmp_path, on_disk):
    # vectors cached by a 48-dim encoder, read or written by a 64-dim one
    path = tmp_path / "c.bin"
    cache = VectorCache(path if on_disk else None)
    cache.put(cache_key("short"), np.ones(48))
    if on_disk:
        cache.close()
        cache = VectorCache(path)  # the size now comes from the file
    embedder = Embedder(EmbeddingProviderConfig(kind="cache-only", expected_dims=64), cache)
    try:
        for refused in (
            lambda: cache.put(cache_key("long"), np.ones(64)),
            lambda: cache.gather([cache_key("short")], 64),
            lambda: embedder.embed_batch(["short"]),
        ):
            with pytest.raises(DimensionMismatchError) as excinfo:
                refused()
            message = str(excinfo.value)
            assert "48" in message and "64" in message
            assert (str(path) in message) == on_disk
        assert cache.keys() == {cache_key("short")}
    finally:
        cache.close()
    if on_disk:
        assert set(read_vector_cache(path)) == {cache_key("short")}


# -- providers ----------------------------------------------------------------

def test_mock_provider_deterministic():
    cfg = EmbeddingProviderConfig(kind="mock", expected_dims=16, mock_seed=3)
    provider = MockProvider(cfg)
    v1, v2 = provider.fetch(["Argentina", "Argentina"])
    np.testing.assert_array_equal(v1, v2)
    other = MockProvider(EmbeddingProviderConfig(kind="mock", expected_dims=16, mock_seed=4))
    assert not np.array_equal(other.fetch(["Argentina"])[0], v1)


def test_mock_provider_unit_norm_and_synonyms():
    cfg = EmbeddingProviderConfig(
        kind="mock", expected_dims=8, synonyms=(("Argentina", "阿根廷"),)
    )
    provider = MockProvider(cfg)
    va, vzh, vbr = provider.fetch(["Argentina", "阿根廷", "Brazil"])
    np.testing.assert_array_equal(va, vzh)
    assert not np.array_equal(va, vbr)
    assert np.linalg.norm(va) == pytest.approx(1.0, abs=1e-12)


def test_provider_config_validation():
    with pytest.raises(ValueError):
        EmbeddingProviderConfig(kind="carrier-pigeon")
    with pytest.raises(ValueError):
        EmbeddingProviderConfig(expected_dims=0)
    with pytest.raises(ValueError):
        EmbeddingProviderConfig(kind="http")  # endpoint required


def test_provider_config_refuses_an_endpoint_that_is_not_http():
    with pytest.raises(ValueError, match="endpoint 'ftp://host/embed' is not an http"):
        EmbeddingProviderConfig(kind="http", endpoint="ftp://host/embed")
    with pytest.raises(ValueError, match="is not an http"):
        EmbeddingProviderConfig(kind="http", endpoint="http:///embed")  # no host


def test_provider_config_refuses_zero_attempts():
    with pytest.raises(ValueError, match="max_attempts must be >= 1, got 0"):
        EmbeddingProviderConfig(max_attempts=0)


# -- Embedder -----------------------------------------------------------------

def test_embed_batch_orders_and_caches(tmp_path):
    cfg = EmbeddingProviderConfig(kind="mock", expected_dims=12)
    with VectorCache(tmp_path / "c.bin") as cache:
        embedder = Embedder(cfg, cache)
        texts = ["uno", "dos", "uno", "tres"]
        matrix = embedder.embed_batch(texts)
    assert matrix.shape == (4, 12)
    np.testing.assert_array_equal(matrix[0], matrix[2])
    assert embedder.fetched_texts == 3  # "uno" fetched once


def test_cache_only_serves_warm_and_reports_misses(tmp_path):
    path = tmp_path / "c.bin"
    warm = Embedder(EmbeddingProviderConfig(kind="mock", expected_dims=6), VectorCache(path))
    warm.embed_batch(["Argentina"])
    warm.cache.close()

    with VectorCache(path) as cache:
        cold = Embedder(EmbeddingProviderConfig(kind="cache-only", expected_dims=6), cache)
        out = cold.embed_batch(["Argentina"])
        assert out.shape == (1, 6)
        assert cold.fetched_texts == 0

        with pytest.raises(CacheMissError) as exc_info:
            cold.embed_batch(["Argentina", "Brazil"])
    assert cache_key("Brazil") in exc_info.value.missing_keys


def test_warm_cache_means_zero_fetches(tmp_path):
    path = tmp_path / "c.bin"
    cfg = EmbeddingProviderConfig(kind="mock", expected_dims=6)
    first = Embedder(cfg, VectorCache(path))
    a = first.embed_batch(["x", "y", "z"])
    first.cache.close()

    with VectorCache(path) as cache:
        second = Embedder(cfg, cache)
        b = second.embed_batch(["x", "y", "z"])
    assert second.fetched_texts == 0
    np.testing.assert_array_equal(a, b)


class _CountingProvider:
    def __init__(self, dims):
        self.dims = dims
        self.calls = []
        self.gate = threading.Event()

    def fetch(self, texts):
        self.calls.append(list(texts))
        self.gate.wait(timeout=5)
        return [np.full(self.dims, float(len(t))) for t in texts]


def test_inflight_deduplication(tmp_path):
    cfg = EmbeddingProviderConfig(kind="mock", expected_dims=4)
    cache = VectorCache(tmp_path / "c.bin")
    embedder = Embedder(cfg, cache)
    provider = _CountingProvider(4)
    embedder._provider = provider

    results = []

    def worker():
        results.append(embedder.embed_batch(["same text"]))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    provider.gate.set()
    for t in threads:
        t.join()
    cache.close()

    total_fetched = sum(len(call) for call in provider.calls)
    assert total_fetched == 1
    for r in results[1:]:
        np.testing.assert_array_equal(r, results[0])


class _FailFirstProvider:
    """Fails its first fetch once `gate` is set; later fetches succeed."""

    def __init__(self, dims):
        self.dims = dims
        self.calls = []
        self.fetching = threading.Event()
        self.gate = threading.Event()

    def fetch(self, texts):
        self.calls.append(list(texts))
        if len(self.calls) == 1:
            self.fetching.set()
            self.gate.wait(timeout=5)
            raise ProviderError("first fetch fails")
        return [np.full(self.dims, 1.0) for _ in texts]


def test_caller_after_a_failed_fetch_fetches_itself(tmp_path):
    cfg = EmbeddingProviderConfig(kind="mock", expected_dims=4)
    provider = _FailFirstProvider(4)
    outcomes = {}

    def worker(name):
        try:
            outcomes[name] = embedder.embed_batch(["same text"])
        except ProviderError as exc:
            outcomes[name] = exc

    with VectorCache(tmp_path / "c.bin") as cache:
        embedder = Embedder(cfg, cache)
        embedder._provider = provider
        first = threading.Thread(target=worker, args=("first",))
        first.start()
        assert provider.fetching.wait(timeout=5)
        second = threading.Thread(target=worker, args=("second",))
        second.start()
        time.sleep(0.2)  # the second call is waiting for the first one's fetch
        provider.gate.set()
        first.join()
        second.join()
    assert isinstance(outcomes["first"], ProviderError)
    np.testing.assert_array_equal(outcomes["second"], np.ones((1, 4)))
    assert provider.calls == [["same text"], ["same text"]]
    assert embedder.fetched_texts == 1


class _KeepAliveEmbedHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 embed endpoint that records its connections and texts."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.lock:
            self.connections.append(self.client_address)

    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        with self.lock:
            self.texts.extend(texts)
        body = json.dumps({"vectors": [[float(len(t))] * 3 for t in texts]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_concurrent_callers_share_one_connection(cache):
    handler = type("KeepAlive", (_KeepAliveEmbedHandler,), {
        "lock": threading.Lock(), "connections": [], "texts": [],
    })
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    cfg = EmbeddingProviderConfig(
        kind="http", endpoint=f"http://127.0.0.1:{server.server_address[1]}/embed",
        expected_dims=3,
    )
    embedder = Embedder(cfg, cache)
    start = threading.Barrier(4)
    results = {}

    def worker(k):
        start.wait(timeout=5)
        results[k] = embedder.embed_batch([f"text {k}", "shared"])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        embedder.close()
        server.shutdown()
        server.server_close()
    assert len(handler.connections) == 1
    assert sorted(handler.texts) == ["shared"] + [f"text {k}" for k in range(4)]
    assert embedder.fetched_texts == 5
    for k in range(4):
        np.testing.assert_array_equal(results[k][:, 0], [6.0, 6.0])


class _EmbedHandler(BaseHTTPRequestHandler):
    dims = 5
    fail_first = 0
    failures = {"count": 0}
    auth_required = False

    def do_POST(self):
        if self.auth_required and self.headers.get("Authorization") != "Bearer sesame":
            self.send_response(401)
            self.end_headers()
            return
        if self.failures["count"] < self.fail_first:
            self.failures["count"] += 1
            self.send_response(503)
            self.end_headers()
            return
        length = int(self.headers["Content-Length"])
        texts = json.loads(self.rfile.read(length))["texts"]
        vectors = [[float(len(t))] * self.dims for t in texts]
        body = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    handler = type("Handler", (_EmbedHandler,), {"failures": {"count": 0}})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/embed", handler
    server.shutdown()
    server.server_close()


@pytest.fixture
def cache(tmp_path):
    with VectorCache(tmp_path / "c.bin") as opened:
        yield opened


def test_http_provider_happy_path(embed_server, cache):
    endpoint, _ = embed_server
    cfg = EmbeddingProviderConfig(kind="http", endpoint=endpoint, expected_dims=5, batch_size=2)
    embedder = Embedder(cfg, cache)
    matrix = embedder.embed_batch(["ab", "abcd", "a"])
    np.testing.assert_array_equal(matrix[:, 0], [2.0, 4.0, 1.0])


def test_http_provider_retries_then_succeeds(embed_server, cache):
    endpoint, handler = embed_server
    handler.fail_first = 2
    cfg = EmbeddingProviderConfig(
        kind="http", endpoint=endpoint, expected_dims=5, max_attempts=3, backoff_base=0.01
    )
    embedder = Embedder(cfg, cache)
    assert embedder.embed_batch(["hello"]).shape == (1, 5)


def test_http_provider_gives_up(embed_server, cache):
    endpoint, handler = embed_server
    handler.fail_first = 99
    cfg = EmbeddingProviderConfig(
        kind="http", endpoint=endpoint, expected_dims=5, max_attempts=2, backoff_base=0.01
    )
    embedder = Embedder(cfg, cache)
    with pytest.raises(ProviderError):
        embedder.embed_batch(["hello"])


def test_http_provider_auth_failure_is_fatal(embed_server, cache, monkeypatch):
    endpoint, handler = embed_server
    handler.auth_required = True
    cfg = EmbeddingProviderConfig(kind="http", endpoint=endpoint, expected_dims=5)
    embedder = Embedder(cfg, cache)
    with pytest.raises(AuthenticationError):
        embedder.embed_batch(["hello"])
    monkeypatch.setenv(cfg.token_env, "sesame")
    assert embedder.embed_batch(["hello"]).shape == (1, 5)


def test_dimension_mismatch_detected(embed_server, cache):
    endpoint, _ = embed_server  # serves 5 dims
    cfg = EmbeddingProviderConfig(kind="http", endpoint=endpoint, expected_dims=768)
    embedder = Embedder(cfg, cache)
    with pytest.raises(DimensionMismatchError):
        embedder.embed_batch(["hello"])
