import json
import threading
import unicodedata
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from xlconsist.embedding import (
    Embedder,
    EmbeddingProviderConfig,
    MockProvider,
    VectorCache,
    cache_key,
)
from xlconsist.errors import (
    AuthenticationError,
    CacheMissError,
    DimensionMismatchError,
    ProviderError,
)


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

def test_cache_round_trip(tmp_path):
    path = tmp_path / "vectors.bin"
    vectors = {cache_key(f"text {i}"): np.linspace(0, i, 7) for i in range(20)}
    with VectorCache(path) as cache:
        for key, vector in vectors.items():
            cache.put(key, vector)
    with VectorCache(path) as cache:
        assert cache.keys() == set(vectors)
        for key, vector in vectors.items():
            stored = cache.get(key)
            np.testing.assert_array_equal(stored, vector.astype(np.float32).astype(np.float64))


def test_cache_reopen_append_reopen(tmp_path):
    path = tmp_path / "vectors.bin"
    with VectorCache(path) as cache:
        cache.put(cache_key("a"), [1.0, 2.0])
    with VectorCache(path) as cache:
        cache.put(cache_key("b"), [3.0, 4.0])
    with VectorCache(path) as cache:
        assert len(cache) == 2
        np.testing.assert_array_equal(cache.get(cache_key("a")), [1.0, 2.0])
        np.testing.assert_array_equal(cache.get(cache_key("b")), [3.0, 4.0])


def test_cache_survives_truncated_tail(tmp_path):
    path = tmp_path / "vectors.bin"
    cache = VectorCache(path)
    cache.put(cache_key("kept"), [1.0, 2.0, 3.0])
    cache.put(cache_key("torn"), [4.0, 5.0, 6.0])
    cache._append.flush()
    cache._append.close()
    cache._read.close()  # simulate a crash: no footer written
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])  # tear the last record

    reopened = VectorCache(path)
    assert cache_key("kept") in reopened
    assert cache_key("torn") not in reopened
    np.testing.assert_array_equal(reopened.get(cache_key("kept")), [1.0, 2.0, 3.0])
    reopened.put(cache_key("new"), [7.0])
    reopened.close()
    with VectorCache(path) as final:
        assert final.keys() == {cache_key("kept"), cache_key("new")}


def test_cache_put_is_idempotent(tmp_path):
    path = tmp_path / "vectors.bin"
    with VectorCache(path) as cache:
        cache.put(cache_key("x"), [1.0])
        cache.put(cache_key("x"), [9.0])  # ignored: content-addressed
        np.testing.assert_array_equal(cache.get(cache_key("x")), [1.0])


def test_cache_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_a_cache.bin"
    path.write_bytes(b"something else entirely")
    with pytest.raises(ValueError):
        VectorCache(path)


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
