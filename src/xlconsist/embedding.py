"""Sentence-embedding plumbing: providers, content-addressed cache, batching.

The encoder itself always lives out of process. The HTTP provider speaks a
minimal protocol any encoder can sit behind:

    POST <endpoint>  {"texts": ["...", ...]}
    200              {"vectors": [[...], ...]}     one vector per text, in order

Bearer auth is read from an environment variable (config `token_env`).

Cache file layout (little-endian, append-only):

    magic   b"XLCVEC2\\n"
    dims    u32, written with the first record
    record  sha256(32 raw bytes) + dims * f32, repeated

Every record has the same size, so opening reads the file once and views
the records as one array. A crash can leave only a torn final record, the
bytes past the last whole one; they are ignored, and cut off before the
next append. Without a path the same cache lives in memory only.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
import time
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CacheFormatError, CacheMissError, DimensionMismatchError, ProviderError
from .transport import RETRY_ERRORS, RetryPolicy, Transport, is_http_url

_FILE_MAGIC = b"XLCVEC2\n"
_V1_MAGIC = b"XLCVEC1\n"
_HEADER_BYTES = len(_FILE_MAGIC) + 4
_KEY_BYTES = 32


def cache_key(text: str) -> str:
    """Stable hex digest of the NFC-normalized UTF-8 bytes of `text`."""
    return _digest(unicodedata.normalize("NFC", text))


def _digest(normalized: str) -> str:
    """cache_key of text that is already NFC."""
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


class VectorCache:
    """Key -> float32 vector store of one size, in a file or, with no path,
    in memory; many readers, one writer. The first write of a key wins."""

    def __init__(self, path: str | Path | None = None):
        self.path = None if path is None else Path(path)
        self.dims: int | None = None  # fixed by the first vector
        self._lock = threading.Lock()
        self._rows: dict[bytes, int] = {}  # key -> row of _matrix
        self._matrix = np.zeros((0, 0), dtype="<f4")
        self._size = 0  # rows of _matrix in use
        self._end = len(_FILE_MAGIC)  # end of the last whole record
        self._file = None  # opened by the first append
        if self.path is None:
            return
        if self.path.exists() and self.path.stat().st_size > 0:
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_bytes(_FILE_MAGIC)

    def _load(self):
        data = self.path.read_bytes()
        if data.startswith(_V1_MAGIC):
            raise CacheFormatError(
                f"{self.path} is an old-format (XLCVEC1) vector cache; "
                "re-run `xlconsist embed` to rebuild it"
            )
        if not data.startswith(_FILE_MAGIC):
            raise CacheFormatError(f"{self.path} is not a vector cache file")
        if len(data) < _HEADER_BYTES:
            return  # no record yet, or a torn first one
        (self.dims,) = struct.unpack_from("<I", data, len(_FILE_MAGIC))
        record = _KEY_BYTES + 4 * self.dims
        self._size = (len(data) - _HEADER_BYTES) // record
        self._end = _HEADER_BYTES + self._size * record
        layout = np.dtype([("key", f"V{_KEY_BYTES}"), ("vector", "<f4", (self.dims,))])
        self._matrix = np.frombuffer(data, layout, self._size, _HEADER_BYTES)["vector"]
        for row, start in enumerate(range(_HEADER_BYTES, self._end, record)):
            self._rows.setdefault(data[start : start + _KEY_BYTES], row)

    def __len__(self):
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return bytes.fromhex(key) in self._rows

    def keys(self) -> set[str]:
        return {key.hex() for key in self._rows}

    def _refuse(self, wanted: str):
        where = "the in-memory cache" if self.path is None else str(self.path)
        raise DimensionMismatchError(f"{where} holds {self.dims}-dim vectors, {wanted}")

    def gather(self, keys: list[str], dims: int) -> np.ndarray:
        """The vectors stored under `keys`, one row each, shape (len(keys), dims).

        A cache of another size raises DimensionMismatchError naming both
        sizes; an absent key raises CacheMissError.
        """
        with self._lock:
            if self.dims not in (None, dims):
                self._refuse(f"expected {dims}")
            rows = [self._rows.get(bytes.fromhex(key)) for key in keys]
            missing = [key for key, row in zip(keys, rows) if row is None]
            if missing:
                raise CacheMissError(missing)
            if not rows:
                return np.zeros((0, dims))
            return self._matrix[rows].astype(np.float64)

    def put(self, key: str, vector) -> None:
        raw = bytes.fromhex(key)
        values = np.asarray(vector, dtype="<f4")
        with self._lock:
            if raw in self._rows:
                return  # content-addressed: first write wins
            record = raw + values.tobytes()
            if self.dims is None:
                self.dims = len(values)
                self._matrix = np.zeros((0, self.dims), dtype="<f4")
                record = struct.pack("<I", self.dims) + record
            elif len(values) != self.dims:
                self._refuse(f"not {len(values)}")
            if self.path is not None:
                self._append(record)
            if self._size == len(self._matrix):
                grown = np.empty((max(64, 2 * self._size), self.dims), dtype="<f4")
                grown[: self._size] = self._matrix
                self._matrix = grown
            self._matrix[self._size] = values
            self._rows[raw] = self._size
            self._size += 1

    def _append(self, record: bytes) -> None:
        if self._file is None:
            if self.path.stat().st_size > self._end:
                os.truncate(self.path, self._end)  # cut a torn final record
            self._file = open(self.path, "ab")
        self._file.write(record)
        self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass(frozen=True)
class EmbeddingProviderConfig:
    kind: str = "mock"  # http | cache-only | mock
    endpoint: str | None = None
    expected_dims: int = 32
    batch_size: int = 64
    max_attempts: int = 3
    backoff_base: float = 0.5
    timeout: float = 30.0
    token_env: str = "XLCONSIST_EMBED_TOKEN"
    mock_seed: int = 0
    synonyms: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("http", "cache-only", "mock"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.expected_dims < 1:
            raise ValueError("expected_dims must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.kind == "http" and not self.endpoint:
            raise ValueError("http provider needs an endpoint")
        if self.kind == "http" and not is_http_url(self.endpoint):
            raise ValueError(f"endpoint {self.endpoint!r} is not an http(s) URL")
        object.__setattr__(self, "synonyms", tuple(tuple(g) for g in self.synonyms))

    def describe(self) -> dict:
        return {"kind": self.kind, "endpoint": self.endpoint, "dims": self.expected_dims,
                "seed": self.mock_seed}


class MockProvider:
    """Deterministic unit vector per text, derived purely from a hash.

    Texts listed together in a synonym group embed identically, so tests
    can declare two strings semantically equal.
    """

    def __init__(self, cfg: EmbeddingProviderConfig):
        self.dims = cfg.expected_dims
        self.seed = cfg.mock_seed
        self._canonical: dict[str, str] = {}
        for group in cfg.synonyms:
            for text in group:
                self._canonical[unicodedata.normalize("NFC", text)] = unicodedata.normalize(
                    "NFC", group[0]
                )

    def _vector(self, text: str) -> np.ndarray:
        canon = self._canonical.get(unicodedata.normalize("NFC", text), text)
        base = hashlib.sha256(f"{self.seed}\x00{unicodedata.normalize('NFC', canon)}".encode()).digest()
        raw = b""
        counter = 0
        while len(raw) < self.dims * 4:
            raw += hashlib.sha256(base + struct.pack("<I", counter)).digest()
            counter += 1
        ints = np.frombuffer(raw[: self.dims * 4], dtype="<u4").astype(np.float64)
        vector = ints / 2147483648.0 - 1.0  # uniform in [-1, 1)
        norm = float(np.sqrt(np.sum(vector * vector)))
        return vector / norm

    def fetch(self, texts: list[str]) -> list[np.ndarray]:
        return [self._vector(t) for t in texts]


class CacheOnlyProvider:
    def __init__(self, cfg: EmbeddingProviderConfig):
        self.cfg = cfg

    def fetch(self, texts: list[str]) -> list[np.ndarray]:
        raise CacheMissError([cache_key(t) for t in texts])


class HTTPProvider:
    def __init__(self, cfg: EmbeddingProviderConfig):
        self.cfg = cfg
        self.transport = Transport(cfg.endpoint, cfg.timeout, cfg.token_env)
        self.policy = RetryPolicy("embedding endpoint", cfg.max_attempts, cfg.backoff_base)

    def fetch(self, texts: list[str]) -> list[np.ndarray]:
        last_error: Exception | None = None
        for attempt in range(1, self.policy.max_attempts + 1):
            if attempt > 1:
                time.sleep(self.policy.backoff(attempt))
            try:
                vectors = self.policy.read(*self.transport.post({"texts": texts}), _vectors)
                break
            except RETRY_ERRORS as exc:
                last_error = exc
        else:
            raise self.policy.exhausted(last_error)
        if len(vectors) != len(texts):
            raise ProviderError(f"endpoint returned {len(vectors)} vectors for {len(texts)} texts")
        return [np.asarray(v, dtype=np.float64) for v in vectors]


def _vectors(document) -> list:
    return document["vectors"]


def make_provider(cfg: EmbeddingProviderConfig):
    if cfg.kind == "mock":
        return MockProvider(cfg)
    if cfg.kind == "cache-only":
        return CacheOnlyProvider(cfg)
    return HTTPProvider(cfg)


@dataclass
class Embedder:
    """Batches texts through a provider with a write-through cache.

    embed_batch calls are serialised by one lock, held for the whole call,
    so concurrent callers are safe and each text is fetched once: a later
    caller finds it in the cache. A caller whose fetch fails raises; the
    next caller tries those texts again.
    """

    config: EmbeddingProviderConfig
    cache: VectorCache = field(default_factory=VectorCache)
    fetched_texts: int = 0
    _provider: object = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self):
        self._provider = make_provider(self.config)
        self._lock = threading.Lock()

    def describe(self) -> dict:
        return self.config.describe()

    def close(self) -> None:
        """Close the provider's connections; the cache is the caller's to close."""
        if isinstance(self._provider, HTTPProvider):
            self._provider.transport.close()

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """One row per input text, in order, shape (len(texts), dims)."""
        if not texts:
            return np.zeros((0, self.config.expected_dims))
        normalized = [unicodedata.normalize("NFC", t) for t in texts]
        keys = [_digest(t) for t in normalized]

        with self._lock:
            own: dict[str, str] = {}  # key -> text this call must fetch
            for key, text in zip(keys, normalized):
                if key not in own and key not in self.cache:
                    own[key] = text
            missing = list(own.items())
            for start in range(0, len(missing), self.config.batch_size):
                chunk = missing[start : start + self.config.batch_size]
                vectors = self._provider.fetch([text for _, text in chunk])
                for (key, text), vector in zip(chunk, vectors):
                    vector = np.asarray(vector, dtype=np.float64)
                    if vector.ndim != 1 or len(vector) != self.config.expected_dims:
                        raise DimensionMismatchError(
                            f"provider returned {vector.shape} for expected dims "
                            f"{self.config.expected_dims} (text key {key})"
                        )
                    if not np.all(np.isfinite(vector)):
                        raise ProviderError(f"provider returned non-finite values (key {key})")
                    self.cache.put(key, vector)  # persist before anyone consumes it
                    self.fetched_texts += 1
            return self.cache.gather(keys, self.config.expected_dims)
