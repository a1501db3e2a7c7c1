"""Sentence-embedding plumbing: providers, content-addressed cache, batching.

The encoder itself always lives out of process. The HTTP provider speaks a
minimal protocol any encoder can sit behind:

    POST <endpoint>  {"texts": ["...", ...]}
    200              {"vectors": [[...], ...]}     one vector per text, in order

Bearer auth is read from an environment variable (config `token_env`).

Cache file layout (little-endian, append-only):

    magic   b"XLCVEC1\\n"
    record  b"R" + sha256(32 raw bytes) + u32 dims + dims * f32
    index   b"I" + u64 count + count * (key 32 + u64 record offset)
            + u64 index offset + b"XLCFTR1\\n"

Records are appended as they arrive; a fresh index block is appended on
clean close, unless the file already ends with the index of every record
(nothing was appended since a footer was read). Reopening checks for a
trailing footer (fast path) and falls back to a full scan that skips
stale interior index blocks and tolerates a truncated final record, so a
crashed run never loses committed vectors.
"""

from __future__ import annotations

import hashlib
import mmap
import struct
import threading
import time
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CacheMissError, DimensionMismatchError, ProviderError
from .transport import RETRY_ERRORS, RetryPolicy, Transport, is_http_url

_FILE_MAGIC = b"XLCVEC1\n"
_FOOTER_MAGIC = b"XLCFTR1\n"
_KEY_BYTES = 32


def cache_key(text: str) -> str:
    """Stable hex digest of the NFC-normalized UTF-8 bytes of `text`."""
    return _digest(unicodedata.normalize("NFC", text))


def _digest(normalized: str) -> str:
    """cache_key of text that is already NFC."""
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


class VectorCache:
    """Persistent key -> float32 vector store; many readers, one writer."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.RLock()
        self._offsets: dict[bytes, int] = {}  # key -> offset of the record tag
        self._closed = False
        # close() writes an index only when the file's last one is missing or stale
        self._index_stale = False
        if self.path.exists() and self.path.stat().st_size > 0:
            self._load_existing()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as handle:
                handle.write(_FILE_MAGIC)
        self._append = open(self.path, "ab")
        self._read = open(self.path, "rb")

    # -- loading ----------------------------------------------------------

    def _load_existing(self):
        with open(self.path, "rb") as handle:
            if handle.read(len(_FILE_MAGIC)) != _FILE_MAGIC:
                raise ValueError(f"{self.path} is not a vector cache file")
            size = self.path.stat().st_size
            if self._try_footer(handle, size):
                return
            self._full_scan(handle, size)

    def _try_footer(self, handle, size) -> bool:
        if size < len(_FILE_MAGIC) + 17:
            return False
        handle.seek(size - 16)
        tail = handle.read(16)
        if tail[8:] != _FOOTER_MAGIC:
            return False
        (index_offset,) = struct.unpack("<Q", tail[:8])
        if index_offset >= size - 16:
            return False
        handle.seek(index_offset)
        if handle.read(1) != b"I":
            return False
        (count,) = struct.unpack("<Q", handle.read(8))
        expected_end = index_offset + 1 + 8 + count * (_KEY_BYTES + 8) + 16
        if expected_end != size:
            return False  # records were appended after this footer
        for _ in range(count):
            entry = handle.read(_KEY_BYTES + 8)
            key = entry[:_KEY_BYTES]
            (offset,) = struct.unpack("<Q", entry[_KEY_BYTES:])
            self._offsets[key] = offset
        return True

    def _full_scan(self, handle, size):
        self._index_stale = True
        pos = len(_FILE_MAGIC)
        while pos < size:
            handle.seek(pos)
            tag = handle.read(1)
            if tag == b"R":
                header = handle.read(_KEY_BYTES + 4)
                if len(header) < _KEY_BYTES + 4:
                    break  # truncated record tail, drop it
                key = header[:_KEY_BYTES]
                (dims,) = struct.unpack("<I", header[_KEY_BYTES:])
                end = pos + 1 + _KEY_BYTES + 4 + dims * 4
                if end > size:
                    break
                self._offsets[key] = pos
                pos = end
            elif tag == b"I":
                raw = handle.read(8)
                if len(raw) < 8:
                    break
                (count,) = struct.unpack("<Q", raw)
                pos += 1 + 8 + count * (_KEY_BYTES + 8) + 16
            else:
                break  # unknown or torn tag; ignore the tail

    # -- access -----------------------------------------------------------

    def __len__(self):
        return len(self._offsets)

    def __contains__(self, key: str) -> bool:
        return bytes.fromhex(key) in self._offsets

    def keys(self) -> set[str]:
        return {key.hex() for key in self._offsets}

    def get(self, key: str) -> np.ndarray | None:
        offset = self._offsets.get(bytes.fromhex(key))
        if offset is None:
            return None
        with self._lock:
            self._read.seek(offset + 1 + _KEY_BYTES)
            (dims,) = struct.unpack("<I", self._read.read(4))
            payload = self._read.read(dims * 4)
        return np.frombuffer(payload, dtype="<f4").astype(np.float64)

    def gather(self, keys: list[str], dims: int) -> np.ndarray:
        """The vectors stored under `keys`, one row each, shape (len(keys), dims).

        One pass over a read-only map of the file reads only the needed
        records. An absent key raises CacheMissError; a record of another
        size raises DimensionMismatchError naming its key and both sizes.
        """
        offsets = [self._offsets.get(bytes.fromhex(key)) for key in keys]
        missing = [key for key, offset in zip(keys, offsets) if offset is None]
        if missing:
            raise CacheMissError(missing)
        width = 4 * dims
        payloads = []
        with self._lock, mmap.mmap(self._read.fileno(), 0, access=mmap.ACCESS_READ) as view:
            for key, offset in zip(keys, offsets):
                start = offset + 1 + _KEY_BYTES
                (stored,) = struct.unpack_from("<I", view, start)
                if stored != dims:
                    raise DimensionMismatchError(
                        f"cached vector {key} has {stored} dims, expected {dims}"
                    )
                payloads.append(view[start + 4 : start + 4 + width])
        rows = np.frombuffer(b"".join(payloads), dtype="<f4").astype(np.float64)
        return rows.reshape(len(keys), dims)

    def put(self, key: str, vector) -> None:
        raw = bytes.fromhex(key)
        with self._lock:
            if raw in self._offsets:
                return  # content-addressed: first write wins
            values = np.asarray(vector, dtype="<f4")
            offset = self._append.tell()
            self._append.write(b"R" + raw + struct.pack("<I", len(values)) + values.tobytes())
            self._append.flush()
            self._offsets[raw] = offset
            self._index_stale = True

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            if self._index_stale:
                index_offset = self._append.tell()
                self._append.write(b"I" + struct.pack("<Q", len(self._offsets)))
                for key, offset in self._offsets.items():
                    self._append.write(key + struct.pack("<Q", offset))
                self._append.write(struct.pack("<Q", index_offset) + _FOOTER_MAGIC)
                self._append.flush()
            self._append.close()
            self._read.close()
            self._closed = True

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
        return {"kind": self.kind, "endpoint": self.endpoint, "dims": self.expected_dims}


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


class _DictCache:
    """Ephemeral stand-in when no on-disk cache is configured."""

    def __init__(self):
        self._data: dict[str, np.ndarray] = {}

    def __contains__(self, key):
        return key in self._data

    def gather(self, keys, dims):
        """Same contract as VectorCache.gather."""
        rows = [self._data.get(key) for key in keys]
        missing = [key for key, row in zip(keys, rows) if row is None]
        if missing:
            raise CacheMissError(missing)
        for key, row in zip(keys, rows):
            if len(row) != dims:
                raise DimensionMismatchError(
                    f"cached vector {key} has {len(row)} dims, expected {dims}"
                )
        return np.array(rows, dtype=np.float64).reshape(len(keys), dims)

    def put(self, key, vector):
        self._data.setdefault(key, np.asarray(vector, dtype=np.float64))


@dataclass
class Embedder:
    """Batches texts through a provider with a write-through cache.

    embed_batch calls are serialised by one lock, held for the whole call,
    so concurrent callers are safe and each text is fetched once: a later
    caller finds it in the cache. A caller whose fetch fails raises; the
    next caller tries those texts again.
    """

    config: EmbeddingProviderConfig
    cache: VectorCache | _DictCache | None = None
    fetched_texts: int = 0
    _provider: object = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self):
        if self.cache is None:
            self.cache = _DictCache()
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
