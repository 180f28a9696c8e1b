"""Query/node embedders, the vector index, and exact top-k vector search."""

from __future__ import annotations

import hashlib
import os
import re
import struct
import threading
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np
import requests

from .errors import CacheInvalidError, DimensionMismatchError, EncoderError, UnknownNodeError
from .graph import CorpusGraph
from .ranked import RankedList, top_rows

_TOKEN_RE = re.compile(r"[a-z0-9]+")

CACHE_MAGIC = b"GSIX"
CACHE_VERSION = 1


def hash_embed(text: str, d: int = 256) -> np.ndarray:
    """Deterministic signed feature-hashing embedding.

    Lowercase-tokenizes on non-alphanumerics, hashes each token to a bucket
    in [0, d) with a +/-1 sign, accumulates, and L2-normalizes. Texts with
    no tokens map to the zero vector. Identical text always yields the
    identical vector (the hash is content-based, not process-seeded).
    """
    if d < 8:
        raise ValueError(f"dimension must be >= 8, got {d}")
    vec = np.zeros(d, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.lower()):
        h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        vec[h % d] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


class Embedder(Protocol):
    """Text-to-vector encoder; deterministic, fixed output dimension."""

    dimension: int

    def encode_query(self, text: str) -> np.ndarray: ...

    def encode_node(self, text: str) -> np.ndarray: ...


class HashEmbedder:
    """Offline embedder backed by :func:`hash_embed`; safe for concurrent use."""

    def __init__(self, dimension: int = 256):
        self.dimension = dimension
        self.calls = 0  # node-encode counter, used by cache tests

    def encode_query(self, text: str) -> np.ndarray:
        return hash_embed(text, self.dimension)

    def encode_node(self, text: str) -> np.ndarray:
        self.calls += 1
        return hash_embed(text, self.dimension)


class RemoteEmbedder:
    """Embedder backed by an HTTP endpoint.

    POSTs {"texts": [...]} and expects {"vectors": [[...], ...]} back.
    """

    def __init__(self, url: str, dimension: int, batch_size: int = 32, timeout: float = 30.0):
        self.url = url
        self.dimension = dimension
        self.batch_size = batch_size
        self.timeout = timeout
        self._lock = threading.Lock()

    def _encode_batch(self, texts: Sequence[str]) -> List[np.ndarray]:
        resp = requests.post(self.url, json={"texts": list(texts)}, timeout=self.timeout)
        resp.raise_for_status()
        vectors = resp.json()["vectors"]
        out = []
        for v in vectors:
            arr = np.asarray(v, dtype=np.float64)
            if arr.shape != (self.dimension,):
                raise DimensionMismatchError(
                    f"remote embedder returned dimension {arr.shape}, expected ({self.dimension},)"
                )
            out.append(arr)
        return out

    def encode_node(self, text: str) -> np.ndarray:
        # The HTTP contract is not assumed concurrent-safe; serialize calls.
        with self._lock:
            return self._encode_batch([text])[0]

    encode_query = encode_node


class EmbeddingIndex:
    """Immutable node-key -> vector mapping with a dense matrix for search.

    With ``normalize`` each nonzero vector is scaled to unit L2 norm;
    otherwise vectors are stored as given.
    """

    __slots__ = ("keys", "matrix", "dimension", "_rows")

    def __init__(self, vectors: Dict[str, np.ndarray], dimension: int, normalize: bool = False):
        self.keys: Tuple[str, ...] = tuple(sorted(vectors))
        self.dimension = dimension
        mat = np.zeros((len(self.keys), dimension))
        for i, key in enumerate(self.keys):
            v = np.asarray(vectors[key], dtype=np.float64)
            if v.shape != (dimension,):
                raise DimensionMismatchError(
                    f"vector for {key!r} has shape {v.shape}, expected ({dimension},)"
                )
            norm = np.linalg.norm(v) if normalize else 0.0
            mat[i] = v / norm if norm > 0 else v
        self.matrix = mat
        self.matrix.setflags(write=False)
        self._rows = {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    def row(self, key: str) -> int:
        try:
            return self._rows[key]
        except KeyError:
            raise UnknownNodeError(key) from None

    def vector(self, key: str) -> np.ndarray:
        return self.matrix[self.row(key)]


def write_cache(path: str, index: EmbeddingIndex) -> None:
    """Persist index vectors in the binary cache format."""
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<IIQ", CACHE_VERSION, index.dimension, len(index.keys)))
        for i, key in enumerate(index.keys):
            kb = key.encode("utf-8")
            fh.write(struct.pack("<I", len(kb)))
            fh.write(kb)
            fh.write(index.matrix[i].astype("<f4").tobytes())


def read_cache(path: str) -> Tuple[Dict[str, np.ndarray], int]:
    """Read a binary vector cache; returns (vectors, dimension)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise CacheInvalidError(f"bad magic in {path!r}: {magic!r}")
        version, d, count = struct.unpack("<IIQ", fh.read(16))
        if version != CACHE_VERSION:
            raise CacheInvalidError(f"unsupported cache version {version}")
        vectors: Dict[str, np.ndarray] = {}
        for _ in range(count):
            (klen,) = struct.unpack("<I", fh.read(4))
            key = fh.read(klen).decode("utf-8")
            buf = fh.read(4 * d)
            if len(buf) != 4 * d:
                raise CacheInvalidError(f"truncated cache record for {key!r}")
            vectors[key] = np.frombuffer(buf, dtype="<f4").astype(np.float64)
    return vectors, d


def build_index(
    g: CorpusGraph,
    emb: Embedder,
    cache_path: Optional[str] = None,
) -> EmbeddingIndex:
    """Encode every node of the graph into a unit-normalized
    :class:`EmbeddingIndex`.

    When ``cache_path`` exists, cached vectors are reused; only nodes missing
    from the cache are encoded, and the cache is rewritten if anything new was
    encoded. A cache with a different dimension raises
    :class:`CacheInvalidError`.
    """
    d = emb.dimension
    cached: Dict[str, np.ndarray] = {}
    if cache_path is not None:
        if os.path.exists(cache_path):
            cached, cache_d = read_cache(cache_path)
            if cache_d != d:
                raise CacheInvalidError(
                    f"cache dimension {cache_d} != embedder dimension {d}"
                )

    vectors: Dict[str, np.ndarray] = {}
    encoded_any = False
    for key in g.node_keys:
        if key in cached:
            vectors[key] = cached[key]
            continue
        try:
            vectors[key] = emb.encode_node(g.content(key))
        except Exception as exc:  # noqa: BLE001 - rewrap with the node key
            raise EncoderError(key, str(exc)) from exc
        encoded_any = True

    index = EmbeddingIndex(vectors, d, normalize=True)
    if cache_path is not None and encoded_any:
        write_cache(cache_path, index)
    return index


def vector_search(v_q: np.ndarray, index: EmbeddingIndex, k: int) -> RankedList:
    """Exact top-k by dot product over the whole index.

    With unit-normalized vectors (the default index build) the dot product
    coincides with cosine similarity. If k exceeds the index size, all nodes
    are returned, ranked. Ties break by ascending key.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        raise ValueError("index is empty")
    v_q = np.asarray(v_q, dtype=np.float64)
    if v_q.shape != (index.dimension,):
        raise DimensionMismatchError(
            f"query dimension {v_q.shape} != index dimension ({index.dimension},)"
        )
    scores = index.matrix @ v_q
    rows = top_rows(scores, k)  # rows are in ascending key order
    return RankedList(zip([index.keys[i] for i in rows.tolist()], scores[rows].tolist()))
