"""Query/node embedders, the vector index, and exact top-k vector search."""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import os
import re
import struct
import threading
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .errors import CacheInvalidError, DimensionMismatchError, EncoderError, RemoteEndpointError
from .graph import CorpusGraph
from .ranked import RankedList, key_rows, table_rows

_TOKEN_RE = re.compile(r"[a-z0-9]+")

CACHE_MAGIC = b"GSIX"
CACHE_VERSION = 2
DIGEST_SIZE = 16  # bytes of blake2b content digest per cache record

CacheRecords = Dict[str, Tuple[bytes, np.ndarray]]  # key -> (content digest, vector)


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
    """Text-to-vector encoder; deterministic, fixed output dimension.

    ``encode_nodes`` encodes up to ``batch_size`` texts in one call and
    returns one vector per text, in order; :func:`build_index` sends it the
    graph's nodes in chunks of that size.
    """

    dimension: int
    batch_size: int

    def encode_query(self, text: str) -> np.ndarray: ...

    def encode_node(self, text: str) -> np.ndarray: ...

    def encode_nodes(self, texts: Sequence[str]) -> List[np.ndarray]: ...


class HashEmbedder:
    """Offline embedder backed by :func:`hash_embed`; safe for concurrent use."""

    batch_size = 32  # build_index's chunk size; any size gives the same index

    def __init__(self, dimension: int = 256):
        self.dimension = dimension
        self.calls = 0  # node-encode counter, used by cache tests

    def encode_query(self, text: str) -> np.ndarray:
        return hash_embed(text, self.dimension)

    def encode_node(self, text: str) -> np.ndarray:
        self.calls += 1
        return hash_embed(text, self.dimension)

    def encode_nodes(self, texts: Sequence[str]) -> List[np.ndarray]:
        return [self.encode_node(t) for t in texts]


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Leaves a 3xx reply to raise ``HTTPError``: a redirected POST loses its body."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class JsonClient:
    """POSTs JSON to one ``http``/``https`` URL and returns the decoded reply.

    Each request goes out on a connection of its own, through a
    ``urllib.request`` opener built here, so the proxy settings
    (``http_proxy``, ``https_proxy``, with any credentials in the proxy URL)
    are read once per client; a plain-HTTP proxy gets the absolute URL and
    ``https`` is tunnelled. Credentials in the endpoint URL are sent as HTTP
    basic auth and kept out of the request line and of error messages.

    A status outside 2xx (redirects are not followed), a reply that is not
    HTTP, or a body that is not JSON raises :class:`RemoteEndpointError`;
    a connection that cannot be made raises ``OSError``.
    """

    def __init__(self, url: str, timeout: float):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint URL must be http(s)://host/...: {url!r}")
        self._headers = {"Content-Type": "application/json"}
        if parts.username is not None:
            user_pass = f"{urllib.parse.unquote(parts.username)}:" \
                        f"{urllib.parse.unquote(parts.password or '')}"
            self._headers["Authorization"] = \
                "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
            parts = parts._replace(netloc=parts.netloc.rpartition("@")[2])
        self.url = urllib.parse.urlunsplit(parts._replace(fragment=""))
        self.timeout = timeout
        self._open = urllib.request.build_opener(_NoRedirect).open

    def post(self, payload: Any) -> Any:
        req = urllib.request.Request(self.url, json.dumps(payload).encode(), self._headers)
        try:
            with self._open(req, timeout=self.timeout) as resp:
                status, data = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise RemoteEndpointError(self.url, exc.code, f"HTTP {exc.code} {exc.reason}") from exc
        except http.client.HTTPException as exc:
            raise RemoteEndpointError(self.url, None, f"not an HTTP reply: {exc!r}") from exc
        try:
            return json.loads(data)
        except ValueError as exc:
            raise RemoteEndpointError(self.url, status, f"reply is not JSON: {exc}") from exc


class RemoteEmbedder:
    """Embedder backed by an HTTP endpoint.

    POSTs {"texts": [...]} and expects {"vectors": [[...], ...]} back, one
    vector per text. :meth:`encode_nodes` sends all its texts in one request,
    through a :class:`JsonClient`.
    """

    def __init__(self, url: str, dimension: int, batch_size: int = 32, timeout: float = 30.0):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.url = url
        self.dimension = dimension
        self.batch_size = batch_size
        self._http = JsonClient(url, timeout)
        self._lock = threading.Lock()

    def _encode_batch(self, texts: Sequence[str]) -> List[np.ndarray]:
        vectors = self._http.post({"texts": list(texts)})["vectors"]
        if len(vectors) != len(texts):
            raise DimensionMismatchError(
                f"remote embedder returned {len(vectors)} vectors for {len(texts)} texts"
            )
        out = []
        for v in vectors:
            arr = np.asarray(v, dtype=np.float64)
            if arr.shape != (self.dimension,):
                raise DimensionMismatchError(
                    f"remote embedder returned dimension {arr.shape}, expected ({self.dimension},)"
                )
            out.append(arr)
        return out

    def encode_nodes(self, texts: Sequence[str]) -> List[np.ndarray]:
        # The HTTP contract is not assumed concurrent-safe; serialize calls.
        with self._lock:
            return self._encode_batch(texts)

    def encode_node(self, text: str) -> np.ndarray:
        return self.encode_nodes([text])[0]

    encode_query = encode_node


class EmbeddingIndex:
    """Immutable node-key -> vector mapping with a dense matrix for search.

    With ``normalize`` each nonzero vector is scaled to unit L2 norm;
    otherwise vectors are stored as given. A vector of the wrong shape or
    with a NaN or infinite entry raises, naming its key.
    """

    __slots__ = ("keys", "matrix", "dimension", "_rows")

    def __init__(self, vectors: Dict[str, np.ndarray], dimension: int, normalize: bool = False):
        self.keys: Tuple[str, ...] = tuple(sorted(vectors))
        self.dimension = dimension
        mat = np.zeros((len(self.keys), dimension))
        with np.errstate(invalid="ignore"):  # inf / inf is NaN, rejected below
            for i, key in enumerate(self.keys):
                v = np.asarray(vectors[key], dtype=np.float64)
                if v.shape != (dimension,):
                    raise DimensionMismatchError(
                        f"vector for {key!r} has shape {v.shape}, expected ({dimension},)"
                    )
                norm = np.linalg.norm(v) if normalize else 0.0
                mat[i] = v / norm if norm > 0 else v
        # Scaling keeps a finite vector finite and a non-finite one non-finite.
        bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
        if len(bad):
            raise ValueError(f"vector for {self.keys[bad[0]]!r} has a non-finite entry")
        self.matrix = mat
        self.matrix.setflags(write=False)
        self._rows = {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def rows(self, names: Sequence[str], ids: np.ndarray) -> np.ndarray:
        """The matrix row of each of the nodes ``ids`` of the key table ``names``
        (:func:`table_rows`); a key the index lacks raises :class:`UnknownNodeError`."""
        return table_rows(self.keys, self._rows, names, ids)

    def vector(self, key: str) -> np.ndarray:
        return self.matrix[key_rows(self._rows, (key,))[0]]


def content_digest(text: str) -> bytes:
    """The blake2b digest that a cache record keeps of its node's content."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=DIGEST_SIZE).digest()


def write_cache(path: str, records: CacheRecords, dimension: int) -> None:
    """Persist encoder vectors, each with its content digest, as ``<f8``.

    The cache is written to ``path + ".tmp"``, synced to disk and then
    renamed over ``path``, so a write cut short leaves the previous cache as
    it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<IIQ", CACHE_VERSION, dimension, len(records)))
            for key, (digest, vector) in records.items():
                kb = key.encode("utf-8")
                fh.write(struct.pack("<I", len(kb)))
                fh.write(kb)
                fh.write(digest)
                fh.write(np.asarray(vector, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_cache(path: str) -> Tuple[CacheRecords, int]:
    """Read a binary vector cache; returns (records, dimension). A file that
    ends early or holds a key that is not UTF-8 raises :class:`CacheInvalidError`."""
    with open(path, "rb") as fh:
        def take(size: int) -> bytes:
            buf = fh.read(size)
            if len(buf) != size:
                raise CacheInvalidError(f"truncated cache {path!r}")
            return buf

        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise CacheInvalidError(f"bad magic in {path!r}: {magic!r}")
        version, d, count = struct.unpack("<IIQ", take(16))
        if version != CACHE_VERSION:
            raise CacheInvalidError(f"unsupported cache version {version}")
        records: CacheRecords = {}
        for _ in range(count):
            (klen,) = struct.unpack("<I", take(4))
            try:
                key = take(klen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CacheInvalidError(f"cache key is not UTF-8 in {path!r}: {exc}") from None
            digest = take(DIGEST_SIZE)
            records[key] = (digest, np.frombuffer(take(8 * d), dtype="<f8").astype(np.float64))
    return records, d


def build_index(
    g: CorpusGraph,
    emb: Embedder,
    cache_path: Optional[str] = None,
) -> EmbeddingIndex:
    """Encode every node of the graph into a unit-normalized
    :class:`EmbeddingIndex` whose ``keys`` is ``g.node_keys``.

    Nodes are encoded through ``emb.encode_nodes`` in ``node_keys`` order, in
    chunks of ``emb.batch_size``; a failing chunk raises :class:`EncoderError`
    naming its first key.

    When ``cache_path`` exists, a cached vector is reused if its record's
    content digest matches the node's content; every other node is encoded,
    and the cache is rewritten if anything was. The cache holds the encoder's
    vectors exactly, so a cached index equals a fresh one. A cache with a
    different dimension raises :class:`CacheInvalidError`.
    """
    d = emb.dimension
    cached: CacheRecords = {}
    if cache_path is not None and os.path.exists(cache_path):
        cached, cache_d = read_cache(cache_path)
        if cache_d != d:
            raise CacheInvalidError(f"cache dimension {cache_d} != embedder dimension {d}")

    vectors: Dict[str, np.ndarray] = {}
    todo: List[str] = []
    for key in g.node_keys:
        hit = cached.get(key)
        if hit is not None and hit[0] == content_digest(g.content(key)):
            vectors[key] = hit[1]
        else:
            todo.append(key)

    encode, size = emb.encode_nodes, emb.batch_size
    for start in range(0, len(todo), size):
        chunk = todo[start:start + size]
        try:
            vectors.update(zip(chunk, encode([g.content(key) for key in chunk])))
        except Exception as exc:  # noqa: BLE001 - rewrap with the chunk's first key
            raise EncoderError(chunk[0], str(exc)) from exc

    index = EmbeddingIndex(vectors, d, normalize=True)
    index.keys = g.node_keys  # the equal sorted tuple: index rows are node ids
    if cache_path is not None and todo:
        records = {key: (content_digest(g.content(key)), vectors[key]) for key in g.node_keys}
        write_cache(cache_path, records, d)
    return index


def vector_search(v_q: np.ndarray, index: EmbeddingIndex, k: int) -> RankedList:
    """Exact top-k by dot product over the whole index.

    With unit-normalized vectors (the default index build) the dot product
    coincides with cosine similarity. If k exceeds the index size, all nodes
    are returned, ranked. Ties break by ascending key. A query vector with a
    NaN or infinite entry raises ``ValueError``.
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
    if not np.isfinite(v_q).all():
        raise ValueError("query vector has a non-finite entry")
    scores = index.matrix @ v_q
    return RankedList.top(index.keys, np.arange(len(scores)), scores, k)
