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
CACHE_VERSION = 3
DIGEST_SIZE = 16  # bytes of blake2b content digest that key a cache record
_CACHE_HEADER = struct.Struct("<4sIIQ")  # magic, version, dimension, record count: 20 bytes


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


def hash_embed_rows(texts: Sequence[str], d: int = 256) -> np.ndarray:
    """:func:`hash_embed` of each text, bit for bit, as the rows of one matrix.

    Each token is hashed as there; all the digests are read at once, and the
    rows are built by one ``np.bincount`` over ``row * d + bucket``. Every
    bucket is a sum of +/-1, so its sum of squares is an exact integer and
    each row is divided by the same norm as in :func:`hash_embed`.
    """
    if d < 8:
        raise ValueError(f"dimension must be >= 8, got {d}")
    tokens = [_TOKEN_RE.findall(text.lower()) for text in texts]
    blob = b"".join(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
                    for row in tokens for token in row)
    h = np.frombuffer(blob, dtype=">u8")
    rows = np.repeat(np.arange(len(texts)), [len(row) for row in tokens])
    at = rows * d + (h % d).astype(np.intp)
    m = np.bincount(at, weights=np.where(h >> 63, -1.0, 1.0), minlength=len(texts) * d)
    m = m.astype(np.float64, copy=False).reshape(-1, d)  # an empty bincount is int
    norms = np.sqrt((m * m).sum(axis=1))[:, None]
    return np.divide(m, norms, out=m, where=norms > 0)


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
    """Offline embedder backed by :func:`hash_embed`, which encodes one text,
    and :func:`hash_embed_rows`, which encodes a batch; safe for concurrent use."""

    batch_size = 32  # build_index's chunk size; any size gives the same index

    def __init__(self, dimension: int = 256):
        self.dimension = dimension

    def encode_query(self, text: str) -> np.ndarray:
        return hash_embed(text, self.dimension)

    def encode_node(self, text: str) -> np.ndarray:
        return hash_embed(text, self.dimension)

    def encode_nodes(self, texts: Sequence[str]) -> List[np.ndarray]:
        return list(hash_embed_rows(texts, self.dimension))


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
    HTTP, or a body that is not a JSON object with the field that
    :meth:`post` returns raises :class:`RemoteEndpointError`; a connection
    that cannot be made raises ``OSError``.
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

    def post(self, payload: Any, field: str) -> Any:
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
            reply = json.loads(data)
        except ValueError as exc:
            raise RemoteEndpointError(self.url, status, f"reply is not JSON: {exc}") from exc
        if not isinstance(reply, dict) or field not in reply:
            raise RemoteEndpointError(self.url, status, f"reply is not a JSON object with a {field!r} field")
        return reply[field]


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
        vectors = self._http.post({"texts": list(texts)}, "vectors")
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
    with a NaN or infinite entry raises, naming its key. The key -> row dict
    that by-key lookups read is built on the first of them; threads that race
    on it each build an equal dict.
    """

    __slots__ = ("keys", "matrix", "dimension", "_rows")

    def __init__(self, vectors: Dict[str, np.ndarray], dimension: int, normalize: bool = False):
        self.keys: Tuple[str, ...] = tuple(sorted(vectors))
        self.dimension = dimension
        rows = list(map(vectors.__getitem__, self.keys))
        try:
            mat = np.array(rows or np.zeros((0, dimension)), dtype=np.float64)
        except (TypeError, ValueError):  # ragged, or not numbers: the loop below names the key
            mat = np.zeros(0)
        if mat.shape != (len(rows), dimension):
            for key, v in zip(self.keys, rows):
                v = np.asarray(v, dtype=np.float64)
                if v.shape != (dimension,):
                    raise DimensionMismatchError(
                        f"vector for {key!r} has shape {v.shape}, expected ({dimension},)"
                    )
        if normalize:
            # One BLAS dot per row, as np.linalg.norm takes it, so each row is
            # scaled bit for bit as v / np.linalg.norm(v) would be; inf / inf
            # is NaN, rejected below.
            with np.errstate(invalid="ignore"):
                norms = np.sqrt(np.matmul(mat[:, None, :], mat[:, :, None]))[:, 0]
                np.divide(mat, norms, out=mat, where=norms > 0)
        # Scaling keeps a finite vector finite and a non-finite one non-finite.
        bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
        if len(bad):
            raise ValueError(f"vector for {self.keys[bad[0]]!r} has a non-finite entry")
        self.matrix = mat
        self.matrix.setflags(write=False)
        self._rows: Optional[Dict[str, int]] = None

    def __len__(self) -> int:
        return len(self.keys)

    def _row_of(self) -> Dict[str, int]:
        if self._rows is None:
            self._rows = {k: i for i, k in enumerate(self.keys)}
        return self._rows

    def rows(self, names: Sequence[str], ids: np.ndarray) -> np.ndarray:
        """The matrix row of each of the nodes ``ids`` of the key table ``names``
        (:func:`table_rows`); a key the index lacks raises :class:`UnknownNodeError`."""
        return ids if names is self.keys else table_rows(self.keys, self._row_of(), names, ids)

    def vector(self, key: str) -> np.ndarray:
        return self.matrix[key_rows(self._row_of(), (key,))[0]]


def content_digest(text: str) -> bytes:
    """The blake2b digest that keys a node's vector in the cache."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=DIGEST_SIZE).digest()


def write_cache(path: str, vectors: Dict[bytes, np.ndarray], dimension: int) -> None:
    """Persist encoder vectors keyed by content digest: a 20-byte header
    (magic, version, dimension, record count), then per record the digest and
    the vector as ``<f8``.

    The cache is written to ``path + ".tmp"``, synced to disk and then
    renamed over ``path``, so a write cut short leaves the previous cache as
    it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, dimension, len(vectors)))
            for digest, vector in vectors.items():
                fh.write(digest + np.asarray(vector, dtype="<f8").reshape(dimension).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_cache(path: str) -> Tuple[Dict[bytes, np.ndarray], int]:
    """Read a binary vector cache; returns ({content digest: vector}, dimension).

    Records have a fixed size, so the file is checked by one test before any
    record is read: its size must be the header's plus ``count`` records of
    ``16 + 8 * dimension`` bytes. A file that fails it, or has another magic
    or version, raises :class:`CacheInvalidError`.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_CACHE_HEADER.size)
        if head[:4] != CACHE_MAGIC:
            raise CacheInvalidError(f"bad magic in {path!r}: {head[:4]!r}")
        if len(head) < _CACHE_HEADER.size:
            raise CacheInvalidError(f"truncated cache header in {path!r}")
        _, version, d, count = _CACHE_HEADER.unpack(head)
        if version != CACHE_VERSION:
            raise CacheInvalidError(f"unsupported cache version {version} in {path!r}")
        if size != _CACHE_HEADER.size + count * (DIGEST_SIZE + 8 * d):
            raise CacheInvalidError(f"cache {path!r} has {size} bytes, not {count} records of dimension {d}")
        rows = np.frombuffer(fh.read(), np.uint8).reshape(count, DIGEST_SIZE + 8 * d)
    digests = np.ascontiguousarray(rows[:, :DIGEST_SIZE]).view(f"V{DIGEST_SIZE}").ravel().tolist()
    return dict(zip(digests, np.ascontiguousarray(rows[:, DIGEST_SIZE:]).view("<f8").astype(np.float64))), d


def build_index(
    g: CorpusGraph,
    emb: Embedder,
    cache_path: Optional[str] = None,
) -> EmbeddingIndex:
    """Encode every node of the graph into a unit-normalized
    :class:`EmbeddingIndex` whose ``keys`` is ``g.node_keys``.

    Each distinct text of ``g.contents`` is encoded once, through
    ``emb.encode_nodes`` in the id order of its first node, in chunks of
    ``emb.batch_size``, and every node with that text takes its vector. A
    failing chunk, or one answered with another number of vectors than it
    sent, raises :class:`EncoderError` naming its first text's first key.

    With a ``cache_path``, each distinct text's content digest is computed
    once and, when the cache exists, a text whose digest it holds takes the
    cached vector, whatever the node's key; if any text was encoded, the
    cache is rewritten with the current texts' vectors only (one record per
    text). The cache holds the encoder's vectors exactly, so a cached index
    equals a fresh one. A cache with a different dimension raises
    :class:`CacheInvalidError`.
    """
    d = emb.dimension
    first: Dict[str, int] = {}  # each distinct text's first node id, in id order
    for i, text in enumerate(g.contents):
        first.setdefault(text, i)
    vectors: Dict[str, np.ndarray] = {}
    if cache_path is not None:
        digests = {text: content_digest(text) for text in first}
        if os.path.exists(cache_path):
            cached, cache_d = read_cache(cache_path)
            if cache_d != d:
                raise CacheInvalidError(f"cache dimension {cache_d} != embedder dimension {d}")
            vectors = {text: cached[digest] for text, digest in digests.items() if digest in cached}

    todo = [text for text in first if text not in vectors]
    encode, size = emb.encode_nodes, emb.batch_size
    for start in range(0, len(todo), size):
        chunk = todo[start:start + size]
        key = g.node_keys[first[chunk[0]]]
        try:
            got = encode(chunk)
        except Exception as exc:  # noqa: BLE001 - rewrap with the chunk's first key
            raise EncoderError(key, str(exc)) from exc
        if len(got) != len(chunk):
            raise EncoderError(key, f"{len(got)} vectors for {len(chunk)} texts")
        vectors.update(zip(chunk, got))

    index = EmbeddingIndex(dict(zip(g.node_keys, map(vectors.__getitem__, g.contents))), d, normalize=True)
    index.keys = g.node_keys  # the equal sorted tuple: index rows are node ids
    if cache_path is not None and todo:
        write_cache(cache_path, {digests[text]: vectors[text] for text in first}, d)
    return index


def vector_search(v_q: np.ndarray, index: EmbeddingIndex, k: int,
                  out: Optional[np.ndarray] = None) -> RankedList:
    """Exact top-k by dot product over the whole index.

    With unit-normalized vectors (the default index build) the dot product
    coincides with cosine similarity. If k exceeds the index size, all nodes
    are returned, ranked. Ties break by ascending key. A query vector with a
    NaN or infinite entry raises ``ValueError``. ``out``, if given, receives
    every row's score (``index.matrix @ v_q``, float64, ``len(index)`` long).
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
    scores = np.matmul(index.matrix, v_q, out=out)
    return RankedList.top(index.keys, np.arange(len(scores)), scores, k)
