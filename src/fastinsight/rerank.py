"""Two-stage rerankers and graph-smoothed latent fusion.

A reranker is split into latent extraction and head scoring so that latent
vectors can be smoothed over the retrieved subgraph between the two stages:
H' = (1 - alpha) * H + alpha * (P @ H), with P the degree-reciprocal,
row-normalized propagation matrix of the induced subgraph.
"""

from __future__ import annotations

import abc
import functools
import json
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

import numpy as np

from .embedding import JsonClient, hash_embed
from .errors import RerankerError
from .graph import CorpusGraph, induced
from .ranked import RankedList

# A latent batch is a |ret| x d_h float matrix, rows aligned with the ranked
# list the latents were extracted for.
LatentBatch = np.ndarray


class Reranker(abc.ABC):
    """Query-conditioned scorer split into latent extraction and head scoring.

    Both stages must be deterministic per input; the composition
    ``head_scores(extract_latents(...))`` is the plain reranker score.

    A latent row must depend only on its (query, document) pair, not on
    which other documents share the batch or on their order. :func:`granker`
    relies on this to extract each document once per query and reuse the
    row in later calls.
    """

    latent_dim: int

    @abc.abstractmethod
    def extract_latents(self, query: str, contents: Sequence[str]) -> LatentBatch:
        """Return a len(contents) x latent_dim matrix of latent vectors."""

    @abc.abstractmethod
    def head_scores(self, latents: LatentBatch) -> np.ndarray:
        """Map a latent batch to one real score per row."""


class HashReranker(Reranker):
    """Deterministic offline reranker for tests and desk-scale runs.

    Latent = elementwise product of the hash embeddings of query and content;
    the head is a fixed seeded linear layer close to summation, so the score
    approximates the embedding dot product while still exercising a
    non-trivial head.
    """

    def __init__(self, dimension: int = 256):
        self.latent_dim = dimension
        rng = np.random.default_rng(7)
        self.head_weights = 1.0 + 0.01 * rng.standard_normal(dimension)
        self.head_bias = 0.0
        # One memo per reranker, for query and content texts alike; lru_cache
        # is safe under concurrent calls.
        self._embed = functools.lru_cache(maxsize=None)(functools.partial(hash_embed, d=dimension))

    def extract_latents(self, query: str, contents: Sequence[str]) -> LatentBatch:
        rows = [self._embed(text) for text in contents]
        return np.array(rows).reshape(len(rows), self.latent_dim) * self._embed(query)

    def head_scores(self, latents: LatentBatch) -> np.ndarray:
        return latents @ self.head_weights + self.head_bias


class AffineHead:
    """One or two affine layers (ReLU between) loaded from a JSON weights file.

    Single layer: {"weights": [[...], ...], "bias": [...]}.
    Two layers:   {"layers": [{"weights": ..., "bias": ...}, {...}]}.
    Weights are finite (outputs x inputs) matrices that chain, each bias is
    finite with one entry per output, and the final layer has one output; a
    head that breaks a rule raises ``ValueError`` naming the layer.
    """

    def __init__(self, layers: List[tuple]):
        self.layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in layers]
        if not self.layers:
            raise ValueError("affine head has no layer")
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2:
                raise ValueError(f"layer {i}: weights of shape {w.shape} are not a matrix")
            if b.shape != (len(w),):
                raise ValueError(f"layer {i}: bias of shape {b.shape} for {len(w)} outputs")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: a weight or bias is not finite")
            if i and w.shape[1] != len(self.layers[i - 1][0]):
                raise ValueError(f"layer {i}: {w.shape[1]} inputs after {len(self.layers[i - 1][0])} outputs")
        n_out = len(self.layers[-1][0])
        if n_out != 1:
            raise ValueError(f"layer {len(self.layers) - 1}: the final layer has {n_out} outputs, not 1")

    @classmethod
    def from_file(cls, path: str) -> "AffineHead":
        """The head in a JSON weights file; a file of another shape, a layer
        without a "weights" or "bias" field, or one that breaks a rule raises
        ``ValueError`` naming the path (and the field)."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        raw = payload.get("layers", [payload]) if isinstance(payload, dict) else None
        if not isinstance(raw, list):
            raise ValueError(f"head file {path!r} is not an object with 'weights' and 'bias' or a 'layers' list")
        for i, layer in enumerate(raw):
            for field in ("weights", "bias"):
                if not isinstance(layer, dict) or field not in layer:
                    raise ValueError(f"head file {path!r}: layer {i} has no {field!r} field")
        try:
            return cls([(layer["weights"], layer["bias"]) for layer in raw])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"head file {path!r}: {exc}") from exc

    def __call__(self, latents: LatentBatch) -> np.ndarray:
        x = latents
        for i, (w, b) in enumerate(self.layers):
            x = x @ w.T + b
            if i < len(self.layers) - 1:
                x = np.maximum(x, 0.0)
        return x.reshape(len(latents))


class RemoteReranker(Reranker):
    """Reranker whose latents come from an HTTP endpoint.

    POSTs {"query": ..., "documents": [...], "return_latents": true} and
    expects {"latents": [[...], ...]}, through a :class:`JsonClient`.
    Scoring applies a locally loaded :class:`AffineHead` of ``latent_dim`` inputs.
    """

    def __init__(self, url: str, latent_dim: int, head: AffineHead, timeout: float = 60.0):
        if head.layers[0][0].shape[1] != latent_dim:
            raise ValueError(f"head takes {head.layers[0][0].shape[1]} inputs, latents have {latent_dim}")
        self.url = url
        self.latent_dim = latent_dim
        self.head = head
        self._http = JsonClient(url, timeout)

    def extract_latents(self, query: str, contents: Sequence[str]) -> LatentBatch:
        payload = {"query": query, "documents": list(contents), "return_latents": True}
        latents = np.asarray(self._http.post(payload, "latents"), dtype=np.float64)
        if latents.shape != (len(contents), self.latent_dim):
            raise ValueError(
                f"remote reranker returned shape {latents.shape}, "
                f"expected ({len(contents)}, {self.latent_dim})"
            )
        if not np.isfinite(latents).all():
            raise ValueError("remote reranker returned a non-finite latent")
        return latents

    def head_scores(self, latents: LatentBatch) -> np.ndarray:
        return self.head(latents)


@dataclass(frozen=True)
class PropagationMatrix:
    """Row-normalized propagation matrix over a retrieved subgraph.

    Rows listed in ``isolated_rows`` have no in-subgraph neighbor and are
    all-zero; every other row is non-negative and sums to 1.
    """

    matrix: np.ndarray
    isolated_rows: FrozenSet[int]


class GRankerState:
    """Latent rows :func:`granker` has already extracted for one query, reused
    by its later calls; ``_row`` maps node ids to them, -1 if not extracted.

    Rows are kept in insertion order and gathered in the current rank order,
    so a call only extracts the documents that are new to the list. One
    state serves one (query, graph, reranker); :func:`fastinsight_retrieve`
    makes one per call and drops it on return.
    """

    def __init__(self) -> None:
        self._row: Optional[np.ndarray] = None
        self._latents: Optional[LatentBatch] = None

    def latents(self, q: str, ids: np.ndarray, g: CorpusGraph, rr: Reranker) -> LatentBatch:
        """Latent rows of node ``ids`` in that order; only unseen nodes reach the reranker."""
        if self._row is None:
            self._row = np.full(g.n_nodes, -1, dtype=np.intp)
        new = ids[self._row[ids] < 0]  # in list order
        if len(new):
            rows = _extract(q, g, new, rr)
            self._latents = rows if self._latents is None else np.concatenate([self._latents, rows])
            self._row[new] = np.arange(len(self._latents) - len(new), len(self._latents))
        return self._latents[self._row[ids]]


def build_propagation(ret: RankedList, g: CorpusGraph) -> PropagationMatrix:
    """Construct the propagation matrix for the subgraph induced by ``ret``.

    A is the induced (symmetric) adjacency, read from the graph's CSR by
    :func:`~fastinsight.graph.induced`; D holds full-graph degrees (zero
    degrees replaced by 1 to stay invertible; such nodes have empty A rows
    anyway); W = A @ D^-1 weights each neighbor by the reciprocal of its
    full-graph degree; P row-normalizes W. Rows with no neighbor are flagged
    isolated and left all-zero.
    """
    a, deg = induced(g, g.own(ret).ids)
    w = a / deg[np.newaxis, :]
    row_sums = w.sum(axis=1)
    isolated = frozenset(int(i) for i in np.flatnonzero(row_sums == 0.0))
    p = w / np.where(row_sums > 0.0, row_sums, 1.0)[:, np.newaxis]  # isolated rows stay 0
    return PropagationMatrix(matrix=p, isolated_rows=isolated)


def fuse_latents(h: LatentBatch, p: PropagationMatrix, alpha: float) -> LatentBatch:
    """Smooth latent rows over the propagation matrix.

    Non-isolated rows become (1 - alpha) * H + alpha * (P @ H); isolated rows
    are copied through unchanged so missing structure never attenuates the
    semantic signal.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or p.matrix.shape != (len(h), len(h)):
        raise ValueError(f"shape mismatch: H {h.shape}, P {p.matrix.shape}")
    fused = (1.0 - alpha) * h + alpha * (p.matrix @ h)
    if p.isolated_rows:
        idx = list(p.isolated_rows)
        fused[idx] = h[idx]
    return fused


def _extract(q: str, g: CorpusGraph, ids: np.ndarray, rr: Reranker) -> LatentBatch:
    """Latents of the texts of the non-empty batch of node ``ids``, in that
    order; a reranker failure is raised as :class:`RerankerError` naming the
    batch's first key."""
    contents = list(map(g.contents.__getitem__, ids.tolist()))
    try:
        latents = rr.extract_latents(q, contents)
    except Exception as exc:  # noqa: BLE001 - attribute failure to the batch head key
        raise RerankerError(g.node_keys[ids[0]], str(exc)) from exc
    if len(latents) != len(contents):
        raise RerankerError(g.node_keys[ids[0]], f"{len(latents)} latent rows for {len(contents)} documents")
    return latents


def rerank_pool(q: str, ret: RankedList, g: CorpusGraph, rr: Reranker,
                k: Optional[int] = None) -> RankedList:
    """Plain model-based rerank: the top-k graph nodes of ``ret`` by
    head(latent) score, contents taken from the graph. k defaults to |ret|
    and is clamped to it."""
    if len(ret) == 0:
        raise ValueError("ranked list is empty")
    ret = g.own(ret)
    scores = rr.head_scores(_extract(q, g, ret.ids, rr))
    return RankedList.top(g.node_keys, ret.ids, scores, k)


def granker(q: str, ret: RankedList, g: CorpusGraph, alpha: float, rr: Reranker,
            state: Optional[GRankerState] = None) -> RankedList:
    """Graph-aware rerank: extract latents, smooth them over the induced
    subgraph, score with the head, and reorder.

    Output is always a permutation of the input list (no drops); ties break
    by ascending key. A ``state`` kept across the calls of one query lets
    each document reach ``rr.extract_latents`` once; the scores are the same
    as without it.
    """
    if len(ret) == 0:
        raise ValueError("ranked list is empty")
    if state is None:
        state = GRankerState()
    ret = g.own(ret)
    h = state.latents(q, ret.ids, g, rr)
    p = build_propagation(ret, g)
    fused = fuse_latents(h, p, alpha)
    return RankedList.top(g.node_keys, ret.ids, rr.head_scores(fused))
