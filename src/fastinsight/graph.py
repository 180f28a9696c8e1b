"""Corpus graph storage, topology queries, and the PageRank search baseline.

Edges are directed on disk, but every reader (degrees, frontiers,
propagation matrices, path metrics, PageRank) sees the undirected graph:
two nodes are neighbors when an edge joins them in either direction. The
graph is stored as integer CSR over node ids in ascending key order, and
personalized PageRank runs as a sparse iteration over it, in O(n + edges)
memory.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
from array import array
from contextlib import ExitStack, contextmanager
from typing import BinaryIO, Dict, Iterable, Iterator, List, Tuple, Union

import numpy as np

from .errors import (
    ConvergenceError,
    GraphFormatError,
    GraphValidationError,
    UnknownNodeError,
)
from .ranked import RankedList, top_rows

logger = logging.getLogger(__name__)

Source = Union[str, bytes, BinaryIO]


class CorpusGraph:
    """Immutable undirected graph whose every node carries a textual content.

    Node ids number the keys in ascending order, the row order of
    ``EmbeddingIndex``. The adjacency is stored as CSR: the neighbor ids of
    node ``i`` are ``indices[indptr[i]:indptr[i + 1]]``, distinct and
    ascending, so every traversal is deterministic. A node's neighbors are
    the nodes an edge joins it to in either direction; :meth:`neighbors`
    serves the same lists as key tuples. The distinct directed edges as
    given are kept only so that :func:`save_graph` writes them back
    unchanged. Instances are safe to share across threads after
    construction.
    """

    __slots__ = ("_content", "_keys", "_index", "_und", "_indptr", "_indices",
                 "_directed", "self_loops_dropped")

    def __init__(
        self,
        nodes: Dict[str, str],
        edges: Iterable[Tuple[str, str]],
        self_loops_dropped: int = 0,
    ):
        content: Dict[str, str] = {}
        for key, text in nodes.items():
            if not key:
                raise GraphValidationError("empty node key")
            content[str(key)] = str(text)
        keys = tuple(sorted(content))
        index = {key: i for i, key in enumerate(keys)}
        n = len(keys)

        codes = array("q")  # src_id * n + dst_id of every kept directed edge
        bad: List[str] = []
        for src, dst in edges:
            i, j = index.get(src), index.get(dst)
            if i is None or j is None:
                bad.extend(k for k in (src, dst) if k not in index)
                continue
            if i == j:
                self_loops_dropped += 1
                continue
            codes.append(i * n + j)
        if bad:
            names = ", ".join(repr(k) for k in sorted(set(bad)))
            raise GraphValidationError(f"edges reference unknown node keys: {names}")

        # Sorted distinct directed codes, then both directions of each, again
        # deduplicated: rows ascend, and neighbor ids ascend within a row.
        directed = _sorted_unique(np.asarray(codes, dtype=np.int64))
        src_ids, dst_ids = np.divmod(directed, n)
        rows, cols = np.divmod(_sorted_unique(np.concatenate([directed, dst_ids * n + src_ids])), n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indptr.flags.writeable = cols.flags.writeable = False

        flat = np.array(keys, dtype=object)[cols].tolist()
        bounds = indptr.tolist()
        self._und = {key: tuple(flat[bounds[i]:bounds[i + 1]]) for i, key in enumerate(keys)}
        self._content = content
        self._keys = keys
        self._index = index
        self._indptr = indptr
        self._indices = cols
        self._directed = directed
        self.self_loops_dropped = self_loops_dropped

    @property
    def node_keys(self) -> Tuple[str, ...]:
        return self._keys

    @property
    def n_nodes(self) -> int:
        return len(self._keys)

    @property
    def n_edges(self) -> int:
        """Distinct directed edges as given, self-loops excluded."""
        return len(self._directed)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer (read-only, length ``n_nodes + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR neighbor ids (read-only), ascending within each row."""
        return self._indices

    def __contains__(self, key: object) -> bool:
        return key in self._content

    def content(self, key: str) -> str:
        try:
            return self._content[key]
        except KeyError:
            raise UnknownNodeError(key) from None

    def neighbors(self, key: str) -> Tuple[str, ...]:
        """Distinct neighbor keys of ``key``, sorted ascending."""
        try:
            return self._und[key]
        except KeyError:
            raise UnknownNodeError(key) from None

    def degree(self, key: str) -> int:
        return len(self.neighbors(key))


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d int array by sort and mask; numpy 2.x's
    hash-based ``np.unique`` is ~80x slower on 700k int64 codes."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


@contextmanager
def _open_source(source: Source) -> Iterator[BinaryIO]:
    """Open a path / bytes / binary stream, transparently decompressing gzip.

    Closes what it opened on exit; a stream passed in by the caller stays open.
    """
    with ExitStack() as stack:
        if isinstance(source, str):
            raw: BinaryIO = stack.enter_context(open(source, "rb"))
        elif isinstance(source, bytes):
            raw = io.BytesIO(source)
        else:
            raw = source
        head = raw.read(2)
        raw.seek(-len(head), io.SEEK_CUR)
        if head == b"\x1f\x8b":
            raw = stack.enter_context(gzip.open(raw))  # type: ignore[arg-type]
        yield raw


def _read_edges(fh: BinaryIO) -> Iterator[Tuple[str, str]]:
    """(src, dst) key pairs of an edges file, one line at a time."""
    for line_no, raw in enumerate(fh, start=1):
        line = raw.decode("utf-8").rstrip("\n\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphFormatError("edges file", line_no, f"expected two tab-separated keys, got {line!r}")
        yield parts[0], parts[1]


def load_graph(nodes_source: Source, edges_source: Source) -> CorpusGraph:
    """Load and validate a corpus graph.

    Nodes: JSON-lines with fields "key" and "content". Edges: tab-separated
    src/dst pairs, no header. Both inputs may be gzip-compressed. Duplicate
    edges are deduplicated; self-loops are dropped (counted on the result);
    edges naming unknown keys raise :class:`GraphValidationError`.
    """
    nodes: Dict[str, str] = {}
    with _open_source(nodes_source) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                key, text = obj["key"], obj["content"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise GraphFormatError("nodes file", line_no, str(exc)) from exc
            if not isinstance(key, str) or not key:
                raise GraphFormatError("nodes file", line_no, "node key must be a non-empty string")
            if key in nodes:
                raise GraphValidationError(f"duplicate node key: {key!r}")
            nodes[key] = text if isinstance(text, str) else str(text)

    with _open_source(edges_source) as fh:
        g = CorpusGraph(nodes, _read_edges(fh))
    if g.self_loops_dropped:
        logger.warning("dropped %d self-loop edge(s) during load", g.self_loops_dropped)
    return g


def save_graph(g: CorpusGraph, nodes_path: str, edges_path: str) -> None:
    """Serialize a graph back to the on-disk formats (round-trip safe)."""
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for key in g.node_keys:
            fh.write(json.dumps({"key": key, "content": g.content(key)}, sort_keys=True))
            fh.write("\n")
    keys = g.node_keys
    src_ids, dst_ids = np.divmod(g._directed, g.n_nodes)
    with open(edges_path, "w", encoding="utf-8") as fh:
        for src, dst in zip(src_ids.tolist(), dst_ids.tolist()):
            fh.write(f"{keys[src]}\t{keys[dst]}\n")


def frontier(g: CorpusGraph, ret: RankedList) -> List[str]:
    """One-hop neighborhood of the retrieved set, minus the set itself.

    Returned ascending by key for deterministic iteration.
    """
    retrieved = set(ret.keys())
    out: set = set()
    for key in retrieved:
        out.update(g.neighbors(key))
    return sorted(out - retrieved)


def _ppr_vector(
    g: CorpusGraph,
    seeds: RankedList,
    restart: float,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """:func:`ppr_scores` as an array indexed by node id."""
    if not 0.0 < restart < 1.0:
        raise ValueError(f"restart probability must be in (0, 1), got {restart}")
    if len(seeds) == 0:
        raise ValueError("seed list is empty")
    n = g.n_nodes

    p0 = np.zeros(n)
    for key, score in seeds:
        if key not in g._index:
            raise UnknownNodeError(key)
        if score < 0:
            raise ValueError(f"negative seed score for {key!r}")
        p0[g._index[key]] += score
    total = p0.sum()
    if total <= 0:
        raise ValueError("seed scores are all zero")
    p0 /= total

    # M p as a sparse mat-vec over the CSR: (M p)_i = sum over neighbors j of
    # p_j / deg_j. Dangling columns (degree 0) are tracked separately.
    deg = np.diff(g.indptr)
    dangling = deg == 0
    inv_deg = np.divide(1.0, deg, out=np.zeros(n), where=~dangling)
    rows = np.repeat(np.arange(n), deg)
    cols = g.indices

    p = p0.copy()
    residual = np.inf
    for _ in range(max_iter):
        loose = p[dangling].sum()
        walk = np.bincount(rows, weights=(p * inv_deg)[cols], minlength=n)
        p_next = (1.0 - restart) * (walk + loose * p0) + restart * p0
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < tol:
            break
    else:
        raise ConvergenceError(residual, max_iter)
    return p


def ppr_scores(
    g: CorpusGraph,
    seeds: RankedList,
    restart: float = 0.15,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> Dict[str, float]:
    """Converged personalized-PageRank score for every node.

    Iterates p = (1 - restart) * (M p + dangling_mass * p0) + restart * p0
    with M the column-normalized transition matrix of the graph and p0 the
    L1-normalized seed score distribution, until the L1 change drops below
    ``tol``. Mass on dangling nodes is redistributed to the seed distribution,
    so scores always sum to 1. M is never formed: each step is one sparse
    mat-vec over the graph's CSR, so memory is O(n + edges).
    """
    p = _ppr_vector(g, seeds, restart, tol, max_iter)
    return dict(zip(g.node_keys, p.tolist()))


def personalized_pagerank(
    g: CorpusGraph,
    seeds: RankedList,
    restart: float = 0.15,
    tol: float = 1e-8,
    k: int = 10,
    max_iter: int = 1000,
) -> RankedList:
    """Top-k nodes outside the seed set by converged personalized-PageRank
    score, ties broken by ascending key."""
    p = _ppr_vector(g, seeds, restart, tol, max_iter)
    keep = np.ones(len(p), dtype=bool)
    keep[[g._index[key] for key in seeds.keys()]] = False
    ids = np.flatnonzero(keep)
    ids = ids[top_rows(p[ids], k)]
    keys = g.node_keys
    return RankedList(zip([keys[i] for i in ids.tolist()], p[ids].tolist()))
