"""Dataset readers, corpus graph storage, topology queries, and the PageRank baseline.

Edges are directed on disk, but every operator (degrees, frontiers,
propagation matrices, path metrics, PageRank) sees the undirected graph:
two nodes are neighbors when an edge joins them in either direction. The
graph is stored as integer CSR over node ids in ascending key order.
Personalized PageRank runs as a sparse iteration over the CSR of the seeds'
connected components only, since no mass can leave them; the component
labels it selects them by are built on its first call.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
import math
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import BinaryIO, Dict, Iterable, Iterator, List, Sequence, Set, Tuple, Union

import numpy as np

from .errors import (
    ConvergenceError,
    GraphFormatError,
    GraphValidationError,
    UnknownNodeError,
)
from .ranked import RankedList, key_rows, table_rows

logger = logging.getLogger(__name__)

Source = Union[str, bytes, BinaryIO]
_LINE_SAFE = frozenset("\t\r\n")  # characters an edges-file key cannot hold


class CorpusGraph:
    """Immutable undirected graph whose every node carries a textual content.

    Node ids number the keys in ascending order, the row order of
    ``EmbeddingIndex``. The adjacency is stored once, as CSR: the neighbor
    ids of node ``i`` are ``indices[indptr[i]:indptr[i + 1]]``, distinct and
    ascending, so every traversal is deterministic. A node's neighbors are
    the nodes an edge joins it to in either direction; :meth:`neighbors`
    and :meth:`degree` read them from the CSR by key. The tuple
    ``path_weights`` holds ``math.log1p(degree)`` of every node id, computed
    once: the node weights of topological recall's path search. The distinct
    directed edges as given are kept only so that :func:`save_graph` writes
    them back unchanged. :attr:`component_labels` is built on first read.
    Instances are safe to share across threads after construction: readers
    that race on the first read each build an equal array, and one of them
    is kept.
    """

    __slots__ = ("_content", "_keys", "_index", "_indptr", "_indices",
                 "_degrees", "path_weights", "_directed", "self_loops_dropped", "_labels")

    def __init__(self, nodes: Dict[str, str], edges: Iterable[Tuple[str, str]]):
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
        self_loops = 0
        for src, dst in edges:
            i, j = index.get(src), index.get(dst)
            if i is None or j is None:
                bad.extend(k for k in (src, dst) if k not in index)
                continue
            if i == j:
                self_loops += 1
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
        degrees = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indptr.flags.writeable = cols.flags.writeable = degrees.flags.writeable = False

        self._content = content
        self._keys = keys
        self._index = index
        self._indptr = indptr
        self._indices = cols
        self._degrees = degrees
        weights = [math.log1p(d) for d in range(int(degrees.max(initial=0)) + 1)]  # one float per degree
        self.path_weights = tuple(map(weights.__getitem__, degrees.tolist()))
        self._directed = directed
        self.self_loops_dropped = self_loops
        self._labels = None

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

    @property
    def degrees(self) -> np.ndarray:
        """Neighbor count of every node id (read-only), ``np.diff(indptr)``."""
        return self._degrees

    @property
    def component_labels(self) -> np.ndarray:
        """Smallest node id in the connected component of every node id
        (read-only), built on first read by :func:`_component_labels`."""
        if self._labels is None:
            self._labels = _component_labels(self._indptr, self._indices)
        return self._labels

    def __contains__(self, key: object) -> bool:
        return key in self._content

    def content(self, key: str) -> str:
        try:
            return self._content[key]
        except KeyError:
            raise UnknownNodeError(key) from None

    def neighbors(self, key: str) -> Tuple[str, ...]:
        """Distinct neighbor keys of ``key``, sorted ascending: its CSR row."""
        (i,) = self.ids((key,))
        return tuple(map(self._keys.__getitem__, self._indices[self._indptr[i]:self._indptr[i + 1]].tolist()))

    def degree(self, key: str) -> int:
        return int(self._degrees[self.ids((key,))[0]])

    def ids(self, keys: Sequence[str]) -> np.ndarray:
        """Node id of each key, in order."""
        return key_rows(self._index, keys)

    def own(self, ret: RankedList) -> RankedList:
        """``ret`` over ``node_keys``: itself if it is, else converted once by
        key; a key the graph lacks raises :class:`UnknownNodeError`."""
        ids = table_rows(self._keys, self._index, ret.names, ret.ids)
        return ret if ids is ret.ids else RankedList.of(self._keys, ids, ret.scores)


def _component_labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Smallest node id of each node's connected component in a symmetric
    CSR, by hook-and-shortcut rounds (Shiloach & Vishkin, J. Algorithms 1982).

    Every node points at a node of its own component with an id no larger
    than its own, at first itself. A round shortcuts each node to the root of
    its tree, then hooks each root under the smallest root next to its tree,
    if smaller. Each tree that is not the smallest of its neighbors is thus
    merged in every round, and one that is, in the next, so the rounds are
    O(log n); they stop when no root moves, and every node then points at
    its component's smallest id.
    """
    label = np.arange(len(indptr) - 1)
    rows = np.flatnonzero(np.diff(indptr))  # reduceat needs non-empty rows
    while len(rows):
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        hooked = label.copy()
        np.minimum.at(hooked, label[rows], np.minimum.reduceat(label[indices], indptr[rows]))
        if np.array_equal(hooked, label):
            break
        label = hooked
    label.flags.writeable = False
    return label


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d int array by sort and mask; numpy 2.x's
    hash-based ``np.unique`` is ~80x slower on 700k int64 codes."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


@contextmanager
def _open_source(source: Source) -> Iterator[BinaryIO]:
    """Open a path / bytes / binary stream (a pipe too), transparently decompressing gzip.

    Closes what it opened on exit; a stream passed in by the caller stays open.
    """
    with ExitStack() as stack:
        if isinstance(source, str):
            raw: BinaryIO = stack.enter_context(open(source, "rb"))
        elif isinstance(source, bytes):
            raw = io.BytesIO(source)
        else:  # a stream that cannot seek back over the gzip sniff is read into memory
            raw = source if source.seekable() else io.BytesIO(source.read())
        head = raw.read(2)
        raw.seek(-len(head), io.SEEK_CUR)
        if head == b"\x1f\x8b":
            raw = stack.enter_context(gzip.open(raw))  # type: ignore[arg-type]
        yield raw


def text_lines(fh: BinaryIO, source: str) -> Iterator[Tuple[int, str]]:
    """(line number, text without its line end or a leading BOM) of each line
    of a UTF-8 file; a line that does not decode raises :class:`GraphFormatError`."""
    for line_no, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(source, line_no, str(exc)) from None
        yield line_no, line.rstrip("\n\r")


def read_records(fh: BinaryIO, source: str, noun: str, key: str, text: str) -> Dict[str, str]:
    """``{record[key]: record[text]}`` over the JSON-object lines of a
    :func:`text_lines` file, blank lines skipped. The key must be a non-empty
    string and the text a string; a line that breaks either rule, or repeats
    a key, raises :class:`GraphFormatError` (``noun`` names the key in it)."""
    out: Dict[str, str] = {}
    for line_no, line in text_lines(fh, source):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            k, t = obj[key], obj[text]
        except (ValueError, KeyError, TypeError) as exc:
            raise GraphFormatError(source, line_no, str(exc)) from exc
        if not isinstance(k, str) or not k:
            raise GraphFormatError(source, line_no, f"{noun} must be a non-empty string")
        if not isinstance(t, str):
            raise GraphFormatError(source, line_no, f"{text!r} must be a string")
        if k in out:
            raise GraphFormatError(source, line_no, f"duplicate {noun} {k!r}")
        out[k] = t
    return out


def tab_rows(fh: BinaryIO, source: str, width: int) -> Iterator[Tuple[int, List[str]]]:
    """(line number, fields) of each non-empty line of a :func:`text_lines`
    file; a line that is not exactly ``width`` tab-separated fields, each
    non-empty, raises :class:`GraphFormatError`."""
    for line_no, line in text_lines(fh, source):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != width or "" in fields:
            raise GraphFormatError(source, line_no, f"not {width} non-empty tab-separated fields: {line!r}")
        yield line_no, fields


def load_graph(nodes_source: Source, edges_source: Source) -> CorpusGraph:
    """Load and validate a corpus graph.

    Nodes: JSON-lines records with fields "key" and "content", read by
    :func:`read_records`. Edges: src/dst key pairs, read by :func:`tab_rows`,
    no header. Both inputs may be gzip-compressed. Duplicate edges are
    deduplicated; self-loops are dropped (counted on the result); edges
    naming unknown keys raise :class:`GraphValidationError`.
    """
    with _open_source(nodes_source) as fh:
        nodes = read_records(fh, "nodes file", "node key", "key", "content")
    with _open_source(edges_source) as fh:
        g = CorpusGraph(nodes, (pair for _, pair in tab_rows(fh, "edges file", 2)))
    if g.self_loops_dropped:
        logger.warning("dropped %d self-loop edge(s) during load", g.self_loops_dropped)
    return g


def load_queries(source: Source) -> List[Tuple[str, str]]:
    """JSON-lines {"id": ..., "text": ...} records (:func:`read_records`),
    returned sorted by id. The file may be gzip-compressed."""
    with _open_source(source) as fh:
        return sorted(read_records(fh, "queries file", "query id", "id", "text").items())


def load_qrels(source: Source) -> Dict[str, Set[str]]:
    """Tab-separated (query id, node key, relevance) rows (:func:`tab_rows`);
    relevance > 0 is gold. The file may be gzip-compressed."""
    qrels: Dict[str, Set[str]] = {}
    with _open_source(source) as fh:
        for line_no, (qid, key, rel) in tab_rows(fh, "qrels file", 3):
            try:
                relevance = float(rel)
            except ValueError as exc:
                raise GraphFormatError("qrels file", line_no, f"bad relevance {rel!r}") from exc
            if relevance > 0:
                qrels.setdefault(qid, set()).add(key)
    return qrels


def save_graph(g: CorpusGraph, nodes_path: str, edges_path: str) -> None:
    """Serialize a graph back to the on-disk formats (round-trip safe).

    A key on an edge that the edges file cannot hold (one with a tab, CR or
    LF, or one that starts with a byte-order mark, which the reader drops)
    raises ``ValueError`` naming it, before either file is written.
    """
    for key, degree in zip(g.node_keys, g.degrees.tolist()):
        if degree and (not _LINE_SAFE.isdisjoint(key) or key.startswith("\ufeff")):
            raise ValueError(f"node key {key!r} cannot be written to the edges file")
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for key in g.node_keys:
            fh.write(json.dumps({"key": key, "content": g.content(key)}, sort_keys=True))
            fh.write("\n")
    keys = g.node_keys
    src_ids, dst_ids = np.divmod(g._directed, g.n_nodes)
    with open(edges_path, "w", encoding="utf-8") as fh:
        for src, dst in zip(src_ids.tolist(), dst_ids.tolist()):
            fh.write(f"{keys[src]}\t{keys[dst]}\n")


@dataclass(frozen=True, eq=False)
class Frontier:
    """Frontier node ids, ascending, with each candidate's |A(n)| (how many
    retrieved nodes neighbor it) and the best, lowest, rank among them."""

    ids: np.ndarray
    adjacent: np.ndarray
    best_rank: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _gather(g: CorpusGraph, own: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR neighbor slices of node ids ``own``, concatenated in that
    order, and for each entry the position in ``own`` of the node whose
    slice holds it."""
    sizes = g.degrees[own]
    owner = np.repeat(np.arange(len(own)), sizes)
    # Entry e of slice s sits at indices[indptr[own[s]] + e - offset of s].
    pos = (g.indptr[own] - (sizes.cumsum() - sizes))[owner]
    pos += np.arange(len(pos))
    return g.indices[pos], owner


def frontier(g: CorpusGraph, ret: RankedList) -> Frontier:
    """One-hop neighborhood of the retrieved set, minus the set itself.

    One pass over the CSR: the retrieved nodes' neighbor slices are gathered
    in rank order, entries pointing back into the set are dropped, and the
    rest are counted per candidate. Returned ascending by id.
    """
    own = g.own(ret).ids
    nbr, owner = _gather(g, own)
    outside = np.ones(g.n_nodes, dtype=bool)
    outside[own] = False
    at = outside[nbr].nonzero()[0]
    nbr = nbr[at]

    adjacent = np.bincount(nbr)
    ids = (adjacent != 0).nonzero()[0]
    best = np.empty(len(adjacent), dtype=np.intp)
    best.fill(len(own) + 1)  # above every rank; stays only off the frontier
    np.minimum.at(best, nbr, owner[at] + 1)
    return Frontier(ids, adjacent[ids], best[ids])


def induced(g: CorpusGraph, own: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """0/1 adjacency of the subgraph induced by the distinct node ids ``own``,
    rows and columns in that order, and each node's full-graph degree with
    zero replaced by 1, as float64. One gather over the CSR."""
    nbr, owner = _gather(g, own)
    col = np.full(g.n_nodes, -1)
    col[own] = np.arange(len(own))
    col = col[nbr]
    inside = col >= 0
    a = np.zeros((len(own), len(own)))
    a[owner[inside], col[inside]] = 1.0
    return a, np.maximum(g.degrees[own], 1).astype(np.float64)


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

    seeds = g.own(seeds)
    scores = seeds.scores
    if not np.isfinite(scores).all():
        raise ValueError(f"non-finite seed score for {seeds.keys()[int(np.argmin(np.isfinite(scores)))]!r}")
    if (scores < 0).any():
        raise ValueError(f"negative seed score for {seeds.keys()[int(np.argmax(scores < 0))]!r}")

    # No mass leaves the seeds' components, so the walk runs on their local
    # CSR (ids ascending, so each row sums its entries in the full graph's
    # order) and the rest of the graph keeps score 0.
    labels = g.component_labels
    keep = np.zeros(n, dtype=bool)
    keep[labels[seeds.ids]] = True
    keep = keep[labels]
    nodes = np.flatnonzero(keep)
    deg = g.degrees[nodes]
    rows = np.repeat(np.arange(len(nodes)), deg)
    # The kept rows' entries are those that name a kept node; each becomes
    # that node's local id.
    cols = (np.cumsum(keep) - 1)[g.indices[keep[g.indices]]]

    p0 = np.zeros(n)
    p0[seeds.ids] = scores
    # Summed over all n ids in id order: its rounding sets the last bit of
    # every score, and so the order of near-tied nodes.
    total = p0.sum()
    if total <= 0:
        raise ValueError("seed scores are all zero")
    p0 = p0[nodes] / total

    # M p as a sparse mat-vec over that CSR: (M p)_i = sum over neighbors j
    # of p_j / deg_j. Dangling columns (degree 0) are tracked separately.
    dangling = np.flatnonzero(deg == 0)
    inv_deg = np.divide(1.0, deg, out=np.zeros(len(nodes)), where=deg != 0)
    teleport = restart * p0
    scaled, spread = np.empty(len(nodes)), np.empty(len(cols))  # reused by every step

    p = p0
    residual = np.inf
    for step in range(1, max_iter + 1):
        loose = p[dangling].sum()
        # cols are in range; "clip" spares take's buffered copy into spread
        np.take(np.multiply(p, inv_deg, out=scaled), cols, out=spread, mode="clip")
        walk = np.bincount(rows, weights=spread, minlength=len(nodes))
        p_next = (1.0 - restart) * (walk + loose * p0) + teleport
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < tol:
            break
    else:
        raise ConvergenceError(residual, max_iter)
    logger.debug("ppr: %d component nodes, %d CSR entries, %d iterations, residual %.3g",
                 len(nodes), len(cols), step, residual)
    out = np.zeros(n)
    out[nodes] = p
    return out


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
    mat-vec over the CSR of the seeds' connected components, the only nodes
    that can hold mass, so a step costs O(their nodes + entries) and every
    other node scores exactly 0.0. The first call on a graph builds its
    :attr:`CorpusGraph.component_labels`.
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
    keep[g.own(seeds).ids] = False
    ids = np.flatnonzero(keep)
    return RankedList.top(g.node_keys, ids, p[ids], k)
