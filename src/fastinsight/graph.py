"""Corpus graph storage, topology queries, and the PageRank search baseline.

Edges are directed on disk, but every reader (degrees, frontiers,
propagation matrices, path metrics, PageRank) sees the undirected graph:
two nodes are neighbors when an edge joins them in either direction.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
from typing import BinaryIO, Dict, Iterable, List, Tuple, Union

import numpy as np

from .errors import (
    ConvergenceError,
    GraphFormatError,
    GraphValidationError,
    UnknownNodeError,
)
from .ranked import RankedList

logger = logging.getLogger(__name__)

Source = Union[str, bytes, BinaryIO]


class CorpusGraph:
    """Immutable undirected graph whose every node carries a textual content.

    A node's neighbors are the nodes an edge joins it to in either
    direction, pre-indexed and sorted ascending by key, so every traversal
    is deterministic. The directed edges as given are kept only so that
    :func:`save_graph` writes them back unchanged. Instances are safe to
    share across threads after construction.
    """

    __slots__ = ("_content", "_out", "_und", "_keys", "_n_edges", "self_loops_dropped")

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

        edge_set = set()
        bad: List[str] = []
        for src, dst in edges:
            if src not in content or dst not in content:
                bad.extend(k for k in (src, dst) if k not in content)
                continue
            if src == dst:
                self_loops_dropped += 1
                continue
            edge_set.add((src, dst))
        if bad:
            names = ", ".join(repr(k) for k in sorted(set(bad)))
            raise GraphValidationError(f"edges reference unknown node keys: {names}")

        out: Dict[str, List[str]] = {k: [] for k in content}
        und: Dict[str, List[str]] = {k: [] for k in content}
        for src, dst in edge_set:
            out[src].append(dst)
            und[src].append(dst)
            und[dst].append(src)

        self._content = content
        self._out = {k: tuple(sorted(v)) for k, v in out.items()}
        self._und = {k: tuple(sorted(set(v))) for k, v in und.items()}
        self._keys = tuple(sorted(content))
        self._n_edges = len(edge_set)
        self.self_loops_dropped = self_loops_dropped

    @property
    def node_keys(self) -> Tuple[str, ...]:
        return self._keys

    @property
    def n_nodes(self) -> int:
        return len(self._keys)

    @property
    def n_edges(self) -> int:
        return self._n_edges

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


def _open_source(source: Source) -> io.BufferedReader:
    """Open a path / bytes / binary stream, transparently decompressing gzip."""
    if isinstance(source, (str,)):
        raw: BinaryIO = open(source, "rb")
    elif isinstance(source, bytes):
        raw = io.BytesIO(source)
    else:
        raw = source
    head = raw.read(2)
    raw.seek(-len(head), io.SEEK_CUR)
    if head == b"\x1f\x8b":
        return gzip.open(raw)  # type: ignore[return-value]
    return raw  # type: ignore[return-value]


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

    edges: List[Tuple[str, str]] = []
    with _open_source(edges_source) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.decode("utf-8").rstrip("\n\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise GraphFormatError("edges file", line_no, f"expected two tab-separated keys, got {line!r}")
            edges.append((parts[0], parts[1]))

    g = CorpusGraph(nodes, edges)
    if g.self_loops_dropped:
        logger.warning("dropped %d self-loop edge(s) during load", g.self_loops_dropped)
    return g


def save_graph(g: CorpusGraph, nodes_path: str, edges_path: str) -> None:
    """Serialize a graph back to the on-disk formats (round-trip safe)."""
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for key in g.node_keys:
            fh.write(json.dumps({"key": key, "content": g.content(key)}, sort_keys=True))
            fh.write("\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for src in g.node_keys:
            for dst in g._out[src]:
                fh.write(f"{src}\t{dst}\n")


def frontier(g: CorpusGraph, ret: RankedList) -> List[str]:
    """One-hop neighborhood of the retrieved set, minus the set itself.

    Returned ascending by key for deterministic iteration.
    """
    retrieved = set(ret.keys())
    out: set = set()
    for key in retrieved:
        out.update(g.neighbors(key))
    return sorted(out - retrieved)


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
    so scores always sum to 1.
    """
    if not 0.0 < restart < 1.0:
        raise ValueError(f"restart probability must be in (0, 1), got {restart}")
    if len(seeds) == 0:
        raise ValueError("seed list is empty")
    keys = g.node_keys
    index = {key: i for i, key in enumerate(keys)}
    n = len(keys)

    p0 = np.zeros(n)
    for key, score in seeds:
        if key not in index:
            raise UnknownNodeError(key)
        if score < 0:
            raise ValueError(f"negative seed score for {key!r}")
        p0[index[key]] += score
    total = p0.sum()
    if total <= 0:
        raise ValueError("seed scores are all zero")
    p0 /= total

    # Column-stochastic transition matrix; dangling columns tracked separately.
    m = np.zeros((n, n))
    dangling = np.zeros(n, dtype=bool)
    for j, key in enumerate(keys):
        nbrs = g.neighbors(key)
        if not nbrs:
            dangling[j] = True
            continue
        w = 1.0 / len(nbrs)
        for nb in nbrs:
            m[index[nb], j] = w

    p = p0.copy()
    residual = np.inf
    for _ in range(max_iter):
        loose = p[dangling].sum()
        p_next = (1.0 - restart) * (m @ p + loose * p0) + restart * p0
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < tol:
            break
    else:
        raise ConvergenceError(residual, max_iter)

    return {key: float(p[i]) for i, key in enumerate(keys)}


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
    scores = ppr_scores(g, seeds, restart=restart, tol=tol, max_iter=max_iter)
    seed_keys = set(seeds.keys())
    scored = [(key, s) for key, s in scores.items() if key not in seed_keys]
    return RankedList.from_scores(scored, k=k)
