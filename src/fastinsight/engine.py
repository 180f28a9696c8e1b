"""Retrieval methods: the interleaved engine and the vs / re2 / ppr baselines.

Every method has the signature ``(q, g, index, emb, rr, cfg) -> (RankedList,
RetrievalTrace)``, embeds the query once (kept as ``trace.query_vector``) and
books its time under the same stage names: ``embed``, ``vs`` (vector
search), ``rerank`` (GRanker or a plain rerank), ``expand`` (STeX or
PageRank). :data:`METHODS` maps each method's name to its function.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .embedding import Embedder, EmbeddingIndex, vector_search
from .expand import stex
from .graph import CorpusGraph, personalized_pagerank
from .ranked import RankedList
from .rerank import GRankerState, Reranker, granker, rerank_pool


@dataclass(frozen=True)
class FastInsightConfig:
    """Hyperparameters of the retrieval methods."""

    batch: int = 10
    alpha: float = 0.2
    beta: float = 1.0
    budget: int = 100
    k_report: int = 10

    def __post_init__(self):
        if not 1 <= self.batch <= self.budget:
            raise ValueError(f"batch must satisfy 1 <= batch <= budget, got {self.batch}/{self.budget}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")
        if self.k_report < 1:
            raise ValueError(f"k_report must be >= 1, got {self.k_report}")


@dataclass
class RetrievalTrace:
    """Per-run bookkeeping: the query vector, its score against every index
    row (``similarities``, read by STeX) and its top-``k_report`` search hits
    (``vs_top``), each iteration's list, call counts and stage timings."""

    snapshots: List[RankedList] = field(default_factory=list)
    granker_calls: int = 0
    stex_calls: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    query_vector: Optional[np.ndarray] = None
    similarities: Optional[np.ndarray] = None
    vs_top: Optional[RankedList] = None

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Add the wall-clock time of the ``with`` body to stage ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + time.perf_counter() - t0


def _seed(q: str, index: EmbeddingIndex, emb: Embedder, k: int,
          k_report: int) -> Tuple[RankedList, RetrievalTrace]:
    """Start a method's trace: embed ``q`` and score it against the index once;
    return the top ``k`` and keep the top ``k_report`` as ``trace.vs_top``.
    Search results are totally ordered, so both are prefixes of one search."""
    trace = RetrievalTrace()
    with trace.stage("embed"):
        trace.query_vector = emb.encode_query(q)
    with trace.stage("vs"):
        trace.similarities = np.empty(len(index))
        top = vector_search(trace.query_vector, index, max(k, k_report), out=trace.similarities)
        trace.vs_top = top.head(k_report)
        ret = top.head(k)
    return ret, trace


def fastinsight_retrieve(
    q: str,
    g: CorpusGraph,
    index: EmbeddingIndex,
    emb: Embedder,
    rr: Reranker,
    cfg: FastInsightConfig,
) -> Tuple[RankedList, RetrievalTrace]:
    """Run the full interleaved retrieval loop.

    Vector-search seeds of size ``batch`` are graph-reranked, then the loop
    alternates frontier expansion (append up to ``batch`` candidates, capped
    at ``budget``) with graph reranking until the budget is reached or the
    frontier empties. Each retrieved document reaches the reranker once: the
    granker calls share one per-query :class:`GRankerState`. Every expansion
    reads the seed search's ``trace.similarities``. The loop passes node ids
    only; keys are resolved once, for the returned list.
    """
    if g.n_nodes == 0:
        raise ValueError("graph is empty")
    ret, trace = _seed(q, index, emb, cfg.batch, cfg.k_report)
    state = GRankerState()

    while True:
        with trace.stage("rerank"):
            ret = granker(q, ret, g, cfg.alpha, rr, state=state)
        trace.granker_calls += 1
        trace.snapshots.append(ret)
        if len(ret) >= cfg.budget:
            break
        with trace.stage("expand"):
            additions = stex(trace.query_vector, index, g, ret, cfg.beta,
                             k=min(cfg.batch, cfg.budget - len(ret)), sims=trace.similarities)
        trace.stex_calls += 1
        if len(additions) == 0:
            break
        ret = ret.concat(additions)
    ret.keys()  # the output boundary: the returned list's keys, resolved once
    return ret, trace


def baseline_vs(q: str, g: CorpusGraph, index: EmbeddingIndex, emb: Embedder,
                rr: Reranker, cfg: FastInsightConfig) -> Tuple[RankedList, RetrievalTrace]:
    """Vector-search baseline: the exact top-``budget``."""
    return _seed(q, index, emb, cfg.budget, cfg.k_report)


def baseline_re2(q: str, g: CorpusGraph, index: EmbeddingIndex, emb: Embedder,
                 rr: Reranker, cfg: FastInsightConfig) -> Tuple[RankedList, RetrievalTrace]:
    """Retrieve-then-rerank baseline: vector-search a pool of ``budget``,
    rerank it, keep the top ``k_report``."""
    if cfg.budget < cfg.k_report:
        raise ValueError(f"pool ({cfg.budget}) must be >= k ({cfg.k_report})")
    pool, trace = _seed(q, index, emb, cfg.budget, cfg.k_report)
    with trace.stage("rerank"):
        ret = rerank_pool(q, pool, g, rr, k=cfg.k_report)
    return ret, trace


def baseline_ppr(q: str, g: CorpusGraph, index: EmbeddingIndex, emb: Embedder,
                 rr: Reranker, cfg: FastInsightConfig) -> Tuple[RankedList, RetrievalTrace]:
    """Personalized-PageRank baseline: ``batch`` vector-search seeds, then the
    best-scored non-seed nodes up to ``budget``, over ``g.node_keys``. Seeds
    that fill the budget are returned without a PageRank run.

    PageRank restarts on the seeds' scores clipped at 0, or uniformly when no
    seed scores above 0; the returned seeds keep their own scores."""
    seeds, trace = _seed(q, index, emb, cfg.batch, cfg.k_report)
    seeds = g.own(seeds)
    if len(seeds) >= cfg.budget:
        return seeds, trace
    weights = np.maximum(seeds.scores, 0.0)
    if not weights.any():
        weights = np.ones(len(seeds))
    with trace.stage("expand"):
        expanded = personalized_pagerank(g, RankedList.of(g.node_keys, seeds.ids, weights),
                                         k=cfg.budget - len(seeds))
    return seeds.concat(expanded), trace


METHODS: Dict[str, Callable[..., Tuple[RankedList, RetrievalTrace]]] = {
    "vs": baseline_vs,
    "re2": baseline_re2,
    "fastinsight": fastinsight_retrieve,
    "ppr": baseline_ppr,
}
