"""Retrieval pipelines: the interleaved engine and the vector/rerank baselines."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .embedding import Embedder, EmbeddingIndex, vector_search
from .expand import stex
from .graph import CorpusGraph, View
from .ranked import RankedList
from .rerank import GRankerState, Reranker, granker, rerank_plain


@dataclass(frozen=True)
class FastInsightConfig:
    """Hyperparameters of the interleaved retrieval loop."""

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
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.k_report < 1:
            raise ValueError(f"k_report must be >= 1, got {self.k_report}")


@dataclass
class RetrievalTrace:
    """Per-run bookkeeping: snapshots per iteration, call counts, stage timings."""

    snapshots: List[List[str]] = field(default_factory=list)
    vs_calls: int = 0
    granker_calls: int = 0
    stex_calls: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    initial_vs: Tuple[str, ...] = ()

    def _add(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds


def fastinsight_retrieve(
    q: str,
    g: CorpusGraph,
    index: EmbeddingIndex,
    emb: Embedder,
    rr: Reranker,
    cfg: FastInsightConfig,
    view: View = "undirected",
) -> Tuple[RankedList, RetrievalTrace]:
    """Run the full interleaved retrieval loop.

    Vector-search seeds of size ``batch`` are graph-reranked, then the loop
    alternates frontier expansion (append up to ``batch`` candidates, capped
    at ``budget``) with graph reranking until the budget is reached or the
    frontier empties. Each retrieved document reaches the reranker once: the
    granker calls share one per-query :class:`GRankerState`.
    """
    if g.n_nodes == 0:
        raise ValueError("graph is empty")
    trace = RetrievalTrace()
    state = GRankerState()

    t0 = time.perf_counter()
    v_q = emb.encode_query(q)
    trace._add("embed", time.perf_counter() - t0)

    t0 = time.perf_counter()
    ret = vector_search(v_q, index, cfg.batch)
    trace.vs_calls += 1
    trace._add("vs", time.perf_counter() - t0)
    trace.initial_vs = ret.keys()

    t0 = time.perf_counter()
    ret = granker(q, ret, g, cfg.alpha, rr, view=view, state=state)
    trace.granker_calls += 1
    trace._add("granker", time.perf_counter() - t0)
    trace.snapshots.append(list(ret.keys()))

    while len(ret) < cfg.budget:
        t0 = time.perf_counter()
        additions = stex(v_q, index, g, ret, cfg.beta, view=view)
        trace.stex_calls += 1
        trace._add("stex", time.perf_counter() - t0)
        if len(additions) == 0:
            break
        k_remain = min(len(ret) + cfg.batch, cfg.budget) - len(ret)
        ret = ret.extend(additions.items()[:k_remain])

        t0 = time.perf_counter()
        ret = granker(q, ret, g, cfg.alpha, rr, view=view, state=state)
        trace.granker_calls += 1
        trace._add("granker", time.perf_counter() - t0)
        trace.snapshots.append(list(ret.keys()))

    return ret, trace


def baseline_vs(q: str, index: EmbeddingIndex, emb: Embedder, k: int = 10) -> RankedList:
    """Vector-search baseline: embed the query and take the exact top-k."""
    return vector_search(emb.encode_query(q), index, k)


def baseline_re2(
    q: str,
    index: EmbeddingIndex,
    emb: Embedder,
    rr: Reranker,
    g: CorpusGraph,
    pool: int = 100,
    k: int = 10,
) -> RankedList:
    """Retrieve-then-rerank baseline: vector-search a pool, rerank, keep top-k."""
    if pool < k:
        raise ValueError(f"pool ({pool}) must be >= k ({k})")
    candidates = baseline_vs(q, index, emb, k=pool)
    contents = [g.content(key) for key in candidates.keys()]
    return rerank_plain(q, candidates, rr, k=k, contents=contents)
