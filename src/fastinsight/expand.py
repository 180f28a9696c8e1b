"""Semantic-topological frontier expansion (one hop per call).

Frontier candidates are scored by query similarity plus a weighted
structural score made of two bounded terms: proximity to high-ranked
retrieved nodes and a bridging bonus for candidates adjacent to many
retrieved nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .embedding import EmbeddingIndex
from .graph import CorpusGraph, frontier
from .ranked import RankedList


@dataclass(frozen=True)
class StexScore:
    """Per-candidate score breakdown. i_struct is in [0, 2]."""

    key: str
    i_struct: float
    i_sim: float
    total: float


def stex_scores(
    v_q: np.ndarray,
    index: EmbeddingIndex,
    g: CorpusGraph,
    ret: RankedList,
    beta: float,
) -> List[StexScore]:
    """Score every frontier candidate; returned in (total desc, key asc) order.

    For a candidate n with A(n) its retrieved neighbors (non-empty, since
    that is how n entered the frontier):
      - rank-proximity term 1 - (r_best - 1) / (R_max - 1) when |ret| > 1,
        where r_best is the best (lowest) rank among A(n);
      - bridging term (|A(n)| - 1) / (C_max - 1) when
        C_max = min(deg(n), |ret|) > 1; A(n) holds at most deg(n) and at
        most |ret| nodes, so the term is at most 1;
      - i_sim = v_q . v_n (raw dot product, no rescaling);
      - total = i_sim + beta * i_struct.
    """
    if len(ret) == 0:
        raise ValueError("ranked list is empty")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    candidates = frontier(g, ret)
    if not candidates:
        return []

    v_q = np.asarray(v_q, dtype=np.float64)
    r_max = len(ret)
    retrieved = set(ret.keys())
    scored: List[StexScore] = []
    for key in candidates:
        nbrs = g.neighbors(key)
        adjacent = [v for v in nbrs if v in retrieved]
        i_struct = 0.0
        if r_max > 1:
            r_best = min(ret.rank(v) for v in adjacent)
            i_struct += 1.0 - (r_best - 1) / (r_max - 1)
        c_max = min(len(nbrs), r_max)
        if c_max > 1:
            i_struct += (len(adjacent) - 1) / (c_max - 1)
        i_sim = float(v_q @ index.vector(key))
        scored.append(StexScore(key=key, i_struct=i_struct, i_sim=i_sim,
                                total=i_sim + beta * i_struct))

    scored.sort(key=lambda s: (-s.total, s.key))
    return scored


def stex(
    v_q: np.ndarray,
    index: EmbeddingIndex,
    g: CorpusGraph,
    ret: RankedList,
    beta: float,
) -> RankedList:
    """Rank the one-hop frontier of ``ret``; empty frontier yields an empty list."""
    return RankedList((s.key, s.total) for s in stex_scores(v_q, index, g, ret, beta))
