"""Semantic-topological frontier expansion (one hop per call).

Frontier candidates are scored by query similarity plus a weighted
structural score made of two bounded terms: proximity to high-ranked
retrieved nodes and a bridging bonus for candidates adjacent to many
retrieved nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .embedding import EmbeddingIndex
from .graph import CorpusGraph, Frontier, frontier
from .ranked import RankedList


@dataclass(frozen=True)
class StexScore:
    """Per-candidate score breakdown. i_struct is in [0, 2]."""

    key: str
    i_struct: float
    i_sim: float
    total: float


def _score(
    v_q: np.ndarray,
    index: EmbeddingIndex,
    g: CorpusGraph,
    ret: RankedList,
    beta: float,
    sims: Optional[np.ndarray] = None,
) -> Tuple[Frontier, np.ndarray, np.ndarray, np.ndarray]:
    """The frontier of ``ret`` with each candidate's i_struct, i_sim and
    total; i_sim is read from ``sims``, by default ``index.matrix @ v_q``."""
    if len(ret) == 0:
        raise ValueError("ranked list is empty")
    if not (beta >= 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    if sims is None:
        sims = index.matrix @ v_q
    elif np.shape(sims) != (len(index),):
        raise ValueError(f"{np.shape(sims)} scores for an index of {len(index)} rows")
    cand = frontier(g, ret)
    r_max = len(ret)
    if r_max > 1:
        i_struct = 1.0 - (cand.best_rank - 1) / (r_max - 1)
    else:
        i_struct = np.zeros(len(cand))
    # C_max = 1 forces |A(n)| = 1, so its bridging term is 0 / 1 = 0.
    c_max = np.minimum(g.degrees[cand.ids], r_max)
    i_struct += (cand.adjacent - 1) / np.maximum(c_max - 1, 1)
    i_sim = sims[index.rows(g.node_keys, cand.ids)]
    return cand, i_struct, i_sim, i_sim + beta * i_struct


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
      - i_sim = v_q . v_n (raw dot product, no rescaling), read from
        ``index.matrix @ v_q``: bit-equal to n's :func:`vector_search` score;
      - total = i_sim + beta * i_struct, with beta finite and non-negative.
    """
    cand, i_struct, i_sim, total = _score(v_q, index, g, ret, beta)
    top = RankedList.top(g.node_keys, cand.ids, total)
    # Candidates ascend by id, so a binary search finds each ranked one.
    order = np.searchsorted(cand.ids, top.ids)
    return [StexScore(*row) for row in zip(
        top.keys(), i_struct[order].tolist(), i_sim[order].tolist(), top.scores.tolist())]


def stex(
    v_q: np.ndarray,
    index: EmbeddingIndex,
    g: CorpusGraph,
    ret: RankedList,
    beta: float,
    k: Optional[int] = None,
    sims: Optional[np.ndarray] = None,
) -> RankedList:
    """Rank the one-hop frontier of ``ret`` by the totals of
    :func:`stex_scores`, optionally truncated to the best ``k``; an empty
    frontier yields an empty list. ``sims``, the scores ``index.matrix @ v_q``
    that :func:`vector_search` writes to its ``out``, saves computing them
    again; one whose length is not ``len(index)`` raises ``ValueError``."""
    cand, _, _, total = _score(v_q, index, g, ret, beta, sims)
    return RankedList.top(g.node_keys, cand.ids, total, k)
