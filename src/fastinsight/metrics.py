"""Retrieval evaluation metrics: capped recall, nDCG, and topological recall.

Topological recall gives partial credit for gold nodes the retriever got
close to: each gold node contributes 1 / (1 + u), where u accumulates
log(1 + degree) along the cheapest node-weighted path from any retrieved
node. Retrieved gold nodes have u = 0; unreachable ones contribute 0.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Set, Tuple, Union

from .errors import GraphFormatError, UnknownNodeError
from .graph import CorpusGraph
from .ranked import RankedList

PathMode = Literal["cost", "hops"]

RetLike = Union[RankedList, Iterable[str]]


def _ret_keys(ret: RetLike) -> Tuple[str, ...]:
    if isinstance(ret, RankedList):
        return ret.keys()
    return tuple(ret)


def seed_path_costs(
    g: CorpusGraph,
    ret_keys: Sequence[str],
    mode: PathMode = "cost",
    targets: Optional[Iterable[str]] = None,
) -> Dict[str, float]:
    """Multi-source node-weighted shortest-path costs from the retrieved set.

    The cost of reaching node v is the sum of log(1 + degree) over every node
    on the path including the seed and v itself. With mode="hops", paths are
    compared by hop count first and accumulated weight second (the
    hop-shortest reading); the returned cost is still the weight sum.

    Without ``targets`` every node reachable from the seeds is returned. With
    ``targets`` the search stops as soon as each target has at least one
    settled neighbor, and only the nodes settled so far are returned.
    Either way the dict lists nodes in settle order, which is non-decreasing
    in (hops, cost), and every cost in it is final.
    """
    step = 1 if mode == "hops" else 0
    weight: Dict[str, float] = {}  # log(1 + degree) of each node touched

    def node_weight(key: str) -> float:
        w = weight.get(key)
        if w is None:
            w = weight[key] = math.log1p(len(g.neighbors(key)))
        return w

    best: Dict[str, Tuple[int, float]] = {}
    for seed in set(ret_keys):
        best[seed] = (0, node_weight(seed))
    heap = [(hops, cost, key) for key, (hops, cost) in best.items()]
    heapq.heapify(heap)

    pending: Optional[Set[str]] = None
    resolves: Dict[str, List[str]] = {}  # node -> targets it is a neighbor of
    if targets is not None:
        pending = set(targets)
        for t in pending:
            for nb in g.neighbors(t):
                resolves.setdefault(nb, []).append(t)

    settled: Dict[str, float] = {}
    while heap and (pending is None or pending):
        hops, cost, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled[node] = cost
        if pending is not None:
            pending.difference_update(resolves.get(node, ()))
        for nb in g.neighbors(node):
            if nb in settled:
                continue
            cand = (hops + step, cost + node_weight(nb))
            if nb not in best or cand < best[nb]:
                best[nb] = cand
                heapq.heappush(heap, cand + (nb,))
    return settled


def uncertainty(
    g: CorpusGraph,
    ret_keys: Iterable[str],
    target: str,
    mode: PathMode = "cost",
) -> float:
    """Accumulated log-degree along the cheapest retrieved-to-target path.

    The seed's own weight is included; the target's is excluded. Targets in
    the retrieved set cost 0; unreachable targets cost infinity.
    """
    if target not in g:
        raise UnknownNodeError(target)
    ret_set = set(ret_keys)
    if target in ret_set:
        return 0.0
    if not ret_set:
        return math.inf
    costs = _costs_to_predecessors(g, tuple(sorted(ret_set)), (target,), mode)
    return costs.get(target, math.inf)


def _costs_to_predecessors(
    g: CorpusGraph,
    ret_keys: Tuple[str, ...],
    targets: Sequence[str],
    mode: PathMode,
) -> Dict[str, float]:
    """u-values of ``targets``: the seed path cost of each one's cheapest
    neighbor. Unreachable targets are left out.

    Nodes settle in non-decreasing (hops, cost) order, so a target's first
    neighbor in settle order is its cheapest one in both modes.
    """
    settled = seed_path_costs(g, ret_keys, mode=mode, targets=targets)
    order = {key: i for i, key in enumerate(settled)}
    out: Dict[str, float] = {}
    for t in targets:
        first = min((nb for nb in g.neighbors(t) if nb in order),
                    key=order.__getitem__, default=None)
        if first is not None:
            out[t] = settled[first]
    return out


def recall_uncapped(ret: RetLike, oracle: Set[str]) -> float:
    """|oracle intersect retrieved| / |oracle| over the full retrieved set."""
    if not oracle:
        raise ValueError("oracle set is empty")
    found = len(oracle & set(_ret_keys(ret)))
    return found / len(oracle)


def capped_recall_at_k(ret: RetLike, oracle: Set[str], k: int) -> float:
    """Recall at k normalized by min(k, |oracle|), so a perfect top-k scores 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not oracle:
        raise ValueError("oracle set is empty")
    top = set(_ret_keys(ret)[:k])
    return len(top & oracle) / min(k, len(oracle))


def ndcg_at_k(ret: RetLike, oracle: Set[str], k: int) -> float:
    """Binary-relevance nDCG at k with 1/log2(rank + 1) discounts."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not oracle:
        raise ValueError("oracle set is empty")
    keys = _ret_keys(ret)[:k]
    dcg = sum(1.0 / math.log2(rank + 1) for rank, key in enumerate(keys, start=1) if key in oracle)
    ideal = sum(1.0 / math.log2(rank + 1) for rank in range(1, min(k, len(oracle)) + 1))
    return dcg / ideal


def tr_and_miss_tr(
    g: CorpusGraph,
    ret: RetLike,
    oracle: Set[str],
    mode: PathMode = "cost",
) -> Tuple[float, float]:
    """Topological recall and its missed-gold component, from one search.

    TR is the mean over gold nodes of 1 / (1 + u), with u = 0 for retrieved
    gold and unreachable nodes contributing 0. miss_tr equals
    (|oracle \\ ret| / |oracle|) * TR(ret, oracle \\ ret), zero when every
    gold node was retrieved. Always tr == recall_uncapped + miss_tr.
    """
    if not oracle:
        raise ValueError("oracle set is empty")
    ret_keys = tuple(sorted(set(_ret_keys(ret))))
    for key in oracle:
        if key not in g:
            raise UnknownNodeError(key)
    if not ret_keys:
        return 0.0, 0.0
    ret_set = set(ret_keys)
    missed = sorted(oracle - ret_set)
    costs = _costs_to_predecessors(g, ret_keys, missed, mode)

    def credit_sum(keys: List[str]) -> float:
        total = 0.0
        for key in keys:  # sorted: a fixed summation order, whatever the set's hash order
            if key in ret_set:
                total += 1.0
            else:
                u = costs.get(key, math.inf)
                if math.isfinite(u):
                    total += 1.0 / (1.0 + u)
        return total

    tr = credit_sum(sorted(oracle)) / len(oracle)
    if not missed:
        return tr, 0.0
    return tr, len(missed) / len(oracle) * (credit_sum(missed) / len(missed))


def topological_recall(g: CorpusGraph, ret: RetLike, oracle: Set[str],
                       mode: PathMode = "cost") -> float:
    """Mean over gold nodes of 1 / (1 + u); unreachable nodes contribute 0."""
    return tr_and_miss_tr(g, ret, oracle, mode)[0]


def miss_tr(g: CorpusGraph, ret: RetLike, oracle: Set[str], mode: PathMode = "cost") -> float:
    """Partial-credit component for gold nodes not retrieved (see
    :func:`tr_and_miss_tr`); zero, without a path search, when every gold
    node was retrieved."""
    if not oracle:
        raise ValueError("oracle set is empty")
    if oracle <= set(_ret_keys(ret)):
        return 0.0
    return tr_and_miss_tr(g, ret, oracle, mode)[1]


def marginal_recall_gain(
    final: RetLike,
    initial_vs: RetLike,
    oracle: Set[str],
    k_total: int,
    k_vs: int,
) -> float:
    """Capped recall of the final list at k_total minus the seed list at k_vs."""
    return capped_recall_at_k(final, oracle, k_total) - capped_recall_at_k(initial_vs, oracle, k_vs)


def load_qrels(path: str) -> Dict[str, Set[str]]:
    """Read tab-separated (query-id, node-key, relevance) rows; relevance > 0 is gold."""
    qrels: Dict[str, Set[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphFormatError("qrels file", line_no, f"expected 3 columns, got {len(parts)}")
            qid, key, rel = parts
            try:
                relevance = float(rel)
            except ValueError as exc:
                raise GraphFormatError("qrels file", line_no, f"bad relevance {rel!r}") from exc
            if relevance > 0:
                qrels.setdefault(qid, set()).add(key)
    return qrels
