"""Retrieval evaluation metrics: capped recall, nDCG, and topological recall.

Topological recall gives partial credit for gold nodes the retriever got
close to: each gold node contributes 1 / (1 + u), where u accumulates
log(1 + degree) along the cheapest node-weighted path from any retrieved
node. Retrieved gold nodes have u = 0; unreachable ones contribute 0.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .errors import UnknownNodeError
from .graph import CorpusGraph
from .ranked import RankedList

RetLike = Union[RankedList, Iterable[str]]


def _ret_keys(ret: RetLike) -> Tuple[str, ...]:
    if isinstance(ret, RankedList):
        return ret.keys()
    keys = tuple(ret)
    if len(set(keys)) < len(keys):
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"retrieved key {repeated!r} is repeated")
    return keys


class SettledCosts(dict):
    """Seed path costs of the settled nodes, in settle order, plus the
    u-value of each reached target (``resolved``)."""

    __slots__ = ("resolved",)


def seed_path_costs(
    g: CorpusGraph,
    ret: RetLike,
    targets: Optional[Iterable[str]] = None,
) -> SettledCosts:
    """Multi-source node-weighted shortest-path costs from the retrieved set
    ``ret``: a :class:`RankedList`, whose node ids are the seeds, or keys.

    The cost of reaching node v is the sum of log(1 + degree) over every node
    on the path including the seed and v itself.

    Without ``targets`` every node reachable from the seeds is returned. With
    ``targets`` the search stops as soon as each target has at least one
    settled neighbor, and only the nodes settled so far are returned.
    Either way the dict lists nodes in settle order, which is non-decreasing
    in cost, and every cost in it is final. A target's first settled
    neighbor is thus its cheapest; its cost is ``.resolved[t]``.

    The search runs over node ids and reads the CSR and ``g.path_weights`` in
    place, so a call costs only the region it settles; ``(cost, id)`` heap
    entries pop in ``(cost, key)`` order, because ids ascend with keys.
    """
    seed_ids = g.own(ret).ids if isinstance(ret, RankedList) else g.ids(tuple(ret))
    pending = None if targets is None else set(g.ids(tuple(targets)).tolist())
    out = SettledCosts()
    out.resolved = {}
    if pending is not None and not pending:
        return out

    ptr, nbrs, weight = memoryview(g.indptr), memoryview(g.indices), g.path_weights
    queued = set(seed_ids.tolist())
    heap = [(weight[i], i) for i in queued]
    heapq.heapify(heap)

    settled: Dict[int, float] = {}
    resolved: Dict[int, float] = {}
    while heap and (pending is None or pending):
        cost, node = heapq.heappop(heap)
        settled[node] = cost
        for nb in nbrs[ptr[node]:ptr[node + 1]]:
            # Undirected: node neighbors nb. Checked before `queued`: a seed or queued target resolves too.
            if pending and nb in pending:
                pending.remove(nb)
                resolved[nb] = cost
            if nb not in queued:  # nodes settle in non-decreasing cost: the first relaxation is final
                queued.add(nb)
                heapq.heappush(heap, (cost + weight[nb], nb))
    keys = g.node_keys
    out.update((keys[i], cost) for i, cost in settled.items())
    out.resolved.update((keys[i], cost) for i, cost in resolved.items())
    return out


def uncertainty(g: CorpusGraph, ret: RetLike, target: str) -> float:
    """Accumulated log-degree along the cheapest path from ``ret`` to ``target``.

    The seed's own weight is included; the target's is excluded. Targets in
    the retrieved set cost 0; unreachable targets cost infinity.
    """
    if target not in g:
        raise UnknownNodeError(target)
    if not isinstance(ret, RankedList):
        ret = tuple(ret)
    if target in _ret_keys(ret):
        return 0.0
    return seed_path_costs(g, ret, (target,)).resolved.get(target, math.inf)


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
) -> Tuple[float, float]:
    """Topological recall and its missed-gold component, from one search.

    TR is the mean over gold nodes of 1 / (1 + u), with u = 0 for retrieved
    gold and unreachable nodes contributing 0. miss_tr equals
    (|oracle \\ ret| / |oracle|) * TR(ret, oracle \\ ret), zero when every
    gold node was retrieved. Always tr == recall_uncapped + miss_tr.
    """
    if not oracle:
        raise ValueError("oracle set is empty")
    if not isinstance(ret, RankedList):
        ret = tuple(ret)
    ret_set = set(_ret_keys(ret))
    g.ids(tuple(oracle))  # an unknown gold key raises UnknownNodeError
    missed = sorted(oracle - ret_set)
    costs = seed_path_costs(g, ret, targets=missed).resolved

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


def topological_recall(g: CorpusGraph, ret: RetLike, oracle: Set[str]) -> float:
    """Mean over gold nodes of 1 / (1 + u); unreachable nodes contribute 0."""
    return tr_and_miss_tr(g, ret, oracle)[0]


def miss_tr(g: CorpusGraph, ret: RetLike, oracle: Set[str]) -> float:
    """Partial-credit component for gold nodes not retrieved (see
    :func:`tr_and_miss_tr`); zero, without a path search, when every gold
    node was retrieved."""
    if not oracle:
        raise ValueError("oracle set is empty")
    if not isinstance(ret, RankedList):
        ret = tuple(ret)
    if oracle <= set(_ret_keys(ret)):
        return 0.0
    return tr_and_miss_tr(g, ret, oracle)[1]
