"""Retrieval evaluation metrics: capped recall, nDCG, and topological recall.

Topological recall gives partial credit for gold nodes the retriever got
close to: each gold node contributes 1 / (1 + u), where u accumulates
log(1 + degree) along the cheapest node-weighted path from any retrieved
node. Retrieved gold nodes have u = 0; unreachable ones contribute 0.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .errors import GraphFormatError, UnknownNodeError
from .graph import CorpusGraph, text_lines
from .ranked import RankedList

RetLike = Union[RankedList, Iterable[str]]


def _ret_keys(ret: RetLike) -> Tuple[str, ...]:
    if isinstance(ret, RankedList):
        return ret.keys()
    return tuple(ret)


class SettledCosts(dict):
    """Seed path costs of the settled nodes, in settle order, plus the
    u-value of each reached target (``resolved``)."""

    __slots__ = ("resolved",)


def seed_path_costs(
    g: CorpusGraph,
    ret_keys: Sequence[str],
    targets: Optional[Iterable[str]] = None,
) -> SettledCosts:
    """Multi-source node-weighted shortest-path costs from the retrieved set.

    The cost of reaching node v is the sum of log(1 + degree) over every node
    on the path including the seed and v itself.

    Without ``targets`` every node reachable from the seeds is returned. With
    ``targets`` the search stops as soon as each target has at least one
    settled neighbor, and only the nodes settled so far are returned.
    Either way the dict lists nodes in settle order, which is non-decreasing
    in cost, and every cost in it is final. A target's first settled
    neighbor is thus its cheapest; its cost is ``.resolved[t]``.

    The search runs over node ids and reads the CSR in place, so a call
    costs only the region it settles; ``(cost, id)`` heap entries pop in
    ``(cost, key)`` order, because ids ascend with keys.
    """
    seeds = set(g.ids(tuple(ret_keys)).tolist())
    pending = None if targets is None else set(g.ids(tuple(targets)).tolist())
    out = SettledCosts()
    out.resolved = {}
    if pending is not None and not pending:
        return out

    ptr, nbrs = memoryview(g.indptr), memoryview(g.indices)
    best = {i: math.log1p(ptr[i + 1] - ptr[i]) for i in seeds}
    heap = [(cost, i) for i, cost in best.items()]
    heapq.heapify(heap)

    settled: Dict[int, float] = {}
    resolved: Dict[int, float] = {}
    while heap and (pending is None or pending):
        cost, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled[node] = cost
        for nb in nbrs[ptr[node]:ptr[node + 1]]:
            # Undirected: node neighbors nb. A settled target (a seed) resolves too.
            if pending and nb in pending:
                pending.remove(nb)
                resolved[nb] = cost
            if nb in settled:
                continue
            cand = cost + math.log1p(ptr[nb + 1] - ptr[nb])
            if nb not in best or cand < best[nb]:
                best[nb] = cand
                heapq.heappush(heap, (cand, nb))
    keys = g.node_keys
    out.update((keys[i], cost) for i, cost in settled.items())
    out.resolved.update((keys[i], cost) for i, cost in resolved.items())
    return out


def uncertainty(
    g: CorpusGraph,
    ret_keys: Iterable[str],
    target: str,
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
    return seed_path_costs(g, tuple(ret_set), (target,)).resolved.get(target, math.inf)


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
    ret_keys = tuple(sorted(set(_ret_keys(ret))))
    for key in oracle:
        if key not in g:
            raise UnknownNodeError(key)
    ret_set = set(ret_keys)
    missed = sorted(oracle - ret_set)
    costs = seed_path_costs(g, ret_keys, targets=missed).resolved

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
    if oracle <= set(_ret_keys(ret)):
        return 0.0
    return tr_and_miss_tr(g, ret, oracle)[1]


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
    with open(path, "rb") as fh:
        for line_no, line in text_lines(fh, "qrels file"):
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
