"""Graph-aware retrieval engine for corpus graphs.

Interleaves a graph-smoothed reranker with semantic-topological frontier
expansion over a corpus graph, alongside vector-search / retrieve-then-rerank
/ personalized-PageRank baselines and a topology-aware evaluation harness.
"""

from .embedding import (
    EmbeddingIndex,
    HashEmbedder,
    RemoteEmbedder,
    build_index,
    hash_embed,
    vector_search,
)
from .engine import (
    FastInsightConfig,
    RetrievalTrace,
    baseline_ppr,
    baseline_re2,
    baseline_vs,
    fastinsight_retrieve,
)
from .expand import StexScore, stex, stex_scores
from .graph import (CorpusGraph, frontier, load_graph, load_qrels, personalized_pagerank,
                     ppr_scores, save_graph)
from .metrics import (
    capped_recall_at_k,
    miss_tr,
    ndcg_at_k,
    recall_uncapped,
    seed_path_costs,
    topological_recall,
    tr_and_miss_tr,
    uncertainty,
)
from .ranked import RankedList
from .rerank import (
    AffineHead,
    HashReranker,
    PropagationMatrix,
    RemoteReranker,
    Reranker,
    build_propagation,
    fuse_latents,
    granker,
    rerank_pool,
)
from .synth import synth_bridge

__all__ = [
    "AffineHead",
    "CorpusGraph",
    "EmbeddingIndex",
    "FastInsightConfig",
    "HashEmbedder",
    "HashReranker",
    "PropagationMatrix",
    "RankedList",
    "RemoteEmbedder",
    "RemoteReranker",
    "Reranker",
    "RetrievalTrace",
    "StexScore",
    "baseline_ppr",
    "baseline_re2",
    "baseline_vs",
    "build_index",
    "build_propagation",
    "capped_recall_at_k",
    "fastinsight_retrieve",
    "frontier",
    "fuse_latents",
    "granker",
    "hash_embed",
    "load_graph",
    "load_qrels",
    "miss_tr",
    "ndcg_at_k",
    "personalized_pagerank",
    "ppr_scores",
    "recall_uncapped",
    "rerank_pool",
    "save_graph",
    "seed_path_costs",
    "stex",
    "stex_scores",
    "synth_bridge",
    "topological_recall",
    "tr_and_miss_tr",
    "uncertainty",
    "vector_search",
]

__version__ = "0.1.0"
