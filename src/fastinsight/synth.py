"""Synthetic bridge dataset generator.

Builds a desk-scale corpus graph where each query's gold nodes share no
vocabulary with the query (so vector search alone cannot find them) but sit
one hop behind high-similarity "bridge" nodes. Graph-aware retrieval should
separate cleanly from plain vector search on this fixture.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .graph import CorpusGraph, save_graph


@dataclass(frozen=True)
class BridgeDataset:
    """File paths of a generated dataset."""

    nodes: str
    edges: str
    queries: str
    qrels: str


def synth_bridge(n_clusters: int, cluster_size: int, seed: int, out_dir: str) -> BridgeDataset:
    """Generate nodes/edges/queries/qrels files in the standard formats.

    One query per cluster. Each cluster contains bridge nodes whose content
    repeats the query's topic tokens (high similarity), gold nodes with a
    private vocabulary (near-zero similarity) wired to every bridge, and
    filler nodes in a chain hanging off the first bridge. Fully deterministic
    for a fixed seed.
    """
    if n_clusters < 2 or cluster_size < 2:
        raise ValueError("n_clusters and cluster_size must both be >= 2")
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)

    nodes: Dict[str, str] = {}
    edges: List[Tuple[str, str]] = []
    queries: List[Tuple[str, str]] = []
    qrels: List[Tuple[str, str]] = []

    for c in range(n_clusters):
        topic = [f"topic{c}term{j}" for j in range(10)]
        rng.shuffle(topic)
        n_gold = max(1, cluster_size // 10)
        n_bridge = max(1, cluster_size // 6)
        n_fill = cluster_size - n_gold - n_bridge

        bridges = []
        for b in range(n_bridge):
            key = f"c{c:03d}_bridge{b}"
            noise = [f"bnoise{c}x{b}w{t}" for t in range(3)]
            nodes[key] = " ".join(topic + noise)
            bridges.append(key)

        golds = []
        for gix in range(n_gold):
            key = f"c{c:03d}_gold{gix}"
            words = [f"gold{c}g{gix}w{t}" for t in range(10)]
            nodes[key] = " ".join(words)
            golds.append(key)

        fillers = []
        for f in range(max(0, n_fill)):
            key = f"c{c:03d}_fill{f}"
            words = [f"fill{c}f{f}w{t}" for t in range(10)]
            nodes[key] = " ".join(words)
            fillers.append(key)

        # Bridges form a path; every gold attaches to every bridge; fillers
        # chain off the first bridge so the cluster stays connected.
        for i in range(len(bridges) - 1):
            edges.append((bridges[i], bridges[i + 1]))
        for gk in golds:
            for bk in bridges:
                edges.append((bk, gk))
        prev = bridges[0]
        for fk in fillers:
            edges.append((prev, fk))
            prev = fk

        qid = f"q{c:04d}"
        queries.append((qid, " ".join(topic)))
        qrels.extend((qid, gk) for gk in golds)

    paths = BridgeDataset(
        nodes=os.path.join(out_dir, "nodes.jsonl"),
        edges=os.path.join(out_dir, "edges.tsv"),
        queries=os.path.join(out_dir, "queries.jsonl"),
        qrels=os.path.join(out_dir, "qrels.tsv"),
    )
    save_graph(CorpusGraph(nodes, edges), paths.nodes, paths.edges)  # in key order
    with open(paths.queries, "w", encoding="utf-8") as fh:
        for qid, text in queries:
            fh.write(json.dumps({"id": qid, "text": text}, sort_keys=True) + "\n")
    with open(paths.qrels, "w", encoding="utf-8") as fh:
        for qid, key in qrels:
            fh.write(f"{qid}\t{key}\t1\n")
    return paths
