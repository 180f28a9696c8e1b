"""Seeded corpus generators for the benchmark workloads.

These are kept apart from ``fastinsight.synth`` so that a change to the
package cannot change the benchmark's inputs. Each generator is a pure
function of its arguments: one seed always gives byte-identical files.

The seed draws all text: every word, which topic words each node and query
carries, and their order. The graph's shape (edges, topics, which nodes are
gold) is drawn from the fixed ``SHAPE_SEED``. So different seeds give
different embeddings, scores and rankings over the same shape, and the spread
between seeds measures the program and the machine rather than luck in how
many gold nodes a random graph makes reachable.

Two shapes exist:

* ``bridge``: disconnected clusters. Each cluster has bridge nodes that
  repeat the topic words, gold nodes with a private vocabulary wired to every
  bridge, and a chain of filler nodes hanging off the first bridge. Each
  query names its topic plus the noise words of one "anchor" bridge, which is
  gold together with a sample of the cluster's hidden gold nodes.
* ``hubs``: one connected preferential-attachment graph with topic
  homophily, so hub degrees reach the hundreds. Each query names five topic
  words; its gold set is five "strong" topic nodes that repeat three of those
  words and ten "weak" nodes that share no query word, each with one extra
  edge to a random node anywhere in the graph. Weak gold is rarely reached,
  so nearly every query leaves gold to ``miss_tr``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

N_STRONG, N_WEAK = 5, 10
SHAPE_SEED = 20260118
CLUSTER_SIZE = 250  # nodes per bridge cluster
PA_LINKS = 4  # edges from each node arriving in the preferential-attachment graph
P_SAME_TOPIC = 0.5  # chance an arriving node links within its own topic

FILES = ("nodes.jsonl", "edges.tsv", "queries.jsonl", "qrels.tsv")


@dataclass(frozen=True)
class Corpus:
    nodes: List[Tuple[str, str]]
    edges: List[Tuple[str, str]]
    queries: List[Tuple[str, str]]
    qrels: List[Tuple[str, str]]

    def files(self) -> Dict[str, bytes]:
        """The corpus in the package's on-disk formats, keyed by file name."""
        nodes = "".join(json.dumps({"key": k, "content": c}, sort_keys=True) + "\n"
                        for k, c in self.nodes)
        edges = "".join(f"{s}\t{d}\n" for s, d in self.edges)
        queries = "".join(json.dumps({"id": q, "text": t}, sort_keys=True) + "\n"
                          for q, t in self.queries)
        qrels = "".join(f"{q}\t{k}\t1\n" for q, k in self.qrels)
        return dict(zip(FILES, (s.encode("utf-8") for s in (nodes, edges, queries, qrels))))


def _words(rng: random.Random, n: int) -> List[str]:
    return ["w" + format(rng.getrandbits(48), "012x") for _ in range(n)]


def bridge_corpus(seed: int, n_clusters: int, queries_per_cluster: int) -> Corpus:
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    n_gold = CLUSTER_SIZE // 10
    n_bridge = CLUSTER_SIZE // 6
    n_fill = CLUSTER_SIZE - n_gold - n_bridge
    if queries_per_cluster > n_bridge:
        raise ValueError("cluster too small for the requested queries")
    nodes, edges, queries, qrels = [], [], [], []
    for c in range(n_clusters):
        topic = _words(rng, 10)
        bridges, noise = [], []
        for b in range(n_bridge):
            key = f"c{c:03d}_bridge{b:02d}"
            words = _words(rng, 3)
            nodes.append((key, " ".join(rng.sample(topic, len(topic)) + words)))
            bridges.append(key)
            noise.append(words)
        golds = [f"c{c:03d}_gold{i:02d}" for i in range(n_gold)]
        nodes.extend((key, " ".join(_words(rng, 10))) for key in golds)
        fillers = [f"c{c:03d}_fill{i:03d}" for i in range(n_fill)]
        nodes.extend((key, " ".join(_words(rng, 10))) for key in fillers)

        edges.extend(zip(bridges, bridges[1:]))
        edges.extend((b, gk) for gk in golds for b in bridges)
        edges.extend(zip([bridges[0]] + fillers, fillers))

        for qi, b in enumerate(shape.sample(range(n_bridge), queries_per_cluster)):
            qid = f"q{c:03d}_{qi:02d}"
            queries.append((qid, " ".join(rng.sample(topic, 6) + noise[b])))
            qrels.append((qid, bridges[b]))
            qrels.extend((qid, gk) for gk in sorted(shape.sample(golds, n_gold // 2)))
    return Corpus(nodes, edges, queries, qrels)


def hubs_corpus(seed: int, n_topics: int, topic_size: int, queries_per_topic: int) -> Corpus:
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    n = n_topics * topic_size
    per_query = N_STRONG + N_WEAK
    if queries_per_topic * per_query > topic_size:
        raise ValueError("topic too small for the requested queries")
    topic_of = [i % n_topics for i in range(n)]
    shape.shuffle(topic_of)

    # Preferential attachment: each arriving node links to PA_LINKS distinct
    # earlier nodes drawn proportional to degree, from its own topic with
    # probability P_SAME_TOPIC and from the whole graph otherwise.
    pool: List[int] = []
    topic_pool: List[List[int]] = [[] for _ in range(n_topics)]
    edge_set = set()

    def link(a: int, b: int) -> None:
        edge_set.add((a, b))
        for v in (a, b):
            pool.append(v)
            topic_pool[topic_of[v]].append(v)

    for i in range(1, PA_LINKS + 1):
        for j in range(i):
            link(i, j)
    for i in range(PA_LINKS + 1, n):
        targets = set()
        same = topic_pool[topic_of[i]]
        while len(targets) < PA_LINKS:
            src = same if same and shape.random() < P_SAME_TOPIC else pool
            targets.add(src[shape.randrange(len(src))])
        for t in sorted(targets):
            link(i, t)

    vocab = [_words(rng, 8) for _ in range(n_topics)]
    content = [" ".join(rng.sample(vocab[topic_of[i]], rng.randint(1, 2)) + _words(rng, 6))
               for i in range(n)]
    members: List[List[int]] = [[] for _ in range(n_topics)]
    for i in range(n):
        members[topic_of[i]].append(i)

    key = [f"h{i:05d}" for i in range(n)]
    queries, qrels = [], []
    for t in range(n_topics):
        chosen = shape.sample(members[t], queries_per_topic * per_query)
        for qi in range(queries_per_topic):
            words = rng.sample(vocab[t], 5)
            mine = chosen[qi * per_query: (qi + 1) * per_query]
            strong, weak = mine[:N_STRONG], mine[N_STRONG:]
            for s in strong:
                content[s] = " ".join(rng.sample(words, 3) + _words(rng, 6))
            for w in weak:
                content[w] = " ".join(_words(rng, 8))
                a = shape.randrange(n)
                if a != w and (w, a) not in edge_set and (a, w) not in edge_set:
                    edge_set.add((w, a))
            qid = f"q{t:03d}_{qi}"
            queries.append((qid, " ".join(words)))
            qrels.extend((qid, key[g]) for g in sorted(strong + weak))

    nodes = [(key[i], content[i]) for i in range(n)]
    edges = [(key[a], key[b]) for a, b in sorted(edge_set)]
    return Corpus(nodes, edges, queries, qrels)
