import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fastinsight
from fastinsight import CorpusGraph, HashEmbedder, HashReranker, RankedList


def make_graph(node_keys, edges, contents=None):
    """Graph from key list and edge pairs; default content is the key itself."""
    contents = contents or {}
    nodes = {k: contents.get(k, f"text for node {k}") for k in node_keys}
    return CorpusGraph(nodes, edges)


class CountingReranker(HashReranker):
    """HashReranker that records every batch sent to extract_latents."""

    def __init__(self, dimension=64):
        super().__init__(dimension)
        self.batches = []

    def extract_latents(self, query, contents):
        self.batches.append((query, list(contents)))
        return super().extract_latents(query, contents)


def child_env(**extra):
    """This process's environment plus ``extra``, for a Python subprocess.

    The child's PYTHONPATH starts with the directory that holds the package this
    process imported, so the child runs the same code from any working directory
    (a relative ``PYTHONPATH=src`` would stop resolving under ``cwd=tmp_path``).
    """
    pkg_root = str(Path(fastinsight.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, **kwargs):
    """Run ``python -m fastinsight *args`` in a subprocess with :func:`child_env`.

    Keyword arguments go to ``subprocess.run``.
    """
    return subprocess.run([sys.executable, "-m", "fastinsight", *args],
                          env=child_env(), **kwargs)


def random_graph(rng: random.Random, n_max=10, p=0.35):
    """Seeded Erdos-Renyi style graph with keys n00..n<k>."""
    n = rng.randint(1, n_max)
    keys = [f"n{i:02d}" for i in range(n)]
    edges = [
        (keys[i], keys[j])
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < p
    ]
    return make_graph(keys, edges)


@pytest.fixture(scope="session")
def embedder():
    return HashEmbedder(256)


@pytest.fixture(scope="session")
def reranker():
    return HashReranker(256)


@pytest.fixture()
def path_graph():
    """a - b - c undirected path (stored as two directed edges)."""
    return make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def ranked(*keys, scores=None):
    if scores is None:
        scores = [float(len(keys) - i) for i in range(len(keys))]
    return RankedList(zip(keys, scores))
