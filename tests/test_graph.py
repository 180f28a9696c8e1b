import gc
import gzip
import io
import json
import logging
import math
import os
import random
import re
import tempfile
import tracemalloc
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastinsight import (
    CorpusGraph,
    RankedList,
    frontier,
    load_graph,
    load_qrels,
    personalized_pagerank,
    ppr_scores,
    save_graph,
)
from fastinsight.errors import (
    ConvergenceError,
    GraphFormatError,
    GraphValidationError,
    UnknownNodeError,
)
from fastinsight import graph as graph_module
from fastinsight.graph import induced
from fastinsight.runner import load_queries

from conftest import frontier_keys, make_graph, random_graph, ranked


_QUERIES = b'{"id": "q1", "text": "find a"}\n'
_QRELS = b"q1\ta\t1\nq1\tb\t0\n"


def _nodes_bytes(keys):
    return "\n".join(json.dumps({"key": k, "content": f"c {k}"}) for k in keys).encode()


def _edges_bytes(pairs):
    return "".join(f"{a}\t{b}\n" for a, b in pairs).encode()


class TestLoad:
    def test_minimal_graph(self):
        g = load_graph(_nodes_bytes(["a", "b"]), _edges_bytes([("a", "b")]))
        assert g.n_nodes == 2 and g.n_edges == 1
        assert g.degree("a") == 1 and g.degree("b") == 1

    def test_self_loop_dropped_with_count(self):
        g = load_graph(_nodes_bytes(["a", "b"]), _edges_bytes([("a", "a"), ("a", "b")]))
        assert g.self_loops_dropped == 1
        assert g.n_edges == 1

    def test_unknown_endpoint_names_key(self):
        with pytest.raises(GraphValidationError, match="'c'"):
            load_graph(_nodes_bytes(["a", "b"]), _edges_bytes([("a", "c")]))

    def test_duplicate_edges_deduplicated(self):
        g = load_graph(_nodes_bytes(["a", "b"]), _edges_bytes([("a", "b"), ("a", "b")]))
        assert g.n_edges == 1

    def test_malformed_node_line_reports_line_number(self):
        bad = b'{"key": "a", "content": "x"}\nnot json\n'
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(bad, _edges_bytes([]))

    def test_malformed_edge_line_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph(_nodes_bytes(["a"]), b"only-one-column\n")

    def test_gzip_transparent(self):
        nz = gzip.compress(_nodes_bytes(["a", "b"]))
        ez = gzip.compress(_edges_bytes([("a", "b")]))
        g = load_graph(nz, ez)
        assert g.n_edges == 1
        # Queries and qrels go through the same opener.
        assert load_queries(gzip.compress(_QUERIES)) == [("q1", "find a")]
        assert load_qrels(gzip.compress(_QRELS)) == {"q1": {"a"}}
        assert load_qrels(io.BytesIO(_QRELS)) == {"q1": {"a"}}

    def test_gzip_path_closes_files(self, tmp_path):
        paths = [tmp_path / name for name in ("n.jsonl.gz", "e.tsv.gz", "q.jsonl.gz", "r.tsv.gz")]
        blobs = (_nodes_bytes(["a", "b"]), _edges_bytes([("a", "b")]), _QUERIES, _QRELS)
        for path, blob in zip(paths, blobs):
            path.write_bytes(gzip.compress(blob))
        np_, ep, qp, rp = map(str, paths)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = load_graph(np_, ep)
            queries, qrels = load_queries(qp), load_qrels(rp)
            gc.collect()
        assert g.n_edges == 1
        assert queries == [("q1", "find a")] and qrels == {"q1": {"a"}}
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("pack", [lambda b: b, gzip.compress], ids=["plain", "gzip"])
    def test_pipe_stream(self, pack):
        # A pipe cannot seek back over the gzip sniff; it is read, and left open.
        r, w = os.pipe()
        with os.fdopen(r, "rb") as fh:
            with os.fdopen(w, "wb") as out:
                out.write(pack(_QUERIES))
            assert load_queries(fh) == [("q1", "find a")]
            assert not fh.closed

    def test_caller_stream_left_open(self):
        nodes = io.BytesIO(gzip.compress(_nodes_bytes(["a", "b"])))
        edges = io.BytesIO(_edges_bytes([("a", "b")]))
        assert load_graph(nodes, edges).n_edges == 1
        assert not nodes.closed and not edges.closed

    def test_roundtrip(self, tmp_path):
        # Direction survives on disk only: save -> load -> save writes the
        # same edges file, listing exactly the input's distinct directed edges.
        edges = [("a", "b"), ("c", "b"), ("d", "a"), ("b", "a"), ("a", "b")]
        g = make_graph(["a", "b", "c", "d"], edges)
        np_, ep = str(tmp_path / "n.jsonl"), str(tmp_path / "e.tsv")
        save_graph(g, np_, ep)
        g2 = load_graph(np_, ep)
        save_graph(g2, str(tmp_path / "n2.jsonl"), str(tmp_path / "e2.tsv"))
        written = (tmp_path / "e.tsv").read_bytes()
        assert (tmp_path / "e2.tsv").read_bytes() == written
        lines = written.decode().splitlines()
        assert sorted(tuple(line.split("\t")) for line in lines) == sorted(set(edges))
        assert g2.node_keys == g.node_keys
        for k in g.node_keys:
            assert g2.content(k) == g.content(k)
            assert g2.neighbors(k) == g.neighbors(k)

    def test_empty_key_rejected(self):
        with pytest.raises(GraphValidationError):
            CorpusGraph({"": "x"}, [])

    @pytest.mark.parametrize("bad", ["a\tb", "a\rb", "a\nb", "ab\r", "\ufeffa"])
    def test_key_the_edges_file_cannot_hold_is_rejected_before_writing(self, tmp_path, bad):
        g = CorpusGraph({bad: "x", "c": "y"}, [(bad, "c")])
        np_, ep = tmp_path / "n.jsonl", tmp_path / "e.tsv"
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            save_graph(g, str(np_), str(ep))
        assert not np_.exists() and not ep.exists()

    def test_key_with_tab_off_every_edge_roundtrips(self, tmp_path):
        g = CorpusGraph({"a\tb": "x", "c": "y", "d": "z"}, [("c", "d")])
        np_, ep = str(tmp_path / "n.jsonl"), str(tmp_path / "e.tsv")
        save_graph(g, np_, ep)
        g2 = load_graph(np_, ep)
        assert g2.node_keys == g.node_keys and g2.content("a\tb") == "x"


@st.composite
def _edge_case(draw):
    """Keys whose sorted order differs from their listing order, and edges
    with one- and two-way pairs, duplicates, self-loops and isolated nodes."""
    keys = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                         min_size=1, max_size=12, unique=True))
    pick = st.sampled_from(keys)
    edges = []
    for a, b, both_ways, copies in draw(st.lists(
            st.tuples(pick, pick, st.booleans(), st.integers(1, 2)), max_size=30)):
        edges += ([(a, b), (b, a)] if both_ways else [(a, b)]) * copies
    return keys, edges


def _induced_reference(g, keys):
    """Induced adjacency and degrees (zero replaced by 1) in the order of
    ``keys``, built by one neighbor loop per key."""
    row_of = {key: i for i, key in enumerate(keys)}
    a = np.zeros((len(keys), len(keys)))
    for i, key in enumerate(keys):
        for nb in g.neighbors(key):
            j = row_of.get(nb)
            if j is not None:
                a[i, j] = a[j, i] = 1.0
    return a, np.asarray([max(g.degree(k), 1) for k in keys], dtype=np.float64)


class TestCSR:
    @settings(max_examples=200, deadline=None)
    @given(_edge_case())
    def test_csr_agrees_with_key_api(self, case):
        keys, edges = case
        g = make_graph(keys, edges)
        ids = g.node_keys
        assert ids == tuple(sorted(keys))
        assert g.ids(keys).tolist() == [ids.index(k) for k in keys]
        assert len(g.indptr) == len(ids) + 1 and g.indptr[-1] == len(g.indices)
        for i, k in enumerate(ids):
            row = g.indices[g.indptr[i]:g.indptr[i + 1]]
            assert tuple(ids[j] for j in row) == g.neighbors(k)
            assert g.degree(k) == g.indptr[i + 1] - g.indptr[i] == g.degrees[i]
            joined = {b for a, b in edges if a == k} | {a for a, b in edges if b == k}
            assert g.neighbors(k) == tuple(sorted(joined - {k}))
        distinct = sorted({(a, b) for a, b in edges if a != b})
        assert g.n_edges == len(distinct)
        assert g.self_loops_dropped == sum(a == b for a, b in edges)

        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            save_graph(g, str(d / "n.jsonl"), str(d / "e.tsv"))
            g2 = load_graph(str(d / "n.jsonl"), str(d / "e.tsv"))
            save_graph(g2, str(d / "n2.jsonl"), str(d / "e2.tsv"))
            written = (d / "e.tsv").read_bytes()
            assert (d / "e2.tsv").read_bytes() == written
        assert sorted(tuple(line.split("\t")) for line in written.decode().splitlines()) == distinct
        assert np.array_equal(g2.indptr, g.indptr) and np.array_equal(g2.indices, g.indices)

    @settings(max_examples=200, deadline=None)
    @given(_edge_case(), st.data())
    def test_induced_matches_neighbor_loop(self, case, data):
        # Any subset of the keys, in any order; "?" is no key.
        keys, edges = case
        g = make_graph(keys, edges)
        sub = data.draw(st.lists(st.sampled_from(keys), unique=True))
        a, deg = induced(g, g.ids(sub))
        want_a, want_deg = _induced_reference(g, sub)
        assert a.dtype == deg.dtype == np.float64
        assert np.array_equal(a, want_a) and np.array_equal(deg, want_deg)
        with pytest.raises(UnknownNodeError):
            induced(g, g.ids(sub + ["?"]))

    def test_memory_one_adjacency(self):
        # A 20,000-node ring retains 2.4 MiB, of which the CSR arrays are
        # 0.61 MiB and the path weights 0.15 MiB; a second, per-key adjacency
        # beside the CSR makes it 3.9.
        n = 20000
        keys = [f"r{i:05d}" for i in range(n)]
        nodes = {k: k for k in keys}
        tracemalloc.start()
        try:
            g = CorpusGraph(nodes, ((keys[i], keys[(i + 1) % n]) for i in range(n)))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.degree(keys[0]) == 2
        assert retained < 3 * 2**20

    def test_path_weights_are_math_log1p_of_degree(self):
        # Stars of 47 and 13 leaves, a path a-b-c and an isolated node: degrees
        # 0, 1, 2, 13 and 47, where np.log1p can differ from math.log1p by an
        # ulp; the path search's costs must stay those of math.log1p.
        edges = [("h47", f"l{i:02d}") for i in range(47)] + [("h13", f"m{i:02d}") for i in range(13)]
        edges += [("a", "b"), ("b", "c")]
        keys = sorted({k for e in edges for k in e} | {"iso"})
        g = make_graph(keys, edges)
        assert {0, 1, 2, 13, 47} <= set(g.degrees.tolist())
        assert type(g.path_weights) is tuple and len(g.path_weights) == g.n_nodes
        for i, w in enumerate(g.path_weights):
            assert w == math.log1p(int(g.degrees[i])) and type(w) is float

    def test_arrays_read_only(self, path_graph):
        with pytest.raises(ValueError):
            path_graph.indices[0] = 0
        with pytest.raises(ValueError):
            path_graph.degrees[0] = 0


class TestTopology:
    def test_path_neighbors(self, path_graph):
        assert set(path_graph.neighbors("b")) == {"a", "c"}

    def test_isolated_node(self):
        g = make_graph(["a", "b", "x"], [("a", "b")])
        assert g.neighbors("x") == ()

    def test_directed_views(self):
        # Directed input edges have one view, the undirected one.
        one_way = make_graph(["a", "b"], [("a", "b")])
        assert one_way.neighbors("a") == ("b",)
        assert one_way.neighbors("b") == ("a",)
        two_way = make_graph(["a", "b"], [("a", "b"), ("b", "a")])
        assert two_way.degree("a") == two_way.degree("b") == 1

    def test_unknown_key(self, path_graph):
        with pytest.raises(UnknownNodeError):
            path_graph.neighbors("zz")
        with pytest.raises(UnknownNodeError):
            path_graph.degree("zz")

    def test_frontier_path(self, path_graph):
        assert frontier_keys(path_graph, ranked("a")) == ["b"]

    def test_frontier_triangle(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert frontier_keys(g, ranked("a", "b")) == ["c"]

    def test_frontier_whole_graph_empty(self, path_graph):
        assert frontier_keys(path_graph, ranked("a", "b", "c")) == []

    def test_frontier_unknown_key(self, path_graph):
        with pytest.raises(UnknownNodeError):
            frontier(path_graph, ranked("a", "zz"))

    def test_frontier_disjoint_from_ret_property(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng)
            keys = list(g.node_keys)
            picks = rng.sample(keys, rng.randint(1, len(keys)))
            f = frontier_keys(g, ranked(*picks))
            assert not set(f) & set(picks)
            assert f == sorted(f)


@st.composite
def _component_case(draw):
    """Up to 40 nodes joined by random pairs, self-loops (dropped) and
    isolated nodes included."""
    n = draw(st.integers(1, 40))
    keys = [f"k{i:02d}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return make_graph(keys, [(keys[a], keys[b]) for a, b in pairs])


def _bfs_labels(g):
    """Smallest node id in each node's component: one breadth-first search
    over the key API per component, started from ids in ascending order."""
    ids = {key: i for i, key in enumerate(g.node_keys)}
    labels = [None] * g.n_nodes
    for start, key in enumerate(g.node_keys):
        if labels[start] is not None:
            continue
        labels[start] = start
        queue = deque([key])
        while queue:
            for nb in g.neighbors(queue.popleft()):
                if labels[ids[nb]] is None:
                    labels[ids[nb]] = start
                    queue.append(nb)
    return labels


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(_component_case())
    def test_labels_match_bfs(self, g):
        labels = g.component_labels
        assert labels.tolist() == _bfs_labels(g)
        with pytest.raises(ValueError):
            labels[0] = 0

    def test_long_shuffled_path_is_one_component(self):
        # Ids in random order along the path: plain min-label propagation
        # would need a round per hop; hook-and-shortcut needs a few.
        keys = [f"p{i:04d}" for i in range(3000)]
        order = random.Random(3).sample(keys, len(keys))
        g = make_graph(keys, zip(order, order[1:]))
        assert not g.component_labels.any()

    def test_built_once_and_only_for_pagerank(self, monkeypatch):
        builds = []
        real = graph_module._component_labels

        def counting(*args):
            builds.append(None)
            return real(*args)

        monkeypatch.setattr(graph_module, "_component_labels", counting)
        g = make_graph(["a", "b", "c"], [("a", "b")])
        frontier(g, ranked("a"))
        assert builds == []
        ppr_scores(g, ranked("a"))
        personalized_pagerank(g, ranked("c"))
        assert len(builds) == 1 and g.component_labels.tolist() == [0, 0, 2]


def _ppr_power_oracle(g, seeds, restart, steps=10_000):
    """Dense power iteration, dangling mass to the seed distribution."""
    keys = g.node_keys
    idx = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    p0 = np.zeros(n)
    for k, s in seeds:
        p0[idx[k]] += s
    p0 /= p0.sum()
    m = np.zeros((n, n))
    dangling = []
    for j, k in enumerate(keys):
        nbrs = g.neighbors(k)
        if not nbrs:
            dangling.append(j)
            continue
        for nb in nbrs:
            m[idx[nb], j] = 1.0 / len(nbrs)
    p = p0.copy()
    for _ in range(steps):
        p = (1 - restart) * (m @ p + p[dangling].sum() * p0) + restart * p0
    return {k: p[idx[k]] for k in keys}


def _dense_ppr_reference(g, seeds, restart=0.15, tol=1e-8, max_iter=1000):
    """The dense algorithm ppr_scores replaced: an n x n column-stochastic
    matrix, the same iteration, stopping rule and dangling rule."""
    keys = g.node_keys
    index = {key: i for i, key in enumerate(keys)}
    n = len(keys)
    p0 = np.zeros(n)
    for key, score in seeds:
        p0[index[key]] += score
    p0 /= p0.sum()
    m = np.zeros((n, n))
    dangling = np.zeros(n, dtype=bool)
    for j, key in enumerate(keys):
        nbrs = g.neighbors(key)
        if not nbrs:
            dangling[j] = True
            continue
        w = 1.0 / len(nbrs)
        for nb in nbrs:
            m[index[nb], j] = w
    p = p0.copy()
    for _ in range(max_iter):
        loose = p[dangling].sum()
        p_next = (1.0 - restart) * (m @ p + loose * p0) + restart * p0
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < tol:
            break
    else:
        raise ConvergenceError(residual, max_iter)
    return {key: float(p[i]) for i, key in enumerate(keys)}


@st.composite
def _ppr_case(draw):
    keys, edges = draw(_edge_case())
    seed_keys = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys), unique=True))
    scores = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=len(seed_keys),
                           max_size=len(seed_keys)))
    return make_graph(keys, edges), RankedList(zip(seed_keys, scores))


class TestPageRank:
    @settings(max_examples=300, deadline=None)
    @given(_ppr_case())
    def test_sparse_matches_dense_reference(self, case):
        # Sparse and dense M p sum in different orders, so scores may differ
        # in the last bits either way: the dense sum can split nodes that
        # symmetry makes equal, the sparse one can split bit-equal ones. So
        # the ranking must follow the reference scores wherever they differ
        # by more than the score tolerance.
        g, seeds = case
        want = _dense_ppr_reference(g, seeds)
        got = ppr_scores(g, seeds)
        assert list(got) == list(g.node_keys)
        for k in g.node_keys:
            assert got[k] == pytest.approx(want[k], rel=0, abs=1e-12)
        ranked_keys = personalized_pagerank(g, seeds, k=g.n_nodes).keys()
        assert sorted(ranked_keys) == sorted(k for k in g.node_keys if k not in seeds)
        ref = [want[k] for k in ranked_keys]
        for i, s in enumerate(ref):
            assert all(s >= later - 1e-12 for later in ref[i + 1:])

    @settings(max_examples=200, deadline=None)
    @given(_edge_case(), _edge_case(), st.data())
    def test_other_components_change_nothing(self, g_case, h_case, data):
        # G alone and G plus a disjoint H, seeds in G: H's nodes sort in among
        # G's, yet G's scores are bit-equal and every H node scores exactly 0.
        # The seed total sums over all n ids, so the seed scores are dyadic:
        # their sum is exact in any order, whatever n is.
        keys, edges = g_case
        seed_keys = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        scores = data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=len(seed_keys),
                                    max_size=len(seed_keys)))
        seeds = RankedList(zip(seed_keys, scores))
        h_keys = [f"h:{k}" for k in h_case[0]]
        h_edges = [(f"h:{a}", f"h:{b}") for a, b in h_case[1]]
        self._check_union(make_graph(keys, edges), make_graph(keys + h_keys, edges + h_edges), seeds)

    @pytest.mark.parametrize("seed_keys", [["d"], ["a", "e"], ["a", "d"], ["f", "d", "b"]])
    def test_other_components_change_nothing_examples(self, seed_keys):
        # G: path a-b-c, isolated d (a dangling seed), edge e-f; H: a ring
        # whose keys sort among G's.
        g_edges = [("a", "b"), ("b", "c"), ("e", "f")]
        h_keys = ["b1", "c1", "d1", "e1"]
        h_edges = list(zip(h_keys, h_keys[1:] + h_keys[:1]))
        seeds = RankedList(zip(seed_keys, [0.5, 1.0, 2.0]))
        self._check_union(make_graph(list("abcdef"), g_edges),
                          make_graph(list("abcdef") + h_keys, g_edges + h_edges), seeds)

    @staticmethod
    def _check_union(g, union, seeds):
        alone = ppr_scores(g, seeds)
        both = ppr_scores(union, seeds)
        assert {k: both[k] for k in g.node_keys} == alone
        assert all(both[k] == 0.0 for k in union.node_keys if k not in g)
        ranked_keys = personalized_pagerank(union, seeds, k=union.n_nodes).keys()
        zero = [k for k in ranked_keys if both[k] == 0.0]
        assert ranked_keys[len(ranked_keys) - len(zero):] == tuple(zero) == tuple(sorted(zero))

    def test_steps_touch_only_the_seed_component(self, monkeypatch, caplog):
        # A 5-node path (8 CSR entries) holds the seed; a 40-node ring (80
        # entries) does not. Every step's mat-vec bins the path's entries only.
        path = [f"p{i}" for i in range(5)]
        ring = [f"r{i:02d}" for i in range(40)]
        g = make_graph(path + ring, list(zip(path, path[1:])) + list(zip(ring, ring[1:] + ring[:1])))
        g.component_labels  # built before the count starts
        calls = []
        real = graph_module.np.bincount

        def counting(x, *args, **kwargs):
            calls.append((len(x), len(kwargs["weights"]), kwargs["minlength"]))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(graph_module.np, "bincount", counting)
        with caplog.at_level(logging.DEBUG, logger="fastinsight.graph"):
            ppr_scores(g, ranked("p0"))
        assert calls and set(calls) == {(8, 8, 5)}
        (record,) = caplog.records
        assert record.getMessage().startswith(
            f"ppr: 5 component nodes, 8 CSR entries, {len(calls)} iterations, residual ")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_seed_score_names_seed(self, bad):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        seeds = RankedList([("a", 1.0), ("c", bad)])
        for run in (ppr_scores, personalized_pagerank):
            with pytest.raises(ValueError, match="non-finite seed score for 'c'"):
                run(g, seeds)

    def test_top_k_ties_break_by_key(self):
        g = make_graph(["hub", "s3", "s1", "s2"], [("hub", "s1"), ("hub", "s2"), ("hub", "s3")])
        assert personalized_pagerank(g, ranked("hub"), k=2).keys() == ("s1", "s2")
        assert personalized_pagerank(g, ranked("hub"), k=0).keys() == ()

    def test_memory_linear_in_graph_size(self):
        # A dense transition matrix at 2,000 nodes alone would take 32 MB.
        n = 2000
        keys = [f"r{i:04d}" for i in range(n)]
        g = make_graph(keys, [(keys[i], keys[(i + 1) % n]) for i in range(n)])
        seeds = ranked(keys[0], keys[n // 2])
        tracemalloc.start()
        try:
            ppr_scores(g, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


    def test_single_node_fixed_point(self):
        g = make_graph(["a"], [])
        scores = ppr_scores(g, ranked("a"), restart=0.3)
        assert scores["a"] == pytest.approx(1.0, abs=1e-12)

    def test_two_symmetric_nodes_uniform_seed(self):
        g = make_graph(["a", "b"], [("a", "b"), ("b", "a")])
        scores = ppr_scores(g, RankedList([("a", 1.0), ("b", 1.0)]), restart=0.2)
        assert scores["a"] == pytest.approx(0.5, abs=1e-9)
        assert scores["b"] == pytest.approx(0.5, abs=1e-9)

    def test_star_matches_power_iteration_oracle(self):
        g = make_graph(
            ["hub", "s1", "s2", "s3"],
            [("hub", "s1"), ("hub", "s2"), ("hub", "s3")],
        )
        seeds = ranked("hub")
        got = ppr_scores(g, seeds, restart=0.15, tol=1e-12)
        want = _ppr_power_oracle(g, seeds, restart=0.15)
        for k in g.node_keys:
            assert got[k] == pytest.approx(want[k], abs=1e-8)

    def test_scores_sum_to_one(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng)
            keys = list(g.node_keys)
            seeds = ranked(*rng.sample(keys, rng.randint(1, len(keys))))
            scores = ppr_scores(g, seeds)
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in scores.values())

    def test_seed_rescaling_invariance(self):
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        s1 = RankedList([("a", 1.0), ("b", 3.0)])
        s2 = RankedList([("a", 10.0), ("b", 30.0)])
        r1 = personalized_pagerank(g, s1, k=2)
        r2 = personalized_pagerank(g, s2, k=2)
        assert r1.keys() == r2.keys()

    def test_excludes_seeds(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        result = personalized_pagerank(g, ranked("a"), k=10)
        assert "a" not in result

    def test_invalid_restart(self, path_graph):
        with pytest.raises(ValueError):
            personalized_pagerank(path_graph, ranked("a"), restart=1.5)

    def test_all_zero_seed_scores(self, path_graph):
        with pytest.raises(ValueError):
            personalized_pagerank(path_graph, RankedList([("a", 0.0)]))

    def test_nonconvergence_reports_residual(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(ConvergenceError):
            ppr_scores(g, ranked("a"), tol=1e-300, max_iter=2)
