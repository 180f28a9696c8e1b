import json
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastinsight import (
    AffineHead,
    HashReranker,
    PropagationMatrix,
    RankedList,
    build_propagation,
    fuse_latents,
    granker,
    hash_embed,
    rerank_pool,
)
from fastinsight.errors import RerankerError
from fastinsight.rerank import GRankerState

from conftest import make_graph, random_graph, ranked


class DotReranker:
    """Score = dot product between stored per-key latents and a fixed head."""

    def __init__(self, latents):
        self.latent_dim = len(next(iter(latents.values())))
        self._latents = {k: np.asarray(v, float) for k, v in latents.items()}

    def extract_latents(self, query, contents):
        return np.stack([self._latents[c] for c in contents])

    def head_scores(self, latents):
        return latents.sum(axis=1)


def _random_ret_and_graph(rng, n_min=3, n_max=8):
    g = random_graph(rng, n_max=n_max)
    while g.n_nodes < n_min:
        g = random_graph(rng, n_max=n_max)
    keys = rng.sample(list(g.node_keys), rng.randint(n_min, g.n_nodes))
    return g, ranked(*keys)


class TestRerankPlain:
    def test_matches_vector_order_when_score_is_dot(self, embedder):
        from fastinsight import build_index, vector_search

        g = make_graph([f"n{i}" for i in range(8)], [],
                       contents={f"n{i}": f"word{i} extra{i} token{i}" for i in range(8)})
        index = build_index(g, embedder)
        q = "word3 token5 extra1"
        v_q = embedder.encode_query(q)
        pool = vector_search(v_q, index, 8)

        class SimReranker:
            latent_dim = 1

            def extract_latents(self, query, contents):
                qv = embedder.encode_query(query)
                return np.array([[float(qv @ index.vector(k))] for k in pool.keys()])

            def head_scores(self, latents):
                return latents[:, 0]

        got = rerank_pool(q, pool, g, SimReranker())
        assert got.keys() == pool.keys()

    def test_full_k_is_permutation(self, reranker):
        g = make_graph(["a", "b", "c"], [])
        ret = ranked("a", "b", "c")
        got = rerank_pool("query text", ret, g, reranker)
        assert sorted(got.keys()) == sorted(ret.keys())

    def test_top_k_matches_exhaustive_check(self, reranker):
        keys = [f"d{i:03d}" for i in range(100)]
        g = make_graph(keys, [], contents={k: f"content {k} t{i}" for i, k in enumerate(keys)})
        ret = ranked(*keys)
        got = rerank_pool("some query", ret, g, reranker, k=10)
        latents = reranker.extract_latents("some query", [g.content(k) for k in keys])
        scores = reranker.head_scores(latents)
        want = sorted(zip(keys, scores), key=lambda p: (-p[1], p[0]))[:10]
        assert list(got.keys()) == [k for k, _ in want]

    def test_failure_names_node(self):
        class Bad:
            latent_dim = 4

            def extract_latents(self, query, contents):
                raise RuntimeError("nope")

            def head_scores(self, latents):
                return latents.sum(axis=1)

        g = make_graph(["alpha"], [])
        with pytest.raises(RerankerError, match="alpha"):
            rerank_pool("q", ranked("alpha"), g, Bad())


class TestTieOrder:
    # Duplicated contents make scores tie; whatever the input order, the
    # output is ordered by (score descending, key ascending).
    Q = "shared text"

    def _case(self):
        keys = [f"k{i:02d}" for i in range(12)]
        g = make_graph(keys, [("k00", "k01"), ("k02", "k03"), ("k07", "k04")],
                       contents={k: f"shared text {i % 3}" for i, k in enumerate(keys)})
        random.Random(3).shuffle(keys)
        assert keys != sorted(keys)
        return g, ranked(*keys)

    @staticmethod
    def _reference(ret, scores, k=None):
        assert len(set(scores.tolist())) < len(ret)  # some scores tie
        return tuple(sorted(zip(ret.keys(), scores.tolist()), key=lambda p: (-p[1], p[0]))[:k])

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_granker(self, reranker, alpha):
        g, ret = self._case()
        h = reranker.extract_latents(self.Q, [g.content(k) for k in ret.keys()])
        scores = reranker.head_scores(fuse_latents(h, build_propagation(ret, g), alpha))
        got = granker(self.Q, ret, g, alpha, reranker)
        assert got.items() == self._reference(ret, scores)

    @pytest.mark.parametrize("k", [None, 5])
    def test_rerank_pool(self, reranker, k):
        g, ret = self._case()
        scores = reranker.head_scores(reranker.extract_latents(self.Q, [g.content(k) for k in ret.keys()]))
        assert rerank_pool(self.Q, ret, g, reranker, k=k).items() == self._reference(ret, scores, k)


_SCORES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf, -math.inf, math.nan]),
                             st.floats(-2.0, 2.0)), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_SCORES, st.data())
def test_top_k_is_the_head_of_the_full_order(scores, data):
    # NaN, +-inf and tied scores: the best k are the first k of the full order.
    n = len(scores)
    names = tuple(f"n{i:02d}" for i in range(n))
    ids = np.array(data.draw(st.permutations(range(n))))
    k = data.draw(st.integers(0, n + 1))
    full = RankedList.top(names, ids, np.array(scores))
    top = RankedList.top(names, ids, np.array(scores), k)
    assert top.ids.tolist() == full.ids[:k].tolist()
    assert np.array_equal(top.scores, full.scores[:k], equal_nan=True)


class TestPropagation:
    def test_two_node_edge(self):
        g = make_graph(["a", "b"], [("a", "b")])
        p = build_propagation(ranked("a", "b"), g)
        assert np.array_equal(p.matrix, [[0.0, 1.0], [1.0, 0.0]])
        assert p.isolated_rows == frozenset()

    def test_three_node_path_rows(self, path_graph):
        p = build_propagation(ranked("a", "b", "c"), path_graph)
        assert np.allclose(p.matrix[0], [0.0, 1.0, 0.0])
        assert np.array_equal(p.matrix[1], [0.5, 0.0, 0.5])

    def test_isolated_row_flagged(self, path_graph):
        g = make_graph(["a", "b", "x"], [("a", "b")])
        p = build_propagation(ranked("a", "b", "x"), g)
        assert p.isolated_rows == frozenset({2})
        assert not p.matrix[2].any()

    def test_rows_stochastic_property(self):
        rng = random.Random(21)
        for _ in range(50):
            g, ret = _random_ret_and_graph(rng)
            p = build_propagation(ret, g)
            for i in range(len(ret)):
                row_sum = p.matrix[i].sum()
                if i in p.isolated_rows:
                    assert row_sum == 0.0
                else:
                    assert row_sum == pytest.approx(1.0, abs=1e-9)
                    assert (p.matrix[i] >= 0).all()


class TestFusion:
    def _p(self, mat, isolated=frozenset()):
        return PropagationMatrix(np.asarray(mat, float), frozenset(isolated))

    def test_alpha_zero_identity(self):
        h = np.random.default_rng(0).standard_normal((4, 3))
        p = self._p(np.full((4, 4), 0.25))
        assert np.array_equal(fuse_latents(h, p, 0.0), h)

    def test_constant_rows_fixed_point(self):
        h = np.tile([1.0, 2.0, 3.0], (5, 1))
        mat = np.random.default_rng(1).random((5, 5))
        mat /= mat.sum(axis=1, keepdims=True)
        assert np.allclose(fuse_latents(h, self._p(mat), 0.7), h)

    def test_hand_computed_swap(self):
        h = np.array([[1.0], [0.0]])
        p = self._p([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(fuse_latents(h, p, 0.2), [[0.8], [0.2]])

    def test_isolated_rows_copied_unchanged(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = self._p([[0.0, 0.0], [1.0, 0.0]], isolated={0})
        fused = fuse_latents(h, p, 0.5)
        assert np.array_equal(fused[0], h[0])
        assert np.allclose(fused[1], 0.5 * h[1] + 0.5 * h[0])

    def test_linearity_in_h(self):
        rng = np.random.default_rng(2)
        mat = rng.random((6, 6))
        mat /= mat.sum(axis=1, keepdims=True)
        p = self._p(mat)
        h1, h2 = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        a, b = 1.3, -0.4
        left = fuse_latents(a * h1 + b * h2, p, 0.3)
        right = a * fuse_latents(h1, p, 0.3) + b * fuse_latents(h2, p, 0.3)
        assert np.allclose(left, right, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fuse_latents(np.zeros((3, 2)), self._p(np.zeros((2, 2))), 0.1)

    def test_gradient_step_equivalence(self):
        # One gradient step of 0.5*||H'-H||^2 + (lam/2)*Tr(H'^T (I-P) H')
        # from H'=H with step eta equals fusion with alpha = eta*lam.
        rng = np.random.default_rng(3)
        for _ in range(100):
            n, d = rng.integers(2, 7), rng.integers(1, 5)
            mat = rng.random((n, n))
            mat /= mat.sum(axis=1, keepdims=True)
            h = rng.standard_normal((n, d))
            eta, lam = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.1, 2.0))
            if eta * lam > 1.0:
                continue
            l_rw = np.eye(n) - mat
            stepped = h - eta * (lam * (l_rw @ h))
            fused = fuse_latents(h, self._p(mat), eta * lam)
            assert np.allclose(stepped, fused, atol=1e-9)


class TestGRanker:
    def test_alpha_zero_matches_plain(self, reranker):
        rng = random.Random(33)
        for _ in range(30):
            g, ret = _random_ret_and_graph(rng)
            got = granker("query words here", ret, g, 0.0, reranker)
            want = rerank_pool("query words here", ret, g, reranker)
            assert got.keys() == want.keys()

    def test_edgeless_subgraph_matches_plain(self, reranker):
        g = make_graph(["a", "b", "c", "x"], [("a", "x"), ("b", "x"), ("c", "x")])
        ret = ranked("a", "b", "c")  # no edges among retrieved set
        got = granker("the query", ret, g, 0.9, reranker)
        want = rerank_pool("the query", ret, g, reranker)
        assert got.keys() == want.keys()

    def test_output_is_permutation(self, reranker):
        rng = random.Random(44)
        for _ in range(30):
            g, ret = _random_ret_and_graph(rng)
            got = granker("abc def", ret, g, rng.random(), reranker)
            assert sorted(got.keys()) == sorted(ret.keys())

    def test_five_node_dense_algebra_oracle(self, reranker):
        keys = ["p", "q", "r", "s", "t"]
        edges = [("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "p"), ("q", "s")]
        contents = {k: f"doc about {k} number {i}" for i, k in enumerate(keys)}
        g = make_graph(keys, edges, contents=contents)
        ret = ranked(*keys)
        alpha = 0.35
        got = granker("a query about r", ret, g, alpha, reranker)

        # Independent dense computation from raw adjacency and degrees.
        pos = {k: i for i, k in enumerate(keys)}
        a = np.zeros((5, 5))
        for u, v in edges:
            a[pos[u], pos[v]] = a[pos[v], pos[u]] = 1.0
        deg = a.sum(axis=0)  # full undirected degree (all nodes retrieved)
        w = a @ np.diag(1.0 / deg)
        p = np.diag(1.0 / w.sum(axis=1)) @ w
        h = reranker.extract_latents("a query about r", [contents[k] for k in keys])
        fused = (1 - alpha) * h + alpha * (p @ h)
        scores = fused @ reranker.head_weights + reranker.head_bias
        want = [k for k, _ in sorted(zip(keys, scores), key=lambda kv: (-kv[1], kv[0]))]
        assert list(got.keys()) == want

    def test_small_alpha_converges_to_plain_scores(self, reranker):
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        ret = ranked("a", "b", "c", "d")
        contents = [g.content(k) for k in ret.keys()]
        h = reranker.extract_latents("blend test query", contents)
        plain = reranker.head_scores(h)
        p = build_propagation(ret, g)
        fused = fuse_latents(h, p, 1e-6)
        blended = reranker.head_scores(fused)
        assert np.abs(blended - plain).max() < 1e-4


class TestGRankerState:
    def test_growing_list_matches_fresh_calls(self, reranker):
        # Grow a list in random batches, reordering it in between, and check
        # every call against a fresh state.
        rng = random.Random(55)
        for _ in range(60):
            g = random_graph(rng, n_max=14, p=0.3)
            order = rng.sample(list(g.node_keys), g.n_nodes)
            state = GRankerState()
            size = 0
            while size < len(order):
                size = min(size + rng.randint(1, 4), len(order))
                keys = order[:size]
                rng.shuffle(keys)
                ret = ranked(*keys)
                alpha = rng.random()
                assert (granker("grow query", ret, g, alpha, reranker, state=state).items()
                        == granker("grow query", ret, g, alpha, reranker).items())

    def test_failure_names_first_new_key(self):
        class FailsAfterFirst(HashReranker):
            calls = 0

            def extract_latents(self, query, contents):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("nope")
                return super().extract_latents(query, contents)

        g = make_graph(["a", "b", "c", "d"], [])
        rr, state = FailsAfterFirst(32), GRankerState()
        granker("q", ranked("a", "b"), g, 0.5, rr, state=state)
        with pytest.raises(RerankerError, match="'d'"):
            granker("q", ranked("a", "d", "b", "c"), g, 0.5, rr, state=state)

    def test_wrong_row_count_rejected(self):
        class Short(DotReranker):
            def extract_latents(self, query, contents):
                return super().extract_latents(query, contents)[:-1]

        g = make_graph(["a", "b"], [], contents={"a": "a", "b": "b"})
        with pytest.raises(RerankerError, match="1 latent rows for 2 documents"):
            granker("q", ranked("a", "b"), g, 0.5, Short({"a": [1.0], "b": [2.0]}))


class TestHashReranker:
    def test_threads_share_one_reranker(self):
        # Four threads extract overlapping batches through one reranker's
        # memo; every row is the product of the two hash embeddings.
        rr = HashReranker(32)
        texts = [f"doc {i} word{i % 5}" for i in range(20)]
        got, errors = {}, []

        def work(t):
            try:
                for i in range(30):
                    query, batch = f"query {i % 3}", texts[(t + i) % 10:][:8]
                    got[t, i] = (query, batch, rr.extract_latents(query, batch))
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == [] and len(got) == 120
        for query, batch, latents in got.values():
            want = np.stack([hash_embed(query, 32) * hash_embed(c, 32) for c in batch])
            assert latents.tobytes() == want.tobytes()

    def test_empty_batch(self):
        assert HashReranker(16).extract_latents("q", []).shape == (0, 16)


class TestAffineHead:
    def test_single_layer(self, tmp_path):
        path = tmp_path / "head.json"
        path.write_text(json.dumps({"weights": [[1.0, 2.0, 3.0]], "bias": [0.5]}))
        head = AffineHead.from_file(str(path))
        got = head(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]))
        assert np.allclose(got, [6.5, 2.5])

    def test_two_layers_with_relu(self, tmp_path):
        payload = {
            "layers": [
                {"weights": [[1.0, 0.0], [-1.0, 0.0]], "bias": [0.0, 0.0]},
                {"weights": [[1.0, 1.0]], "bias": [0.0]},
            ]
        }
        path = tmp_path / "head2.json"
        path.write_text(json.dumps(payload))
        head = AffineHead.from_file(str(path))
        # relu(x), relu(-x) summed = |x|
        got = head(np.array([[3.0, 0.0], [-2.0, 0.0]]))
        assert np.allclose(got, [3.0, 2.0])

    @pytest.mark.parametrize("layers, where", [
        ([([1.0, 2.0], [0.0])], "layer 0: weights of shape"),
        ([([[1.0, math.nan]], [0.0])], "layer 0: a weight or bias is not finite"),
        ([([[1.0, 2.0]], [math.inf])], "layer 0: a weight or bias is not finite"),
        ([([[1.0, 2.0]], [0.0, 0.0])], "layer 0: bias"),
        ([([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), ([[1.0, 1.0, 1.0]], [0.0])], "layer 1: 3 inputs"),
        ([([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])], "layer 0: the final layer has 2 outputs"),
        ([([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), ([[1.0, 1.0], [1.0, 0.0]], [0.0, 0.0])],
         "layer 1: the final layer has 2 outputs"),
        ([], "no layer"),
    ], ids=["weights-1d", "weights-nan", "bias-inf", "bias-length", "layers-do-not-chain",
            "single-layer-two-outputs", "final-layer-two-outputs", "no-layers"])
    def test_bad_layers_rejected_when_built(self, layers, where):
        with pytest.raises(ValueError, match=where):
            AffineHead(layers)

    @pytest.mark.parametrize("payload, where", [
        ({"bias": [0.0]}, "layer 0 has no 'weights' field"),
        ({"weights": [[1.0]]}, "layer 0 has no 'bias' field"),
        ({"layers": [{"weights": [[1.0]], "bias": [0.0]}, {"weights": [[1.0]]}]}, "layer 1 has no 'bias' field"),
        ({"layers": [[1.0]]}, "layer 0 has no 'weights' field"),
        ({"layers": {"weights": [[1.0]], "bias": [0.0]}}, "not an object with"),
        ([[1.0]], "not an object with"),
        ({"weights": {"a": 1.0}, "bias": [0.0]}, "float"),
        ({"weights": [[1.0, 2.0]], "bias": [0.0, 0.0]}, "layer 0: bias"),
    ], ids=["no-weights", "no-bias", "second-layer-no-bias", "layer-not-object", "layers-not-list",
            "not-object", "weights-not-numbers", "bias-length"])
    def test_bad_file_names_path_and_field(self, tmp_path, payload, where):
        path = tmp_path / "head.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=where) as info:
            AffineHead.from_file(str(path))
        assert repr(str(path)) in str(info.value)
