import random

import numpy as np
import pytest

from fastinsight import EmbeddingIndex, frontier, stex, stex_scores

from conftest import make_graph, random_graph, ranked


def _index_from(vectors):
    d = len(next(iter(vectors.values())))
    return EmbeddingIndex({k: np.asarray(v, float) for k, v in vectors.items()}, d, False)


def _hand_fixture():
    # ret = a(1), b(2), c(3); frontier = {n, m}
    # n touches a and c, deg(n)=3 so C_max=min(3,3)=3
    # m touches b only, deg(m)=1 so no bridging term
    g = make_graph(
        ["a", "b", "c", "n", "m", "z"],
        [("n", "a"), ("n", "c"), ("n", "z"), ("m", "b")],
    )
    index = _index_from({
        "n": [0.1, 0.0],
        "m": [0.4, 0.0],
        "z": [0.0, 0.0],
    })
    return g, index, ranked("a", "b", "c"), np.array([1.0, 0.0])


class TestHandTrace:
    def test_score_breakdown(self):
        g, index, ret, v_q = _hand_fixture()
        scores = {s.key: s for s in stex_scores(v_q, index, g, ret, beta=1.0)}
        assert set(scores) == {"n", "m"}
        # n: r_best=1 -> rank term 1.0; |A(n)|=2, C_max=3 -> bridging 1/2
        assert scores["n"].i_struct == pytest.approx(1.5)
        assert scores["n"].i_sim == pytest.approx(0.1)
        assert scores["n"].total == pytest.approx(1.6)
        # m: r_best=2 -> rank term 1 - 1/2 = 0.5; C_max=min(1,3)=1 -> no bridge
        assert scores["m"].i_struct == pytest.approx(0.5)
        assert scores["m"].total == pytest.approx(0.9)

    def test_beta_scales_structural_term(self):
        g, index, ret, v_q = _hand_fixture()
        out = stex(v_q, index, g, ret, beta=2.0)
        assert out.score("n") == pytest.approx(0.1 + 2.0 * 1.5)
        assert out.score("m") == pytest.approx(0.4 + 2.0 * 0.5)

    def test_beta_zero_is_pure_similarity(self):
        g, index, ret, v_q = _hand_fixture()
        out = stex(v_q, index, g, ret, beta=0.0)
        assert list(out.keys()) == ["m", "n"]  # 0.4 beats 0.1
        assert out.score("m") == pytest.approx(0.4)

    def test_large_beta_is_structurally_lexicographic(self):
        g, index, ret, v_q = _hand_fixture()
        out = stex(v_q, index, g, ret, beta=1e9)
        assert list(out.keys()) == ["n", "m"]


class TestDirectedViews:
    def test_frontier_node_scored_from_its_retrieved_in_neighbor(self):
        # a -> b is read both ways: b is on the frontier of {a, x} with
        # A(b) = {a}, and a is on the frontier of {b, x} with A(a) = {b}.
        g = make_graph(["a", "b", "x"], [("a", "b")])
        index = _index_from({"a": [0.25], "b": [0.5], "x": [0.0]})
        (s,) = stex_scores(np.array([1.0]), index, g, ranked("a", "x"), beta=1.0)
        # r_best = 1 -> rank term 1.0; C_max = min(degree 1, 2) = 1 -> no bridge
        assert (s.key, s.i_struct, s.total) == ("b", 1.0, 1.5)
        (s,) = stex_scores(np.array([1.0]), index, g, ranked("b", "x"), beta=1.0)
        assert (s.key, s.i_struct, s.total) == ("a", 1.0, 1.25)


class TestSingletonRet:
    def test_no_rank_term_with_one_retrieved(self):
        g = make_graph(["a", "n", "z"], [("a", "n"), ("n", "z")])
        index = _index_from({"n": [0.25], "z": [0.0]})
        scores = stex_scores(np.array([1.0]), index, g, ranked("a"), beta=1.0)
        (s,) = [s for s in scores if s.key == "n"]
        # r_max = 1 suppresses the rank term; C_max = min(2, 1) = 1 suppresses bridging
        assert s.i_struct == 0.0
        assert s.total == pytest.approx(0.25)


class TestProperties:
    def _random_case(self, rng):
        g = random_graph(rng, n_max=9)
        while g.n_nodes < 2:
            g = random_graph(rng, n_max=9)
        keys = rng.sample(list(g.node_keys), rng.randint(1, g.n_nodes - 1))
        vecs = {k: [rng.uniform(-1, 1) for _ in range(4)] for k in g.node_keys}
        return g, _index_from(vecs), ranked(*keys)

    def test_candidates_are_exactly_the_frontier(self):
        rng = random.Random(7)
        for _ in range(150):
            g, index, ret = self._random_case(rng)
            out = stex(np.array([0.3, -0.1, 0.5, 0.2]), index, g, ret, beta=1.0)
            assert sorted(out.keys()) == frontier(g, ret)
            assert not set(out.keys()) & set(ret.keys())

    def test_i_struct_bounded(self):
        rng = random.Random(8)
        v_q = np.array([0.1, 0.9, -0.4, 0.0])
        for _ in range(150):
            g, index, ret = self._random_case(rng)
            for s in stex_scores(v_q, index, g, ret, beta=rng.random() * 3):
                assert 0.0 <= s.i_struct <= 2.0

    def test_zero_beta_matches_dot_product_order(self):
        rng = random.Random(9)
        v_q = np.array([0.7, -0.2, 0.1, 0.4])
        for _ in range(30):
            g, index, ret = self._random_case(rng)
            out = stex(v_q, index, g, ret, beta=0.0)
            sims = {k: float(v_q @ index.vector(k)) for k in out.keys()}
            want = sorted(sims, key=lambda k: (-sims[k], k))
            assert list(out.keys()) == want

    def test_beta_never_demotes_best_bridger_below_bottom(self):
        # With beta large, any candidate with maximal i_struct outranks
        # every candidate with strictly smaller i_struct.
        rng = random.Random(10)
        v_q = np.array([0.2, 0.2, 0.2, 0.2])
        for _ in range(30):
            g, index, ret = self._random_case(rng)
            scores = stex_scores(v_q, index, g, ret, beta=1e8)
            for first, second in zip(scores, scores[1:]):
                assert first.i_struct >= second.i_struct - 1e-12


class TestErrors:
    def test_empty_ret_rejected(self):
        g = make_graph(["a"], [])
        from fastinsight import RankedList
        with pytest.raises(ValueError):
            stex(np.array([1.0]), _index_from({"a": [0.0]}), g, RankedList([]), beta=1.0)

    def test_negative_beta_rejected(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError):
            stex(np.array([1.0]), _index_from({"b": [0.0]}), g, ranked("a"), beta=-0.5)

    def test_empty_frontier_gives_empty_list(self):
        g = make_graph(["a", "b"], [("a", "b")])
        out = stex(np.array([1.0]), _index_from({"a": [0], "b": [0]}), g,
                   ranked("a", "b"), beta=1.0)
        assert len(out) == 0
