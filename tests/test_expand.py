import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastinsight import EmbeddingIndex, RankedList, stex, stex_scores

from conftest import frontier_keys, make_graph, random_graph, ranked


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

    @pytest.mark.parametrize("n", [2, 4])
    def test_scores_of_another_length_rejected(self, n):
        g, index, ret, v_q = _hand_fixture()
        with pytest.raises(ValueError, match="index of 3 rows"):
            stex(v_q, index, g, ret, beta=1.0, sims=np.zeros(n))

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
            assert sorted(out.keys()) == frontier_keys(g, ret)
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
        with pytest.raises(ValueError):
            stex(np.array([1.0]), _index_from({"a": [0.0]}), g, RankedList([]), beta=1.0)

    def test_negative_beta_rejected(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError):
            stex(np.array([1.0]), _index_from({"b": [0.0]}), g, ranked("a"), beta=-0.5)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        g, index, ret, v_q = _hand_fixture()
        with pytest.raises(ValueError, match="finite"):
            stex(v_q, index, g, ret, beta=beta)
        with pytest.raises(ValueError, match="finite"):
            stex_scores(v_q, index, g, ret, beta=beta)

    def test_empty_frontier_gives_empty_list(self):
        g = make_graph(["a", "b"], [("a", "b")])
        out = stex(np.array([1.0]), _index_from({"a": [0], "b": [0]}), g,
                   ranked("a", "b"), beta=1.0)
        assert len(out) == 0


def _reference_scores(v_q, index, g, ret, beta):
    """The per-candidate loop STeX ran before it became one pass over the
    CSR: a set walk for the frontier, then for every candidate a walk over
    its neighbors, one rank lookup each and one dot product. Returns
    (key, i_struct, i_sim, total) in (total desc, key asc) order."""
    retrieved = set(ret.keys())
    candidates = set()
    for key in retrieved:
        candidates.update(g.neighbors(key))
    v_q = np.asarray(v_q, dtype=np.float64)
    r_max = len(ret)
    scored = []
    for key in sorted(candidates - retrieved):
        nbrs = g.neighbors(key)
        adjacent = [v for v in nbrs if v in retrieved]
        i_struct = 0.0
        if r_max > 1:
            r_best = min(ret.rank(v) for v in adjacent)
            i_struct += 1.0 - (r_best - 1) / (r_max - 1)
        c_max = min(len(nbrs), r_max)
        if c_max > 1:
            i_struct += (len(adjacent) - 1) / (c_max - 1)
        i_sim = float(v_q @ index.vector(key))
        scored.append((key, i_struct, i_sim, i_sim + beta * i_struct))
    scored.sort(key=lambda s: (-s[3], s[0]))
    return scored


@st.composite
def _stex_case(draw):
    """Isolated nodes, one- and two-way edges, ``ret`` in a random order, an
    index over every non-retrieved key plus some retrieved ones (so index
    rows and node ids differ), and vectors whose dot products often tie."""
    n = draw(st.integers(2, 12))
    keys = [f"n{i:02d}" for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans())
    edges = []
    for i, j, both_ways in draw(st.lists(pairs, max_size=3 * n)):
        edges += [(keys[i], keys[j]), (keys[j], keys[i])] if both_ways else [(keys[i], keys[j])]
    order = draw(st.permutations(keys))
    ret = order[:draw(st.integers(1, n))]
    indexed = sorted(set(keys) - set(ret)) + [k for k in ret if draw(st.booleans())]
    entry = st.one_of(st.sampled_from([-0.5, 0.0, 0.25, 0.5]), st.floats(-1.0, 1.0))
    # The index needs one vector to fix its dimension, even when no key is indexed.
    vectors = {k: draw(st.lists(entry, min_size=3, max_size=3)) for k in indexed or keys[:1]}
    v_q = np.array(draw(st.lists(entry, min_size=3, max_size=3)))
    return make_graph(keys, edges), _index_from(vectors), ranked(*ret), v_q, draw(st.floats(0.0, 3.0))


class TestOnePassMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(_stex_case())
    def test_matches_reference_loop(self, case):
        g, index, ret, v_q, beta = case
        want = _reference_scores(v_q, index, g, ret, beta)
        got = stex_scores(v_q, index, g, ret, beta)
        assert frontier_keys(g, ret) == sorted(s.key for s in got) == sorted(w[0] for w in want)
        ref = {w[0]: w for w in want}
        for s in got:
            assert s.i_struct == ref[s.key][1]  # same float operations: bit-equal
            assert abs(s.i_sim - ref[s.key][2]) <= 1e-12  # mat-vec vs per-row dot
            assert s.total == s.i_sim + beta * s.i_struct
        # The order may differ only between candidates whose reference totals
        # lie within 1e-12 of each other.
        position = {s.key: i for i, s in enumerate(got)}
        for i, a in enumerate(want):
            for b in want[i + 1:]:
                if a[3] - b[3] > 1e-12:
                    assert position[a[0]] < position[b[0]]

        full = stex(v_q, index, g, ret, beta)
        assert full.items() == tuple((s.key, s.total) for s in got)
        for j in range(len(full) + 2):
            assert stex(v_q, index, g, ret, beta, k=j).items() == full.items()[:j]
