import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastinsight import (
    EmbeddingIndex,
    FastInsightConfig,
    HashEmbedder,
    HashReranker,
    RankedList,
    baseline_ppr,
    baseline_re2,
    baseline_vs,
    build_index,
    fastinsight_retrieve,
    granker,
    personalized_pagerank,
    rerank_pool,
    stex,
    stex_scores,
    vector_search,
)

from fastinsight.engine import METHODS

from conftest import CountingReranker, count_searches, make_graph, ranked


class MatrixReads(EmbeddingIndex):
    """An index that counts the reads of its ``matrix`` in ``reads``."""

    __slots__ = ("reads",)

    def __init__(self, *args):
        self.reads = 0
        super().__init__(*args)

    @property
    def matrix(self):
        self.reads += 1
        return EmbeddingIndex.matrix.__get__(self)

    @matrix.setter
    def matrix(self, value):
        EmbeddingIndex.matrix.__set__(self, value)


def _rich_graph(n=120, p=0.05, seed=5):
    """Connected-ish random graph with distinct contents for every node."""
    rng = random.Random(seed)
    keys = [f"v{i:03d}" for i in range(n)]
    edges = [(keys[i], keys[i + 1]) for i in range(n - 1)]  # spanning chain
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < p:
                edges.append((keys[i], keys[j]))
    contents = {k: f"text {k} tok{i} tok{i % 7} filler{i % 11}" for i, k in enumerate(keys)}
    return make_graph(keys, edges, contents=contents)


@pytest.fixture(scope="module")
def rich():
    g = _rich_graph()
    emb = HashEmbedder(64)
    return g, build_index(g, emb), emb, HashReranker(64)


class TestLoop:
    def test_budget_equal_batch_is_single_pass(self, rich, monkeypatch):
        g, index, emb, rr = rich
        searches = count_searches(monkeypatch)
        cfg = FastInsightConfig(batch=10, budget=10)
        ret, trace = fastinsight_retrieve("tok3 filler5", g, index, emb, rr, cfg)
        assert len(ret) == 10
        assert (len(searches), trace.granker_calls, trace.stex_calls) == (1, 1, 0)
        assert len(trace.snapshots) == 1

    def test_full_budget_call_counts(self, rich, monkeypatch):
        g, index, emb, rr = rich
        searches = count_searches(monkeypatch)
        cfg = FastInsightConfig(batch=10, budget=100)
        ret, trace = fastinsight_retrieve("tok1 tok4 filler2", g, index, emb, rr, cfg)
        assert len(ret) == 100
        assert len(searches) == 1
        assert trace.granker_calls == 10  # 1 seed pass + 9 expansion passes
        assert trace.stex_calls == 9
        initial_vs = vector_search(trace.query_vector, index, 10).keys()
        assert set(initial_vs) == set(trace.snapshots[0].keys())
        assert len(initial_vs) == 10

    def test_snapshots_grow_by_batch(self, rich):
        g, index, emb, rr = rich
        cfg = FastInsightConfig(batch=7, budget=30)
        ret, trace = fastinsight_retrieve("tok2", g, index, emb, rr, cfg)
        assert [len(s) for s in trace.snapshots] == [7, 14, 21, 28, 30]
        for prev, cur in zip(trace.snapshots, trace.snapshots[1:]):
            assert set(prev.keys()) <= set(cur.keys())

    def test_early_stop_on_exhausted_component(self):
        # 12-node clique island plus a far-away component the walk can't reach
        island = [f"i{j}" for j in range(12)]
        other = ["o1", "o2"]
        edges = [(a, b) for idx, a in enumerate(island) for b in island[idx + 1:]]
        edges.append(("o1", "o2"))
        contents = {k: f"island topic {k}" for k in island}
        contents.update({k: "unrelated stuff" for k in other})
        g = make_graph(island + other, edges, contents=contents)
        emb = HashEmbedder(64)
        index = build_index(g, emb)
        cfg = FastInsightConfig(batch=10, budget=100)
        ret, trace = fastinsight_retrieve("island topic", g, index, emb,
                                          HashReranker(64), cfg)
        # seeds land in the island; one expansion adds the last 2 island nodes,
        # then the frontier is empty and the loop terminates under budget
        assert set(ret.keys()) == set(island)
        assert len(ret) == 12 < cfg.budget
        assert trace.stex_calls == 2  # productive hop + the empty one that stops

    def test_deterministic_across_runs(self, rich):
        g, index, emb, rr = rich
        cfg = FastInsightConfig(batch=10, budget=60)
        a, _ = fastinsight_retrieve("tok5 filler1", g, index, emb, rr, cfg)
        b, _ = fastinsight_retrieve("tok5 filler1", g, index, emb, rr, cfg)
        assert a.items() == b.items()

    def test_matches_hand_composed_pipeline(self, rich):
        # Recompose the loop from the public operators and compare exactly.
        g, index, emb, rr = rich
        cfg = FastInsightConfig(batch=10, alpha=0.3, beta=1.5, budget=40)
        q = "tok6 filler3"
        got, _ = fastinsight_retrieve(q, g, index, emb, rr, cfg)

        v_q = emb.encode_query(q)
        ret = granker(q, vector_search(v_q, index, 10), g, 0.3, rr)
        while len(ret) < 40:
            adds = stex(v_q, index, g, ret, 1.5)
            if len(adds) == 0:
                break
            take = min(len(ret) + 10, 40) - len(ret)
            ret = granker(q, ret.concat(adds.head(take)), g, 0.3, rr)
        assert got.items() == ret.items()

    def test_each_document_extracted_once(self, rich):
        g, index, emb, _ = rich
        rr = CountingReranker()
        cfg = FastInsightConfig(batch=10, budget=100)
        q = "tok1 tok4 filler2"
        ret, trace = fastinsight_retrieve(q, g, index, emb, rr, cfg)
        pairs = Counter((query, doc) for query, docs in rr.batches for doc in docs)
        assert len(ret) == 100 and sum(pairs.values()) == 100
        assert set(pairs.values()) == {1}
        assert set(pairs) == {(q, g.content(k)) for k in ret.keys()}
        assert all(docs for _, docs in rr.batches)
        # one reranker batch per granker call; granker_calls still counts iterations
        assert len(rr.batches) == trace.granker_calls == 10

    def test_loop_resolves_only_the_returned_keys(self, rich, monkeypatch):
        g, index, emb, rr = rich
        assert build_index(g, emb).keys is g.node_keys
        resolved = []
        keys = RankedList.keys
        monkeypatch.setattr(RankedList, "keys", lambda self: resolved.append(self) or keys(self))
        ret, trace = fastinsight_retrieve("tok1 tok4 filler2", g, index, emb, rr,
                                          FastInsightConfig(batch=10, budget=100))
        assert len(ret) == 100 and trace.granker_calls == 10
        assert len(resolved) == 1 and resolved[0] is ret

    def test_index_matrix_read_once_per_query(self, rich):
        # The seed search scores every row; each STeX call reads those scores
        # instead of multiplying the candidates' rows again.
        g, built, emb, rr = rich
        cfg = FastInsightConfig(batch=10, budget=100)
        vectors = {k: built.vector(k) for k in g.node_keys}
        shared, own = MatrixReads(vectors, emb.dimension), MatrixReads(vectors, emb.dimension)
        shared.keys = g.node_keys
        for index in (shared, own):
            for q in ("tok1 tok4 filler2", "tok6 filler3"):
                index.reads = 0
                ret, trace = fastinsight_retrieve(q, g, index, emb, rr, cfg)
                assert (trace.stex_calls, index.reads) == (9, 1)
                assert ret.items() == fastinsight_retrieve(q, g, built, emb, rr, cfg)[0].items()

    def test_empty_graph_rejected(self):
        g = make_graph([], [])
        emb = HashEmbedder(64)
        with pytest.raises(ValueError):
            fastinsight_retrieve("q", g, build_index(g, emb), emb,
                                 HashReranker(64), FastInsightConfig())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FastInsightConfig(batch=0)
        with pytest.raises(ValueError):
            FastInsightConfig(batch=20, budget=10)
        with pytest.raises(ValueError):
            FastInsightConfig(alpha=1.5)
        with pytest.raises(ValueError):
            FastInsightConfig(beta=-1)
        with pytest.raises(ValueError):
            FastInsightConfig(k_report=0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        # nan makes every STeX total nan, and inf * 0 is nan for a candidate
        # without structural score: neither orders the frontier.
        with pytest.raises(ValueError, match="finite"):
            FastInsightConfig(beta=beta)


class TestBaselines:
    def test_vs_delegates_to_vector_search(self, rich):
        g, index, emb, rr = rich
        got, trace = baseline_vs("tok2 filler4", g, index, emb, rr, FastInsightConfig(budget=15))
        want = vector_search(emb.encode_query("tok2 filler4"), index, 15)
        assert got.items() == want.items()

    def test_re2_pool_equals_k_is_rerank_of_vs(self, rich):
        g, index, emb, rr = rich
        cfg = FastInsightConfig(budget=12, k_report=12)
        got, _ = baseline_re2("tok3", g, index, emb, rr, cfg)
        assert sorted(got.keys()) == sorted(baseline_vs("tok3", g, index, emb, rr, cfg)[0].keys())

    def test_re2_composed_oracle(self, rich):
        g, index, emb, rr = rich
        cfg = FastInsightConfig(budget=10, k_report=3)
        got, _ = baseline_re2("tok1 tok2", g, index, emb, rr, cfg)
        pool, _ = baseline_vs("tok1 tok2", g, index, emb, rr, cfg)
        want = rerank_pool("tok1 tok2", pool, g, rr)
        assert list(got.keys()) == list(want.keys())[:3]

    def test_re2_rejects_small_pool(self, rich):
        g, index, emb, rr = rich
        with pytest.raises(ValueError):
            baseline_re2("q", g, index, emb, rr, FastInsightConfig(batch=5, budget=5, k_report=10))

    def test_singleton_corpus(self):
        g = make_graph(["only"], [], contents={"only": "the lone document"})
        emb = HashEmbedder(64)
        index = build_index(g, emb)
        rr = HashReranker(64)
        got, _ = baseline_vs("lone", g, index, emb, rr, FastInsightConfig())
        assert list(got.keys()) == ["only"]
        ret, trace = fastinsight_retrieve("lone", g, index, emb, rr,
                                          FastInsightConfig(batch=1, budget=5))
        assert list(ret.keys()) == ["only"]

    @pytest.mark.parametrize("q, weight", [
        ("node n04 n04", lambda s: np.maximum(s, 0.0)),  # n06's similarity is negative
        ("!!!", np.ones_like),  # no token: every seed scores 0
    ])
    def test_ppr_seed_rule(self, q, weight):
        # PageRank restarts on the seeds' scores clipped at 0, uniformly when
        # none is positive; the list keeps the seeds' own scores. n07 repeats
        # n06's text, so it ties n06 and is the one node left out of the seeds.
        keys = [f"n{i:02d}" for i in range(8)]
        g = make_graph(keys, list(zip(keys, keys[1:])), contents={"n07": "text for node n06"})
        emb, rr = HashEmbedder(16), HashReranker(16)
        index = build_index(g, emb)
        cfg = FastInsightConfig(batch=7, budget=8)
        got, _ = baseline_ppr(q, g, index, emb, rr, cfg)
        seeds = vector_search(emb.encode_query(q), index, 7)
        assert "n07" not in seeds.keys()
        assert q == "!!!" or seeds.score("n06") < 0
        assert q != "!!!" or not seeds.scores.any()
        restart = RankedList.of(seeds.names, seeds.ids, weight(seeds.scores))
        want = seeds.concat(personalized_pagerank(g, restart, k=1))
        assert got.items() == want.items() and got.keys()[-1] == "n07"


@pytest.mark.parametrize("method, stages", [
    ("vs", {"embed", "vs"}),
    ("re2", {"embed", "vs", "rerank"}),
    ("fastinsight", {"embed", "vs", "rerank", "expand"}),
    ("ppr", {"embed", "vs", "expand"}),
])
def test_methods_share_stage_names_and_embed_once(rich, method, stages, monkeypatch):
    g, index, emb, rr = rich
    searches = count_searches(monkeypatch)
    calls = []

    class CountingEmbedder(HashEmbedder):
        def encode_query(self, text):
            calls.append(text)
            return super().encode_query(text)

    ret, trace = METHODS[method]("tok1 tok2", g, index, CountingEmbedder(64), rr,
                                 FastInsightConfig(budget=30, k_report=5))
    assert calls == ["tok1 tok2"]
    assert set(trace.stage_seconds) == stages
    assert np.array_equal(trace.query_vector, emb.encode_query("tok1 tok2"))
    assert len(searches) == 1


@pytest.mark.parametrize("method", sorted(METHODS))
def test_methods_stay_within_budget(rich, method):
    # batch == budget leaves ppr no room past its seeds
    g, index, emb, rr = rich
    for batch, budget in [(10, 10), (20, 20), (1, 1), (7, 12)]:
        cfg = FastInsightConfig(batch=batch, budget=budget, k_report=min(budget, 10))
        ret, _ = METHODS[method]("tok1 tok2", g, index, emb, rr, cfg)
        assert 1 <= len(ret) <= budget, (batch, budget)


@st.composite
def _graph_and_config(draw):
    n = draw(st.integers(2, 24))
    keys = [f"n{i:02d}" for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans())
    edges = []
    for i, j, both_ways in draw(st.lists(pairs, min_size=n, max_size=4 * n)):
        edges += [(keys[i], keys[j]), (keys[j], keys[i])] if both_ways else [(keys[i], keys[j])]
    # a small vocabulary, so scores often tie
    contents = {k: f"w{i % 5} w{(3 * i) % 7} w{draw(st.integers(0, 3))}"
                for i, k in enumerate(keys)}
    batch = draw(st.integers(1, 5))
    cfg = FastInsightConfig(batch=batch, budget=draw(st.integers(batch, 30)),
                            alpha=draw(st.floats(0.0, 1.0)), beta=draw(st.floats(0.0, 3.0)))
    return make_graph(keys, edges, contents=contents), cfg


@settings(max_examples=100, deadline=None)
@given(_graph_and_config(), st.sampled_from(["w1", "w2 w4", "w0 w3 w6"]))
def test_engine_matches_stateless_granker_loop(case, q):
    # The engine reuses latents across granker calls; a loop of stateless
    # calls extracts them every time. They must agree bit for bit.
    g, cfg = case
    emb, rr = HashEmbedder(16), HashReranker(16)
    index = build_index(g, emb)

    def engine():
        return fastinsight_retrieve(q, g, index, emb, rr, cfg)[0].items()

    def stateless_loop():
        v_q = emb.encode_query(q)
        ret = granker(q, vector_search(v_q, index, cfg.batch), g, cfg.alpha, rr)
        while len(ret) < cfg.budget:
            adds = stex(v_q, index, g, ret, cfg.beta)
            if len(adds) == 0:
                break
            take = min(len(ret) + cfg.batch, cfg.budget) - len(ret)
            ret = granker(q, ret.concat(adds.head(take)), g, cfg.alpha, rr)
        return ret.items()

    assert engine() == stateless_loop()


@st.composite
def _index_case(draw):
    """A graph, a query naming some of its nodes, a ranked list over it in a
    random order, and loop settings."""
    n = draw(st.integers(1, 12))
    keys = [f"n{i:02d}" for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(keys[i], keys[j]) for i, j in draw(st.lists(pairs, max_size=3 * n))]
    q = " ".join(["node"] + draw(st.lists(st.sampled_from(keys), max_size=3)))
    ret = draw(st.permutations(keys))[:draw(st.integers(1, n))]
    budget = draw(st.integers(1, 15))
    cfg = FastInsightConfig(batch=draw(st.integers(1, budget)), budget=budget,
                            beta=draw(st.floats(0.0, 3.0)))
    return make_graph(keys, edges), q, ranked(*ret), cfg


class TestHandBuiltIndex:
    @settings(max_examples=80, deadline=None)
    @given(_index_case())
    def test_same_results_as_built_index(self, case):
        # The built index shares the graph's key table (rows are node ids);
        # the hand-built one has an equal table of its own (rows by key).
        g, q, ret, cfg = case
        emb, rr = HashEmbedder(16), HashReranker(16)
        built = build_index(g, emb)
        hand = EmbeddingIndex({k: built.vector(k) for k in g.node_keys}, emb.dimension)
        assert built.keys is g.node_keys and hand.keys is not g.node_keys
        v_q = emb.encode_query(q)
        assert stex(v_q, hand, g, ret, cfg.beta).items() == stex(v_q, built, g, ret, cfg.beta).items()
        assert stex_scores(v_q, hand, g, ret, cfg.beta) == stex_scores(v_q, built, g, ret, cfg.beta)
        got, got_trace = fastinsight_retrieve(q, g, hand, emb, rr, cfg)
        want, want_trace = fastinsight_retrieve(q, g, built, emb, rr, cfg)
        assert got.items() == want.items()
        assert [s.items() for s in got_trace.snapshots] == [s.items() for s in want_trace.snapshots]
        # Every method, with k_report cut to the budget so that re2 can run.
        cfg = replace(cfg, k_report=min(cfg.k_report, cfg.budget))
        for name, method in METHODS.items():
            want = method(q, g, built, emb, rr, cfg)[0]
            got = method(q, g, hand, emb, rr, cfg)[0]
            assert got.items() == want.items(), name
            if name == "ppr":
                assert got.names is g.node_keys


@settings(max_examples=80, deadline=None)
@given(_index_case())
def test_stex_similarity_is_the_search_score(case):
    # STeX reads i_sim from the full product index.matrix @ v_q, whether the
    # engine passes the seed search's scores or stex computes them itself. A
    # hand-built index with an extra key has rows that are not node ids.
    g, q, ret, cfg = case
    emb = HashEmbedder(16)
    built = build_index(g, emb)
    vectors = {k: built.vector(k) for k in g.node_keys}
    vectors["a-extra"] = emb.encode_node("w1 extra")
    hand = EmbeddingIndex(vectors, emb.dimension)
    v_q = emb.encode_query(q)
    for index in (built, hand):
        full = index.matrix @ v_q
        row_score = dict(zip(index.keys, full.tolist()))
        sims = np.empty(len(index))
        searched = vector_search(v_q, index, len(index), out=sims)
        assert sims.tobytes() == full.tobytes()
        for s in stex_scores(v_q, index, g, ret, cfg.beta):
            assert s.i_sim.hex() == row_score[s.key].hex() == searched.score(s.key).hex()
        assert stex(v_q, index, g, ret, cfg.beta, sims=sims).items() == \
            stex(v_q, index, g, ret, cfg.beta).items()
