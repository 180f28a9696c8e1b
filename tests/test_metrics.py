import heapq
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastinsight import (
    capped_recall_at_k,
    load_qrels,
    miss_tr,
    ndcg_at_k,
    recall_uncapped,
    seed_path_costs,
    topological_recall,
    tr_and_miss_tr,
    uncertainty,
)
from fastinsight.errors import GraphFormatError, UnknownNodeError

from conftest import child_env, make_graph, random_graph, ranked


LN2 = math.log(2)
LN3 = math.log(3)


def _exhaustive_uncertainty(g, ret_keys, target):
    """Brute-force u over all simple paths from any retrieved node to target."""
    ret_set = set(ret_keys)
    if target in ret_set:
        return 0.0
    best = math.inf
    w = {k: math.log1p(g.degree(k)) for k in g.node_keys}

    def dfs(node, visited, weight):
        nonlocal best
        if node == target:
            best = min(best, weight)
            return
        for nb in g.neighbors(node):
            if nb not in visited:
                extra = w[nb] if nb != target else 0.0
                dfs(nb, visited | {nb}, weight + extra)

    for seed in ret_set:
        dfs(seed, {seed}, w[seed])
    return best


def _reference_costs_to_predecessors(g, ret_keys):
    """u-values by the full-run algorithm: Dijkstra over the whole component
    from the retrieved set, then for every node the cheapest cost among its
    neighbors. The early-stopping search must match it."""
    dist = {}
    heap = []
    for seed in set(ret_keys):
        dist[seed] = math.log1p(g.degree(seed))
        heapq.heappush(heap, (dist[seed], seed))
    while heap:
        cost, node = heapq.heappop(heap)
        if dist.get(node) != cost:
            continue
        for nb in g.neighbors(node):
            cand = cost + math.log1p(g.degree(nb))
            if nb not in dist or cand < dist[nb]:
                dist[nb] = cand
                heapq.heappush(heap, (cand, nb))
    out = {}
    for key in g.node_keys:
        reachable = [dist[nb] for nb in g.neighbors(key) if nb in dist]
        if reachable:
            out[key] = min(reachable)
    return out


def _two_pass_seed_path_costs(g, ret_keys, targets=None):
    """The search as it was before it resolved its targets itself: a pre-pass
    maps each node to the targets it neighbors, and a target stops pending
    when one of those nodes settles. The reference for the one-pass search."""
    best = {seed: math.log1p(g.degree(seed)) for seed in set(ret_keys)}
    heap = [(cost, key) for key, cost in best.items()]
    heapq.heapify(heap)
    pending = None
    resolves = {}
    if targets is not None:
        pending = set(targets)
        for t in pending:
            for nb in g.neighbors(t):
                resolves.setdefault(nb, []).append(t)
    settled = {}
    while heap and (pending is None or pending):
        cost, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled[node] = cost
        if pending is not None:
            pending.difference_update(resolves.get(node, ()))
        for nb in g.neighbors(node):
            if nb in settled:
                continue
            cand = cost + math.log1p(g.degree(nb))
            if nb not in best or cand < best[nb]:
                best[nb] = cand
                heapq.heappush(heap, (cand, nb))
    return settled


def _two_pass_costs_to_predecessors(g, ret_keys, targets):
    """u-values the old way: rescan each target's neighbors for the first one
    in settle order."""
    settled = _two_pass_seed_path_costs(g, ret_keys, targets=targets)
    order = {key: i for i, key in enumerate(settled)}
    out = {}
    for t in targets:
        first = min((nb for nb in g.neighbors(t) if nb in order), key=order.__getitem__, default=None)
        if first is not None:
            out[t] = settled[first]
    return out


def _reference_uncertainty(g, ret_keys, target):
    if target in ret_keys:
        return 0.0
    return _reference_costs_to_predecessors(g, ret_keys).get(target, math.inf)


def _reference_tr(g, ret_keys, oracle):
    costs = _reference_costs_to_predecessors(g, ret_keys)
    total = 0.0
    for key in sorted(oracle):
        if key in ret_keys:
            total += 1.0
        elif key in costs:
            total += 1.0 / (1.0 + costs[key])
    return total / len(oracle)


@st.composite
def _metric_case(draw):
    """Graph with one- and two-way edges plus an edgeless node "far", a
    non-empty retrieved list and a non-empty gold set over all nodes."""
    n = draw(st.integers(1, 10))
    keys = [f"n{i:02d}" for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans())
    edges = []
    for i, j, both_ways in draw(st.lists(pairs, max_size=3 * n)):
        edges += [(keys[i], keys[j]), (keys[j], keys[i])] if both_ways else [(keys[i], keys[j])]
    g = make_graph(keys + ["far"], edges)
    ret = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    oracle = set(draw(st.lists(st.sampled_from(g.node_keys), min_size=1, unique=True)))
    return g, ret, oracle


class TestSetMetrics:
    def test_capped_recall_examples(self):
        ret = ranked("a", "b", "c", "d")
        assert capped_recall_at_k(ret, {"a", "c"}, 2) == pytest.approx(0.5)
        assert capped_recall_at_k(ret, {"a", "c"}, 4) == pytest.approx(1.0)
        assert capped_recall_at_k(ret, {"a", "x", "y"}, 1) == pytest.approx(1.0)

    def test_recall_uncapped(self):
        assert recall_uncapped(["a", "b"], {"a", "x", "y", "z"}) == pytest.approx(0.25)
        assert recall_uncapped([], {"a"}) == 0.0

    def test_ndcg_hand_value(self):
        # single gold node at rank 3 out of k=3: dcg = 1/log2(4), ideal = 1/log2(2)
        got = ndcg_at_k(ranked("x", "y", "gold"), {"gold"}, 3)
        assert got == pytest.approx(0.5)
        # gold at rank 2 with two gold total: dcg = 1/log2(3) = 0.6309...
        got = ndcg_at_k(ranked("x", "g1"), {"g1", "g2"}, 2)
        assert got == pytest.approx((1 / math.log2(3)) / (1 + 1 / math.log2(3)))

    def test_repeated_key_rejected(self):
        # Counted twice, a gold key would push nDCG above 1 (1.63 here).
        for metric in (lambda ret: ndcg_at_k(ret, {"a"}, 2),
                       lambda ret: capped_recall_at_k(ret, {"a"}, 2),
                       lambda ret: recall_uncapped(ret, {"a"}),
                       lambda ret: topological_recall(make_graph(["a", "b"], []), ret, {"a"})):
            with pytest.raises(ValueError, match="'a' is repeated"):
                metric(["b", "a", "a"])
        assert ndcg_at_k(ranked("a", "b"), {"a"}, 2) == 1.0

    def test_ndcg_perfect_is_one(self):
        assert ndcg_at_k(ranked("g1", "g2", "x"), {"g1", "g2"}, 3) == pytest.approx(1.0)

    def test_empty_oracle_rejected(self):
        for fn in (lambda: recall_uncapped(["a"], set()),
                   lambda: capped_recall_at_k(["a"], set(), 1),
                   lambda: ndcg_at_k(["a"], set(), 1)):
            with pytest.raises(ValueError):
                fn()


class TestUncertainty:
    def test_retrieved_target_is_zero(self, path_graph):
        assert uncertainty(path_graph, ["a", "b"], "b") == 0.0

    def test_path_hand_value(self, path_graph):
        # a - b - c; seeds {a}: path cost = w(a) + w(b) = ln2 + ln3, w(c) excluded
        got = uncertainty(path_graph, ["a"], "c")
        assert got == pytest.approx(LN2 + LN3)

    def test_unreachable_is_inf(self):
        g = make_graph(["a", "b", "z"], [("a", "b")])
        assert uncertainty(g, ["a"], "z") == math.inf

    def test_unknown_target_rejected(self, path_graph):
        with pytest.raises(UnknownNodeError):
            uncertainty(path_graph, ["a"], "missing")
        with pytest.raises(UnknownNodeError):
            seed_path_costs(path_graph, ["a"], targets=["c", "missing"])

    def test_seed_degree_matters(self):
        # two routes to t: via hub (degree 4) or via leaf chain; cheaper one wins
        g = make_graph(
            ["s", "hub", "t", "x1", "x2", "mid"],
            [("s", "hub"), ("hub", "t"), ("hub", "x1"), ("hub", "x2"),
             ("s", "mid"), ("mid", "t")],
        )
        got = uncertainty(g, ["s"], "t")
        want = math.log1p(g.degree("s")) + math.log1p(g.degree("mid"))
        assert got == pytest.approx(want)

    def test_matches_exhaustive_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(200):
            g = random_graph(rng, n_max=8)
            if g.n_nodes < 2:
                continue
            keys = list(g.node_keys)
            ret = rng.sample(keys, rng.randint(1, g.n_nodes - 1))
            target = rng.choice([k for k in keys])
            got = uncertainty(g, ret, target)
            want = _exhaustive_uncertainty(g, ret, target)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_ranked_list_equals_its_keys(self):
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        ret = ranked("b", "a")
        for target in ("a", "c", "d"):  # retrieved, then one and two hops out
            assert uncertainty(g, ret, target) == uncertainty(g, ["b", "a"], target)
        assert uncertainty(g, ret, "a") == 0.0
        assert uncertainty(g, ranked("a"), "c") == uncertainty(g, ["a"], "c") > 0

    def test_seed_path_costs_covers_component(self, path_graph):
        costs = seed_path_costs(path_graph, ["a"])
        assert costs["a"] == pytest.approx(LN2)
        assert costs["b"] == pytest.approx(LN2 + LN3)
        assert costs["c"] == pytest.approx(LN2 + LN3 + LN2)


class TestTopologicalRecall:
    def test_retrieved_gold_scores_one(self, path_graph):
        assert topological_recall(path_graph, ["a"], {"a"}) == pytest.approx(1.0)

    def test_one_hop_partial_credit(self, path_graph):
        # u(c | {a}) = ln2 + ln3 -> 1/(1 + 1.7918) = 0.3582...
        got = topological_recall(path_graph, ["a"], {"c"})
        assert got == pytest.approx(1.0 / (1.0 + LN2 + LN3))

    def test_mixed_average(self, path_graph):
        got = topological_recall(path_graph, ["a"], {"a", "c"})
        assert got == pytest.approx((1.0 + 1.0 / (1.0 + LN2 + LN3)) / 2)

    def test_unreachable_contributes_zero(self):
        g = make_graph(["a", "b", "z"], [("a", "b")])
        assert topological_recall(g, ["a"], {"a", "z"}) == pytest.approx(0.5)
        # reachable missed gold still earns partial credit
        got = topological_recall(g, ["a"], {"b", "z"})
        assert got == pytest.approx(0.5 / (1.0 + LN2))

    def test_empty_ret_is_zero(self, path_graph):
        assert topological_recall(path_graph, [], {"a"}) == 0.0

    def test_decomposition_identity(self):
        rng = random.Random(23)
        for _ in range(300):
            g = random_graph(rng, n_max=9)
            if g.n_nodes < 2:
                continue
            keys = list(g.node_keys)
            ret = rng.sample(keys, rng.randint(0, g.n_nodes))
            oracle = set(rng.sample(keys, rng.randint(1, g.n_nodes)))
            tr = topological_recall(g, ret, oracle)
            rec = recall_uncapped(ret, oracle)
            mtr = 0.0 if not ret else miss_tr(g, ret, oracle)
            if ret:
                assert tr == pytest.approx(rec + mtr, abs=1e-12)

    def test_monotone_in_retrieved_set(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_graph(rng, n_max=9)
            if g.n_nodes < 3:
                continue
            keys = list(g.node_keys)
            oracle = set(rng.sample(keys, rng.randint(1, g.n_nodes)))
            small = rng.sample(keys, rng.randint(1, g.n_nodes - 1))
            big = small + [k for k in keys if k not in small][:1]
            assert (topological_recall(g, big, oracle)
                    >= topological_recall(g, small, oracle) - 1e-12)

    def test_miss_tr_zero_when_all_retrieved(self, path_graph):
        assert miss_tr(path_graph, ["a", "b", "c"], {"a", "c"}) == 0.0

    @pytest.mark.parametrize("metric", [miss_tr, topological_recall, tr_and_miss_tr])
    def test_one_shot_iterator_equals_list(self, path_graph, metric):
        # A one-shot iterator's keys are read once; read twice, the path
        # search would find no seeds and miss_tr would be 0.0, not 0.2953.
        for oracle in ({"a", "b"}, {"a"}, {"c"}):
            assert metric(path_graph, iter(["a"]), oracle) == metric(path_graph, ["a"], oracle)
        assert miss_tr(path_graph, iter(["a"]), {"a", "b"}) == pytest.approx(0.5 / (1.0 + LN2))


class TestEarlyStop:
    @settings(max_examples=300, deadline=None)
    @given(_metric_case())
    def test_matches_full_run_reference(self, case):
        # Every node is a target once: retrieved ones, the unreachable "far",
        # seed neighbors and the rest. Equality, not approx: the early stop
        # must pick the very same path cost, and the shared search the very
        # same tr and miss_tr.
        g, ret, oracle = case
        for target in g.node_keys:
            got = uncertainty(g, ret, target)
            assert got == _reference_uncertainty(g, set(ret), target), target
        want_tr = _reference_tr(g, set(ret), oracle)
        assert topological_recall(g, ret, oracle) == want_tr
        missed = oracle - set(ret)
        want = len(missed) / len(oracle) * _reference_tr(g, set(ret), missed) if missed else 0.0
        assert miss_tr(g, ret, oracle) == want
        assert tr_and_miss_tr(g, ret, oracle) == (want_tr, want)

    def test_targets_settle_only_the_nodes_needed(self):
        keys = [f"p{i:03d}" for i in range(200)]
        g = make_graph(keys + ["far"], list(zip(keys, keys[1:])))
        full = seed_path_costs(g, ["p000"])
        assert len(full) == 200
        near = seed_path_costs(g, ["p000"], targets=["p002"])
        assert list(near) == ["p000", "p001"]  # p001 resolves p002
        assert all(near[k] == full[k] for k in near)
        assert seed_path_costs(g, ["p000"], targets=["far"]) == full  # never resolved


class TestOnePassSearch:
    @settings(max_examples=300, deadline=None)
    @given(_metric_case(), st.data())
    def test_matches_two_pass_reference(self, case, data):
        # Targets may be retrieved, the isolated "far", unreachable or
        # repeated; None searches the whole component.
        g, ret, _ = case
        targets = data.draw(st.none() | st.lists(st.sampled_from(g.node_keys), max_size=8))
        got = seed_path_costs(g, ret, targets=targets)
        want = _two_pass_seed_path_costs(g, ret, targets=targets)
        assert list(got.items()) == list(want.items())
        assert got.resolved == ({} if targets is None
                                else _two_pass_costs_to_predecessors(g, ret, targets))

    def test_matches_two_pass_reference_with_hubs(self):
        # Seeded preferential attachment: hubs far above degree 47, so each
        # hub is relaxed from many settled neighbours.
        rng = random.Random(2511)
        keys = [f"v{i:03d}" for i in range(300)]
        edges, ends = [(keys[0], keys[1])], [keys[0], keys[1]]
        for key in keys[2:]:
            for nb in sorted({rng.choice(ends), rng.choice(ends)}):
                edges.append((key, nb))
                ends += [key, nb]
        g = make_graph(keys, edges)
        assert g.degrees.max() > 47
        for _ in range(20):
            ret = rng.sample(keys, rng.randint(1, 10))
            for targets in (None, rng.sample(keys, rng.randint(1, 8))):
                got = seed_path_costs(g, ret, targets=targets)
                want = _two_pass_seed_path_costs(g, ret, targets=targets)
                assert list(got.items()) == list(want.items())
                assert got.resolved == ({} if targets is None
                                        else _two_pass_costs_to_predecessors(g, ret, targets))


_TR_SCRIPT = """
from fastinsight import CorpusGraph, topological_recall
keys = [f"k{i:03d}" for i in range(120)]
edges = [(keys[i], keys[i + 1]) for i in range(119)]
edges += [(keys[i], keys[(7 * i + 3) % 120]) for i in range(0, 120, 5)]
g = CorpusGraph({k: k for k in keys}, edges)
print(repr(topological_recall(g, ["k000", "k060"], set(keys[::3]))))
"""


def test_tr_independent_of_hash_seed():
    # The gold set's iteration order follows PYTHONHASHSEED; the sum of the
    # per-gold credits must not.
    outs = [subprocess.run([sys.executable, "-c", _TR_SCRIPT], env=child_env(PYTHONHASHSEED=str(seed)),
                           capture_output=True, text=True, check=True).stdout
            for seed in range(4)]
    assert outs == outs[:1] * 4


class TestQrels:
    def test_load_filters_zero_relevance(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\tn1\t1\nq1\tn2\t0\nq2\tn3\t2\n\nq2\tn4\t1\n")
        got = load_qrels(str(p))
        assert got == {"q1": {"n1"}, "q2": {"n3", "n4"}}

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\tn1\n")
        with pytest.raises(GraphFormatError):
            load_qrels(str(p))

    def test_bad_relevance_reports_line(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\tn1\t1\nq1\tn2\tsoon\n")
        with pytest.raises(GraphFormatError) as ei:
            load_qrels(str(p))
        assert ei.value.line_no == 2
