"""End-to-end acceptance suite: eleven go/no-go checks (criterion 11 in two tests).

Each test computes its verdict, prints a single "criterion NN <name>: PASS|FAIL"
line, and then asserts. Run with ``pytest tests/test_acceptance.py -s`` to see
every line; under default capture the lines surface for failures.
"""

import math
import random
import time

import numpy as np
import pytest

from fastinsight import (
    EmbeddingIndex,
    FastInsightConfig,
    HashEmbedder,
    HashReranker,
    PropagationMatrix,
    RankedList,
    build_index,
    build_propagation,
    capped_recall_at_k,
    fastinsight_retrieve,
    fuse_latents,
    granker,
    load_graph,
    load_qrels,
    miss_tr,
    ppr_scores,
    recall_uncapped,
    rerank_pool,
    stex,
    stex_scores,
    synth_bridge,
    topological_recall,
    uncertainty,
    vector_search,
)
from fastinsight.runner import load_queries

from conftest import CountingReranker, make_graph, random_graph, ranked, run_cli


def _verdict(num, name, ok, detail=""):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail and not ok else ""))
    assert ok, f"criterion {num:02d} {name} failed {detail}"


def _random_graph_upto(rng, n_max):
    n = rng.randint(1, n_max)
    keys = [f"n{i}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1:]
             if rng.random() < 3.0 / max(n, 1)]
    return make_graph(keys, edges)


def test_criterion_01_decomposition_identity():
    rng = random.Random(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        g = _random_graph_upto(rng, 50)
        keys = list(g.node_keys)
        ret = rng.sample(keys, rng.randint(1, g.n_nodes))
        oracle = set(rng.sample(keys, rng.randint(1, g.n_nodes)))
        tr = topological_recall(g, ret, oracle)
        resid = abs(tr - (recall_uncapped(ret, oracle) + miss_tr(g, ret, oracle)))
        worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    _verdict(1, "decomposition-identity", worst <= 1e-9 and elapsed < 30.0,
             f"worst residual {worst:.2e}, {elapsed:.1f}s")


def _exhaustive_uncertainty(g, ret_keys, target):
    ret_set = set(ret_keys)
    if target in ret_set:
        return 0.0
    w = {k: math.log1p(g.degree(k)) for k in g.node_keys}
    best = math.inf

    def dfs(node, visited, weight):
        nonlocal best
        if weight >= best:
            return
        if node == target:
            best = weight
            return
        for nb in g.neighbors(node):
            if nb not in visited:
                dfs(nb, visited | {nb}, weight + (w[nb] if nb != target else 0.0))

    for seed in ret_set:
        dfs(seed, {seed}, w[seed])
    return best


def test_criterion_02_uncertainty_oracle():
    rng = random.Random(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1_000):
        g = _random_graph_upto(rng, 10)
        keys = list(g.node_keys)
        ret = rng.sample(keys, rng.randint(1, g.n_nodes))
        target = rng.choice(keys)
        got = uncertainty(g, ret, target)
        want = _exhaustive_uncertainty(g, ret, target)
        if math.isinf(want):
            ok_inst = math.isinf(got)
            resid = 0.0 if ok_inst else math.inf
        else:
            resid = abs(got - want)
        worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    _verdict(2, "uncertainty-oracle", worst <= 1e-9 and elapsed < 60.0,
             f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_granker_degeneration():
    rng = random.Random(303)
    rr = HashReranker(128)
    ok = True
    for _ in range(100):
        g = random_graph(rng, n_max=10)
        while g.n_nodes < 2:
            g = random_graph(rng, n_max=10)
        ret = ranked(*rng.sample(list(g.node_keys), rng.randint(2, g.n_nodes)))
        q = f"query {rng.randint(0, 99)} text"
        if granker(q, ret, g, 0.0, rr).keys() != rerank_pool(q, ret, g, rr).keys():
            ok = False
            break
    _verdict(3, "granker-alpha-zero-degeneration", ok)


def test_criterion_04_propagation_rows():
    rng = random.Random(404)
    ok = True
    for _ in range(200):
        g = random_graph(rng, n_max=10)
        if g.n_nodes < 2:
            continue
        ret = ranked(*rng.sample(list(g.node_keys), rng.randint(2, g.n_nodes)))
        p = build_propagation(ret, g)
        for i in range(len(ret)):
            s = p.matrix[i].sum()
            if i in p.isolated_rows:
                ok = ok and s == 0.0
            else:
                ok = ok and abs(s - 1.0) <= 1e-9
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    p = build_propagation(ranked("a", "b", "c"), g)
    ok = ok and np.array_equal(p.matrix[1], [0.5, 0.0, 0.5])
    _verdict(4, "propagation-rows", ok)


def test_criterion_05_gradient_step():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        mat = rng.random((n, n))
        mat /= mat.sum(axis=1, keepdims=True)
        h = rng.standard_normal((n, d))
        eta = float(rng.uniform(0.05, 0.9))
        lam = float(rng.uniform(0.05, 1.0 / eta))
        stepped = h - eta * lam * ((np.eye(n) - mat) @ h)
        fused = fuse_latents(h, PropagationMatrix(mat, frozenset()), eta * lam)
        worst = max(worst, float(np.abs(stepped - fused).max()))
    _verdict(5, "gradient-step-equivalence", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_06_stex_hand_trace():
    # candidate n adjacent to ranks 1 and 2 with deg(n)=2:
    # rank term = 1, bridging = (2-1)/(min(2,3)-1) = 1, S = i_sim + 2*beta
    g = make_graph(["a", "b", "c", "n"], [("n", "a"), ("n", "b")])
    index = EmbeddingIndex({"n": np.array([0.3, 0.4])}, 2, False)
    v_q = np.array([1.0, 0.0])
    (s,) = stex_scores(v_q, index, g, ranked("a", "b", "c"), beta=0.7)
    ok = (s.i_struct == pytest.approx(2.0, abs=1e-12)
          and s.total == pytest.approx(0.3 + 2 * 0.7, abs=1e-12))

    rng = random.Random(606)
    for _ in range(100):
        g = random_graph(rng, n_max=9)
        if g.n_nodes < 2:
            continue
        keys = list(g.node_keys)
        ret = ranked(*rng.sample(keys, rng.randint(1, g.n_nodes - 1)))
        vecs = {k: np.array([rng.uniform(-1, 1) for _ in range(3)]) for k in keys}
        index = EmbeddingIndex(vecs, 3, False)
        v_q = np.array([0.5, -0.3, 0.8])
        got = stex(v_q, index, g, ret, beta=0.0)
        sims = {k: float(v_q @ vecs[k]) for k in got.keys()}
        ok = ok and list(got.keys()) == sorted(sims, key=lambda k: (-sims[k], k))
    _verdict(6, "stex-hand-trace", ok)


def _frontier_rich():
    rng = random.Random(707)
    keys = [f"v{i:03d}" for i in range(200)]
    edges = [(keys[i], keys[i + 1]) for i in range(199)]
    for i in range(200):
        for j in range(i + 2, 200):
            if rng.random() < 0.03:
                edges.append((keys[i], keys[j]))
    contents = {k: f"doc {k} w{i % 13} w{i % 7}" for i, k in enumerate(keys)}
    return make_graph(keys, edges, contents=contents)


def test_criterion_07_call_counts():
    g = _frontier_rich()
    emb = HashEmbedder(128)
    index = build_index(g, emb)
    rr = HashReranker(128)
    ret, trace = fastinsight_retrieve("w3 w5 doc", g, index, emb, rr,
                                      FastInsightConfig(batch=10, budget=100))
    ok = (len(ret) == 100 and trace.granker_calls == 10 and trace.stex_calls == 9)

    island = [f"i{j}" for j in range(12)]
    edges = [(a, b) for i, a in enumerate(island) for b in island[i + 1:]]
    edges.append(("o1", "o2"))
    contents = {k: f"island topic {k}" for k in island}
    contents.update({"o1": "far away", "o2": "far away too"})
    g2 = make_graph(island + ["o1", "o2"], edges, contents=contents)
    index2 = build_index(g2, emb)
    ret2, _ = fastinsight_retrieve("island topic", g2, index2, emb, rr,
                                   FastInsightConfig(batch=10, budget=100))
    ok = ok and set(ret2.keys()) == set(island)
    _verdict(7, "call-counts-and-early-stop", ok,
             f"|ret|={len(ret)} granker={trace.granker_calls} stex={trace.stex_calls}")


@pytest.fixture(scope="module")
def bridge(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_bridge")
    ds = synth_bridge(n_clusters=8, cluster_size=30, seed=1, out_dir=str(out))
    g = load_graph(ds.nodes, ds.edges)
    emb = HashEmbedder(256)
    index = build_index(g, emb)
    return ds, g, index, emb, HashReranker(256)


def test_criterion_08_bridge_separation(bridge):
    ds, g, index, emb, rr = bridge
    qrels = load_qrels(ds.qrels)
    cfg = FastInsightConfig(batch=10, budget=20)
    fi_r10, vs_r10, fi_tr, vs_tr = [], [], [], []
    for qid, text in load_queries(ds.queries):
        gold = qrels[qid]
        fi, _ = fastinsight_retrieve(text, g, index, emb, rr, cfg)
        vs = vector_search(emb.encode_query(text), index, 20)
        fi_r10.append(capped_recall_at_k(fi, gold, 10))
        vs_r10.append(capped_recall_at_k(vs, gold, 10))
        fi_tr.append(topological_recall(g, fi, gold))
        vs_tr.append(topological_recall(g, vs, gold))
    margin = sum(fi_r10) / len(fi_r10) - sum(vs_r10) / len(vs_r10)
    tr_fi, tr_vs = sum(fi_tr) / len(fi_tr), sum(vs_tr) / len(vs_tr)
    # frozen from the first measurement: margin 1.00, tr 1.000 vs 0.383
    ok = margin >= 0.3 and tr_fi > tr_vs
    _verdict(8, "bridge-separation", ok,
             f"r10 margin {margin:.3f}, tr {tr_fi:.3f} vs {tr_vs:.3f}")


def test_criterion_09_ppr_oracle():
    rng = random.Random(909)
    worst = 0.0
    worst_sum = 0.0
    for _ in range(50):
        g = _random_graph_upto(rng, 20)
        keys = list(g.node_keys)
        seeds = RankedList((k, 1.0) for k in rng.sample(keys, rng.randint(1, g.n_nodes)))
        scores = ppr_scores(g, seeds, restart=0.15)
        worst_sum = max(worst_sum, abs(sum(scores.values()) - 1.0))

        # dense power iteration with dangling mass redirected to the seeds
        n = len(keys)
        pos = {k: i for i, k in enumerate(keys)}
        m = np.zeros((n, n))
        for k in keys:
            nbs = g.neighbors(k)
            for nb in nbs:
                m[pos[nb], pos[k]] = 1.0 / len(nbs)
        p0 = np.zeros(n)
        for k, wgt in seeds.items():
            p0[pos[k]] += wgt
        p0 /= p0.sum()
        dangling = np.array([1.0 if not g.neighbors(k) else 0.0 for k in keys])
        p = p0.copy()
        for _ in range(5_000):
            p = 0.85 * (m @ p + (dangling @ p) * p0) + 0.15 * p0
        got = np.array([scores[k] for k in keys])
        worst = max(worst, float(np.abs(got - p).max()))
    ok = worst <= 1e-8 and worst_sum <= 1e-9
    _verdict(9, "ppr-oracle", ok, f"worst {worst:.2e}, sum dev {worst_sum:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "data"
    run_cli(["synth", "--clusters", "4",
             "--cluster-size", "24", "--seed", "3", "--out", str(data)],
            check=True, capture_output=True)
    common = ["run",
              "--nodes", str(data / "nodes.jsonl"), "--edges", str(data / "edges.tsv"),
              "--queries", str(data / "queries.jsonl"), "--qrels", str(data / "qrels.tsv"),
              "--method", "fastinsight", "--budget", "40", "--seed", "0"]
    for tag in ("one", "two"):
        run_cli(common + ["--out", str(tmp_path / tag)],
                check=True, capture_output=True)
    ok = ((tmp_path / "one" / "per_query.csv").read_bytes()
          == (tmp_path / "two" / "per_query.csv").read_bytes())
    _verdict(10, "cli-determinism", ok)


def test_criterion_11_budget_sweep(tmp_path):
    # clusters larger than the top budget so the budget binds at every point
    ds = synth_bridge(n_clusters=8, cluster_size=150, seed=4, out_dir=str(tmp_path))
    g = load_graph(ds.nodes, ds.edges)
    emb = HashEmbedder(256)
    index = build_index(g, emb)
    rr = HashReranker(256)
    qrels = load_qrels(ds.qrels)
    queries = load_queries(ds.queries)

    # warm caches (hash embeddings, reranker content vectors) before timing
    for _, text in queries:
        fastinsight_retrieve(text, g, index, emb, rr,
                             FastInsightConfig(batch=10, budget=100))

    cfgs = [FastInsightConfig(batch=10, budget=budget) for budget in range(10, 101, 10)]
    qpt_means = [math.inf] * len(cfgs)
    tr_means = [0.0] * len(cfgs)
    # best-of-3 means to suppress scheduler noise; the budgets take turns
    # within each rep, so a slow spell costs one rep of several budgets
    # rather than every rep of one budget
    for rep in range(3):
        for i, cfg in enumerate(cfgs):
            qpts = []
            trs = []
            for qid, text in queries:
                t0 = time.perf_counter()
                ret, _ = fastinsight_retrieve(text, g, index, emb, rr, cfg)
                qpts.append(time.perf_counter() - t0)
                trs.append(topological_recall(g, ret, qrels[qid]))
            qpt_means[i] = min(qpt_means[i], sum(qpts) / len(qpts))
            tr_means[i] = sum(trs) / len(trs)

    tr_ok = all(b >= a - 1e-12 for a, b in zip(tr_means, tr_means[1:]))
    qpt_ok = all(b >= a for a, b in zip(qpt_means, qpt_means[1:]))
    _verdict(11, "budget-sweep-monotone", tr_ok and qpt_ok,
             f"qpt_ms={[round(v * 1000, 2) for v in qpt_means]}, "
             f"tr={[round(v, 3) for v in tr_means]}")


def test_criterion_11_budget_sweep_work(tmp_path):
    # Criterion 11's "more budget costs more", on work counters that machine
    # load cannot move: GRanker calls and documents sent to the reranker.
    ds = synth_bridge(n_clusters=8, cluster_size=150, seed=4, out_dir=str(tmp_path))
    g = load_graph(ds.nodes, ds.edges)
    emb = HashEmbedder(256)
    index = build_index(g, emb)
    queries = load_queries(ds.queries)

    calls, docs = [], []
    for budget in range(10, 101, 10):
        rr = CountingReranker(256)
        cfg = FastInsightConfig(batch=10, budget=budget)
        calls.append(sum(fastinsight_retrieve(text, g, index, emb, rr, cfg)[1].granker_calls
                         for _, text in queries))
        docs.append(sum(len(contents) for _, contents in rr.batches))
    ok = all(b > a for a, b in zip(calls, calls[1:])) and all(b > a for a, b in zip(docs, docs[1:]))
    _verdict(11, "budget-sweep-work-monotone", ok, f"granker_calls={calls}, docs={docs}")
