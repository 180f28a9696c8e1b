import csv
import hashlib
import json
import time
from pathlib import Path

import pytest

from fastinsight import (
    FastInsightConfig,
    HashEmbedder,
    HashReranker,
    build_index,
    capped_recall_at_k,
    engine,
    load_graph,
    load_qrels,
    save_graph,
    synth_bridge,
    vector_search,
)
from fastinsight.runner import METHODS, RunConfig, RunError, load_queries, run_eval, run_sweep

from conftest import run_cli


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("bridge")
    return synth_bridge(n_clusters=4, cluster_size=24, seed=11, out_dir=str(out))


def _cfg(ds, out_dir, **over):
    base = dict(nodes=ds.nodes, edges=ds.edges, queries=ds.queries, qrels=ds.qrels,
                budget=40, out_dir=str(out_dir))
    base.update(over)
    return RunConfig(**base)


class TestSynth:
    def test_deterministic_for_fixed_seed(self, tmp_path):
        a = synth_bridge(3, 20, seed=5, out_dir=str(tmp_path / "a"))
        b = synth_bridge(3, 20, seed=5, out_dir=str(tmp_path / "b"))
        for pa, pb in zip((a.nodes, a.edges, a.queries, a.qrels),
                          (b.nodes, b.edges, b.queries, b.qrels)):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_graph_files_round_trip_byte_identical(self, dataset, tmp_path):
        nodes, edges = tmp_path / "nodes.jsonl", tmp_path / "edges.tsv"
        save_graph(load_graph(dataset.nodes, dataset.edges), str(nodes), str(edges))
        assert nodes.read_bytes() == Path(dataset.nodes).read_bytes()
        assert edges.read_bytes() == Path(dataset.edges).read_bytes()

    def test_gold_is_one_hop_from_a_bridge(self, dataset):
        g = load_graph(dataset.nodes, dataset.edges)
        qrels = load_qrels(dataset.qrels)
        for gold_set in qrels.values():
            for gk in gold_set:
                assert any(nb.split("_")[1].startswith("bridge")
                           for nb in g.neighbors(gk))

    def test_gold_shares_no_tokens_with_query(self, dataset):
        g = load_graph(dataset.nodes, dataset.edges)
        queries = dict(load_queries(dataset.queries))
        qrels = load_qrels(dataset.qrels)
        for qid, gold_set in qrels.items():
            q_tokens = set(queries[qid].split())
            for gk in gold_set:
                assert not q_tokens & set(g.content(gk).split())

    def test_size_validation(self, tmp_path):
        with pytest.raises(ValueError):
            synth_bridge(1, 20, seed=0, out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            synth_bridge(3, 1, seed=0, out_dir=str(tmp_path))


class TestRunEval:
    def test_fastinsight_beats_vs_on_bridge_fixture(self, dataset, tmp_path):
        rep_fi = run_eval(_cfg(dataset, tmp_path / "fi", method="fastinsight"))
        rep_vs = run_eval(_cfg(dataset, tmp_path / "vs", method="vs"))
        assert rep_fi["metrics"]["r10"] == pytest.approx(1.0)
        assert rep_fi["metrics"]["r10"] > rep_vs["metrics"]["r10"]
        assert rep_fi["metrics"]["tr"] > rep_vs["metrics"]["tr"]

    def test_all_methods_produce_reports(self, dataset, tmp_path):
        for method in ("vs", "re2", "ppr", "fastinsight"):
            rep = run_eval(_cfg(dataset, tmp_path / method, method=method))
            assert rep["n_queries"] == 4
            assert not rep["partial"]
            assert (tmp_path / method / "per_query.csv").exists()
            assert (tmp_path / method / "timings.csv").exists()

    def test_rows_satisfy_tr_decomposition(self, dataset, tmp_path):
        run_eval(_cfg(dataset, tmp_path / "r", method="fastinsight"))
        with open(tmp_path / "r" / "per_query.csv") as fh:
            for row in csv.DictReader(fh):
                tr = float(row["tr"])
                assert tr == pytest.approx(
                    float(row["recall_uncapped"]) + float(row["miss_tr"]), abs=1e-8)
                assert float(row["delta_r"]) == pytest.approx(
                    float(row["recall_at_budget"]) - float(row["r10_vs"]), abs=1e-8)

    def test_jobs_parallel_matches_serial(self, dataset, tmp_path):
        run_eval(_cfg(dataset, tmp_path / "s", jobs=1))
        run_eval(_cfg(dataset, tmp_path / "p", jobs=4))
        assert ((tmp_path / "s" / "per_query.csv").read_bytes()
                == (tmp_path / "p" / "per_query.csv").read_bytes())

    def test_missing_gold_aborts_with_query_id(self, dataset, tmp_path):
        # rewrite qrels to drop one query's gold rows
        lines = open(dataset.qrels).read().splitlines()
        kept = [ln for ln in lines if not ln.startswith("q0002\t")]
        bad = tmp_path / "qrels.tsv"
        bad.write_text("\n".join(kept) + "\n")
        cfg = _cfg(dataset, tmp_path / "bad", qrels=str(bad))
        with pytest.raises(RunError, match="q0002"):
            run_eval(cfg)
        # partial results were still flushed
        report = json.loads((tmp_path / "bad" / "report.json").read_text())
        assert report["partial"] is True

    def test_inputs_not_mutated(self, dataset, tmp_path):
        before = {p: open(p, "rb").read()
                  for p in (dataset.nodes, dataset.edges, dataset.queries, dataset.qrels)}
        run_eval(_cfg(dataset, tmp_path / "ro"))
        for p, blob in before.items():
            assert open(p, "rb").read() == blob

    def test_validation_errors(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            run_eval(_cfg(dataset, tmp_path, method="nope"))
        with pytest.raises(ValueError):
            run_eval(_cfg(dataset, tmp_path, encoder="remote"))
        with pytest.raises(FileNotFoundError):
            run_eval(_cfg(dataset, tmp_path, nodes="/does/not/exist"))


class TestOneRetrievalPerQuery:
    # sha256 of per_query.csv for each method on the ``dataset`` fixture; a
    # refactor of the retrieval path must leave every byte of it unchanged.
    DIGESTS = {
        "vs": "3aba03c43fe25b89f82d89adfbce9d35945836879ff02d354ef0fec8129514df",
        "re2": "08ebc31fc46020bc8aeb7e9ce3d06b55958df9c0802c3ce776bf10ebf180d0bf",
        "fastinsight": "d2eb698c6ccdb5b6817533cea75212135babb78b405c6552edb0fb4d4e135877",
        "ppr": "5e68320823d75a268e1fcb6f550fe71e5a710e0f091dab96cece90f7a6bf9634",
    }

    def test_methods_are_the_engine_table(self):
        assert METHODS == ("vs", "re2", "fastinsight", "ppr") == tuple(engine.METHODS)

    @pytest.mark.parametrize("method", sorted(DIGESTS))
    def test_per_query_csv_pinned(self, dataset, tmp_path, method):
        run_eval(_cfg(dataset, tmp_path, method=method))
        got = hashlib.sha256((tmp_path / "per_query.csv").read_bytes()).hexdigest()
        assert got == self.DIGESTS[method]

    @pytest.mark.parametrize("method", METHODS)
    def test_one_embedding_and_two_searches_per_query(self, dataset, tmp_path, monkeypatch, method):
        # Every call in order: the query text for an embedding, None for a
        # vector search. The method's one search also serves r10_vs.
        calls = []
        encode_query = HashEmbedder.encode_query

        def counting_encode(self, text):
            calls.append(text)
            return encode_query(self, text)

        def counting_search(*args, **kwargs):
            calls.append(None)
            return vector_search(*args, **kwargs)

        monkeypatch.setattr(HashEmbedder, "encode_query", counting_encode)
        monkeypatch.setattr(engine, "vector_search", counting_search)
        run_eval(_cfg(dataset, tmp_path, method=method))
        queries = load_queries(dataset.queries)
        assert calls == [c for _, text in queries for c in (text, None)]

    @pytest.mark.parametrize("method", METHODS)
    def test_vs_top_is_a_fresh_search(self, dataset, method):
        # (batch, budget, k_report): batch < k_report; budget < k_report
        # (not for re2, which rejects it); a budget beyond the index.
        g = load_graph(dataset.nodes, dataset.edges)
        emb = HashEmbedder(256)
        index = build_index(g, emb)
        queries = load_queries(dataset.queries)[:3]
        for batch, budget, k_report in [(10, 40, 10), (3, 40, 10), (3, 6, 10), (2, 500, 5)]:
            if method == "re2" and budget < k_report:
                continue
            cfg = FastInsightConfig(batch=batch, budget=budget, k_report=k_report)
            for _, text in queries:
                _, trace = engine.METHODS[method](text, g, index, emb, HashReranker(256), cfg)
                assert trace.vs_calls == 1
                assert trace.vs_top == vector_search(trace.query_vector, index, k_report)

    def test_timings_columns_are_the_stage_names(self, dataset, tmp_path):
        run_eval(_cfg(dataset, tmp_path))
        with open(tmp_path / "timings.csv") as fh:
            assert next(csv.reader(fh)) == ["query_id", "qpt_ms", "embed_ms", "vs_ms",
                                            "rerank_ms", "expand_ms", "metrics_ms"]

    def test_r10_vs_uses_k(self, dataset, tmp_path):
        # Gold is each query's 7th vector-search hit: in the top 10, not the top 5.
        g = load_graph(dataset.nodes, dataset.edges)
        emb = HashEmbedder(256)
        index = build_index(g, emb)
        queries = load_queries(dataset.queries)
        gold = {qid: vector_search(emb.encode_query(text), index, 10).keys()[6]
                for qid, text in queries}
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("".join(f"{qid}\t{key}\t1\n" for qid, key in gold.items()))
        run_eval(_cfg(dataset, tmp_path / "k5", qrels=str(qrels), k=5))
        with open(tmp_path / "k5" / "per_query.csv") as fh:
            rows = {row["query_id"]: row for row in csv.DictReader(fh)}
        for qid, text in queries:
            v_q = emb.encode_query(text)
            top5 = capped_recall_at_k(vector_search(v_q, index, 5), {gold[qid]}, 5)
            top10 = capped_recall_at_k(vector_search(v_q, index, 10), {gold[qid]}, 10)
            assert (top5, top10) == (0.0, 1.0)
            assert float(rows[qid]["r10_vs"]) == top5

    def test_failure_cancels_queued_queries(self, dataset, tmp_path, monkeypatch):
        # Eight queries; the first has no gold, so it fails before retrieval.
        queries = [{"id": f"q{i:04d}", "text": f"topic{i % 4}term{i}"} for i in range(8)]
        qfile = tmp_path / "queries.jsonl"
        qfile.write_text("".join(json.dumps(q) + "\n" for q in queries))
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("".join(f"q{i:04d}\tc000_gold0\t1\n" for i in range(1, 8)))
        retrieved = []
        vs = engine.METHODS["vs"]

        def slow_vs(q, *args):
            retrieved.append(q)
            time.sleep(0.05)
            return vs(q, *args)

        monkeypatch.setitem(engine.METHODS, "vs", slow_vs)
        cfg = _cfg(dataset, tmp_path / "out", method="vs", jobs=2,
                   queries=str(qfile), qrels=str(qrels))
        with pytest.raises(RunError, match="q0000"):
            run_eval(cfg)
        assert len(retrieved) < 7
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["partial"] is True and report["n_queries"] == 0


class TestSweep:
    def test_sweep_points_and_files(self, dataset, tmp_path):
        summary = run_sweep(_cfg(dataset, tmp_path / "sw"), budgets=[10, 20, 30])
        assert [p["budget"] for p in summary["points"]] == [10, 20, 30]
        assert (tmp_path / "sw" / "sweep.json").exists()
        assert (tmp_path / "sw" / "b020" / "per_query.csv").exists()
        trs = [p["tr_mean"] for p in summary["points"]]
        assert all(b >= a - 1e-12 for a, b in zip(trs, trs[1:]))


def _run_cli(args, cwd):
    return run_cli(args, cwd=cwd, capture_output=True, text=True)


class TestCli:
    def test_synth_then_run_byte_identical(self, tmp_path):
        proc = _run_cli(["synth", "--clusters", "3", "--cluster-size", "18",
                         "--seed", "2", "--out", str(tmp_path / "data")], tmp_path)
        assert proc.returncode == 0, proc.stderr
        base = tmp_path / "data"
        common = ["run", "--nodes", str(base / "nodes.jsonl"),
                  "--edges", str(base / "edges.tsv"),
                  "--queries", str(base / "queries.jsonl"),
                  "--qrels", str(base / "qrels.tsv"),
                  "--method", "fastinsight", "--budget", "30", "--embed-dim", "64"]
        for tag in ("one", "two"):
            proc = _run_cli(common + ["--out", str(tmp_path / tag)], tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert ((tmp_path / "one" / "per_query.csv").read_bytes()
                == (tmp_path / "two" / "per_query.csv").read_bytes())

    def test_run_error_exits_nonzero(self, tmp_path):
        proc = _run_cli(["run", "--nodes", "/nope", "--edges", "/nope",
                         "--queries", "/nope", "--qrels", "/nope",
                         "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr

    @pytest.mark.parametrize("which, data, where", [
        ("edges", b"a\tb\tc\n", "edges file, line 1"),
        ("edges", b"\n\xff\tb\n", "edges file, line 2"),
        ("nodes", b"\n\xff\n", "nodes file, line 2"),
        ("queries", b"\n[1, 2]\n", "queries file, line 2"),
        ("queries", b"\n\xff\n", "queries file, line 2"),
        ("qrels", b"\n\xff\tn\t1\n", "qrels file, line 2"),
        ("queries", b'{"id": "q1", "text": "a"}\n\n{"id": "q1", "text": "b"}\n',
         "queries file, line 3: duplicate query id 'q1'"),
        ("queries", b'{"id": null, "text": "a"}\n', "queries file, line 1: query id"),
        ("queries", b'{"id": "q0", "text": "a"}\n{"id": 1, "text": "a"}\n',
         "queries file, line 2: query id"),
        ("queries", b'{"id": "q1", "text": null}\n', "queries file, line 1: 'text'"),
        ("nodes", b'{"key": "a", "content": null}\n', "nodes file, line 1: 'content'"),
        ("nodes", b'{"key": "a", "content": "x"}\n{"key": "a", "content": "y"}\n',
         "nodes file, line 2: duplicate node key 'a'"),
    ], ids=["edges-columns", "edges-utf8", "nodes-utf8", "queries-not-object",
            "queries-utf8", "qrels-utf8", "queries-duplicate-id", "queries-null-id",
            "queries-numeric-id", "queries-null-text", "nodes-null-content",
            "nodes-duplicate-key"])
    def test_malformed_file_is_an_error_line(self, dataset, tmp_path, which, data, where):
        files = {"nodes": dataset.nodes, "edges": dataset.edges,
                 "queries": dataset.queries, "qrels": dataset.qrels}
        files[which] = str(tmp_path / which)
        (tmp_path / which).write_bytes(data)
        proc = _run_cli(["run", *(a for k, v in files.items() for a in (f"--{k}", v)),
                         "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:") and where in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("which", ["nodes", "edges", "queries", "qrels"])
    def test_byte_order_mark_is_ignored(self, dataset, tmp_path, which):
        def load(files):
            g = load_graph(files["nodes"], files["edges"])
            return ([(k, g.content(k)) for k in g.node_keys], g.indptr.tolist(), g.indices.tolist(),
                    load_queries(files["queries"]), load_qrels(files["qrels"]))

        files = {"nodes": dataset.nodes, "edges": dataset.edges,
                 "queries": dataset.queries, "qrels": dataset.qrels}
        want = load(files)
        with open(files[which], "rb") as fh:
            (tmp_path / which).write_bytes(b"\xef\xbb\xbf" + fh.read())
        files[which] = str(tmp_path / which)
        assert load(files) == want

    def test_embed_dim_below_hash_floor_fails_before_any_work(self, dataset, tmp_path):
        out = tmp_path / "o"
        proc = _run_cli(["run", "--nodes", dataset.nodes, "--edges", dataset.edges,
                         "--queries", dataset.queries, "--qrels", dataset.qrels,
                         "--embed-dim", "4", "--out", str(out)], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:") and "embed_dim" in proc.stderr, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_fails_before_any_work(self, dataset, tmp_path, beta):
        out = tmp_path / "o"
        proc = _run_cli(["run", "--nodes", dataset.nodes, "--edges", dataset.edges,
                         "--queries", dataset.queries, "--qrels", dataset.qrels,
                         "--beta", beta, "--out", str(out)], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:") and "finite" in proc.stderr, proc.stderr
        assert not out.exists()

    def test_re2_pool_below_k_fails_before_any_work(self, dataset, tmp_path):
        out = tmp_path / "o"
        proc = _run_cli(["run", "--nodes", dataset.nodes, "--edges", dataset.edges,
                         "--queries", dataset.queries, "--qrels", dataset.qrels,
                         "--method", "re2", "--budget", "5", "--batch", "5",
                         "--out", str(out)], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        for name in ("report.json", "per_query.csv", "timings.csv"):
            assert not (out / name).exists(), name
