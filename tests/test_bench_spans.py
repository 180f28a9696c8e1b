"""The package still calls, by name, every function the benchmark's traced run
wraps (``perfbench/spans.py``). A target that stops being called drops its
per-layer metrics from the benchmark's result without failing the run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fastinsight import (
    FastInsightConfig,
    HashEmbedder,
    HashReranker,
    RankedList,
    build_index,
    engine,
    metrics,
    stex_scores,
)

from conftest import make_graph

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    """``perfbench/spans.py`` as a module, compiled in memory so that nothing
    is written next to it."""
    mod = importlib.util.module_from_spec(importlib.util.spec_from_loader("bench_spans", loader=None))
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), mod.__dict__)
    return mod


def _fixture():
    """A 40-node chain with chords; the query's words sit at one end and
    half of the gold at the other, beyond the budget's reach."""
    keys = [f"c{i:02d}" for i in range(40)]
    edges = [(keys[i], keys[i + 1]) for i in range(39)]
    edges += [(keys[i], keys[i + 3]) for i in range(0, 37, 4)]
    contents = {k: f"near{i % 5} word{i // 8} node {k}" for i, k in enumerate(keys)}
    return make_graph(keys, edges, contents=contents), {keys[1], keys[4], keys[36], keys[39]}


def test_package_feeds_every_benchmark_span():
    spans = _load_spans()
    g, gold = _fixture()
    emb = HashEmbedder(32)
    index = build_index(g, emb)
    cfg = FastInsightConfig(batch=3, budget=12)
    rec, missing = spans.Recorder(), set()
    patches = spans.Patches(missing).module(rec)
    try:
        ret, trace = engine.fastinsight_retrieve("word0 near1", g, index, emb, HashReranker(32), cfg)
        metrics.topological_recall(g, ret, gold)
        miss = metrics.miss_tr(g, ret, gold)
    finally:
        patches.remove()
    assert miss > 0  # some gold was missed, so the path search ran

    assert missing == set()
    recorded = {s.name for s in rec.spans}
    assert set(spans.MODULE_SPANS) <= recorded, set(spans.MODULE_SPANS) - recorded

    # Each stex call ranks the list of the granker call before it; the
    # frontier span counts the candidates that call scored.
    assert trace.stex_calls > 0
    scored = [len(stex_scores(trace.query_vector, index, g,
                              RankedList((k, 0.0) for k in snapshot.keys()), cfg.beta))
              for snapshot in trace.snapshots[:trace.stex_calls]]
    assert [s.count for s in rec.spans if s.name == "graph.frontier"] == scored

    # The wrappers are gone again.
    rec.spans.clear()
    engine.fastinsight_retrieve("word0 near1", g, index, emb, HashReranker(32), cfg)
    assert rec.spans == []


def test_path_search_span_kept_when_all_gold_retrieved():
    # On the bridge and ppr workloads every gold node is retrieved. The path
    # search then runs with no targets and settles nothing, but its span,
    # which feeds metrics.nodes_settled, must still be recorded.
    spans = _load_spans()
    g, _ = _fixture()
    ret = RankedList((k, 0.0) for k in g.node_keys[:6])
    gold = set(ret.keys()[::2])
    rec, missing = spans.Recorder(), set()
    patches = spans.Patches(missing).module(rec)
    try:
        assert metrics.topological_recall(g, ret, gold) == 1.0
        assert metrics.miss_tr(g, ret, gold) == 0.0
    finally:
        patches.remove()
    assert missing == set()
    assert [s.count for s in rec.spans if s.name == "metrics.seed_path_costs"] == [0]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("workload, trace", [pytest.param(w, t, id=w) for w, t in
                                              (("ppr", 0), ("hubs", 0), ("remote", 0), ("bridge", 1))])
def test_workload_smoke_run(workload, trace):
    # The ppr workload drives the package through the benchmark's own path
    # (vector_search, personalized_pagerank, extend(items())), which the
    # tests above do not cover; hubs drives fastinsight_retrieve through the
    # benchmark's output checks, and remote its HTTP set-up and rerank
    # against the benchmark's stub server. bridge runs traced: its per-layer
    # metrics must still end the output as one strict-JSON result line. One
    # untimed pass; output goes to the ignored perfbench/_out/.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, result
