#!/usr/bin/env python3
"""fastinsight benchmark: one workload per process.

    python3 perfbench/run.py --workload bridge --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/`` next
to this directory and nowhere else. It generates the workload's corpus from
the seed, sets up the CLI's per-query pipeline several times (``load_graph``,
``load_qrels``, ``runner.load_queries``, ``build_index``), then runs a
single closed-loop client over the queries for ``--seconds``: retrieve with
the workload's method, score with the five metric calls, check the outputs.
Every pass over the queries starts with a fresh reranker, so each pass sees
the caches a CLI run would. A reference kernel (speed.py) runs after every
query and around every set-up; the reported times are scaled to the speed
at which that kernel takes ``REF_MS``, except retrieve times on workloads
whose retrieval is memory bound.

With ``--trace 0`` nothing in the package is wrapped and the last line of
stdout carries the end-to-end metrics. With ``--trace 1`` each query is run
once plain and once with span wrappers installed; the last line carries the
per-layer metrics and the spans go to ``perfbench/_out/``. The line before
the last holds sample counts, digests and the environment. The process exits
1 when any output check fails. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is a single client, and a 2-vCPU box gives a
# threaded BLAS nothing to win but noise.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_out"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402
from speed import REF_MS, Speed  # noqa: E402
from stub import Stub  # noqa: E402

BUDGET, BATCH, ALPHA, BETA, K, DIM = 100, 10, 0.2, 1.0, 10, 256
# Set-up runs at least SETUP_MIN_REPS times and until SETUP_MIN_SECONDS have
# passed; setup_s is the median.
SETUP_MIN_REPS, SETUP_MIN_SECONDS = 5, 2.0
KERNELS_PER_SETUP_SIDE = 5
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    method: str  # "fastinsight", or "ppr" for vector-search seeds + personalized_pagerank
    remote: bool
    make: Callable[[int], corpus.Corpus]
    # Whether retrieve times are scaled to the reference speed (speed.py), as
    # set-up and evaluate times always are. ppr's retrieval is a dense
    # matrix-vector product over an 18 MB matrix: memory bound, it barely
    # moves when the machine's Python speed swings, so it is reported as
    # measured.
    retrieve_scaled: bool = True


# Sizes keep one pass over the queries (>= 100 of them) under 20 s on a
# 2-vCPU box, so every run times at least 100 queries.
WORKLOADS: Dict[str, Workload] = {
    "bridge": Workload("fastinsight", False, lambda s: corpus.bridge_corpus(s, 20, 6)),
    "hubs": Workload("fastinsight", False, lambda s: corpus.hubs_corpus(s, 100, 40, 1)),
    "ppr": Workload("ppr", False, lambda s: corpus.bridge_corpus(s, 6, 18),
                    retrieve_scaled=False),
    "remote": Workload("fastinsight", True, lambda s: corpus.hubs_corpus(s, 25, 60, 4)),
}

# Span names each method must produce; none recorded means the package no
# longer calls the wrapped function, and its metrics are left out.
EXPECTED = {
    "fastinsight": set(spans.MODULE_SPANS),
    "ppr": {"metrics.topological_recall", "metrics.seed_path_costs"},
}


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import fastinsight
    from fastinsight import metrics, runner

    where = Path(fastinsight.__file__).resolve().parent
    if where != ROOT / "src" / "fastinsight":
        raise SystemExit(f"fastinsight imported from {where}, not from {ROOT / 'src'}")
    return fastinsight, metrics, runner


fi, m, runner = import_package()


def _nospan(_name: str):
    return nullcontext()


class Pipeline:
    """The CLI's per-query path for one workload, with its set-up."""

    def __init__(self, wl: Workload, data: Path, url: Optional[str]):
        self.wl = wl
        self.data = data
        self.url = url
        self.cfg = fi.FastInsightConfig(batch=BATCH, alpha=ALPHA, beta=BETA, budget=BUDGET, k_report=K)
        head = fi.HashReranker(DIM)
        self.head = fi.AffineHead([(head.head_weights[None, :], [head.head_bias])])

    def setup(self, traced: Optional[spans.Recorder], missing: set) -> Dict[str, float]:
        d = self.data
        # Drop the previous set-up's graph and index first, so that peak RSS
        # holds one of each, as a CLI run does.
        self.g = self.index = None
        gc.collect()
        t0 = time.perf_counter()
        self.g = fi.load_graph(str(d / "nodes.jsonl"), str(d / "edges.tsv"))
        t1 = time.perf_counter()
        self.qrels = fi.load_qrels(str(d / "qrels.tsv"))
        self.queries = runner.load_queries(str(d / "queries.jsonl"))
        self.emb = fi.RemoteEmbedder(self.url + "/embed", DIM) if self.wl.remote else fi.HashEmbedder(DIM)
        patches = spans.Patches(missing)
        if traced is not None:
            patches.instance(traced, self.emb, [spans.ENCODE_NODE])
        t2 = time.perf_counter()
        try:
            self.index = fi.build_index(self.g, self.emb)
        finally:
            patches.remove()
        t3 = time.perf_counter()
        return {"setup_s": t3 - t0, "load_graph_s": t1 - t0, "build_index_s": t3 - t2}

    def reranker(self):
        if self.wl.remote:
            return fi.RemoteReranker(self.url + "/rerank", DIM, self.head)
        return fi.HashReranker(DIM)

    def retrieve(self, text: str, rr, span=_nospan):
        with span("engine.retrieve"):
            if self.wl.method == "fastinsight":
                ret, _ = fi.fastinsight_retrieve(text, self.g, self.index, self.emb, rr, self.cfg)
            else:
                v_q = self.emb.encode_query(text)
                with span("embedding.vector_search"):
                    seeds = fi.vector_search(v_q, self.index, BATCH)
                with span("graph.ppr"):
                    expanded = fi.personalized_pagerank(self.g, seeds, k=max(BUDGET - len(seeds), 1))
                ret = seeds.extend(expanded.items())
        return ret

    def evaluate(self, ret, gold, span=_nospan):
        with span("metrics.other"):
            r10 = m.capped_recall_at_k(ret, gold, K)
            ndcg = m.ndcg_at_k(ret, gold, K)
            rec = m.recall_uncapped(ret, gold)
        with span("metrics.tr"):
            tr = m.topological_recall(self.g, ret, gold)
        with span("metrics.miss_tr"):
            mt = m.miss_tr(self.g, ret, gold)
        return r10, ndcg, rec, tr, mt


def check(ret, scores) -> Optional[str]:
    """The first violated output invariant, or None."""
    keys = ret.keys()
    if len(set(keys)) != len(keys):
        return "ranked keys are not unique"
    if len(keys) > BUDGET:
        return f"{len(keys)} ranked keys exceed the budget of {BUDGET}"
    if not all(0.0 <= s <= 1.0 for s in scores):
        return f"metric outside [0, 1]: {scores}"
    _, _, rec, tr, mt = scores
    if abs(tr - (rec + mt)) > TOLERANCE:
        return f"tr {tr!r} != recall_uncapped {rec!r} + miss_tr {mt!r}"
    return None


class Tally:
    """Attempted/failed queries and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, qid: str, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{qid}: {msg}")


def run_query(pipe: Pipeline, qid: str, text: str, rr, tally: Tally, first: Dict, span=_nospan):
    """Retrieve and evaluate one query; returns (ret, scores, retrieve s, eval s)
    or None when it raised or failed a check."""
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        ret = pipe.retrieve(text, rr, span)
        t1 = time.perf_counter()
        scores = pipe.evaluate(ret, pipe.qrels[qid], span)
        t2 = time.perf_counter()
    except Exception:  # noqa: BLE001 - a failing query is counted, the run goes on
        tally.fail(qid, traceback.format_exc(limit=3).strip().splitlines()[-1])
        return None
    problem = check(ret, scores)
    if problem is None and first.setdefault(qid, (ret.keys(), scores)) != (ret.keys(), scores):
        problem = "ranking or scores differ from this query's first run"
    if problem is not None:
        tally.fail(qid, problem)
        return None
    return ret, scores, t1 - t0, t2 - t1


def measure(pipe: Pipeline, seconds: float, tally: Tally, first: Dict, speed: Speed) -> Dict:
    """Untraced closed loop: at least one full pass, then until time is up,
    which may be partway through a pass. The reference kernel runs once after
    every query."""
    qids: List[str] = []
    retrieve_s: List[float] = []
    eval_s: List[float] = []
    at: List[int] = []  # index of the kernel sample that followed each query
    passes = 0
    gc.collect()
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        rr = pipe.reranker()
        for qid, text in pipe.queries:
            if passes and time.perf_counter() - start >= seconds:
                break
            out = run_query(pipe, qid, text, rr, tally, first)
            speed.sample()
            if out is not None:
                qids.append(qid)
                retrieve_s.append(out[2])
                eval_s.append(out[3])
                at.append(len(speed.samples) - 1)
        passes += 1
    if not retrieve_s:
        raise SystemExit("no query succeeded")
    factors = [speed.around(i) for i in at]
    return {"qids": qids, "retrieve_s": retrieve_s, "eval_s": eval_s, "factors": factors,
            "passes": passes}


def measure_traced(pipe: Pipeline, seconds: float, tally: Tally, first: Dict,
                   rec: spans.Recorder, stub: Optional[Stub], missing: set) -> Dict:
    """Each query runs plain and traced, in alternating order, on separate
    rerankers; the pairs give the tracing overhead. Only whole passes run, so
    every query weighs the same in the per-query means."""
    plain_s: List[float] = []
    traced_s: List[float] = []
    ret_docs = 0
    rerank_io = {"requests": 0, "bytes": 0}
    passes = 0
    gc.collect()
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        rr_plain = pipe.reranker()
        rr_traced = pipe.reranker()
        spans.Patches(missing).instance(rec, rr_traced, spans.RERANKER_TARGETS)

        def plain():
            out = run_query(pipe, qid, text, rr_plain, tally, first)
            if out is not None:
                plain_s.append(out[2])

        def traced():
            nonlocal ret_docs
            before = stub.snapshot()["/rerank"] if stub else None
            rec.qid = f"{passes}:{qid}"
            patches = spans.Patches(missing).module(rec).instance(rec, pipe.emb, [spans.ENCODE_QUERY])
            try:
                out = run_query(pipe, qid, text, rr_traced, tally, first, rec.span)
            finally:
                patches.remove()
                rec.qid = None
            if out is None:
                return
            traced_s.append(out[2])
            ret_docs += len(out[0])
            if stub:
                after = stub.snapshot()["/rerank"]
                for k in rerank_io:
                    rerank_io[k] += after[k] - before[k]

        for i, (qid, text) in enumerate(pipe.queries):
            for step in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                step()
        passes += 1
    if not traced_s or not plain_s:
        raise SystemExit("no query succeeded")
    return {"plain_s": plain_s, "traced_s": traced_s, "n_traced": len(traced_s),
            "ret_docs": ret_docs, "rerank_io": rerank_io, "passes": passes}


def layer_metrics(pipe: Pipeline, setups: List[Dict], t: Dict, rec: spans.Recorder,
                  missing: set, embed_requests: int) -> Dict[str, Dict]:
    seconds, calls, counts, self_s = spans.summarize(rec.spans, lambda s: s.qid not in (None, "setup"))
    expected = EXPECTED[pipe.wl.method]
    absent = set(missing) | {name for name in expected if calls.get(name, 0) == 0}
    n = t["n_traced"]
    setup_calls = sum(1 for s in rec.spans if s.qid == "setup" and s.name == "embedding.encode_node")

    def ms(name):
        return seconds.get(name, 0.0) * 1e3 / n

    def per_q(name, source=calls):
        return source.get(name, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    extracted = counts.get("rerank.extract_latents", 0)
    scored = counts.get("graph.frontier", 0)
    appended = t["ret_docs"] - counts.get("embedding.vector_search", 0)
    rows = [
        ("graph.load_graph_s", "s", statistics.median(s["load_graph_s"] for s in setups), ()),
        ("embedding.build_index_s", "s", statistics.median(s["build_index_s"] for s in setups), ()),
        ("embedding.encode_node_calls", "count", setup_calls / len(setups), ("embedding.encode_node",)),
        ("embedding.remote_requests", "count", embed_requests, ()),
        ("rerank.remote_requests", "count", t["rerank_io"]["requests"] / n, ()),
        ("rerank.remote_bytes", "bytes", t["rerank_io"]["bytes"] / n, ()),
        ("embedding.encode_query_ms", "ms", ms("embedding.encode_query"), ("embedding.encode_query",)),
        ("embedding.vector_search_ms", "ms", ms("embedding.vector_search"), ("embedding.vector_search",)),
        ("embedding.vector_search_calls", "count", per_q("embedding.vector_search"), ("embedding.vector_search",)),
        ("rerank.granker_ms", "ms", ms("rerank.granker"), ("rerank.granker",)),
        ("rerank.granker_calls", "count", per_q("rerank.granker"), ("rerank.granker",)),
        ("rerank.extract_ms", "ms", ms("rerank.extract_latents"), ("rerank.extract_latents",)),
        ("rerank.docs_extracted", "count", extracted / n, ("rerank.extract_latents",)),
        ("rerank.propagation_ms", "ms", ms("rerank.build_propagation"), ("rerank.build_propagation",)),
        ("rerank.fuse_ms", "ms", ms("rerank.fuse_latents"), ("rerank.fuse_latents",)),
        ("rerank.head_ms", "ms", ms("rerank.head"), ("rerank.head",)),
        ("rerank.useful_ratio", "ratio", ratio(t["ret_docs"], extracted), ("rerank.extract_latents",)),
        ("expand.stex_ms", "ms", ms("expand.stex"), ("expand.stex",)),
        ("expand.stex_calls", "count", per_q("expand.stex"), ("expand.stex",)),
        ("graph.frontier_ms", "ms", ms("graph.frontier"), ("graph.frontier",)),
        ("expand.candidates_scored", "count", scored / n, ("graph.frontier",)),
        ("expand.added_ratio", "ratio", ratio(appended, scored),
         ("graph.frontier", "embedding.vector_search")),
        ("graph.ppr_ms", "ms", ms("graph.ppr"), ()),
        ("metrics.tr_ms", "ms", ms("metrics.tr"), ()),
        ("metrics.miss_tr_ms", "ms", ms("metrics.miss_tr"), ()),
        ("metrics.other_ms", "ms", ms("metrics.other"), ()),
        ("metrics.nodes_settled", "count", per_q("metrics.seed_path_costs", counts), ("metrics.seed_path_costs",)),
        ("engine.iterations", "count", per_q("rerank.granker"), ("rerank.granker",)),
        ("engine.retrieve_ms", "ms", ms("engine.retrieve"), ()),
        ("engine.self_ms", "ms", self_s.get("engine.retrieve", 0.0) * 1e3 / n,
         ("embedding.encode_query", "embedding.vector_search", "rerank.granker", "expand.stex")),
        ("trace.overhead_pct", "%",
         (statistics.median(t["traced_s"]) / statistics.median(t["plain_s"]) - 1.0) * 100.0, ()),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value, needs in rows
            if not (set(needs) & absent)}


def per_query_ms(t: Dict, retrieve_scaled: bool):
    """Each query's median retrieve and evaluate time, in ms. A run that
    stops partway through a pass has timed the first queries once more than
    the rest; the medians give every query the same weight."""
    runs: Dict[str, List] = {}
    for qid, r, e, k in zip(t["qids"], t["retrieve_s"], t["eval_s"], t["factors"]):
        runs.setdefault(qid, []).append((r * 1e3 * (k if retrieve_scaled else 1.0), e * 1e3 * k))
    retrieve_ms = [statistics.median(r for r, _ in v) for v in runs.values()]
    eval_ms = [statistics.median(e for _, e in v) for v in runs.values()]
    return retrieve_ms, eval_ms


def end_to_end(wl: Workload, setups: List[Dict], t: Dict, first: Dict) -> Dict[str, Dict]:
    retrieve_ms, eval_ms = per_query_ms(t, wl.retrieve_scaled)
    scores = [v[1] for v in first.values()]
    rows = [
        ("setup_s", "s", statistics.median(s["setup_s"] * s["factor"] for s in setups)),
        ("retrieve_ms_p50", "ms", statistics.median(retrieve_ms)),
        ("retrieve_ms_p90", "ms", statistics.quantiles(retrieve_ms, n=10, method="inclusive")[8]),
        ("eval_ms_p50", "ms", statistics.median(eval_ms)),
        ("qps", "1/s", 1e3 * len(retrieve_ms) / (sum(retrieve_ms) + sum(eval_ms))),
        ("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        ("tr_mean", "ratio", statistics.fmean(s[3] for s in scores)),
        ("recall_mean", "ratio", statistics.fmean(s[2] for s in scores)),
        ("ndcg_mean", "ratio", statistics.fmean(s[1] for s in scores)),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in rows}


def source_digest() -> str:
    """Digest of the package and benchmark sources: what "the same code" means."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fastinsight").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> Dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
            "nproc": os.cpu_count(), "git_sha": git_sha()}


def ranking_digest(first: Dict) -> str:
    h = hashlib.sha256()
    for qid in sorted(first):
        h.update(json.dumps([qid, list(first[qid][0])]).encode())
    return h.hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    files = wl.make(args.seed).files()
    if files != wl.make(args.seed).files():
        raise SystemExit("corpus generator is not deterministic")
    corpus_digest = hashlib.sha256(b"".join(files[f] for f in corpus.FILES)).hexdigest()
    data = WORK / f"data-{args.workload}-{args.seed}-{os.getpid()}"
    data.mkdir(parents=True, exist_ok=True)
    stub = Stub(fi.hash_embed, DIM).start() if wl.remote else None
    try:
        for name, blob in files.items():
            (data / name).write_bytes(blob)
        return run(args, wl, data, stub, corpus_digest)
    finally:
        if stub is not None:
            stub.close()
        for name in corpus.FILES:
            (data / name).unlink(missing_ok=True)
        data.rmdir()


def run(args, wl: Workload, data: Path, stub: Optional[Stub], corpus_digest: str) -> int:
    pipe = Pipeline(wl, data, stub.url if stub else None)
    rec = spans.Recorder() if args.trace else None
    speed = Speed()
    setups = []
    missing: set = set()
    embed_requests = 0
    start = time.perf_counter()
    while len(setups) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        lo = len(speed.samples)
        for _ in range(KERNELS_PER_SETUP_SIDE):
            speed.sample()
        before = stub.snapshot()["/embed"]["requests"] if stub else 0
        if rec is not None:
            rec.qid = "setup"
        timing = pipe.setup(rec, missing)
        if rec is not None:
            rec.qid = None
        embed_requests = (stub.snapshot()["/embed"]["requests"] if stub else 0) - before
        for _ in range(KERNELS_PER_SETUP_SIDE):
            speed.sample()
        timing["factor"] = speed.factor(lo, len(speed.samples))
        setups.append(timing)

    tally = Tally()
    first: Dict = {}
    if rec is None:
        t = measure(pipe, args.seconds, tally, first, speed)
        metrics = end_to_end(wl, setups, t, first)
        samples = {"timed_queries": len(set(t["qids"])), "timed_runs": len(t["qids"]),
                   "passes": t["passes"],
                   "speed": {"retrieve_scaled": wl.retrieve_scaled, "ref_ms": REF_MS,
                             "kernel_ms_p50": statistics.median(speed.samples) * 1e3,
                             "raw_retrieve_ms_p50": statistics.median(t["retrieve_s"]) * 1e3,
                             "raw_eval_ms_p50": statistics.median(t["eval_s"]) * 1e3,
                             "raw_setup_s": statistics.median(s["setup_s"] for s in setups)}}
    else:
        t = measure_traced(pipe, args.seconds, tally, first, rec, stub, missing)
        metrics = layer_metrics(pipe, setups, t, rec, missing, embed_requests)
        samples = {"traced_queries": t["n_traced"], "plain_queries": len(t["plain_s"]),
                   "passes": t["passes"]}
        WORK.mkdir(exist_ok=True)
        rec.write(str(WORK / f"spans-{args.workload}-{args.seed}.jsonl"))

    if len(first) != len(pipe.queries):
        tally.errors.append(f"only {len(first)} of {len(pipe.queries)} queries produced a result")
    digest = ranking_digest(first)
    problems = list(tally.errors)
    store = WORK / "digests" / f"{args.workload}-{args.seed}-{source_digest()[:16]}.txt"
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.exists() and store.read_text().strip() != digest:
        problems.append(f"ranking digest {digest[:16]} differs from an earlier run's "
                        f"{store.read_text().strip()[:16]} of the same code and seed")
    elif not store.exists() and not problems:
        store.write_text(digest + "\n")

    correct = tally.failed == 0 and not problems
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "queries": len(pipe.queries), "setup_reps": len(setups), **samples,
            "ranking_digest": digest, "corpus_digest": corpus_digest,
            "absent_spans": sorted(missing), "problems": problems, "env": environment()}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
