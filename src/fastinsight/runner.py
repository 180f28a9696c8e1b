"""Evaluation runner: retrieve over a query set, score, time, and persist.

Outputs per run directory:
  report.json     aggregates plus a config echo
  per_query.csv   deterministic per-query metric rows (sorted by query id)
  timings.csv     per-query wall-clock timings (not deterministic by nature)
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

from . import engine
from . import metrics as m
from .embedding import HashEmbedder, RemoteEmbedder, build_index
from .engine import FastInsightConfig
from .errors import FastInsightError
from .graph import load_graph, read_records
from .rerank import HashReranker

METHODS = tuple(engine.METHODS)
ENCODERS = ("hash", "remote")
STAGES = ("embed", "vs", "rerank", "expand", "metrics")
WARMUP_QUERIES = 3

METRIC_COLUMNS = (
    "r10", "ndcg10", "recall_uncapped", "tr", "miss_tr",
    "r10_vs", "recall_at_budget", "delta_r",
)


class RunError(FastInsightError):
    """A per-query failure that aborted the run; names the query id."""

    def __init__(self, query_id: str, cause: Exception):
        super().__init__(f"query {query_id!r} failed: {cause}")
        self.query_id = query_id


@dataclass
class RunConfig:
    nodes: str
    edges: str
    queries: str
    qrels: str
    method: str = "fastinsight"
    batch: int = FastInsightConfig.batch
    alpha: float = FastInsightConfig.alpha
    beta: float = FastInsightConfig.beta
    budget: int = FastInsightConfig.budget
    k: int = FastInsightConfig.k_report
    encoder: str = "hash"
    remote_url: Optional[str] = None
    embed_dim: int = 256
    out_dir: str = "out"
    jobs: int = 1
    seed: int = 0  # echoed in report.json; no method draws random numbers

    def validate(self) -> FastInsightConfig:
        """Check every setting and input path; return the method settings."""
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.encoder == "remote" and not self.remote_url:
            raise ValueError("--remote-url is required with the remote encoder")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.embed_dim < 8:  # hash_embed's floor; HashReranker always hashes
            raise ValueError(f"embed_dim must be >= 8, got {self.embed_dim}")
        if self.method == "re2" and self.budget < self.k:
            raise ValueError(f"re2 needs budget ({self.budget}) >= k ({self.k})")
        # FastInsightConfig re-validates batch/alpha/beta/budget relationships.
        ficfg = FastInsightConfig(batch=self.batch, alpha=self.alpha, beta=self.beta,
                                  budget=self.budget, k_report=self.k)
        for path in (self.nodes, self.edges, self.queries, self.qrels):
            if not os.path.exists(path):
                raise FileNotFoundError(path)
        return ficfg


def load_queries(path: str) -> List[Tuple[str, str]]:
    """JSON-lines {"id": ..., "text": ...} records (:func:`read_records`),
    returned sorted by id."""
    with open(path, "rb") as fh:
        return sorted(read_records(fh, "queries file", "query id", "id", "text").items())


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = int(math.floor(pos)), int(math.ceil(pos))
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_eval(cfg: RunConfig) -> Dict:
    """Run the configured method over every query; returns the report dict."""
    ficfg = cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)

    g = load_graph(cfg.nodes, cfg.edges)
    qrels = m.load_qrels(cfg.qrels)
    queries = load_queries(cfg.queries)

    if cfg.encoder == "hash":
        emb = HashEmbedder(cfg.embed_dim)
    else:
        emb = RemoteEmbedder(cfg.remote_url, cfg.embed_dim)
    index = build_index(g, emb)
    rr = HashReranker(cfg.embed_dim)

    def worker(qid: str, text: str) -> Dict:
        gold = qrels.get(qid)
        if not gold:
            raise ValueError(f"no gold nodes in qrels for query {qid!r}")
        t_start = time.perf_counter()
        ret, trace = engine.METHODS[cfg.method](text, g, index, emb, rr, ficfg)
        with trace.stage("metrics"):
            tr, miss_tr = m.tr_and_miss_tr(g, ret, gold)
            row = {
                "query_id": qid,
                "r10": m.capped_recall_at_k(ret, gold, cfg.k),
                "ndcg10": m.ndcg_at_k(ret, gold, cfg.k),
                "recall_uncapped": m.recall_uncapped(ret, gold),
                "tr": tr,
                "miss_tr": miss_tr,
                "r10_vs": m.capped_recall_at_k(trace.vs_top, gold, cfg.k),
                "recall_at_budget": m.capped_recall_at_k(ret, gold, cfg.budget),
            }
            row["delta_r"] = row["recall_at_budget"] - row["r10_vs"]

        row["_qpt_ms"] = (time.perf_counter() - t_start) * 1000.0
        for s in STAGES:
            row[f"_{s}_ms"] = trace.stage_seconds.get(s, 0.0) * 1000.0
        return row

    def safe_worker(qid: str, text: str) -> Dict:
        try:
            return worker(qid, text)
        except Exception as exc:  # noqa: BLE001 - rewrap with the query id
            raise RunError(qid, exc) from exc

    rows: List[Dict] = []
    error: Optional[RunError] = None
    pool = ThreadPoolExecutor(max_workers=cfg.jobs)
    try:
        for fut in [pool.submit(safe_worker, qid, text) for qid, text in queries]:
            rows.append(fut.result())
    except RunError as exc:
        # Flush whatever completed, then abort with the failing query id.
        error = exc
    finally:
        # After a failure, the queries that have not started never run.
        pool.shutdown(cancel_futures=True)

    rows.sort(key=lambda r: r["query_id"])
    _write_per_query(os.path.join(cfg.out_dir, "per_query.csv"), rows)
    _write_timings(os.path.join(cfg.out_dir, "timings.csv"), rows)
    report = _build_report(cfg, rows, partial=error is not None)
    with open(os.path.join(cfg.out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if error is not None:
        raise error
    return report


def _write_per_query(path: str, rows: List[Dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("query_id",) + METRIC_COLUMNS)
        for row in rows:
            writer.writerow([row["query_id"]] + [f"{row[c]:.9f}" for c in METRIC_COLUMNS])


def _write_timings(path: str, rows: List[Dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "qpt_ms"] + [f"{s}_ms" for s in STAGES])
        for row in rows:
            writer.writerow([row["query_id"], f"{row['_qpt_ms']:.3f}"]
                            + [f"{row[f'_{s}_ms']:.3f}" for s in STAGES])


def _build_report(cfg: RunConfig, rows: List[Dict], partial: bool) -> Dict:
    timed = rows[WARMUP_QUERIES:] if len(rows) > WARMUP_QUERIES else rows
    qpts = [r["_qpt_ms"] for r in timed]
    report = {
        "config": asdict(cfg),
        "n_queries": len(rows),
        "partial": partial,
        "metrics": {
            c: (sum(r[c] for r in rows) / len(rows) if rows else math.nan)
            for c in METRIC_COLUMNS
        },
        "timing": {
            "warmup_excluded": len(rows) - len(timed),
            "qpt_ms_mean": sum(qpts) / len(qpts) if qpts else math.nan,
            "qpt_ms_p95": _percentile(qpts, 0.95),
            "stage_ms_mean": {
                s: (sum(r[f"_{s}_ms"] for r in timed) / len(timed) if timed else math.nan)
                for s in STAGES
            },
        },
    }
    return report


def run_sweep(cfg: RunConfig, budgets: Optional[List[int]] = None) -> Dict:
    """Run one evaluation per budget; per-budget outputs land in subdirectories."""
    budgets = budgets or list(range(10, 101, 10))
    points = []
    base_out = cfg.out_dir
    for b in budgets:
        sub = replace(cfg, budget=b, batch=min(cfg.batch, b),
                      out_dir=os.path.join(base_out, f"b{b:03d}"))
        report = run_eval(sub)
        points.append({
            "budget": b,
            "qpt_ms_mean": report["timing"]["qpt_ms_mean"],
            "tr_mean": report["metrics"]["tr"],
            "r10_mean": report["metrics"]["r10"],
        })
    summary = {"config": asdict(cfg), "points": points}
    os.makedirs(base_out, exist_ok=True)
    with open(os.path.join(base_out, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
