"""Span recorder for the traced run, and the wrappers that feed it.

A span records name, start, end, parent span and query id, plus an optional
count taken from the wrapped call's result. Spans stay in memory and are
written out once, at the end of the run.

Wrappers replace functions where the package looks them up at call time
(module attributes) and methods on the benchmark's own embedder and reranker
objects. A target that no longer exists (renamed or inlined by a later
change) is reported back as missing instead of failing the run; its metrics
are then left out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

Counter = Optional[Callable[[object], int]]

# (module, attribute, span name, count taken from the result)
MODULE_TARGETS: Tuple[Tuple[str, str, str, Counter], ...] = (
    ("fastinsight.engine", "vector_search", "embedding.vector_search", len),
    ("fastinsight.engine", "granker", "rerank.granker", None),
    ("fastinsight.engine", "stex", "expand.stex", None),
    ("fastinsight.rerank", "build_propagation", "rerank.build_propagation", None),
    ("fastinsight.rerank", "fuse_latents", "rerank.fuse_latents", None),
    ("fastinsight.expand", "frontier", "graph.frontier", len),
    ("fastinsight.metrics", "topological_recall", "metrics.topological_recall", None),
    ("fastinsight.metrics", "seed_path_costs", "metrics.seed_path_costs", len),
)

MODULE_SPANS = tuple(name for _, _, name, _ in MODULE_TARGETS)

# (method, span name, count taken from the result)
ENCODE_QUERY = ("encode_query", "embedding.encode_query", None)
ENCODE_NODE = ("encode_node", "embedding.encode_node", None)
RERANKER_TARGETS: Tuple[Tuple[str, str, Counter], ...] = (
    ("extract_latents", "rerank.extract_latents", len),
    ("head_scores", "rerank.head", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "count")

    def __init__(self, name: str, start: float, parent: int, qid: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.qid = qid
        self.count = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.qid: Optional[str] = None
        self._stack: List[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.qid)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, fn: Callable, name: str, counter: Counter) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(s)
            if counter is not None:
                s.count = counter(out)
            return out

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "qid": s.qid, "count": s.count}))
                fh.write("\n")


class Patches:
    """Wrappers that can be installed and removed as a group."""

    def __init__(self, missing: Set[str]) -> None:
        self._saved: List[Tuple[object, str, object, bool]] = []
        self.missing = missing  # span names whose target was not found

    def module(self, rec: Recorder) -> "Patches":
        for mod_name, attr, name, counter in MODULE_TARGETS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.missing.add(name)
                continue
            self._patch(mod, attr, name, rec, counter, own=False)
        return self

    def instance(self, rec: Recorder, obj: object, targets) -> "Patches":
        for attr, name, counter in targets:
            self._patch(obj, attr, name, rec, counter, own=True)
        return self

    def _patch(self, obj, attr, name, rec, counter, own) -> None:
        fn = getattr(obj, attr, None)
        if not callable(fn):
            self.missing.add(name)
            return
        had = own and attr in vars(obj)
        self._saved.append((obj, attr, fn, own and not had))
        setattr(obj, attr, rec.wrap(fn, name, counter))

    def remove(self) -> None:
        for obj, attr, fn, drop in reversed(self._saved):
            if drop:
                delattr(obj, attr)
            else:
                setattr(obj, attr, fn)
        self._saved.clear()


def summarize(spans: List[Span], keep: Callable[[Span], bool]
              ) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int], Dict[str, float]]:
    """Per span name, over the spans ``keep`` accepts: total seconds, number
    of spans, summed counts, and total self seconds (duration minus the time
    covered by direct children)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    self_seconds: Dict[str, float] = {}
    for i, s in enumerate(spans):
        if not keep(s):
            continue
        seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
        counts[s.name] = counts.get(s.name, 0) + s.count
        self_seconds[s.name] = self_seconds.get(s.name, 0.0) + s.seconds - child[i]
    return seconds, calls, counts, self_seconds
