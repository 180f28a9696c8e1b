"""Ranked retrieval state: an ordered (key, score) list with O(1) rank lookup."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .errors import UnknownNodeError


class RankedList:
    """Immutable ordered sequence of (node-key, score) pairs.

    Ranks are 1-based: the first entry has rank 1. Keys must be unique.
    """

    __slots__ = ("_items", "_keys", "_rank")

    def __init__(self, items: Iterable[Tuple[str, float]]):
        pairs = tuple((str(k), float(s)) for k, s in items)
        rank = {}
        for i, (key, _) in enumerate(pairs):
            if key in rank:
                raise ValueError(f"duplicate key in ranked list: {key!r}")
            rank[key] = i + 1
        self._items = pairs
        self._keys = tuple(rank)
        self._rank = rank

    @staticmethod
    def from_scores(pairs: Iterable[Tuple[str, float]], k: int | None = None) -> "RankedList":
        """Order pairs by (score descending, key ascending), optionally truncated to k."""
        ordered = sorted(pairs, key=lambda p: (-p[1], p[0]))
        if k is not None:
            ordered = ordered[:k]
        return RankedList(ordered)

    def keys(self) -> Tuple[str, ...]:
        return self._keys

    def items(self) -> Tuple[Tuple[str, float], ...]:
        return self._items

    def rank(self, key: str) -> int:
        return self._rank[key]

    def score(self, key: str) -> float:
        return self._items[self._rank[key] - 1][1]

    def extend(self, items: Iterable[Tuple[str, float]]) -> "RankedList":
        """New list with items appended at the tail, preserving order."""
        return RankedList(self._items + tuple(items))

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: object) -> bool:
        return key in self._rank

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(self._items)

    def __getitem__(self, i: int) -> Tuple[str, float]:
        return self._items[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        head = ", ".join(f"{k}:{s:.4g}" for k, s in self._items[:5])
        tail = ", ..." if len(self._items) > 5 else ""
        return f"RankedList([{head}{tail}], n={len(self._items)})"


def key_rows(row_of: Mapping[str, int], keys: Sequence[str]) -> np.ndarray:
    """``row_of[key]`` of each key, in order, as an index array. A key that
    ``row_of`` lacks raises :class:`UnknownNodeError`."""
    try:
        return np.fromiter(map(row_of.__getitem__, keys), dtype=np.intp, count=len(keys))
    except KeyError as exc:
        raise UnknownNodeError(exc.args[0]) from None


def top_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the best ``k`` scores, ordered by (score descending, row
    ascending): the order of :meth:`RankedList.from_scores` when rows are in
    ascending key order. Returns every row, ranked, when k exceeds their
    number, and none when k < 1."""
    n = len(scores)
    k = min(k, n)
    if k < 1:
        return np.zeros(0, dtype=np.intp)
    # Every row that ties the k-th best score, then the exact order.
    rows = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    return rows[np.lexsort((rows, -scores[rows]))][:k]
