"""Ranked retrieval state: node ids over a key table, with a score each."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import UnknownNodeError


class RankedList:
    """Immutable ordered list of unique nodes: entry ``i`` (rank ``i + 1``) is
    node ``ids[i]`` of the key table ``names``, with score ``scores[i]``.
    Results are over a graph's ``node_keys`` or an index's ``keys``, both
    ascending; a list built from pairs is its own table. Keys are resolved
    once, on the first call to :meth:`keys`."""

    __slots__ = ("names", "ids", "scores", "_keys")

    def __init__(self, items: Iterable[Tuple[str, float]]):
        """A list of ``(key, score)`` pairs, in order; its keys are its own table."""
        table: Dict[str, float] = {}
        for key, score in items:
            key = str(key)
            if key in table:
                raise ValueError(f"key {key!r} is repeated in a ranked list")
            table[key] = float(score)
        self.names = self._keys = tuple(table)
        self.ids = np.arange(len(table))
        self.scores = np.fromiter(table.values(), dtype=np.float64, count=len(table))

    @classmethod
    def top(cls, names: Sequence[str], ids: np.ndarray, scores: np.ndarray,
            k: Optional[int] = None) -> "RankedList":
        """The best ``k`` of nodes ``ids`` (all by default) by the one rule for
        ranked results, (score descending, id ascending), NaN scores last:
        over an ascending table, (score descending, key ascending)."""
        n = len(ids)
        k = n if k is None else max(min(k, n), 0)
        at = np.arange(n)
        if 0 < k < n:  # every entry that ties the k-th best score, then the exact order
            best = np.where(np.isnan(scores), -np.inf, scores)  # NaN ranks last, as in the sort
            at = np.flatnonzero(best >= np.partition(best, n - k)[n - k])
        at = at[np.lexsort((ids[at], -scores[at]))][:k]
        return cls.of(names, ids[at], scores[at])

    @classmethod
    def of(cls, names: Sequence[str], ids: np.ndarray, scores: np.ndarray) -> "RankedList":
        """Nodes ``ids`` of the table ``names``, in that order, with ``scores``;
        the ids must be distinct."""
        out = cls.__new__(cls)
        out.names, out.ids, out.scores, out._keys = names, ids, scores, None
        return out

    def keys(self) -> Tuple[str, ...]:
        if self._keys is None:
            self._keys = tuple(map(self.names.__getitem__, self.ids.tolist()))
        return self._keys

    def items(self) -> Tuple[Tuple[str, float], ...]:
        return tuple(zip(self.keys(), self.scores.tolist()))

    def rank(self, key: str) -> int:
        return self.keys().index(key) + 1

    def score(self, key: str) -> float:
        return float(self.scores[self.keys().index(key)])

    def head(self, k: int) -> "RankedList":
        """The first ``k`` entries."""
        return self if len(self) <= k else RankedList.of(self.names, self.ids[:k], self.scores[:k])

    def concat(self, tail: "RankedList") -> "RankedList":
        """This list followed by ``tail``, a list of other nodes over the same key table."""
        return RankedList.of(self.names, np.concatenate([self.ids, tail.ids]),
                             np.concatenate([self.scores, tail.scores]))

    def extend(self, items: Iterable[Tuple[str, float]]) -> "RankedList":
        """New list with items appended at the tail, preserving order."""
        return RankedList(self.items() + tuple(items))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, key: object) -> bool:
        return key in self.keys()

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(self.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return self.items() == other.items()

    def __repr__(self) -> str:
        head = ", ".join(f"{k}:{s:.4g}" for k, s in self.head(5).items())
        tail = ", ..." if len(self) > 5 else ""
        return f"RankedList([{head}{tail}], n={len(self)})"


def key_rows(row_of: Mapping[str, int], keys: Sequence[str]) -> np.ndarray:
    """``row_of[key]`` of each key, in order, as an index array. A key that
    ``row_of`` lacks raises :class:`UnknownNodeError`."""
    try:
        return np.fromiter(map(row_of.__getitem__, keys), dtype=np.intp, count=len(keys))
    except KeyError as exc:
        raise UnknownNodeError(exc.args[0]) from None


def table_rows(table: Sequence[str], row_of: Mapping[str, int],
               names: Sequence[str], ids: np.ndarray) -> np.ndarray:
    """Rows in ``table`` (``row_of`` maps its keys to rows) of nodes ``ids`` of the
    key table ``names``: ``ids`` itself when ``names`` is ``table``, else by key."""
    if names is table:
        return ids
    return key_rows(row_of, tuple(map(names.__getitem__, ids.tolist())))
