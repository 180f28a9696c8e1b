"""Exception types shared across the package."""

from typing import Optional


class FastInsightError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(FastInsightError):
    """A dataset file line could not be parsed."""

    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}, line {line_no}: {message}")
        self.source = source
        self.line_no = line_no


class GraphValidationError(FastInsightError):
    """Loaded graph data violates a structural invariant."""


class UnknownNodeError(FastInsightError, KeyError):
    """A node key is not present in the graph or index."""

    def __init__(self, key: str):
        super().__init__(f"unknown node key: {key!r}")
        self.key = key


class DimensionMismatchError(FastInsightError):
    """Vector dimensions disagree between query, index, or cache."""


class CacheInvalidError(FastInsightError):
    """A persisted vector cache is unusable for the current configuration."""


class ConvergenceError(FastInsightError):
    """Iterative computation failed to converge within its iteration cap."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


class EncoderError(FastInsightError):
    """An embedder failed while encoding; carries the offending node key."""

    def __init__(self, key: str, cause: str):
        super().__init__(f"encoder failed for node {key!r}: {cause}")
        self.key = key


class RemoteEndpointError(FastInsightError):
    """A model endpoint answered with an HTTP error status or with a reply
    that is not HTTP; ``status`` is None for the latter."""

    def __init__(self, url: str, status: Optional[int], detail: str):
        super().__init__(f"{url}: {detail}")
        self.url = url
        self.status = status


class RerankerError(FastInsightError):
    """A reranker failed while scoring; carries the offending node key."""

    def __init__(self, key: str, cause: str):
        super().__init__(f"reranker failed for node {key!r}: {cause}")
        self.key = key
