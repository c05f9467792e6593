"""Error taxonomy. The CLI maps each class to a distinct exit code."""
from __future__ import annotations


class TopoawareError(Exception):
    """Base class for all library errors."""


class ArgumentError(TopoawareError, ValueError):
    """Invalid argument to a library operation (CLI: usage error)."""


class EmptyGraphError(ArgumentError):
    """Graph construction received no edges at all."""


class BoundsError(ArgumentError):
    """Vertex id outside 0..n-1."""


class SizeGuardError(ArgumentError):
    """Instance exceeds a brute-force or verification size guard."""


class ParseError(TopoawareError, ValueError):
    """Malformed input data; carries a 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None, token: str | None = None):
        self.line_number = line_number
        self.token = token
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(prefix + message)


class CoverageError(TopoawareError, ValueError):
    """Required vertices are missing from a table (embeddings, labels, ...).

    `missing` holds dense ids when raised inside the library; the CLI
    translates them to external tokens before printing.
    """

    def __init__(self, message: str, missing: tuple = (), kind: str = "id"):
        self.missing = tuple(missing)
        self.kind = kind
        self.base_message = message
        if self.missing:
            shown = ", ".join(str(m) for m in self.missing[:10])
            more = "" if len(self.missing) <= 10 else f" (+{len(self.missing) - 10} more)"
            message = f"{message}: {shown}{more}"
        super().__init__(message)


class DegenerateEmbeddingError(TopoawareError, ValueError):
    """A distance ratio of zero (distinct graph positions share an
    embedding), or a distortion alpha beyond float64."""


class InternalInvariantError(TopoawareError, RuntimeError):
    """A should-be-impossible state; indicates a library bug."""
