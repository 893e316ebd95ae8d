"""Exception types shared across the package."""

from __future__ import annotations


class ThreadMotifsError(Exception):
    """Base class for all errors raised by this package."""


# The two errors below keep their constructor arguments as ``args`` and build
# the text in ``__str__``, so they survive a pickle round trip.


class CorpusParseError(ThreadMotifsError):
    """A corpus line could not be parsed into a thread."""

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)
        self.line_no = line_no

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.args[1]}"


class ThreadValidationError(ThreadMotifsError):
    """A parsed thread violates the thread-tree invariants.

    ``line_no`` is the corpus line the thread came from, when it came from one.
    """

    def __init__(self, thread_id: str, message: str, line_no: int | None = None):
        super().__init__(thread_id, message, line_no)
        self.thread_id = thread_id
        self.line_no = line_no

    def __str__(self) -> str:
        where = "" if self.line_no is None else f"line {self.line_no}: "
        return f"{where}thread {self.thread_id!r}: {self.args[1]}"


class UndefinedMetricError(ThreadMotifsError):
    """The requested metric has no defined value for the given input."""


class InvalidLifetimeError(ThreadMotifsError):
    """Lifetime bounds are inverted (end before start)."""

