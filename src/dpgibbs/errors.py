"""Exception types shared across the package."""

from __future__ import annotations


class NumericalDegeneracyError(RuntimeError):
    """A posterior scale matrix lost positive definiteness.

    Carries an estimate of the offending matrix's minimum eigenvalue and a
    context dict that callers along the propagation path extend with their
    coordinates (point index, worker id, batch key, iteration number).
    """

    def __init__(self, message, min_eigenvalue=None, context=None):
        super().__init__(message)
        self.message = message
        self.min_eigenvalue = min_eigenvalue
        self.context = dict(context) if context else {}

    def add_context(self, **fields):
        """Attach coordinates without overwriting ones set deeper in the stack."""
        for key, value in fields.items():
            self.context.setdefault(key, value)
        return self

    def __str__(self):
        parts = [self.message]
        if self.min_eigenvalue is not None:
            parts.append("min eigenvalue estimate %.3e" % self.min_eigenvalue)
        if self.context:
            ctx = ", ".join("%s=%r" % kv for kv in sorted(self.context.items()))
            parts.append("(%s)" % ctx)
        return " ".join(parts)


class WorkerLostError(ConnectionError):
    """A worker's channel closed before it replied (an OSError: I/O error)."""

    def __init__(self, worker_id, iteration):
        super().__init__(
            "worker %d exited at iteration %d without replying" % (worker_id, iteration)
        )
        self.worker_id = worker_id
        self.iteration = iteration


class DatasetError(ValueError):
    """Malformed dataset or label file. ``line`` is 1-based when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "%s (line %d)" % (message, line)
        super().__init__(message)
        self.line = line
