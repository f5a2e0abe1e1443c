"""Per-iteration trace records, and ``run_iterations``, the loop that both
the centralized and the distributed run drive with a step of their own.

A trace holds the records alone; the CLI writes a run's settings to its
manifest.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics
from .errors import NumericalDegeneracyError


@dataclass
class IterationRecord:
    iteration: int
    log_joint: float
    num_clusters: int
    seconds: float
    ari: float | None = None


@dataclass
class RunTrace:
    """The sequence of a run's per-iteration records."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    @property
    def log_joints(self):
        return np.array([r.log_joint for r in self.records])

    @property
    def num_clusters(self):
        return np.array([r.num_clusters for r in self.records], dtype=np.int64)

    @property
    def aris(self):
        return [r.ari for r in self.records]

    def to_payload(self):
        """JSON-ready array of per-iteration records."""
        return [asdict(r) for r in self.records]


def run_iterations(iterations, truth, step):
    """Run ``step(t)`` for t = 1..iterations; returns (the last step's labels, RunTrace).

    A step returns (labels or None, log p(x, z), cluster count).  Each
    record's seconds cover its step, the log joint included.  When ``truth``
    is given, the ARI of the step's labels against it is scored after the
    seconds are taken.  A NumericalDegeneracyError raised by a step is given
    the iteration's number.
    """
    trace = RunTrace()
    for t in range(1, iterations + 1):
        started = time.perf_counter()
        try:
            labels, log_joint, num_clusters = step(t)
        except NumericalDegeneracyError as err:
            err.add_context(iteration=t)
            raise
        seconds = time.perf_counter() - started
        ari = None if truth is None else metrics.ari(labels, truth)
        trace.append(IterationRecord(t, log_joint, num_clusters, seconds, ari))
    return labels, trace
