"""Per-iteration trace records, and ``run_iterations``, the loop that both
the centralized and the distributed run drive with a step of their own.

A run's trace is its list of records alone; the CLI writes a run's settings
to its manifest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import metrics
from .errors import NumericalDegeneracyError


@dataclass
class IterationRecord:
    iteration: int
    log_joint: float
    num_clusters: int
    seconds: float
    ari: float | None = None


def run_iterations(iterations, truth, step):
    """Run ``step(t)`` for t = 1..iterations; returns (the last step's labels, records).

    ``records`` is a list with one IterationRecord per iteration.  A step
    returns (labels or None, log p(x, z), cluster count).  Each record's
    seconds cover its step, the log joint included.  When ``truth`` is given,
    the ARI of the step's labels against it is scored after the seconds are
    taken.  A NumericalDegeneracyError raised by a step is given the
    iteration's number.
    """
    records = []
    for t in range(1, iterations + 1):
        started = time.perf_counter()
        try:
            labels, log_joint, num_clusters = step(t)
        except NumericalDegeneracyError as err:
            err.add_context(iteration=t)
            raise
        seconds = time.perf_counter() - started
        ari = None if truth is None else metrics.ari(labels, truth)
        records.append(IterationRecord(t, log_joint, num_clusters, seconds, ari))
    return labels, records
