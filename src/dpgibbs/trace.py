"""Per-iteration trace records shared by the centralized and distributed runs.

A trace holds the records alone; the CLI writes a run's settings to its
manifest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


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
